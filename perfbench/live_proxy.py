"""Proxy process of the live_loopback workload.

Starts two `EchoStub`s and a `LiveProxy` in front of them, prints
`{"port": N}` once it accepts connections, and serves until a line (or
EOF) arrives on stdin.  It then prints one JSON line with its peak RSS,
the stubs' hit counts and, when started with `1`, its trace.  The load
generator runs in another process, so the two do not share a GIL.

Usage: python3 perfbench/live_proxy.py <trace 0|1>
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from memory import peak_rss_kib  # noqa: E402
from tracing import Tracer, install  # noqa: E402


def main() -> int:
    tracer = None
    if sys.argv[1:] == ["1"]:
        tracer = Tracer()
        install(tracer)
    from flatproxy.live import EchoStub, LiveProxy
    from flatproxy.slow_path import load_config

    stubs = [EchoStub(f"stub-{i}").start() for i in range(2)]
    text = (HERE / "mesh.yaml").read_text()
    for default_port, stub in zip((9001, 9002), stubs):
        text = text.replace(f"port: {default_port}", f"port: {stub.port}")
    proxy = LiveProxy(load_config(text), listen_port=0).start()
    print(json.dumps({"port": proxy.port}), flush=True)
    sys.stdin.readline()
    out = {
        "rss_kib": peak_rss_kib(),
        "hits": sorted(s.hits for s in stubs),
        "delivered": proxy.delivered,
    }
    if tracer is not None:
        out["trace"] = {
            "chain_execute_us": tracer.total_us("match_action.chain_execute"),
            "upstream_rtt_us": tracer.total_us("live.upstream_tx")
            + tracer.total_us("live.upstream_rx"),
            "dump": tracer.dump(),
        }
    proxy.stop()
    for s in stubs:
        s.stop()
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
