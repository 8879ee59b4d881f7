"""Command-line entry point.

Exit codes: 0 success, 1 runtime failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import csv
import logging
import os
import signal
import sys
import time

from .live import EchoStub, LiveProxy
from .sim import (
    Mode,
    Topology,
    compare_modes,
    rows_to_csv,
    saturation_rps,
)
from .slow_path import ConfigError, load_config

log = logging.getLogger("flatproxy")

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


def _setup_logging():
    level = os.environ.get("FLATPROXY_LOG", "error").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.ERROR),
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )


def _int_list(text: str):
    return [int(x) for x in text.split(",") if x]


def _float_list(text: str):
    return [float(x) for x in text.split(",") if x]


def _mode_list(text: str):
    out = []
    for name in text.split(","):
        name = name.strip().lower()
        if not name:
            continue
        try:
            out.append(Mode(name))
        except ValueError:
            raise argparse.ArgumentTypeError(f"unknown mode {name!r}")
    return out


def _host_port(text: str):
    """`host:port` as (host, port); by default 127.0.0.1 and 0 (any port)."""
    host, _, port = text.partition(":")
    port = port or "0"
    if not port.isdecimal() or int(port) > 0xFFFF:
        raise argparse.ArgumentTypeError(f"bad port in {text!r}")
    return host or "127.0.0.1", int(port)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="flatproxy")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a config file")
    p.add_argument("--config", required=True)

    p = sub.add_parser("sim", help="run the mode-comparison simulator")
    p.add_argument("--config", default=None)
    p.add_argument("--modes", type=_mode_list, default=list(Mode))
    p.add_argument("--layer", choices=["l4", "l7"], default="l4")
    p.add_argument("--rate", type=_float_list, default=[1.0])
    p.add_argument("--connections", type=_int_list, default=[1])
    p.add_argument("--cores", type=_int_list, default=[2])
    p.add_argument("--duration", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("live", help="serve the configured proxy over TCP")
    p.add_argument("--config", required=True)
    p.add_argument("--listen", type=_host_port, default="127.0.0.1:0")
    p.add_argument("--duration", type=float, default=0.0,
                   help="seconds to run; 0 = until interrupted")
    p.add_argument("--spawn-stubs", type=int, default=0,
                   help="spawn echo stubs on the configured endpoints")
    p.add_argument("--pid-file", default=None)

    p = sub.add_parser("report", help="summarize a sweep CSV")
    p.add_argument("csv_in")
    p.add_argument("--out", default=None)

    p = sub.add_parser("reload", help="signal a running live instance")
    p.add_argument("--pid-file", required=True)
    return parser


def _write(path, text: str) -> int:
    """Write `text` to the file `path`, or to stdout if there is none."""
    if not path:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"cannot write {path}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_validate(args) -> int:
    try:
        load_config(args.config)
    except ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print("config ok")
    return EXIT_OK


def cmd_sim(args) -> int:
    if args.config is not None:
        try:
            load_config(args.config)
        except ConfigError as exc:
            print(f"invalid config: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    for rate in args.rate:
        if rate <= 0:
            print("rates must be positive", file=sys.stderr)
            return EXIT_CONFIG
    rows = compare_modes(
        layer=args.layer,
        rates=args.rate,
        connections=args.connections,
        cores=args.cores,
        modes=args.modes,
        duration_s=args.duration,
        seed=args.seed,
    )
    if _write(args.out, rows_to_csv(rows)) != EXIT_OK:
        return EXIT_RUNTIME

    for mode in args.modes:
        mrows = [r for r in rows if r["mode"] == mode.value]
        mean = sum(r["mean_ns"] for r in mrows) / len(mrows)
        print(f"{mode.value}: mean latency {mean:.0f} ns over {len(mrows)} points")
    if Mode.ENVOY in args.modes and Mode.FLATPROXY in args.modes:
        topo = Topology(n_cores=args.cores[0])
        conns = args.connections[0]
        fp = saturation_rps(Mode.FLATPROXY, args.layer, topo, conns)
        envoy = saturation_rps(Mode.ENVOY, args.layer, topo, conns)
        e_rows = [r for r in rows if r["mode"] == Mode.ENVOY.value]
        f_rows = [r for r in rows if r["mode"] == Mode.FLATPROXY.value]
        lat_red = 1 - (
            sum(r["mean_ns"] for r in f_rows) / sum(r["mean_ns"] for r in e_rows)
        )
        cpu_e = sum(r["cpu_cost_ns"] for r in e_rows)
        cpu_f = max(1.0, sum(r["cpu_cost_ns"] for r in f_rows))
        print(
            f"headline: latency reduction {lat_red:.1%}, "
            f"throughput ratio {fp / envoy:.1f}x (bytes and qps), "
            f"cpu ratio {cpu_e / cpu_f:.1f}x"
        )
    return EXIT_OK


def cmd_live(args) -> int:
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    host, port = args.listen
    stubs = []
    if args.spawn_stubs:
        endpoints = [e for c in config.clusters for e in c.endpoints]
        for i, ep in enumerate(endpoints[: args.spawn_stubs]):
            from .core import int_to_ip4

            stub = EchoStub(
                f"stub-{i}", host=int_to_ip4(ep.address.dip), port=ep.address.dport
            ).start()
            stubs.append(stub)
    try:
        proxy = LiveProxy(config, listen_host=host, listen_port=port)
    except OSError as exc:
        print(f"cannot bind {host}:{port}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    proxy.start()
    print(f"listening on {proxy.listen_host}:{proxy.port}", flush=True)

    if args.pid_file:
        with open(args.pid_file, "w") as fh:
            fh.write(str(os.getpid()))

    def on_hup(_sig, _frame):
        try:
            proxy.reload(load_config(args.config))
            log.info("config reloaded")
        except ConfigError as exc:
            log.error("reload failed: %s", exc)

    signal.signal(signal.SIGHUP, on_hup)

    try:
        if args.duration > 0:
            time.sleep(args.duration)
        else:
            while True:
                time.sleep(1)
    except KeyboardInterrupt:
        pass
    finally:
        proxy.stop()
        for stub in stubs:
            stub.stop()
        if args.pid_file and os.path.exists(args.pid_file):
            os.unlink(args.pid_file)
    snap = proxy.stats()
    print(f"delivered: {snap['live_delivered']}")
    for ep, n in sorted(snap["endpoint_assignments"].items()):
        print(f"endpoint {ep}: {n} connections")
    return EXIT_OK


def cmd_report(args) -> int:
    try:
        with open(args.csv_in) as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        print(f"cannot read {args.csv_in}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    if not rows:
        print("empty csv", file=sys.stderr)
        return EXIT_RUNTIME
    lines = []
    by_mode = {}
    try:
        for row in rows:
            by_mode.setdefault(row["mode"], []).append(row)
        for mode, mrows in by_mode.items():
            mean = sum(float(r["mean_ns"]) for r in mrows) / len(mrows)
            rps = max(float(r["responses_per_s"]) for r in mrows)
            lines.append(
                f"{mode}: {len(mrows)} points, mean latency {mean:.0f} ns, "
                f"peak {rps:.0f} rsp/s"
            )
    except (KeyError, TypeError, ValueError) as exc:
        what = f"no {exc} column" if isinstance(exc, KeyError) else exc
        print(f"not a sweep csv: {args.csv_in}: {what}", file=sys.stderr)
        return EXIT_RUNTIME
    return _write(args.out, "\n".join(lines) + "\n")


def cmd_reload(args) -> int:
    try:
        with open(args.pid_file) as fh:
            pid = int(fh.read().strip())
        os.kill(pid, signal.SIGHUP)
    except (OSError, ValueError) as exc:
        print(f"reload failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


_COMMANDS = {
    "validate": cmd_validate,
    "sim": cmd_sim,
    "live": cmd_live,
    "report": cmd_report,
    "reload": cmd_reload,
}


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
