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
from pathlib import Path

from .core import int_to_ip4
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


def _positive(kind, text: str):
    """`text` as a finite `kind` greater than 0; argparse exits 2 with a
    usage message on anything else."""
    value = kind(text)
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"not a positive number: {text!r}")
    return value


def _not_negative(kind, text: str):
    """`text` as a finite `kind` of 0 or more, refused as `_positive` does."""
    value = kind(text)
    if not 0 <= value < float("inf"):
        raise argparse.ArgumentTypeError(f"not a finite number >= 0: {text!r}")
    return value


def _positive_list(kind, text: str) -> list:
    """One or more comma-separated positive `kind` values."""
    values = [_positive(kind, x) for x in text.split(",") if x]
    if not values:
        raise argparse.ArgumentTypeError("needs one or more values")
    return values


def _int_list(text: str):
    return _positive_list(int, text)


def _float_list(text: str):
    return _positive_list(float, text)


def _duration(text: str):
    return _positive(float, text)


def _run_for(text: str):
    return _not_negative(float, text)


def _stub_count(text: str):
    return _not_negative(int, text)


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
    if not out:
        raise argparse.ArgumentTypeError("needs one or more values")
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
    p.add_argument("--modes", type=_mode_list, default=list(Mode))
    p.add_argument("--layer", choices=["l4", "l7"], default="l4")
    p.add_argument("--rate", type=_float_list, default=[1.0])
    p.add_argument("--connections", type=_int_list, default=[1])
    p.add_argument("--cores", type=_int_list, default=[2])
    p.add_argument("--duration", type=_duration, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("live", help="serve the configured proxy over TCP")
    p.add_argument("--config", required=True)
    p.add_argument("--listen", type=_host_port, default="127.0.0.1:0")
    p.add_argument("--duration", type=_run_for, default=0.0,
                   help="seconds to run; 0 = until interrupted")
    p.add_argument("--spawn-stubs", type=_stub_count, default=0,
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


def _read_config(path: str, report):
    """The config in the file `path`, or None once `report(what, exc)` has
    been told why not: it is not valid, or it cannot be read."""
    try:
        return load_config(Path(path))
    except ConfigError as exc:
        report("invalid config", exc)
    except OSError as exc:
        report("cannot read config", exc)
    return None


def _to_stderr(what: str, exc: Exception):
    print(f"{what}: {exc}", file=sys.stderr)


def cmd_validate(args) -> int:
    if _read_config(args.config, _to_stderr) is None:
        return EXIT_CONFIG
    print("config ok")
    return EXIT_OK


def _latency_summary(means: list) -> str:
    """A mode's mean latency over its sweep points' `mean_ns`, as `sim`
    and `report` both print it: a point that completed no request has no
    latency to average, so it is counted apart."""
    done = [m for m in means if m]
    mean = f"{sum(done) / len(done):.0f} ns" if done else "none"
    return (f"mean latency {mean} over {len(done)} points, "
            f"{len(means) - len(done)} completed none")


def cmd_sim(args) -> int:
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
        means = [r["mean_ns"] for r in rows if r["mode"] == mode.value]
        print(f"{mode.value}: {_latency_summary(means)}")
    if Mode.ENVOY in args.modes and Mode.FLATPROXY in args.modes:
        topo = Topology(n_cores=args.cores[0])
        conns = args.connections[0]
        fp = saturation_rps(Mode.FLATPROXY, args.layer, topo, conns)
        envoy = saturation_rps(Mode.ENVOY, args.layer, topo, conns)
        e_rows = [r for r in rows if r["mode"] == Mode.ENVOY.value]
        f_rows = [r for r in rows if r["mode"] == Mode.FLATPROXY.value]
        e_lat = sum(r["mean_ns"] for r in e_rows)
        f_lat = sum(r["mean_ns"] for r in f_rows)
        # a mode that completed no request has no latency to compare
        if not (e_lat and f_lat):
            print("headline: none, a mode completed no request")
            return EXIT_OK
        lat_red = 1 - f_lat / e_lat
        cpu_e = sum(r["cpu_cost_ns"] for r in e_rows)
        cpu_f = max(1.0, sum(r["cpu_cost_ns"] for r in f_rows))
        print(
            f"headline: latency reduction {lat_red:.1%}, "
            f"throughput ratio {fp / envoy:.1f}x (bytes and qps), "
            f"cpu ratio {cpu_e / cpu_f:.1f}x"
        )
    return EXIT_OK


def cmd_live(args) -> int:
    config = _read_config(args.config, _to_stderr)
    if config is None:
        return EXIT_CONFIG
    host, port = args.listen
    stubs = []
    try:
        endpoints = [e for c in config.clusters for e in c.endpoints]
        for i, ep in enumerate(endpoints[: args.spawn_stubs]):
            ip, ep_port = ep.address
            ep_host = int_to_ip4(ip)
            try:
                stub = EchoStub(f"stub-{i}", host=ep_host, port=ep_port)
            except OSError as exc:
                print(f"cannot start stub on {ep_host}:{ep_port}: {exc}",
                      file=sys.stderr)
                return EXIT_RUNTIME
            stubs.append(stub.start())
        try:
            proxy = LiveProxy(config, listen_host=host, listen_port=port)
        except OSError as exc:
            print(f"cannot bind {host}:{port}: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
        proxy.start()

        def on_hup(_sig, _frame):
            # a config that is not valid or cannot be read is logged, and
            # the running rules stay in place
            new = _read_config(
                args.config, lambda _what, exc: log.error("reload failed: %s", exc))
            if new is not None:
                proxy.reload(new)
                log.info("config reloaded")

        # installed before the pid file names this process to `reload`
        signal.signal(signal.SIGHUP, on_hup)
        pid_written = False
        try:
            if args.pid_file:
                try:
                    with open(args.pid_file, "w") as fh:
                        fh.write(str(os.getpid()))
                except OSError as exc:
                    print(f"cannot write pid file {args.pid_file}: {exc}",
                          file=sys.stderr)
                    return EXIT_RUNTIME
                pid_written = True
            print(f"listening on {proxy.listen_host}:{proxy.port}", flush=True)
            for name, lport in list(proxy.ports.items())[1:]:
                print(f"listener {name} on {proxy.listen_host}:{lport}", flush=True)
            if args.duration > 0:
                time.sleep(args.duration)
            else:
                while True:
                    time.sleep(1)
        except KeyboardInterrupt:
            pass
        finally:
            proxy.stop()
            if pid_written and os.path.exists(args.pid_file):
                os.unlink(args.pid_file)
    finally:
        for stub in stubs:
            stub.stop()
    snap = proxy.runtime.stats_snapshot()
    print(f"delivered: {snap['fast_path'].get('resp_egress', 0)}")
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
            means = [float(r["mean_ns"]) for r in mrows]
            rps = max(float(r["responses_per_s"]) for r in mrows)
            lines.append(f"{mode}: {_latency_summary(means)}, "
                         f"peak {rps:.0f} rsp/s")
    except (KeyError, TypeError, ValueError) as exc:
        what = f"no {exc} column" if isinstance(exc, KeyError) else exc
        print(f"not a sweep csv: {args.csv_in}: {what}", file=sys.stderr)
        return EXIT_RUNTIME
    return _write(args.out, "\n".join(lines) + "\n")


def cmd_reload(args) -> int:
    try:
        with open(args.pid_file) as fh:
            pid = int(fh.read().strip())
        # 0 and a negative pid signal a process group, -1 every process
        if pid <= 0:
            raise ValueError(f"not a process id: {pid}")
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
