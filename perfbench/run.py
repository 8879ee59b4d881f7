"""flatproxy benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload small_keepalive --seed 1 --seconds 15 --trace 0

Prints every end-to-end metric by name with its unit (`--trace 0`), or
every per-layer metric from a run with spans around each layer
(`--trace 1`), then, as the last line, one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A traced run also
writes its spans and its end-to-end metrics, measured with tracing on,
to `.perfbench_out/` (see overhead.py).  Workloads and metrics are
described in perfbench/README.md.

Exits 2 without a result when the flatproxy sources are not next to the
benchmark, and 1 when an output check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from livegen import pct

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("small_keepalive", "bulk_segmented", "conn_churn", "live_loopback",
             "sim_sweep")
INPROC = WORKLOADS[:3]
PPM_IDS = ("vswitch", "l3", "toe", "http_parser", "filter", "router",
           "http_deparser")
SIM_MODES = ("envoy", "sockmap", "toe", "flatproxy")
SIM_REQUEST_BYTES = 1024  # compare_modes' default request_size


def _import_flatproxy():
    """Import flatproxy from this checkout's sources, never an installed copy."""
    if not (SRC / "flatproxy" / "__init__.py").is_file():
        print(f"perfbench: no flatproxy sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(HERE)]
    import flatproxy

    if Path(flatproxy.__file__).resolve().parent != SRC / "flatproxy":
        print(f"perfbench: flatproxy imported from {flatproxy.__file__}",
              file=sys.stderr)
        sys.exit(2)


RSS_ROUNDS = 5


def peak_rss_mib(rounds) -> float:
    """Peak RSS once the warm-up and the first RSS_ROUNDS rounds ran: a
    fixed amount of work, so the figure does not grow with how many
    rounds a faster program fits into the run."""
    return rounds[min(RSS_ROUNDS, len(rounds)) - 1]["rss_kib"] / 1024


# ---------------------------------------------------------------------------
# end-to-end metrics.  Each workload has one unit of work: a message for the
# in-process workloads, a live request, a simulated arrival.  Metrics named
# after another workload's unit report this workload's unit of the same kind
# (README.md, "Every metric on every workload").  Rates and set-up times are
# medians over a run's rounds, so a burst of load from elsewhere on the
# machine moves a few rounds, not the figure.  CPU-bound figures of each
# round are first brought to the quiet machine speed by the round's
# slowdown (reference.py); the unadjusted medians go into the summary.

def _e2e(setup_s, rate, goodput_mib_s, p50_us, p99_us, max_rps, offered_rate,
         rss_mib):
    return {
        "setup_s": (setup_s, "s"),
        "msgs_per_s": (rate, "1/s"),
        "goodput_mib_s": (goodput_mib_s, "MiB/s"),
        "frame_p50_us": (p50_us, "us"),
        "frame_p99_us": (p99_us, "us"),
        "live_p50_ms": (p50_us / 1e3, "ms"),
        "live_p99_ms": (p99_us / 1e3, "ms"),
        "live_max_rps": (max_rps, "1/s"),
        "sim_requests_per_s": (offered_rate, "1/s"),
        "peak_rss_mib": (rss_mib, "MiB"),
    }


def _inproc_e2e(rounds, adjust: bool):
    med = statistics.median

    def k(r):
        return r["slowdown"] if adjust else 1.0

    rate = med(r["delivered"] / r["wall_s"] * k(r) for r in rounds)
    # percentiles per round, median over the rounds: every round does the
    # same work, so a tail the program causes shows in every round, a burst
    # of load from elsewhere on the machine only in a few.  A round has
    # 2,200 to 3,000 samples, so p99 leaves 22 or more beyond it.
    lat = [(sorted(r["sample_ns"]), k(r)) for r in rounds]
    return _e2e(
        setup_s=med(r["setup_s"] / k(r) for r in rounds),
        rate=rate,
        goodput_mib_s=med(r["delivered_bytes"] / r["wall_s"] * k(r) for r in rounds) / 2**20,
        p50_us=med(pct(ns, 50) / f for ns, f in lat) / 1e3,
        p99_us=med(pct(ns, 99) / f for ns, f in lat) / 1e3,
        max_rps=rate,
        offered_rate=med(r["gauges"]["ingress_frames"] / r["wall_s"] * k(r) for r in rounds),
        rss_mib=peak_rss_mib(rounds),
    )


def _raw(e2e_raw, rounds) -> dict:
    return {"slowdown": statistics.median(r["slowdown"] for r in rounds),
            **{k: v for k, (v, _u) in e2e_raw.items()}}


def inproc_result(res):
    rounds = res["rounds"]
    e2e = _inproc_e2e(rounds, adjust=True)
    probe = res["first_swap"]
    summary = {
        "rounds": len(rounds),
        "latency_samples": sum(len(r["sample_ns"]) for r in rounds),
        "lost": sum(r["lost"] for r in rounds),
        "wrong": sum(r["wrong"] for r in rounds),
        "denied_leaked": sum(r["denied_leaked"] for r in rounds),
        "raw": _raw(_inproc_e2e(rounds, adjust=False), rounds),
    }
    if probe is not None:
        summary["first_swap_lost_flows"] = f"{probe['lost_flows']}/{probe['flows']}"
    correct = all(r["correct"] for r in rounds) and (probe is None or probe["correct"])
    return (correct, sum(r["attempted"] for r in rounds),
            sum(r["failed"] for r in rounds), e2e, summary)


def live_result(res):
    from livegen import REQUEST_BYTES

    rounds = res["rounds"]
    ref = sorted(t for r in rounds for t in r["ref"]["latencies"])
    fine = [x["max_rps"] or 0.0 for r in rounds for x in r["ladders"] if not x["coarse"]]
    max_rps = statistics.median(fine)
    # every connection is pinned to one stub, the two connections to
    # different stubs (round robin), and the stubs saw what was answered
    split_ok = all(
        len(set(r["stubs"])) == len(r["stubs"]) and None not in r["stubs"]
        and r["proxy"].get("hits") == sorted(r["responses"])
        for r in rounds
    )
    correct = split_ok and all(r["wrong"] == 0 for r in rounds)
    e2e = _e2e(
        setup_s=statistics.median(r["setup_s"] for r in rounds),
        rate=max_rps,
        goodput_mib_s=max_rps * REQUEST_BYTES / 2**20,
        p50_us=pct(ref, 50) / 1e3,
        p99_us=pct(ref, 99) / 1e3,
        max_rps=max_rps,
        offered_rate=max_rps,
        rss_mib=statistics.median(r["proxy"]["rss_kib"] for r in rounds) / 1024,
    )
    steps = [s for r in rounds for x in r["ladders"] for s in x["steps"]]
    summary = {
        "proxies": len(rounds), "ref_samples": len(ref),
        "ladders": [round(x["max_rps"] or 0) for r in rounds for x in r["ladders"]],
        "split_round_robin": split_ok,
    }
    attempted = sum(s["sent"] for s in steps) + sum(r["ref"]["sent"] for r in rounds)
    return (correct, attempted, sum(r["failed"] for r in rounds), e2e, summary)


def _sim_e2e(sweeps, adjust: bool):
    def k(s):
        return s["slowdown"] if adjust else 1.0

    # each of the 16 grid points' median over sweeps, then percentiles over
    # the points; with 16 points, p99 is the slowest point
    points = sorted(statistics.median(c) for c in zip(
        *([ns / k(s) for ns in s["per_arrival_ns"]] for s in sweeps)))
    rate = statistics.median(s["arrivals"] / s["wall_s"] * k(s) for s in sweeps)
    return _e2e(
        setup_s=statistics.median(s["setup_s"] / k(s) for s in sweeps),
        rate=rate,
        goodput_mib_s=rate * SIM_REQUEST_BYTES / 2**20,
        p50_us=pct(points, 50) / 1e3,
        p99_us=pct(points, 99) / 1e3,
        max_rps=rate,
        offered_rate=rate,
        rss_mib=peak_rss_mib(sweeps),
    )


def sim_result(res):
    sweeps = res["sweeps"]
    calls = sum(len(s["per_arrival_ns"]) for s in sweeps)
    summary = {"sweeps": len(sweeps), "run_sim_calls": calls,
               "rows_identical": res["identical"],
               "raw": _raw(_sim_e2e(sweeps, adjust=False), sweeps)}
    e2e = _sim_e2e(sweeps, adjust=True)
    return res["identical"], calls, 0 if res["identical"] else calls, e2e, summary


# ---------------------------------------------------------------------------
# per-layer metrics, from the spans and counts of a traced run

def per_layer(tr, workload, res) -> dict:
    inproc = workload in INPROC
    rounds = res.get("rounds") or res.get("sweeps")
    n_rounds = len(rounds)
    med = statistics.median

    def gauge(name):
        return med(r["gauges"][name] for r in rounds) if inproc else 0

    frames = sum(r["gauges"]["ingress_frames"] for r in rounds) if inproc else 0
    deliver = tr.counts.get("toe.deliver", 0)
    chain_calls = tr.calls("match_action.chain_execute")
    publishes = tr.calls("match_action.publish")
    m = {
        "fast_path.ingress_self_us": (tr.self_us("fast_path.ingress"), "us"),
        "fast_path.toe_deliver_us": (tr.self_us("fast_path.toe_deliver"), "us"),
        "fast_path.toe_buffered_frac": (
            tr.counts.get("toe.buffered", 0) / deliver if deliver else 0.0, "ratio"),
    }
    for d in ("l7", "vq", "slow_path", "dropped", "buffered"):
        m[f"fast_path.disp.{d}"] = (tr.counts.get(f"disp.{d}", 0) / n_rounds, "count")
    m["fast_path.results_held"] = (gauge("results_held"), "count")
    probe = res.get("first_swap")
    m["fast_path.first_swap_lost_frac"] = (
        probe["lost_flows"] / probe["flows"] if probe else 0.0, "ratio")
    m["match_action.chain_execute_us"] = (tr.total_us("match_action.chain_execute"), "us")
    m["match_action.engine_self_us"] = (
        tr.engine_self_ns / chain_calls / 1e3 if chain_calls else 0.0, "us")
    for pid in PPM_IDS:
        m[f"match_action.ppm_apply_us.{pid}"] = (
            tr.total_us(f"match_action.ppm_apply.{pid}"), "us")
    m["match_action.publish_us"] = (tr.total_us("match_action.publish"), "us")
    m["match_action.publish_entries"] = (
        tr.counts.get("publish.entries", 0) / publishes if publishes else 0.0, "count")
    for fn in ("http_parse", "filter_apply", "route", "load_balance", "http_deparse"):
        m[f"l7.{fn}_us"] = (tr.self_us(f"l7.{fn}"), "us")
    m["slow_path.handle_us"] = (tr.self_us("slow_path.handle"), "us")
    m["slow_path.handoffs_per_frame"] = (
        tr.calls("slow_path.handle") / frames if frames else 0.0, "1/frame")
    m["slow_path.connect_us"] = (tr.total_us("slow_path.connect"), "us")
    m["slow_path.expire_idle_us"] = (tr.total_us("slow_path.expire_idle"), "us")
    m["slow_path.distribute_us"] = (tr.total_us("slow_path.distribute"), "us")
    m["slow_path.conns_held"] = (gauge("conns_held"), "count")
    m["vq.tx_deliver_us"] = (tr.self_us("vq.tx_deliver"), "us")
    m["vq.stub_fetch_us"] = (tr.self_us("vq.stub_fetch"), "us")
    m["vq.tx_ring_max_occupancy"] = (tr.maxima.get("vq.tx_ring_occupancy", 0), "count")
    m["vq.queues_held"] = (gauge("queues_held"), "count")
    m["core.buffers_held"] = (gauge("buffers_held"), "count")
    lag = [t for r in rounds for s in [r["ref"]] + [s for x in r["ladders"] for s in x["steps"]]
           for t in s["lag"]] if workload == "live_loopback" else []
    m["live.chain_execute_us"] = (
        tr.total_us("match_action.chain_execute") if lag else 0.0, "us")
    m["live.upstream_rtt_us"] = (
        tr.total_us("live.upstream_tx") + tr.total_us("live.upstream_rx"), "us")
    m["live.generator_lag_p99_us"] = (pct(sorted(lag), 99) / 1e3 if lag else 0.0, "us")
    for mode in SIM_MODES:
        for load in ("under", "over"):
            m[f"sim.run_sim_s.{mode}.{load}"] = (
                tr.total_us(f"sim.run_sim.{mode}.{load}") / 1e6, "s")
    return m


# ---------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool):
    from tracing import Tracer

    tracer = Tracer() if trace else None
    if workload in INPROC:
        from inproc import run_inprocess

        res = run_inprocess(workload, seed, seconds, tracer)
        out = inproc_result(res)
    elif workload == "sim_sweep":
        from inproc import run_sim_sweep

        res = run_sim_sweep(seed, seconds, tracer)
        out = sim_result(res)
    else:
        from livegen import run_live

        res = run_live(seed, seconds, trace)
        if tracer is not None:
            for r in res["rounds"]:
                tracer.merge(r["proxy"]["trace"]["dump"])
        out = live_result(res)
    return res, tracer, out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _import_flatproxy()

    res, tracer, (correct, attempted, failed, e2e, summary) = run(
        args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = e2e
    if tracer is not None:
        metrics = per_layer(tracer, args.workload, res)
        OUT_DIR.mkdir(exist_ok=True)
        dumps = [r["proxy"]["trace"]["dump"] for r in res["rounds"]] \
            if args.workload == "live_loopback" else [tracer.dump()]
        doc = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "e2e_traced": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
            "summary": summary, "traces": dumps,
        }
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(doc))
        print(f"# spans written to {path.relative_to(ROOT)}")

    raw = summary.pop("raw", None)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in summary.items()))
    if raw is not None:
        print("# raw: " + " ".join(f"{k}={v:.6g}" for k, v in raw.items()))
        summary["raw"] = raw
    print(f"# attempted={attempted} failed={failed} correct={correct}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.4f} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
