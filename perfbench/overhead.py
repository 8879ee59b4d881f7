"""Tracing overhead: each end-to-end metric untraced, traced, and the change.

Usage (from the repository root):

    python3 perfbench/overhead.py --workload all --seed 1 --seconds 15

For each workload this runs `run.py --trace 0` and `run.py --trace 1`,
alternately, `--repeats` times each, and compares the medians.  A traced
run's end-to-end metrics (measured with the spans on) come from the trace
file it writes.  A positive change is a loss under tracing, whatever the
direction of the metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import OUT_DIR, WORKLOADS  # noqa: E402


def _run(workload, seed, seconds, trace) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()

    report = {}
    for w in WORKLOADS if args.workload == "all" else (args.workload,):
        plain, traced = {}, {}
        for _ in range(args.repeats):
            for name, m in _run(w, args.seed, args.seconds, 0)["metrics"].items():
                plain.setdefault(name, []).append(m["value"])
            _run(w, args.seed, args.seconds, 1)
            trace_file = OUT_DIR / f"trace-{w}-seed{args.seed}.json"
            for name, m in json.loads(trace_file.read_text())["e2e_traced"].items():
                traced.setdefault(name, []).append(m["value"])
        rows = report[w] = {}
        print(f"{w} (seed {args.seed})")
        for name, values in plain.items():
            u, t = statistics.median(values), statistics.median(traced[name])
            loss = (t - u) / u if better[name] == "lower" else (u - t) / u
            rows[name] = {"untraced": values, "traced": traced[name], "loss": loss}
            print(f"  {name:20s} {u:14.4f} {t:14.4f} {loss:+8.1%}")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"overhead-seed{args.seed}.json").write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
