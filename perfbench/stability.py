"""Run one workload over several seeds and report each end-to-end metric's
median and spread (inter-quartile distance over the median), against the
bound BENCHMARK.json sets for it.

Usage (from the repository root):

    python3 perfbench/stability.py --workload conn_churn --seeds 1-10

Runs are sequential; each is `run.py --trace 0` with the `run_seconds`
of BENCHMARK.json unless `--seconds` is given.
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


def seed_list(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args()

    values: dict[str, list] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=180,
        )
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        summary = next((ln for ln in lines if ln.startswith(f"# {args.workload} ")), "")
        print(f"seed {seed}: exit={proc.returncode} correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"{summary[2:]}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        share = spread / bounds[name]
        if name != "setup_s":
            worst = max(worst, share)
        print(f"{name:22s} median {med:14.4f}  spread {spread:7.2%}  "
              f"bound {bounds[name]:.0%}  spread/bound {share:5.2f}  "
              f"values {' '.join(f'{v:.4g}' for v in vals)}")
    print(f"largest spread/bound (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
