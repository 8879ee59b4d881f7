"""The program interface perfbench drives, checked without timing anything.

perfbench calls `MeshRuntime`, `FastPath.ingress`, `results()`,
`shutdown()` and the queue and stub maps, and `sim.compare_modes`, and
patches names in every flatproxy module when it traces.  This runs one
traced round of each gated in-process workload and of `conn_churn`, the
first-swap probe and traced simulator sweeps, each in a subprocess because
tracing patches classes and modules for the life of the process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, random
import inproc
from tracing import Tracer, install

# each round builds one runtime; keep it to read its counters
runtimes = []
class Runtime(inproc.MeshRuntime):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        runtimes.append(self)
inproc.MeshRuntime = Runtime

tracer = Tracer()
install(tracer)
rounds = {}
SPANS = ("slow_path.handle", "slow_path.connect", "l7.load_balance",
         "fast_path.ingress", "fast_path.toe_deliver",
         "match_action.chain_execute", "l7.http_parse", "l7.filter_apply",
         "l7.route", "l7.http_deparse")
for name in ("small_keepalive", "bulk_segmented"):
    before = {n: tracer.calls(n) for n in SPANS}
    rnd = inproc.GENERATORS[name](random.Random(1))
    inproc.drive_round(rnd, tracer)
    c = rnd.check
    rounds[name] = {"correct": c.correct, "failed": c.failed,
                    "delivered": c.delivered,
                    "no_listener": runtimes[-1].fast_path.counters().get(
                        "dropped.no_listener", 0),
                    **{n: tracer.calls(n) - before[n] for n in SPANS}}
print(json.dumps({
    "rounds": rounds,
    "probe": inproc.first_swap_probe(random.Random(1)),
    "calls": {n: tracer.calls(n) for n in
              ("fast_path.ingress", "match_action.chain_execute")},
}))
"""


# seconds=0 runs the minimum of three sweeps; the tracer only sees run_sim
# if compare_modes resolves it through sim's module globals
SIM_SCRIPT = """
import json
import inproc
from tracing import Tracer, install

tracer = Tracer()
res = inproc.run_sim_sweep(1, 0.0, tracer)
print(json.dumps({
    "grid": len(inproc.sim_grid()),
    "sweeps": len(res["sweeps"]),
    "identical": res["identical"],
    "calls": {n: a.calls for n, a in tracer.agg.items()
              if n.startswith("sim.run_sim.")},
}))
"""


# conn_churn is the one workload that reloads the config and expires idle
# flows: one traced round drives both through the benchmark's hooks
CHURN_SCRIPT = """
import json, random
import inproc
from tracing import Tracer, install

tracer = Tracer()
install(tracer)
rnd = inproc.GENERATORS["conn_churn"](random.Random(1))
inproc.drive_round(rnd, tracer)
print(json.dumps({
    "correct": rnd.check.correct,
    "failed": rnd.check.failed,
    "calls": {n: tracer.calls(n) for n in
              ("slow_path.distribute", "slow_path.expire_idle")},
}))
"""


def run_script(script: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_perfbench_drives_the_program():
    out = run_script(SCRIPT)
    for name, r in out["rounds"].items():
        assert r["correct"] and r["failed"] == 0 and r["delivered"] > 0, name
    # each step of connection setup keeps the name the tracer patches, so
    # the per-layer setup metrics see every flow's: one call per flow
    for name, flows in (("small_keepalive", 64), ("bulk_segmented", 8)):
        r = out["rounds"][name]
        assert [r[n] for n in ("slow_path.handle", "slow_path.connect",
                               "l7.load_balance")] == [flows] * 3, (name, r)
    # the traced TOE span sees every frame a listener took, in-order or
    # not, so the per-layer `toe` metric covers them all
    for name, r in out["rounds"].items():
        assert r["fast_path.toe_deliver"] == (
            r["fast_path.ingress"] - r["no_listener"]) > 0, (name, r)
    assert out["probe"]["correct"]
    assert out["probe"]["lost_flows"] == 0
    assert all(n > 0 for n in out["calls"].values()), out["calls"]
    # each standard L7 step runs under the name the tracer wraps: every
    # message the chain saw was parsed, and the filter, router and
    # deparser each saw no more messages than the step before them
    r = out["rounds"]["small_keepalive"]
    assert r["l7.http_parse"] == r["match_action.chain_execute"] > 0, r
    assert r["l7.filter_apply"] >= r["l7.route"] >= r["l7.http_deparse"] > 0, r


def test_perfbench_traces_the_simulator_sweep():
    out = run_script(SIM_SCRIPT)
    assert out["identical"] and out["sweeps"] >= 2
    # 4 grid points x 4 modes: one run_sim call each per sweep
    assert out["grid"] == 4
    assert sum(out["calls"].values()) == 16 * out["sweeps"], out["calls"]
    # layers l4 and l7 share each mode's under and over span
    assert sorted(out["calls"]) == sorted(
        f"sim.run_sim.{m}.{load}" for m in ("envoy", "sockmap", "toe", "flatproxy")
        for load in ("under", "over"))
    assert set(out["calls"].values()) == {2 * out["sweeps"]}


def test_perfbench_drives_reload_and_expiry():
    out = run_script(CHURN_SCRIPT)
    assert out["correct"] and out["failed"] == 0
    assert all(n > 0 for n in out["calls"].values()), out["calls"]
