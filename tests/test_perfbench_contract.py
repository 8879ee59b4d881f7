"""The program interface perfbench drives, checked without timing anything.

perfbench calls `MeshRuntime`, `FastPath.ingress`, `results()`,
`shutdown()` and the queue and stub maps, and patches names in every
flatproxy module when it traces.  This runs one traced round of each gated
in-process workload and the first-swap probe, in a subprocess because
tracing patches classes for the life of the process.
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

tracer = Tracer()
install(tracer)
rounds = {}
for name in ("small_keepalive", "bulk_segmented"):
    rnd = inproc.GENERATORS[name](random.Random(1))
    inproc.drive_round(rnd, tracer)
    c = rnd.check
    rounds[name] = {"correct": c.correct, "failed": c.failed,
                    "delivered": c.delivered}
print(json.dumps({
    "rounds": rounds,
    "probe": inproc.first_swap_probe(random.Random(1)),
    "calls": {n: tracer.calls(n) for n in
              ("fast_path.ingress", "match_action.chain_execute")},
}))
"""


def test_perfbench_drives_the_program():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    for name, r in out["rounds"].items():
        assert r["correct"] and r["failed"] == 0 and r["delivered"] > 0, name
    assert out["probe"]["correct"]
    assert out["probe"]["lost_flows"] == 0
    assert all(n > 0 for n in out["calls"].values()), out["calls"]
