"""The simulator's outputs pinned to a fixture.

`sim_pinned.json` holds `capture()` as computed by the simulator at commit
198a592, whose event loop pushed every open-loop arrival onto its heap
before the run.  The fixture pins the order in which events are processed
(arrivals before completions at equal times, completions in insertion
order), the RNG draw order and every output value.  It was made from that
commit, not from later code: a change that alters it changes the
simulator's results, so do not regenerate it.
"""

import hashlib
import json
from pathlib import Path

from flatproxy.sim import (
    CostModel,
    Mode,
    Stage,
    StageKind,
    Topology,
    Workload,
    builtin_cost_models,
    capacity_rps,
    compare_modes,
    e2e_latency_reduction,
    rows_to_csv,
    run_sim,
)

FIXTURE = Path(__file__).with_name("sim_pinned.json")

MODELS = builtin_cost_models()
LAYERS = ("l4", "l7")
GRID_TOPO = Topology(n_cores=2, n_workers=8)
JITTER_TOPO = Topology(n_cores=2, n_workers=8, hops=2,
                       host_jitter_sigma=0.6, hw_jitter_sigma=0.15)

# one pipeline stage of 1,000 ns fed at 1e6 req/s: every arrival after the
# first lands exactly on the previous request's completion time
TIE_RATE = 1e6
TIE_ONE = CostModel(Mode.FLATPROXY, "l4", (
    Stage("tie", 1_000, StageKind.PIPELINE),
))
TIE_TWO = CostModel(Mode.FLATPROXY, "l4", (
    Stage("tie-a", 1_000, StageKind.PIPELINE),
    Stage("tie-b", 1_000, StageKind.PIPELINE),
))


def _caps(layer, topo):
    return [capacity_rps(m, MODELS[(m, layer)], topo) for m in Mode]


def _grid():
    """(layer, rate) at 70% of the lowest capacity and 2x the highest."""
    return [(layer, rate) for layer in LAYERS
            for rate in (0.7 * min(_caps(layer, GRID_TOPO)),
                         2.0 * max(_caps(layer, GRID_TOPO)))]


def _cases():
    """name -> (mode, cost model, workload, topology)."""
    cases = {}
    for layer in LAYERS:
        under = 0.7 * min(_caps(layer, GRID_TOPO))
        over = 2.0 * max(_caps(layer, GRID_TOPO))
        for mode in Mode:
            cost = MODELS[(mode, layer)]
            cases[f"open_under.{mode.value}.{layer}"] = (mode, cost, Workload(
                rate_qps=under, duration_s=0.01, seed=1), GRID_TOPO)
            cases[f"open_over.{mode.value}.{layer}"] = (mode, cost, Workload(
                rate_qps=over, duration_s=0.01, seed=1), GRID_TOPO)
            cases[f"depth8.{mode.value}.{layer}"] = (mode, cost, Workload(
                rate_qps=over, duration_s=0.005, seed=2),
                Topology(n_cores=2, n_workers=8, queue_depth=8))
        cases[f"conns64.envoy.{layer}"] = (Mode.ENVOY, MODELS[(Mode.ENVOY, layer)],
                                           Workload(rate_qps=under, n_connections=64,
                                                    duration_s=0.005), GRID_TOPO)
    envoy_cap = capacity_rps(Mode.ENVOY, MODELS[(Mode.ENVOY, "l7")], JITTER_TOPO)
    for mode in Mode:
        cost = MODELS[(mode, "l7")]
        for seed in (0, 3):
            cases[f"hops2_jitter.{mode.value}.seed{seed}"] = (mode, cost, Workload(
                rate_qps=0.95 * envoy_cap, duration_s=0.02, seed=seed), JITTER_TOPO)
        cases[f"hops2_jitter_over.{mode.value}"] = (mode, cost, Workload(
            rate_qps=2.0 * envoy_cap, duration_s=0.01, seed=5), JITTER_TOPO)
    for depth in (0, 1, 1024):
        tie = Workload(rate_qps=TIE_RATE, duration_s=0.001)
        cases[f"tie.one_stage.depth{depth}"] = (
            Mode.FLATPROXY, TIE_ONE, tie, Topology(queue_depth=depth))
        cases[f"tie.two_stage.depth{depth}"] = (
            Mode.FLATPROXY, TIE_TWO, tie, Topology(queue_depth=depth))
        cases[f"tie.two_stage_hops2.depth{depth}"] = (
            Mode.FLATPROXY, TIE_TWO, tie, Topology(queue_depth=depth, hops=2))
    return cases


def _metrics(m) -> dict:
    return {
        "delivered": m.delivered,
        "loss": m.loss,
        "cpu_cost_ns": m.cpu_cost_ns,
        "last_delivery_ns": m.last_delivery_ns,
        "stage_busy_ns": m.stage_busy_ns,
        "unstable": m.unstable,
        "histogram": {str(b): n for b, n in m.histogram.items()},
        "latencies_sha256": hashlib.sha256(repr(m.latencies).encode()).hexdigest(),
    }


def _csv() -> str:
    rows = []
    for seed in (0, 1):
        for layer, rate in _grid():
            rows += compare_modes(layer=layer, rates=(rate,), connections=(1,),
                                  cores=(2,), duration_s=0.01, seed=seed)
    rows += compare_modes(layer="l7", rates=(20_000.0,), connections=(1, 64),
                          cores=(1, 2), duration_s=0.005, seed=4)
    for cost in (TIE_ONE, TIE_TWO):
        rows += compare_modes(layer="l4", rates=(TIE_RATE,), modes=(Mode.FLATPROXY,),
                              models={(Mode.FLATPROXY, "l4"): cost},
                              duration_s=0.001)
    return rows_to_csv(rows)


def capture() -> dict:
    return {
        "compare_modes_csv": _csv(),
        "e2e_latency_reduction": e2e_latency_reduction(seed=0),
        "cases": {name: _metrics(run_sim(*case)) for name, case in _cases().items()},
    }


def test_simulator_matches_pinned_fixture():
    want = json.loads(FIXTURE.read_text())
    got = json.loads(json.dumps(capture()))
    assert got["compare_modes_csv"] == want["compare_modes_csv"]
    assert got["e2e_latency_reduction"] == want["e2e_latency_reduction"]
    assert set(got["cases"]) == set(want["cases"])
    for name in want["cases"]:
        assert got["cases"][name] == want["cases"][name], name


def test_tie_goes_to_the_arrival():
    """At queue depth 0 the order at a tie decides: the arrival that lands
    on a completion finds the server still busy and is lost, so every
    other request of the one-stage case is dropped.  With room for one
    waiting request nothing is lost."""
    tie = Workload(rate_qps=TIE_RATE, duration_s=0.001)
    m = run_sim(Mode.FLATPROXY, TIE_ONE, tie, Topology(queue_depth=0))
    assert (m.delivered, m.loss) == (500, 500)
    m = run_sim(Mode.FLATPROXY, TIE_ONE, tie, Topology(queue_depth=1))
    assert (m.delivered, m.loss) == (1000, 0)
    assert set(m.latencies) == {1_000.0}
