import math
import threading

import pytest

from flatproxy.sim import (
    CSV_COLUMNS,
    Metrics,
    Mode,
    StageKind,
    Topology,
    Workload,
    builtin_cost_models,
    capacity_rps,
    compare_modes,
    e2e_latency_reduction,
    host_conn_factor,
    rows_to_csv,
    run_sim,
    saturation_rps,
)


MODELS = builtin_cost_models()


def single_request(mode, layer, topo=Topology(), seed=0):
    wl = Workload(pattern="open", rate_qps=10.0, duration_s=0.1, seed=seed)
    return run_sim(mode, MODELS[(mode, layer)], wl, topo)


# -- cost model composition --------------------------------------------------

def test_all_eight_models_present():
    assert set(MODELS) == {(m, l) for m in Mode for l in ("l4", "l7")}


# totals the stage breakdowns must recover exactly (ns)
TOTALS = {
    (Mode.ENVOY, "l4"): 22_000,
    (Mode.FLATPROXY, "l4"): 7_600,
    (Mode.ENVOY, "l7"): 62_500,
    (Mode.FLATPROXY, "l7"): 17_600,
}


@pytest.mark.parametrize("key", sorted(TOTALS, key=str))
def test_stage_sums_recover_totals(key):
    assert MODELS[key].total_ns == TOTALS[key]


def test_l4_stage_breakdown_values():
    stages = {s.name: s.service_ns for s in MODELS[(Mode.FLATPROXY, "l4")].stages}
    assert stages == {
        "OVS": 1976, "TOE": 76, "match-action": 5016, "VQ->service": 532,
    }
    assert all(
        s.kind is StageKind.PIPELINE for s in MODELS[(Mode.FLATPROXY, "l4")].stages
    )


def test_l7_flatproxy_breakdown_values():
    stages = {s.name: s.service_ns for s in MODELS[(Mode.FLATPROXY, "l7")].stages}
    assert stages == {
        "OVS": 1936, "TOE": 176, "http parser": 4928, "match-action": 5104,
        "http deparser": 4928, "VQ->service": 528,
    }


def test_envoy_all_host_stages():
    for layer in ("l4", "l7"):
        assert all(
            s.kind is StageKind.HOST for s in MODELS[(Mode.ENVOY, layer)].stages
        )


def test_sockmap_is_envoy_with_cheap_loopback():
    for layer in ("l4", "l7"):
        e = {s.name: s.service_ns for s in MODELS[(Mode.ENVOY, layer)].stages}
        s = {st.name: st.service_ns for st in MODELS[(Mode.SOCKMAP, layer)].stages}
        assert s["loopback"] == round(e["loopback"] * 0.10)
        for name in e:
            if name != "loopback":
                assert s[name] == e[name]


def test_toe_mode_mixes_hw_and_host():
    kinds = {s.kind for s in MODELS[(Mode.TOE, "l4")].stages}
    assert kinds == {StageKind.PIPELINE, StageKind.HOST}


# -- single-request latency --------------------------------------------------

@pytest.mark.parametrize("key", sorted(TOTALS, key=str))
def test_unloaded_latency_equals_total(key):
    mode, layer = key
    m = single_request(mode, layer)
    assert m.delivered > 0
    assert m.mean_ns == pytest.approx(TOTALS[key], abs=1)
    assert m.p99_ns == pytest.approx(TOTALS[key], abs=1)
    assert m.jitter_ns == pytest.approx(0.0, abs=1e-6)


def test_jitter_sigma_preserves_mean():
    topo = Topology(host_jitter_sigma=0.5)
    wl = Workload(pattern="open", rate_qps=100.0, duration_s=1.0, seed=1)
    m = run_sim(Mode.ENVOY, MODELS[(Mode.ENVOY, "l4")], wl, topo)
    # mean-one multiplier: mean latency within a few percent of the base
    assert m.mean_ns == pytest.approx(22_000, rel=0.10)
    assert m.jitter_ns > 0


def test_histogram_matches_per_record_buckets():
    """`histogram` is computed when read; it gives the buckets, and their
    order of first appearance, that counting at each `record` gave."""
    below = [math.nextafter(2.0 ** k, 0.0) for k in (1, 2, 10, 40)]
    latencies = [0.0, 0.25, math.nextafter(1.0, 0.0), 1.0, 1.5, 2.0, 4.0,
                 1023.5, 1024.0, 2.0 ** 40, 22_000, 17_600.0, 0.5, 2.0, *below]
    per_record = {}
    m = Metrics()
    for ns in latencies:
        m.record(ns)
        bucket = max(0, int(math.log2(ns))) if ns >= 1 else 0
        per_record[bucket] = per_record.get(bucket, 0) + 1
    assert list(m.histogram.items()) == list(per_record.items())
    assert m.delivered == len(latencies)
    # below 1 ns is bucket 0 and a power of two starts its bucket; log2
    # rounds the float just below 2**10 (or 2**40) up into that bucket
    hist = m.histogram
    assert (hist[0], hist[1], hist[2], hist[9], hist[10], hist[40]) == (7, 3, 1, 1, 2, 2)
    assert Metrics().histogram == {}


# -- capacity and contention -------------------------------------------------

def test_host_conn_factor_shape():
    assert host_conn_factor(1, 0.015) == 1.0
    assert host_conn_factor(16, 0.015) == 1.0
    assert host_conn_factor(17, 0.015) == pytest.approx(1.015)
    assert host_conn_factor(64, 0.015) == pytest.approx(1.72)


def test_capacity_analytic_values():
    topo = Topology(n_cores=1)
    envoy = capacity_rps(Mode.ENVOY, MODELS[(Mode.ENVOY, "l4")], topo)
    assert envoy == pytest.approx(1e9 / 22_000)
    fp = capacity_rps(Mode.FLATPROXY, MODELS[(Mode.FLATPROXY, "l4")], topo)
    # pipeline bottleneck is the slowest stage, not the sum
    assert fp == pytest.approx(1e9 / 5016)


def test_capacity_scales_with_cores():
    one = capacity_rps(Mode.ENVOY, MODELS[(Mode.ENVOY, "l4")], Topology(n_cores=1))
    two = capacity_rps(Mode.ENVOY, MODELS[(Mode.ENVOY, "l4")], Topology(n_cores=2))
    assert two == pytest.approx(2 * one)


def test_measured_saturation_matches_analytic():
    topo = Topology(n_cores=1)
    measured = saturation_rps(Mode.ENVOY, "l4", topo)
    analytic = capacity_rps(Mode.ENVOY, MODELS[(Mode.ENVOY, "l4")], topo)
    assert measured == pytest.approx(analytic, rel=0.02)


def test_overload_marks_unstable():
    topo = Topology(n_cores=1)
    cap = capacity_rps(Mode.ENVOY, MODELS[(Mode.ENVOY, "l4")], topo)
    wl = Workload(pattern="open", rate_qps=2 * cap, duration_s=0.01)
    m = run_sim(Mode.ENVOY, MODELS[(Mode.ENVOY, "l4")], wl, topo)
    assert m.unstable
    wl2 = Workload(pattern="open", rate_qps=0.5 * cap, duration_s=0.01)
    assert not run_sim(Mode.ENVOY, MODELS[(Mode.ENVOY, "l4")], wl2, topo).unstable


def test_closed_loop_matches_capacity():
    topo = Topology(n_cores=1)
    wl = Workload(pattern="closed", concurrency=8, duration_s=0.02)
    m = run_sim(Mode.ENVOY, MODELS[(Mode.ENVOY, "l4")], wl, topo)
    analytic = capacity_rps(Mode.ENVOY, MODELS[(Mode.ENVOY, "l4")], topo)
    assert m.responses_per_s == pytest.approx(analytic, rel=0.05)


def test_cpu_cost_only_host_stages():
    wl = Workload(pattern="open", rate_qps=100, duration_s=0.1)
    fp = run_sim(Mode.FLATPROXY, MODELS[(Mode.FLATPROXY, "l4")], wl)
    # offload mode charges the host only for slow-path connection setup
    assert fp.cpu_cost_ns == Topology().slow_path_conn_ns * wl.n_connections
    envoy = run_sim(Mode.ENVOY, MODELS[(Mode.ENVOY, "l4")], wl)
    assert envoy.cpu_cost_ns == pytest.approx(envoy.delivered * 22_000, rel=0.01)


# -- sweeps and determinism --------------------------------------------------

def test_compare_modes_grid_shape():
    rows = compare_modes(layer="l4", rates=(100.0, 200.0), connections=(1, 4),
                         cores=(1,), duration_s=0.01)
    assert len(rows) == 2 * 2 * len(Mode)
    assert set(rows[0]) == set(CSV_COLUMNS)


def test_rows_to_csv_layout():
    rows = compare_modes(layer="l4", rates=(100.0,), duration_s=0.01)
    text = rows_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(rows)


def test_seeded_runs_byte_identical():
    kw = dict(layer="l7", rates=(500.0,), connections=(1, 8), cores=(1, 2),
              duration_s=0.02, seed=123)
    a = rows_to_csv(compare_modes(**kw))
    b = rows_to_csv(compare_modes(**kw))
    assert a == b


def test_different_seeds_differ_under_jitter():
    topo = Topology(host_jitter_sigma=0.4)
    wl1 = Workload(pattern="open", rate_qps=1000, duration_s=0.05, seed=1)
    wl2 = Workload(pattern="open", rate_qps=1000, duration_s=0.05, seed=2)
    m1 = run_sim(Mode.ENVOY, MODELS[(Mode.ENVOY, "l4")], wl1, topo)
    m2 = run_sim(Mode.ENVOY, MODELS[(Mode.ENVOY, "l4")], wl2, topo)
    assert m1.latencies != m2.latencies


def test_e2e_latency_reduction_band():
    r = e2e_latency_reduction(seed=0)
    assert 0.85 <= r <= 0.95


# -- functional run ----------------------------------------------------------

def test_run_functional_delivers_requests():
    from flatproxy.slow_path import MeshRuntime, load_config
    from flatproxy.sim import run_functional
    from conftest import config_text

    rt = MeshRuntime(config=load_config(config_text()))
    wl = Workload(pattern="open", rate_qps=100, duration_s=0.2, n_connections=4)
    metrics = run_functional(rt, wl)
    assert metrics.delivered == 20
    assert metrics.loss == 0
    assert metrics.mean_ns == pytest.approx(17_600, abs=1)
    rt.shutdown()


def test_run_functional_full_ring_counts_loss_instead_of_blocking():
    """Nothing drains the stub side, so one flow's TX ring fills after
    DEFAULT_RING_CAPACITY (256) messages; the rest are counted as lost."""
    from flatproxy.slow_path import MeshRuntime, load_config
    from flatproxy.sim import run_functional
    from conftest import config_text

    rt = MeshRuntime(config=load_config(config_text()))
    wl = Workload(pattern="open", rate_qps=300, duration_s=1.0, n_connections=1)
    out = {}
    t = threading.Thread(target=lambda: out.update(m=run_functional(rt, wl)),
                         daemon=True)
    t.start()
    t.join(timeout=60)
    assert not t.is_alive()
    assert out["m"].delivered == 256
    assert out["m"].loss == 44
    assert rt.fast_path.counters()["ring_full"] == 44
    rt.shutdown()
