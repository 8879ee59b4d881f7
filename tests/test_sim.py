import math
import statistics
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from flatproxy.sim import (
    BUILTIN_MODELS,
    CSV_COLUMNS,
    Metrics,
    Mode,
    SLOW_PATH_CONN_NS,
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
from conftest import profiled


MODELS = builtin_cost_models()


def single_request(mode, layer, topo=Topology(), seed=0):
    wl = Workload(rate_qps=10.0, duration_s=0.1, seed=seed)
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
    wl = Workload(rate_qps=100.0, duration_s=1.0, seed=1)
    m = run_sim(Mode.ENVOY, MODELS[(Mode.ENVOY, "l4")], wl, topo)
    # mean-one multiplier: mean latency within a few percent of the base
    assert m.mean_ns == pytest.approx(22_000, rel=0.10)
    assert m.jitter_ns > 0


_LATENCY = st.one_of(
    st.just(0.0),
    st.floats(min_value=1.0, max_value=1e9),
    st.integers(min_value=1, max_value=10**9).map(float),
)


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="pstdev rounds correctly from Python 3.11 on")
@settings(max_examples=500, deadline=None)
@given(st.one_of(
    st.lists(_LATENCY, min_size=2, max_size=60),
    # repeated values, all-equal lists among them
    st.tuples(st.lists(_LATENCY, min_size=1, max_size=4),
              st.integers(min_value=2, max_value=40)).map(
        lambda t: [t[0][i % len(t[0])] for i in range(t[1])]),
    st.tuples(_LATENCY, _LATENCY).map(list),
    # long runs of equal values, zeros among them, so that there are far
    # more latencies than distinct values, as under load
    st.tuples(st.lists(st.tuples(_LATENCY, st.integers(1, 300)),
                       min_size=1, max_size=6),
              st.integers(min_value=0, max_value=300)).map(
        lambda t: [x for x, c in t[0] for _ in range(c)] + [0.0] * t[1]),
))
def test_jitter_is_pstdev_exactly(latencies):
    """`jitter_ns` is `statistics.pstdev` bit for bit, both being the
    correctly rounded root of the exact variance: zeros, repeated and
    all-equal values, long runs of one value, two latencies, magnitudes
    from 1 to 1e9."""
    m = Metrics(latencies=list(latencies))
    assert m.jitter_ns == statistics.pstdev(latencies)


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="pstdev rounds correctly from Python 3.11 on")
@pytest.mark.parametrize("latencies", [[1e-300, 1e9], [5e-324, 1.0],
                                       [1e308, -1e308, 0.0]])
def test_jitter_is_pstdev_at_the_ends_of_the_float_range(latencies):
    """Values whose scaling to ints would leave the float range, a
    subnormal among them, and values near the largest float."""
    assert Metrics(latencies=latencies).jitter_ns == statistics.pstdev(latencies)


def test_percentile_sorts_once_and_follows_records():
    """Percentiles sort the latencies once, and again after one more is
    added."""
    m = Metrics(latencies=[5.0, 1.0, 3.0])
    assert (m.p50_ns, m.p99_ns) == (3.0, 5.0)
    sorted_once = m._sorted
    assert m.percentile(10) == 1.0 and m._sorted is sorted_once
    m.latencies.append(0.5)
    assert m.percentile(10) == 0.5 and m.p99_ns == 5.0


def test_jitter_reads_the_percentile_sort_and_follows_records():
    """`jitter_ns` after a percentile reuses its sort, and sorts again
    once one more latency is added."""
    m = Metrics(latencies=[5.0, 3.0, 1.0, 3.0])
    assert m.p50_ns == 3.0
    sorted_once = m._sorted
    assert m.jitter_ns == pytest.approx(math.sqrt(2.0))
    assert m._sorted is sorted_once
    m.latencies.append(13.0)
    assert m.jitter_ns == pytest.approx(statistics.pstdev(m.latencies))
    assert m._sorted == [1.0, 3.0, 3.0, 5.0, 13.0]


def test_histogram_matches_per_record_buckets():
    """`histogram` is computed when read; it gives the buckets, and their
    order of first appearance, that counting each latency in turn gives."""
    below = [math.nextafter(2.0 ** k, 0.0) for k in (1, 2, 10, 40)]
    latencies = [0.0, 0.25, math.nextafter(1.0, 0.0), 1.0, 1.5, 2.0, 4.0,
                 1023.5, 1024.0, 2.0 ** 40, 22_000, 17_600.0, 0.5, 2.0, *below]
    per_record = {}
    m = Metrics(latencies=list(latencies))
    for ns in latencies:
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
    assert host_conn_factor(1) == 1.0
    assert host_conn_factor(16) == 1.0
    assert host_conn_factor(17) == pytest.approx(1.015)
    assert host_conn_factor(64) == pytest.approx(1.72)


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
    wl = Workload(rate_qps=2 * cap, duration_s=0.01)
    m = run_sim(Mode.ENVOY, MODELS[(Mode.ENVOY, "l4")], wl, topo)
    assert m.unstable
    wl2 = Workload(rate_qps=0.5 * cap, duration_s=0.01)
    assert not run_sim(Mode.ENVOY, MODELS[(Mode.ENVOY, "l4")], wl2, topo).unstable


def test_cpu_cost_only_host_stages():
    wl = Workload(rate_qps=100, duration_s=0.1)
    fp = run_sim(Mode.FLATPROXY, MODELS[(Mode.FLATPROXY, "l4")], wl)
    # offload mode charges the host only for slow-path connection setup
    assert fp.cpu_cost_ns == SLOW_PATH_CONN_NS * wl.n_connections
    envoy = run_sim(Mode.ENVOY, MODELS[(Mode.ENVOY, "l4")], wl)
    assert envoy.cpu_cost_ns == pytest.approx(envoy.delivered * 22_000, rel=0.01)


# -- sweeps and determinism --------------------------------------------------

def test_compare_modes_grid_shape():
    rows = compare_modes(layer="l4", rates=(100.0, 200.0), connections=(1, 4),
                         cores=(1,), duration_s=0.01)
    assert len(rows) == 2 * 2 * len(Mode)
    assert set(rows[0]) == set(CSV_COLUMNS)


def test_compare_modes_with_empty_models_raises():
    """An empty mapping lacks every (mode, layer), as any mapping without
    one does: only no mapping at all means the built-in models."""
    with pytest.raises(KeyError):
        compare_modes(models={}, duration_s=0.01)


def test_builtin_models_are_one_read_only_mapping():
    """BUILTIN_MODELS is what `builtin_cost_models()` builds and takes no
    change; changing a dict that `builtin_cost_models()` returned leaves
    it as it was."""
    assert BUILTIN_MODELS == builtin_cost_models()
    with pytest.raises(TypeError):
        BUILTIN_MODELS[(Mode.ENVOY, "l4")] = MODELS[(Mode.TOE, "l4")]
    models = builtin_cost_models()
    models[(Mode.ENVOY, "l4")] = models[(Mode.TOE, "l4")]
    del models[(Mode.TOE, "l7")]
    assert BUILTIN_MODELS == MODELS != models


def test_run_builds_its_stations_once():
    """A run builds one hop's stations once, for its events and its
    `unstable` flag alike, and seeds a generator only when some station
    has jitter to draw; a sweep and the saturation rate build no models."""
    cost = MODELS[(Mode.FLATPROXY, "l7")]
    wl = Workload(rate_qps=1000.0, duration_s=0.01)
    for topo, seeded in ((Topology(hops=2), 0),
                         (Topology(hops=2, hw_jitter_sigma=0.1), 1)):
        calls = Counter()
        profiled(calls, run_sim, Mode.FLATPROXY, cost, wl, topo)
        assert (calls["build_stations"], calls["capacity_rps"],
                calls["Random.__init__"]) == (1, 0, seeded)
    calls = Counter()
    profiled(calls, lambda: compare_modes(layer="l7", rates=(1000.0,),
                                          duration_s=0.01))
    profiled(calls, saturation_rps, Mode.TOE, "l4", Topology(), 1, 0.001)
    assert calls["builtin_cost_models"] == 0
    # one per run, and saturation_rps's capacity of each mode
    assert calls["build_stations"] == len(Mode) + 1 + len(Mode)


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
    wl1 = Workload(rate_qps=1000, duration_s=0.05, seed=1)
    wl2 = Workload(rate_qps=1000, duration_s=0.05, seed=2)
    m1 = run_sim(Mode.ENVOY, MODELS[(Mode.ENVOY, "l4")], wl1, topo)
    m2 = run_sim(Mode.ENVOY, MODELS[(Mode.ENVOY, "l4")], wl2, topo)
    assert m1.latencies != m2.latencies


def test_e2e_latency_reduction_band():
    r = e2e_latency_reduction(seed=0)
    assert 0.85 <= r <= 0.95
