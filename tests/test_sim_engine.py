"""`run_sim` against the event loop it replaced, on generated topologies.

`reference_run_sim` is the loop as it was before `run_sim` held its
last-scheduled event out of the heap and lost a full first station's
arrivals in one step: every arrival and event is handled one at a time,
through the heap.  Integer service times and integer-ns arrival intervals
make completions tie with arrivals and with each other, so the tie rules
(an arrival first, then heap events in insertion order) are exercised.
"""

import heapq
import math
import random
import statistics
import sys
from collections import deque

import pytest
from hypothesis import example, given, settings, strategies as st

from flatproxy.sim import (
    CostModel,
    Metrics,
    Mode,
    SLOW_PATH_CONN_NS,
    Stage,
    StageKind,
    Topology,
    Workload,
    build_stations,
    capacity_rps,
    run_sim,
)


def reference_run_sim(mode, cost, wl, topo=Topology()):
    rng = random.Random(wl.seed)
    stations = []
    for _hop in range(topo.hops):
        stations.extend(build_stations(cost, topo, wl.n_connections))

    metrics = Metrics(duration_s=wl.duration_s)
    metrics.unstable = wl.rate_qps > capacity_rps(mode, cost, topo,
                                                  wl.n_connections)

    cpu = 0.0
    if mode is Mode.FLATPROXY:
        cpu += SLOW_PATH_CONN_NS * wl.n_connections

    interval = 1e9 / wl.rate_qps
    n = int(wl.duration_s * 1e9 / interval)

    free = [st.servers for st in stations]
    queues = [deque() for _ in stations]
    busy = [0.0] * len(stations)
    service = [st.service_ns for st in stations]
    sigma = [st.jitter_sigma for st in stations]
    half_var = [s ** 2 / 2 for s in sigma]
    depth = [st.depth for st in stations]
    host = [st.host for st in stations]
    last = len(stations) - 1
    gauss, exp = rng.gauss, math.exp
    heappush, heappop = heapq.heappush, heapq.heappop
    latencies = metrics.latencies
    loss = 0
    last_delivery = 0.0

    heap = []  # completions: (time_ns, seq, station, arrival_ns)
    seq = 0
    i = 0
    next_arrival = 0.0 if n else math.inf
    while True:
        if heap and heap[0][0] < next_arrival:
            now, _s, k, arrival = heappop(heap)
            q = queues[k]
            if q:
                svc = service[k]
                if sigma[k] > 0:
                    svc *= exp(gauss(0.0, sigma[k]) - half_var[k])
                busy[k] += svc
                if host[k]:
                    cpu += svc
                heappush(heap, (now + svc, seq, k, q.popleft()))
                seq += 1
            else:
                free[k] += 1
            if k == last:
                latencies.append(now - arrival)
                last_delivery = now
                continue
            k += 1
        elif i < n:
            now = arrival = next_arrival
            i += 1
            next_arrival = i * interval if i < n else math.inf
            k = 0
        else:
            break
        if free[k] > 0:
            free[k] -= 1
            svc = service[k]
            if sigma[k] > 0:
                svc *= exp(gauss(0.0, sigma[k]) - half_var[k])
            busy[k] += svc
            if host[k]:
                cpu += svc
            heappush(heap, (now + svc, seq, k, arrival))
            seq += 1
        elif len(queues[k]) < depth[k]:
            queues[k].append(arrival)
        else:
            loss += 1

    metrics.loss = loss
    metrics.cpu_cost_ns = cpu
    metrics.last_delivery_ns = last_delivery
    for st, busy_ns in zip(stations, busy):
        metrics.stage_busy_ns[st.name] = (
            metrics.stage_busy_ns.get(st.name, 0.0) + busy_ns
        )
    return metrics


# Intervals that divide 1 s exactly: 1e9 / (1e9 / d) is d again, so the
# arrivals fall on whole nanoseconds, as the service times' completions do.
INTERVALS_NS = (1, 2, 4, 5, 8, 10, 16, 20, 25, 40, 50, 100, 125, 200, 250, 500)

# service times on a coarse grid too, so that completions at different
# stations often fall at the same time
service_ns = st.one_of(st.integers(1, 400), st.integers(1, 4).map(25 .__mul__))
stages = st.lists(
    st.tuples(service_ns, st.sampled_from(tuple(StageKind))),
    min_size=1, max_size=4,
)


@st.composite
def scenarios(draw):
    kinds = draw(stages)
    cost = CostModel(Mode.ENVOY, "l7", tuple(
        Stage(f"s{j}", svc, kind) for j, (svc, kind) in enumerate(kinds)))
    jitter = draw(st.booleans())
    topo = Topology(
        n_cores=draw(st.integers(1, 3)),
        n_workers=draw(st.integers(1, 3)),
        queue_depth=draw(st.integers(0, 3)),
        host_jitter_sigma=0.5 if jitter else 0.0,
        hw_jitter_sigma=0.2 if jitter else 0.0,
        hops=draw(st.integers(1, 2)),
    )
    mode = draw(st.sampled_from((Mode.ENVOY, Mode.FLATPROXY)))
    seed = draw(st.integers(0, 2**16))
    d = draw(st.sampled_from(INTERVALS_NS))
    wl = Workload(rate_qps=1e9 / d,
                  duration_s=draw(st.integers(0, 120)) * d / 1e9, seed=seed)
    return mode, cost, wl, topo


# A case where events tie with events scheduled after them, at another
# station, so that only their seq numbers keep them in order: random
# generation finds it in a few thousand examples, not in every run
TIED_OPEN_LOOP = (
    Mode.ENVOY,
    CostModel(Mode.ENVOY, "l7", (Stage("s0", 25, StageKind.PIPELINE),
                                 Stage("s1", 50, StageKind.HOST),
                                 Stage("s2", 100, StageKind.HOST))),
    Workload(rate_qps=8e6, duration_s=875e-9),
    Topology(n_cores=1, queue_depth=1),
)


@settings(max_examples=1500, deadline=None)
@given(scenarios())
@example(TIED_OPEN_LOOP)
def test_run_sim_matches_reference_loop(scenario):
    mode, cost, wl, topo = scenario
    got = run_sim(mode, cost, wl, topo)
    want = reference_run_sim(mode, cost, wl, topo)
    assert got.latencies == want.latencies
    assert got.loss == want.loss
    assert got.stage_busy_ns == want.stage_busy_ns
    assert got.cpu_cost_ns == want.cpu_cost_ns
    assert got.last_delivery_ns == want.last_delivery_ns
    assert got == want


def test_full_first_station_loses_every_arrival_until_it_frees():
    """One server, no queue, 1,000 ns of service and an arrival every
    100 ns: the arrival at a completion's time goes first and finds the
    server busy, so one arrival in eleven is served and the rest lost."""
    cost = CostModel(Mode.ENVOY, "l4",
                     (Stage("s", 1_000, StageKind.PIPELINE),))
    topo = Topology(queue_depth=0)
    wl = Workload(rate_qps=1e7, duration_s=1e-5)
    got = run_sim(Mode.ENVOY, cost, wl, topo)
    assert got == reference_run_sim(Mode.ENVOY, cost, wl, topo)
    assert got.latencies == [1_000.0] * 10
    assert got.loss == 90


@pytest.mark.parametrize("depth", [0, 1])
def test_held_event_alone_bounds_the_loss_skip(depth):
    """With one server busy and nothing else in flight, the only scheduled
    event is the held one, and the loss skip, bounded by it alone, loses
    the arrivals that the reference loop loses one at a time."""
    cost = CostModel(Mode.ENVOY, "l4",
                     (Stage("s", 1_000, StageKind.PIPELINE),))
    topo = Topology(queue_depth=depth)
    wl = Workload(rate_qps=1e8, duration_s=1e-3)
    got = run_sim(Mode.ENVOY, cost, wl, topo)
    assert got == reference_run_sim(Mode.ENVOY, cost, wl, topo)
    assert got.loss > 0.98 * 100_000


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="pstdev rounds correctly from Python 3.11 on")
@settings(max_examples=300, deadline=None)
@given(scenarios())
def test_jitter_is_pstdev_of_simulated_latencies(scenario):
    """On simulated latencies, ties and runs of equal values among them,
    `jitter_ns` is `statistics.pstdev` bit for bit."""
    m = run_sim(*scenario)
    want = statistics.pstdev(m.latencies) if m.delivered > 1 else 0.0
    assert m.jitter_ns == want
