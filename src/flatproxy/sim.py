"""Deterministic discrete-event simulator of the four deployment modes.

Per-stage service times come from the measured latency breakdowns: the
L4 path costs 22 us through a host sidecar versus 7.6 us through the
offloaded proxy, and the L7 path costs 62.5 us versus 17.6 us; each
stage gets total x its breakdown percentage.  Host modes serialize all
host stages onto k shared cores; the offloaded mode pipelines its
hardware stages and runs L7 work on a parallel worker pool, which is
where the throughput gap comes from.

Load is open-loop: requests arrive at a fixed rate, whatever the proxy
delivers.  The event engine reads arrivals from their sequence, already in
time order, and keeps only in-flight completions on its heap, all but the
last one scheduled, which it holds aside: taking the next event is then
one `heappushpop`, which returns the held one with no sift when it is the
earliest.  At equal times an arrival goes first; completions at equal
times go in the order they were scheduled.  An arrival that finds the
first station full loses, in one step, every later arrival up to that
station's next event.  Without jitter, the stations past the last one
that can queue add a fixed delay, and a request passes them in one step.
"""

from __future__ import annotations

import csv
import heapq
import io
import math
import random
import statistics
import types
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from itertools import compress
from operator import mul, ne, sub
from typing import NamedTuple


class Mode(Enum):
    ENVOY = "envoy"
    SOCKMAP = "sockmap"
    TOE = "toe"
    FLATPROXY = "flatproxy"


class StageKind(Enum):
    PIPELINE = "pipeline"  # dedicated hardware stage, one unit per tick
    HOST = "host"          # runs on the shared host cores
    L7_POOL = "l7_pool"    # offloaded L7 worker pool


class Stage(NamedTuple):
    name: str
    service_ns: int
    kind: StageKind


class CostModel(NamedTuple):
    mode: Mode
    layer: str  # "l4" | "l7"
    stages: tuple

    @property
    def total_ns(self) -> int:
        return sum(s.service_ns for s in self.stages)

    def host_ns(self) -> int:
        return sum(s.service_ns for s in self.stages if s.kind is StageKind.HOST)

    def pool_ns(self) -> int:
        return sum(s.service_ns for s in self.stages if s.kind is StageKind.L7_POOL)


def _pct(total: int, percent: float) -> int:
    return round(total * percent / 100)


def builtin_cost_models() -> dict:
    """Stage tables for every (mode, layer) pair, keyed by (Mode, layer).

    Envoy and FlatProxy totals and percentages are the measured
    breakdowns; TOE keeps the host proxy stages but offloads vSwitch and
    the TCP stack, and sockmap is envoy with the loopback hop cut to 10%.
    """
    P, H, L = StageKind.PIPELINE, StageKind.HOST, StageKind.L7_POOL
    models = {}

    envoy_l4 = 22_000
    models[(Mode.ENVOY, "l4")] = CostModel(Mode.ENVOY, "l4", (
        Stage("vSwitch", _pct(envoy_l4, 9), H),
        Stage("TCP/IP protocol", _pct(envoy_l4, 27), H),
        Stage("TCP->proxy", _pct(envoy_l4, 20), H),
        Stage("data processing", _pct(envoy_l4, 7), H),
        Stage("proxy->TCP", _pct(envoy_l4, 10), H),
        Stage("loopback", _pct(envoy_l4, 27), H),
    ))

    fp_l4 = 7_600
    models[(Mode.FLATPROXY, "l4")] = CostModel(Mode.FLATPROXY, "l4", (
        Stage("OVS", _pct(fp_l4, 26), P),
        Stage("TOE", _pct(fp_l4, 1), P),
        Stage("match-action", _pct(fp_l4, 66), P),
        Stage("VQ->service", _pct(fp_l4, 7), P),
    ))

    envoy = models[(Mode.ENVOY, "l4")]
    models[(Mode.SOCKMAP, "l4")] = CostModel(Mode.SOCKMAP, "l4", tuple(
        s._replace(service_ns=_pct(s.service_ns, 10)) if s.name == "loopback" else s
        for s in envoy.stages
    ))

    fp = models[(Mode.FLATPROXY, "l4")]
    models[(Mode.TOE, "l4")] = CostModel(Mode.TOE, "l4", (
        fp.stages[0],  # OVS offloaded
        fp.stages[1],  # TOE offloaded
        Stage("TCP->proxy", _pct(envoy_l4, 20), H),
        Stage("data processing", _pct(envoy_l4, 7), H),
        Stage("proxy->TCP", _pct(envoy_l4, 10), H),
        Stage("loopback", _pct(envoy_l4, 27), H),
    ))

    envoy_l7 = 62_500
    models[(Mode.ENVOY, "l7")] = CostModel(Mode.ENVOY, "l7", (
        Stage("vSwitch", _pct(envoy_l7, 3), H),
        Stage("TCP/IP protocol", _pct(envoy_l7, 8), H),
        Stage("connection, statistical", _pct(envoy_l7, 26), H),
        Stage("D-T", _pct(envoy_l7, 16), H),
        Stage("D-I, D-P", _pct(envoy_l7, 12), H),
        Stage("D-CK, D-OP, D-M", _pct(envoy_l7, 22), H),
        Stage("D-DP", _pct(envoy_l7, 6), H),
        Stage("loopback", _pct(envoy_l7, 7), H),
    ))

    fp_l7 = 17_600
    models[(Mode.FLATPROXY, "l7")] = CostModel(Mode.FLATPROXY, "l7", (
        Stage("OVS", _pct(fp_l7, 11), P),
        Stage("TOE", _pct(fp_l7, 1), P),
        Stage("http parser", _pct(fp_l7, 28), L),
        Stage("match-action", _pct(fp_l7, 29), L),
        Stage("http deparser", _pct(fp_l7, 28), L),
        Stage("VQ->service", _pct(fp_l7, 3), P),
    ))

    envoy7 = models[(Mode.ENVOY, "l7")]
    models[(Mode.SOCKMAP, "l7")] = CostModel(Mode.SOCKMAP, "l7", tuple(
        s._replace(service_ns=_pct(s.service_ns, 10)) if s.name == "loopback" else s
        for s in envoy7.stages
    ))

    fp7 = models[(Mode.FLATPROXY, "l7")]
    models[(Mode.TOE, "l7")] = CostModel(Mode.TOE, "l7", (
        fp7.stages[0],
        fp7.stages[1],
    ) + tuple(s for s in envoy7.stages[2:]))

    return models


# the built-in models, built once; `builtin_cost_models()` builds a new dict
# for a caller that changes it
BUILTIN_MODELS = types.MappingProxyType(builtin_cost_models())


# ---------------------------------------------------------------------------
# Workload and topology

REQUEST_BYTES = 1024  # every request's size, for `throughput_bps`
CONN_PENALTY = 0.015  # host slowdown per connection beyond 16
SLOW_PATH_CONN_NS = 15_000  # host work per new connection (offload mode)


@dataclass(frozen=True)
class Workload:
    rate_qps: float = 1.0
    n_connections: int = 1
    duration_s: float = 0.1
    seed: int = 0


@dataclass(frozen=True)
class Topology:
    n_cores: int = 1
    n_workers: int = 8
    queue_depth: int = 1024
    host_jitter_sigma: float = 0.0
    hw_jitter_sigma: float = 0.0
    hops: int = 1


def host_conn_factor(connections: int) -> float:
    """Host-side connection-management contention; hardware is immune."""
    return 1.0 + CONN_PENALTY * max(0, connections - 16)


@dataclass
class Metrics:
    loss: int = 0
    latencies: list = field(default_factory=list)
    stage_busy_ns: dict = field(default_factory=dict)
    cpu_cost_ns: float = 0.0
    duration_s: float = 0.0
    unstable: bool = False
    last_delivery_ns: float = 0.0
    # `latencies` in order, for percentiles and `jitter_ns`; sorted again
    # only once more are recorded; not a field, so equality and repr skip it
    _sorted = ()

    @property
    def delivered(self) -> int:
        return len(self.latencies)

    @property
    def histogram(self) -> dict:
        """log2 bucket -> count of the latencies, buckets in order of first
        appearance; a latency below 1 ns counts in bucket 0."""
        hist = {}
        for ns in self.latencies:
            bucket = int(math.log2(ns)) if ns >= 1 else 0
            hist[bucket] = hist.get(bucket, 0) + 1
        return hist

    @property
    def mean_ns(self) -> float:
        return statistics.fmean(self.latencies) if self.latencies else 0.0

    def _in_order(self) -> list:
        data = self._sorted
        if len(data) != len(self.latencies):
            data = self._sorted = sorted(self.latencies)
        return data

    def percentile(self, p: float) -> float:
        if not self.latencies:
            return 0.0
        data = self._in_order()
        idx = min(len(data) - 1, int(math.ceil(p / 100 * len(data))) - 1)
        return data[max(0, idx)]

    @property
    def p50_ns(self) -> float:
        return self.percentile(50)

    @property
    def p99_ns(self) -> float:
        return self.percentile(99)

    @property
    def jitter_ns(self) -> float:
        """The latencies' population standard deviation, correctly
        rounded: `statistics.pstdev`'s bit for bit from Python 3.11 on; from
        the sort that `percentile` reads."""
        return _pstdev(self._in_order()) if len(self.latencies) > 1 else 0.0

    @property
    def responses_per_s(self) -> float:
        # overloaded runs keep delivering while queues drain past the
        # workload horizon, so normalize by the actual completion window
        window_s = max(self.duration_s, self.last_delivery_ns * 1e-9)
        return self.delivered / window_s if window_s else 0.0

    @property
    def throughput_bps(self) -> float:
        return self.responses_per_s * REQUEST_BYTES


def _pstdev(s: list) -> float:
    """`statistics.pstdev` of sorted finite floats, without its per-element
    fractions.  A float is a whole multiple of the last place of any float
    no larger in magnitude, so scaling by 2**k, k from the smallest
    nonzero |x|, makes every x an exact int; the population variance is
    then (n*sum(x*x) - sum(x)**2) / (n*n * 4**k) exactly, and its square
    root is rounded once, as pstdev rounds it from Python 3.11 on (before
    that, pstdev rounds the variance first, so its last bit may differ).
    Under load most latencies are equal, so each run of equal values is
    scaled once and weighted by its length (Chan, Golub & LeVeque, 1983).
    Where 2**k leaves the float range, `statistics.pstdev` gives it."""
    n = len(s)
    starts = [0, *compress(range(1, n), map(ne, s, s[1:]))]
    values = list(map(s.__getitem__, starts))
    counts = map(sub, [*starts[1:], n], starts)
    lo = values[0]
    if lo <= 0:
        lo = min((abs(x) for x in values if x), default=0)
        if not lo:
            return 0.0
    k = 53 - math.frexp(lo)[1]
    if k > 1023 or math.frexp(max(-values[0], values[-1]))[1] + k > 1024:
        # 2**k, or the largest value times it, is no float
        return statistics.pstdev(s)
    ints = list(map(math.trunc, map(math.ldexp(1.0, k).__mul__, values)))
    weighted = list(map(mul, ints, counts))
    sx = sum(weighted)
    num = n * sum(map(mul, weighted, ints)) - sx * sx
    den = n * n
    if k >= 0:
        den <<= 2 * k
    else:
        num <<= -2 * k
    return _sqrt_of_ratio(num, den)


def _sqrt_of_ratio(num: int, den: int) -> float:
    """sqrt(num/den), correctly rounded: an integer square root of about
    55 bits, its last bit set when inexact (round to odd), then one
    rounding to a float."""
    e = (num.bit_length() - den.bit_length() - 109) // 2
    if e >= 0:
        den <<= 2 * e
    else:
        num <<= -2 * e
    root = math.isqrt(num // den)
    root |= root * root * den != num
    return float(root << e) if e >= 0 else root / (1 << -e)


# ---------------------------------------------------------------------------
# Event engine

class _Station(NamedTuple):
    name: str
    servers: int
    service_ns: float
    jitter_sigma: float
    depth: int
    host: bool


def build_stations(cost: CostModel, topo: Topology, connections: int) -> list:
    """One hop's worth of stations for a mode's cost model."""
    stations = []
    factor = host_conn_factor(connections)
    host_sum = cost.host_ns()
    host_emitted = False
    pool_sum = cost.pool_ns()
    pool_emitted = False
    for s in cost.stages:
        if s.kind is StageKind.PIPELINE:
            stations.append(_Station(
                name=s.name, servers=1, service_ns=float(s.service_ns),
                jitter_sigma=topo.hw_jitter_sigma, depth=topo.queue_depth,
                host=False,
            ))
        elif s.kind is StageKind.L7_POOL:
            if not pool_emitted:
                stations.append(_Station(
                    name="l7-pool", servers=topo.n_workers,
                    service_ns=float(pool_sum),
                    jitter_sigma=topo.hw_jitter_sigma, depth=topo.queue_depth,
                    host=False,
                ))
                pool_emitted = True
        else:
            if not host_emitted:
                stations.append(_Station(
                    name="host", servers=topo.n_cores,
                    service_ns=float(host_sum) * factor,
                    jitter_sigma=topo.host_jitter_sigma, depth=topo.queue_depth,
                    host=True,
                ))
                host_emitted = True
    return stations


def capacity_rps(mode: Mode, cost: CostModel, topo: Topology,
                 connections: int = 1) -> float:
    """Analytic saturation rate: pipeline stages each pass one unit per
    service time; host stages share the cores serially.  `mode` is not
    read: the stations depend on `cost` alone, and `perfbench/inproc.py`
    passes `mode` positionally."""
    return _capacity(build_stations(cost, topo, connections))


def _capacity(stations) -> float:
    return min((st.servers / (st.service_ns * 1e-9) for st in stations),
               default=math.inf)


def run_sim(mode: Mode, cost: CostModel, wl: Workload,
            topo: Topology = Topology()) -> Metrics:
    """Drive one open-loop workload through one mode's stage sequence.

    Deterministic for a fixed (seed, workload, topology): events are taken
    in nondecreasing time.  Arrivals come every 1 / `rate_qps` from time 0
    until `duration_s` and are read from their sequence, already in time
    order; in-flight completions are scheduled events, the last one held
    aside and the rest on a heap.  At equal times an arrival goes first,
    and completions go in the order they were scheduled.

    Without jitter, a request that reaches `tail`, the first station from
    which none can ever queue, is delivered at once, scheduling nothing
    there (Lindley, 1952).  Arrivals reach station 0 `interval` apart; a
    one-server station's departures leave max(gap, service) apart, a
    multi-server one's gap apart, and losses only thin them; so a station
    never queues if servers * gap > service + margin (at a tie, at depth
    0, it can lose).  `margin` is n * len(stations) + 4 ulps of a bound on
    every event time: each is a max-plus sum within n * len(stations) + 1
    half ulps of its exact value.  Outputs stay bit-identical: (1) a tail
    station never queues, so its `free` and queue go unread; (2) a
    constant delay keeps FIFO order, so latencies come in the same order
    with the same sums; (3) all host stations have one service time, as
    hops are alike, so the order of the `cpu` additions cannot change
    them; (4) no event left out frees station 0, so the loss skip's `top`
    stays a bound, and with `tail == 0` station 0 never loses.  Folding an
    earlier station would move its successor's entry ahead of completions
    scheduled in between: at a tie, that can change a loss.
    """
    # every hop's stations are alike
    hop = build_stations(cost, topo, wl.n_connections)
    stations = hop * topo.hops

    cpu = 0.0
    if mode is Mode.FLATPROXY:
        # only slow-path connection setup touches the host
        cpu += SLOW_PATH_CONN_NS * wl.n_connections

    interval = 1e9 / wl.rate_qps
    n = int(wl.duration_s * 1e9 / interval)

    free = [st.servers for st in stations]
    queues = [deque() for _ in stations]
    busy = [0.0] * len(stations)
    service = [st.service_ns for st in stations]
    sigma = [st.jitter_sigma for st in stations]
    jitter = any(s > 0 for s in sigma)
    # without jitter nothing draws, so no generator is seeded
    gauss = random.Random(wl.seed).gauss if jitter else None
    # a mean-1 lognormal multiplier, so jitter does not shift totals
    half_var = [s ** 2 / 2 for s in sigma]
    depth = [st.depth for st in stations]
    host = [st.host for st in stations]
    tail = len(stations)
    if not jitter:
        margin = math.ulp(2 * n * (interval + sum(service))) * (n * tail + 4)
        gap, tail = interval, 0
        for k, st in enumerate(stations):
            if st.servers * gap <= st.service_ns + margin:
                tail = k + 1  # station k may queue
            gap = max(gap, st.service_ns) if st.servers == 1 else gap
    through = [(k, service[k], host[k]) for k in range(tail, len(stations))]
    last = len(stations) - 1
    exp, inf = math.exp, math.inf
    heappush, heappop = heapq.heappush, heapq.heappop
    heappushpop = heapq.heappushpop
    latencies = []
    loss = 0
    last_delivery = 0.0

    # completions: (time_ns, seq, station, arrival_ns); the last one
    # scheduled is held in `pending`, the others on the heap
    heap = []
    pending = None
    seq = 0
    i = 0
    next_arrival = 0.0 if n else inf
    while True:
        # strictly earlier only: at a tie the arrival goes first
        if pending is not None and pending[0] < next_arrival:
            # `pending`, or an earlier event from the heap: one sift at most
            now, _s, k, arrival = heappushpop(heap, pending)
            pending = None
        elif heap and heap[0][0] < next_arrival:
            now, _s, k, arrival = heappop(heap)
        elif i < n:
            now = arrival = next_arrival
            i += 1
            next_arrival = i * interval if i < n else inf
            k = -1  # from the sequence: it enters station 0
        else:
            break
        if k < 0:
            k = 0
        else:
            # station k finished `arrival`: it takes its next waiting
            # request, and `arrival` moves on to station k + 1
            q = queues[k]
            if q:
                svc = service[k]
                if jitter and sigma[k] > 0:
                    svc *= exp(gauss(0.0, sigma[k]) - half_var[k])
                busy[k] += svc
                if host[k]:
                    cpu += svc
                if pending is not None:
                    heappush(heap, pending)
                pending = (now + svc, seq, k, q.popleft())
                seq += 1
            else:
                free[k] += 1
            if k == last:
                latencies.append(now - arrival)
                last_delivery = now
                continue
            k += 1
        if k >= tail:
            # through the tail at once, with the additions its events make
            for k, svc, on_host in through:
                busy[k] += svc
                if on_host:
                    cpu += svc
                now += svc
            latencies.append(now - arrival)
            last_delivery = now
            continue
        # `arrival` enters station k
        if free[k]:
            free[k] -= 1
            svc = service[k]
            if jitter and sigma[k] > 0:
                svc *= exp(gauss(0.0, sigma[k]) - half_var[k])
            busy[k] += svc
            if host[k]:
                cpu += svc
            if pending is not None:
                heappush(heap, pending)
            pending = (now + svc, seq, k, arrival)
            seq += 1
        elif len(queues[k]) < depth[k]:
            queues[k].append(arrival)
        else:
            loss += 1
            if not k and i + 1 < n:
                # nothing frees station 0 before the next scheduled event,
                # held or on the heap, and arrivals go first at a tie: each
                # one until then is lost too
                top = heap[0][0] if heap else inf
                if pending is not None and pending[0] < top:
                    top = pending[0]
                if (i + 1) * interval <= top:
                    # j, the last of them: estimated, then confirmed with
                    # the products `i * interval` that time the arrivals
                    if (n - 1) * interval <= top:
                        j = n - 1
                    else:
                        j = max(int(top / interval), i + 1)
                        while j * interval > top:
                            j -= 1
                        while (j + 1) * interval <= top:
                            j += 1
                    loss += j + 1 - i
                    i = j + 1
                    next_arrival = i * interval if i < n else inf

    stage_busy_ns = {}
    for st, busy_ns in zip(stations, busy):
        stage_busy_ns[st.name] = stage_busy_ns.get(st.name, 0.0) + busy_ns
    return Metrics(loss=loss, latencies=latencies, stage_busy_ns=stage_busy_ns,
                   cpu_cost_ns=cpu, duration_s=wl.duration_s,
                   unstable=wl.rate_qps > _capacity(hop),
                   last_delivery_ns=last_delivery)


# ---------------------------------------------------------------------------
# Mode comparison sweeps

CSV_COLUMNS = [
    "mode", "rate_qps", "connections", "cores", "mean_ns", "p50_ns", "p99_ns",
    "jitter_ns", "throughput_bps", "responses_per_s", "loss", "cpu_cost_ns",
]


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.3f}"
    return str(x)


def compare_modes(
    layer: str = "l4",
    rates=(1.0,),
    connections=(1,),
    cores=(2,),
    modes=tuple(Mode),
    duration_s: float = 0.05,
    seed: int = 0,
    models: dict = None,
) -> list:
    """Run every mode over the sweep grid; returns CSV-ready row dicts.
    `models` defaults to BUILTIN_MODELS."""
    if models is None:
        models = BUILTIN_MODELS
    rows = []
    for rate in rates:
        for conn in connections:
            wl = Workload(rate_qps=rate, n_connections=conn,
                          duration_s=duration_s, seed=seed)
            for k in cores:
                topo = Topology(n_cores=k)
                for mode in modes:
                    m = run_sim(mode, models[(mode, layer)], wl, topo)
                    rows.append({
                        "mode": mode.value,
                        "rate_qps": rate,
                        "connections": conn,
                        "cores": k,
                        "mean_ns": m.mean_ns,
                        "p50_ns": m.p50_ns,
                        "p99_ns": m.p99_ns,
                        "jitter_ns": m.jitter_ns,
                        "throughput_bps": m.throughput_bps,
                        "responses_per_s": m.responses_per_s,
                        "loss": m.loss,
                        "cpu_cost_ns": m.cpu_cost_ns,
                    })
    return rows


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_fmt(row[c]) for c in CSV_COLUMNS])
    return buf.getvalue()


def saturation_rps(mode: Mode, layer: str, topo: Topology,
                   connections: int = 1, duration_s: float = 0.05) -> float:
    """Measured delivered rate under 2x-overload open-loop offered load."""
    cost = BUILTIN_MODELS[(mode, layer)]
    cap = max(capacity_rps(m, BUILTIN_MODELS[(m, layer)], topo, connections)
              for m in Mode)
    wl = Workload(rate_qps=2.0 * cap, n_connections=connections,
                  duration_s=duration_s)
    return run_sim(mode, cost, wl, topo).responses_per_s


def e2e_latency_reduction(seed: int = 0) -> float:
    """Mean-latency reduction of the offloaded mode vs the sidecar over a
    two-hop L7 path with host jitter, at 95% of the sidecar's saturation."""
    topo = Topology(n_cores=2, n_workers=8, hops=2,
                    host_jitter_sigma=0.6, hw_jitter_sigma=0.15)
    envoy_cost = BUILTIN_MODELS[(Mode.ENVOY, "l7")]
    fp_cost = BUILTIN_MODELS[(Mode.FLATPROXY, "l7")]
    cap = capacity_rps(Mode.ENVOY, envoy_cost, topo)
    wl = Workload(rate_qps=0.95 * cap, duration_s=0.4, seed=seed)
    envoy = run_sim(Mode.ENVOY, envoy_cost, wl, topo)
    fp = run_sim(Mode.FLATPROXY, fp_cost, wl, topo)
    return 1.0 - fp.mean_ns / envoy.mean_ns
