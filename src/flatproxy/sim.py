"""Deterministic discrete-event simulator of the four deployment modes.

Per-stage service times come from the measured latency breakdowns: the
L4 path costs 22 us through a host sidecar versus 7.6 us through the
offloaded proxy, and the L7 path costs 62.5 us versus 17.6 us; each
stage gets total x its breakdown percentage.  Host modes serialize all
host stages onto k shared cores; the offloaded mode pipelines its
hardware stages and runs L7 work on a parallel worker pool, which is
where the throughput gap comes from.

The event engine reads arrivals from their sequence, already in time
order, and keeps only in-flight completions (and a closed loop's later
arrivals) on its heap.  At equal times an arrival from the sequence goes
first; heap events at equal times go in insertion order.
"""

from __future__ import annotations

import csv
import heapq
import io
import math
import random
import statistics
from collections import deque
from dataclasses import dataclass, field, replace
from enum import Enum


class Mode(Enum):
    ENVOY = "envoy"
    SOCKMAP = "sockmap"
    TOE = "toe"
    FLATPROXY = "flatproxy"


class StageKind(Enum):
    PIPELINE = "pipeline"  # dedicated hardware stage, one unit per tick
    HOST = "host"          # runs on the shared host cores
    L7_POOL = "l7_pool"    # offloaded L7 worker pool


@dataclass(frozen=True)
class Stage:
    name: str
    service_ns: int
    kind: StageKind


@dataclass(frozen=True)
class CostModel:
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
        replace(s, service_ns=_pct(s.service_ns, 10)) if s.name == "loopback" else s
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
        replace(s, service_ns=_pct(s.service_ns, 10)) if s.name == "loopback" else s
        for s in envoy7.stages
    ))

    fp7 = models[(Mode.FLATPROXY, "l7")]
    models[(Mode.TOE, "l7")] = CostModel(Mode.TOE, "l7", (
        fp7.stages[0],
        fp7.stages[1],
    ) + tuple(s for s in envoy7.stages[2:]))

    return models


# ---------------------------------------------------------------------------
# Workload and topology

@dataclass(frozen=True)
class Workload:
    pattern: str = "open"  # "open" (fixed qps) | "closed" (fixed concurrency)
    rate_qps: float = 1.0
    concurrency: int = 1
    n_connections: int = 1
    request_size: int = 1024
    duration_s: float = 0.1
    seed: int = 0


@dataclass(frozen=True)
class Topology:
    n_cores: int = 1
    n_workers: int = 8
    queue_depth: int = 1024
    host_jitter_sigma: float = 0.0
    hw_jitter_sigma: float = 0.0
    conn_penalty: float = 0.015   # host slowdown per connection beyond 16
    slow_path_conn_ns: int = 15_000  # host work per new connection (offload mode)
    hops: int = 1


def host_conn_factor(connections: int, penalty: float) -> float:
    """Host-side connection-management contention; hardware is immune."""
    return 1.0 + penalty * max(0, connections - 16)


@dataclass
class Metrics:
    delivered: int = 0
    loss: int = 0
    latencies: list = field(default_factory=list)
    stage_busy_ns: dict = field(default_factory=dict)
    cpu_cost_ns: float = 0.0
    duration_s: float = 0.0
    request_size: int = 0
    unstable: bool = False
    last_delivery_ns: float = 0.0

    def record(self, latency_ns: float):
        self.delivered += 1
        self.latencies.append(latency_ns)

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

    def percentile(self, p: float) -> float:
        if not self.latencies:
            return 0.0
        data = sorted(self.latencies)
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
        return statistics.pstdev(self.latencies) if len(self.latencies) > 1 else 0.0

    @property
    def responses_per_s(self) -> float:
        # overloaded runs keep delivering while queues drain past the
        # workload horizon, so normalize by the actual completion window
        window_s = max(self.duration_s, self.last_delivery_ns * 1e-9)
        return self.delivered / window_s if window_s else 0.0

    @property
    def throughput_bps(self) -> float:
        return self.responses_per_s * self.request_size


# ---------------------------------------------------------------------------
# Event engine

@dataclass(frozen=True)
class _Station:
    name: str
    servers: int
    service_ns: float
    jitter_sigma: float
    depth: int
    host: bool


def build_stations(mode: Mode, cost: CostModel, topo: Topology,
                   connections: int) -> list:
    """One hop's worth of stations for a mode."""
    stations = []
    factor = host_conn_factor(connections, topo.conn_penalty)
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
    service time; host stages share the cores serially."""
    rates = []
    for st in build_stations(mode, cost, topo, connections):
        rates.append(st.servers / (st.service_ns * 1e-9))
    return min(rates) if rates else float("inf")


def run_sim(mode: Mode, cost: CostModel, wl: Workload,
            topo: Topology = Topology()) -> Metrics:
    """Drive one workload through one mode's stage sequence.

    Deterministic for a fixed (seed, workload, topology): events are taken
    in nondecreasing time.  The open loop's arrivals, and the closed loop's
    first `concurrency`, are read from their sequence, already in time
    order; the heap holds only in-flight completions and the closed loop's
    later arrivals.  At equal times an arrival from the sequence goes
    first, and heap events go in insertion order.
    """
    rng = random.Random(wl.seed)
    stations = []
    for _hop in range(topo.hops):
        stations.extend(build_stations(mode, cost, topo, wl.n_connections))

    metrics = Metrics(duration_s=wl.duration_s, request_size=wl.request_size)
    metrics.unstable = (
        wl.pattern == "open"
        and wl.rate_qps > capacity_rps(mode, cost, topo, wl.n_connections)
    )

    cpu = 0.0
    if mode is Mode.FLATPROXY:
        # only slow-path connection setup touches the host
        cpu += topo.slow_path_conn_ns * wl.n_connections

    horizon_ns = wl.duration_s * 1e9
    if wl.pattern == "open":
        interval = 1e9 / wl.rate_qps
        n = int(horizon_ns / interval)
    else:
        interval, n = 0.0, wl.concurrency
    rearrive = wl.pattern == "closed"

    free = [st.servers for st in stations]
    queues = [deque() for _ in stations]
    busy = [0.0] * len(stations)
    service = [st.service_ns for st in stations]
    sigma = [st.jitter_sigma for st in stations]
    # a mean-1 lognormal multiplier, so jitter does not shift totals
    half_var = [s ** 2 / 2 for s in sigma]
    depth = [st.depth for st in stations]
    host = [st.host for st in stations]
    last = len(stations) - 1
    gauss, exp = rng.gauss, math.exp
    heappush, heappop = heapq.heappush, heapq.heappop
    latencies = metrics.latencies
    loss = 0
    last_delivery = 0.0

    heap = []  # (time_ns, seq, station, arrival_ns); station -1: an arrival
    seq = 0
    i = 0
    next_arrival = 0.0 if n else math.inf
    while True:
        # strictly earlier only: at a tie the arrival goes first
        if heap and heap[0][0] < next_arrival:
            now, _s, k, arrival = heappop(heap)
            if k < 0:
                k = 0
            else:
                # station k finished `arrival`: it takes its next waiting
                # request, and `arrival` moves on to station k + 1
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
                    if rearrive and now < horizon_ns:
                        heappush(heap, (now, seq, -1, now))
                        seq += 1
                    continue
                k += 1
        elif i < n:
            now = arrival = next_arrival
            i += 1
            next_arrival = i * interval if i < n else math.inf
            k = 0
        else:
            break
        # `arrival` enters station k
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

    metrics.delivered = len(latencies)
    metrics.loss = loss
    metrics.cpu_cost_ns = cpu
    metrics.last_delivery_ns = last_delivery
    for st, busy_ns in zip(stations, busy):
        metrics.stage_busy_ns[st.name] = (
            metrics.stage_busy_ns.get(st.name, 0.0) + busy_ns
        )
    return metrics


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
    request_size: int = 1024,
    duration_s: float = 0.05,
    seed: int = 0,
    n_workers: int = 8,
    models: dict = None,
) -> list:
    """Run every mode over the sweep grid; returns CSV-ready row dicts."""
    models = models or builtin_cost_models()
    rows = []
    for rate in rates:
        for conn in connections:
            for k in cores:
                for mode in modes:
                    cost = models[(mode, layer)]
                    topo = Topology(n_cores=k, n_workers=n_workers)
                    wl = Workload(
                        pattern="open", rate_qps=rate, n_connections=conn,
                        request_size=request_size, duration_s=duration_s,
                        seed=seed,
                    )
                    m = run_sim(mode, cost, wl, topo)
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
                   connections: int = 1, duration_s: float = 0.05,
                   request_size: int = 1024, seed: int = 0) -> float:
    """Measured delivered rate under 2x-overload open-loop offered load."""
    models = builtin_cost_models()
    cost = models[(mode, layer)]
    cap = max(
        capacity_rps(m, models[(m, layer)], topo, connections) for m in Mode
    )
    wl = Workload(pattern="open", rate_qps=2.0 * cap, n_connections=connections,
                  request_size=request_size, duration_s=duration_s, seed=seed)
    return run_sim(mode, cost, wl, topo).responses_per_s


def e2e_latency_reduction(seed: int = 0, rate_frac: float = 0.95,
                          duration_s: float = 0.4) -> float:
    """Mean-latency reduction of the offloaded mode vs the sidecar over a
    two-hop L7 path with host jitter, near the sidecar's saturation."""
    models = builtin_cost_models()
    topo = Topology(n_cores=2, n_workers=8, hops=2,
                    host_jitter_sigma=0.6, hw_jitter_sigma=0.15)
    envoy_cost = models[(Mode.ENVOY, "l7")]
    fp_cost = models[(Mode.FLATPROXY, "l7")]
    cap = capacity_rps(Mode.ENVOY, envoy_cost, topo)
    wl = Workload(pattern="open", rate_qps=rate_frac * cap,
                  duration_s=duration_s, seed=seed)
    envoy = run_sim(Mode.ENVOY, envoy_cost, wl, topo)
    fp = run_sim(Mode.FLATPROXY, fp_cost, wl, topo)
    return 1.0 - fp.mean_ns / envoy.mean_ns


# ---------------------------------------------------------------------------
# Functional run: the real chain under simulated time

def run_functional(runtime, wl: Workload) -> Metrics:
    """Push seeded requests through the real fast path and time them with
    the offloaded cost model.  Outcomes are read as fast-path counter
    deltas: a message egressed to a full TX ring (`ring_full`) is lost,
    not delivered, and so is one dropped (`msg_dropped`)."""
    from .core import FlowKey, Metadata, Proto, TrafficUnit, UnitKind

    rng = random.Random(wl.seed)
    listeners = runtime.config.listeners if runtime.config else []
    if not listeners:
        raise ValueError("run_functional needs a distributed config")
    listener = listeners[0]

    models = builtin_cost_models()
    cost = models[(Mode.FLATPROXY, "l7")]
    n_requests = max(1, int(wl.duration_s * wl.rate_qps))

    client_base = 0x0A000064  # 10.0.0.100
    flows = [
        FlowKey(
            sip=client_base + i,
            sport=40000 + (i % 20000),
            dip=listener.dip,
            dport=listener.dport,
            proto=Proto.TCP,
        )
        for i in range(wl.n_connections)
    ]

    metrics = Metrics(duration_s=wl.duration_s, request_size=wl.request_size)
    before = runtime.fast_path.counters()
    offsets = [0] * len(flows)  # per-connection byte sequence cursor
    for i in range(n_requests):
        conn_idx = i % len(flows)
        flow = flows[conn_idx]
        body = bytes([rng.randrange(32, 127)]) * max(0, wl.request_size - 64)
        payload = (
            b"GET /svc/a HTTP/1.1\r\nHost: a\r\nContent-Length: "
            + str(len(body)).encode() + b"\r\n\r\n" + body
        )
        unit = TrafficUnit(
            kind=UnitKind.FRAME,
            meta=Metadata(flow=flow, conn_id=conn_idx),
            payload=payload,
            seq=offsets[conn_idx],
        )
        offsets[conn_idx] += len(payload)
        runtime.fast_path.ingress(unit)
    delta = {k: v - before.get(k, 0)
             for k, v in runtime.fast_path.counters().items()}
    lost = delta.get("ring_full", 0)
    for _ in range(delta.get("msg_egress", 0) - lost):
        metrics.record(float(cost.total_ns))
    metrics.loss = delta.get("msg_dropped", 0) + lost
    return metrics
