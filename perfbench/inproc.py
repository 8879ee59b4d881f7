"""In-process workloads: frames into `FastPath.ingress` of a `MeshRuntime`,
with the benchmark playing the service side, plus the simulator sweep.

Every workload runs in rounds of fixed work.  Each round loads the config
and builds a fresh runtime (that is the set-up time sample), offers its
pre-built frames one by one, and after each `ingress` drains the flow's
own queue with `VirtQueue.stub_fetch`, checking each message against what
the flow sent.  Only the flow's queue is drained: scanning every queue
would add a cost that grows with the number of flows.  Draining is
required, not optional: when no stub drains a TX ring, `_vq_egress`
blocks forever in `tx_deliver` after 256 deliveries on one flow.  The
benchmark does not hide that deadlock; a program that stops needing the
drain still passes.
"""

from __future__ import annotations

import gc
import random
from collections import deque
from pathlib import Path
from time import perf_counter, perf_counter_ns

from flatproxy.core import FlowKey, Metadata, Proto, TrafficUnit, UnitKind, ip4_to_int
from flatproxy.slow_path import IDLE_TIMEOUT_NS, MeshRuntime, load_config
from memory import peak_rss_kib
from reference import INTERVAL_NS, NOMINAL_NS, reference_ns
from tracing import install

CONFIG = Path(__file__).with_name("mesh.yaml")
LISTENER_DIP = ip4_to_int("10.0.0.2")
LISTENER_PORT = 8080
SEGMENT_BYTES = 1460


def _flow(i: int) -> FlowKey:
    return FlowKey(sip=0x0A010000 + i, sport=20000 + i % 40000,
                   dip=LISTENER_DIP, dport=LISTENER_PORT, proto=Proto.TCP)


def _get(path: bytes, n: int) -> bytes:
    return (b"GET " + path + b" HTTP/1.1\r\nHost: backend\r\nX-Req: "
            + b"%07d" % n + b"\r\n\r\n")


def _post(body: bytes) -> bytes:
    return (b"POST /svc/upload HTTP/1.1\r\nHost: backend\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body)) + body


def _segments(flow, data: bytes) -> list:
    return [(flow, off, data[off:off + SEGMENT_BYTES])
            for off in range(0, len(data), SEGMENT_BYTES)]


class Checker:
    """Per-flow FIFO of the messages a service must see, in order, once."""

    def __init__(self):
        self.expected: dict[FlowKey, deque] = {}
        self.denied: set = set()
        self.attempted = 0
        self.delivered = 0
        self.delivered_bytes = 0
        self.wrong = 0  # wrong bytes, duplicate or out of order
        self.denied_leaked = 0

    def offer(self, flow, message: bytes, denied: bool = False):
        self.attempted += 1
        if denied:
            self.denied.add(message)
        else:
            self.expected.setdefault(flow, deque()).append(message)

    def fetched(self, flow, data: bytes):
        exp = self.expected.get(flow)
        if exp and exp[0] == data:
            exp.popleft()
            self.delivered += 1
            self.delivered_bytes += len(data)
        elif data in self.denied:
            self.denied_leaked += 1
        else:
            self.wrong += 1

    @property
    def lost(self) -> int:
        return sum(len(q) for q in self.expected.values())

    @property
    def failed(self) -> int:
        return self.lost + self.wrong + self.denied_leaked

    @property
    def correct(self) -> bool:
        return self.wrong == 0 and self.denied_leaked == 0


class Round:
    """One round's inputs: frames in offer order and the checker."""

    def __init__(self, frames_per_sample=1):
        self.frames = []  # (flow, seq, payload)
        # consecutive frames whose times add up to one latency sample
        self.frames_per_sample = frames_per_sample
        self.check = Checker()
        # frame index -> [clock ns, run expire_idle, run distribute], applied
        # before that frame is offered
        self.hooks = {}


def _interleave(rng, per_flow: list) -> list:
    """Seeded interleaving of per-flow frame lists, each kept in order."""
    order = [i for i, frames in enumerate(per_flow) for _ in frames]
    rng.shuffle(order)
    cursors = [0] * len(per_flow)
    out = []
    for i in order:
        out.append(per_flow[i][cursors[i]])
        cursors[i] += 1
    return out


# ---------------------------------------------------------------------------
# round generators

def gen_small_keepalive(rng, n_flows=64, per_flow=40, deny_frac=0.05) -> Round:
    rnd = Round()
    per = []
    n = 0
    for f in range(n_flows):
        flow, seq, frames = _flow(f), 0, []
        for _ in range(per_flow):
            n += 1
            denied = rng.random() < deny_frac
            path = b"/admin/%d" % rng.randrange(100) if denied else (
                b"/svc/a" if rng.random() < 0.5 else b"/svc/item/%d" % rng.randrange(1000))
            msg = _get(path, n)
            rnd.check.offer(flow, msg, denied)
            frames.append((flow, seq, msg))
            seq += len(msg)
        per.append(frames)
    rnd.frames = _interleave(rng, per)
    return rnd


def gen_bulk_segmented(rng, n_flows=8, per_flow=12, body_bytes=32 * 1024,
                       swap_frac=0.05) -> Round:
    rnd = Round()
    per = []
    for f in range(n_flows):
        flow, stream = _flow(f), []
        for _ in range(per_flow):
            msg = _post(rng.randbytes(body_bytes))
            rnd.check.offer(flow, msg)
            stream.append(msg)
        segs = _segments(flow, b"".join(stream))
        # swap adjacent pairs after the first segment; a swapped first pair
        # loses the flow for good (defect (a)), which first_swap_probe shows
        i = 1
        while i + 1 < len(segs):
            if rng.random() < swap_frac:
                segs[i], segs[i + 1] = segs[i + 1], segs[i]
                i += 2
            else:
                i += 1
        per.append(segs)
    rnd.frames = _interleave(rng, per)
    return rnd


def first_swap_probe(rng, n_flows=8) -> dict:
    """Defect (a), outside the timed rounds: each of `n_flows` new flows
    sends one 3-segment POST whose first two segments arrive swapped.
    Returns how many flows delivered nothing; the delivered messages still
    go through the output checks."""
    rnd = Round()
    per = []
    for f in range(n_flows):
        flow = _flow(f)
        msg = _post(rng.randbytes(2 * SEGMENT_BYTES))
        rnd.check.offer(flow, msg)
        segs = _segments(flow, msg)
        segs[0], segs[1] = segs[1], segs[0]
        per.append(segs)
    rnd.frames = _interleave(rng, per)
    drive_round(rnd)
    c = rnd.check
    return {"flows": n_flows, "lost_flows": sum(1 for q in c.expected.values() if q),
            "correct": c.correct}


def gen_conn_churn(rng, n_flows=3000, open_flows=1000, expire_every=16,
                   reload_every=500) -> Round:
    """New flows send two GETs each and go idle.  The injected clock moves
    one idle timeout per `open_flows` new flows, so about that many flows
    are open at once; `expire_idle` runs every `expire_every` flows and a
    config reload every `reload_every` messages.

    A latency sample is a new flow's two frames: the first takes the slow
    path, the second does not, and the median of such a half-and-half mix
    of frames is the edge between the two groups, which moves from round
    to round."""
    rnd = Round(frames_per_sample=2)
    tick = IDLE_TIMEOUT_NS // open_flows
    n = 0
    for f in range(n_flows):
        flow, seq = _flow(f), 0
        rnd.hooks[len(rnd.frames)] = [f * tick, f % expire_every == 0, False]
        for _ in range(2):
            n += 1
            path = b"/svc/a" if rng.random() < 0.5 else b"/svc/item/%d" % rng.randrange(1000)
            msg = _get(path, n)
            rnd.check.offer(flow, msg)
            if n % reload_every == 0:
                rnd.hooks.setdefault(len(rnd.frames), [f * tick, False, False])[2] = True
            rnd.frames.append((flow, seq, msg))
            seq += len(msg)
    return rnd


GENERATORS = {
    "small_keepalive": gen_small_keepalive,
    "bulk_segmented": gen_bulk_segmented,
    "conn_churn": gen_conn_churn,
}


# ---------------------------------------------------------------------------
# driving

def drive_round(rnd: Round, tracer=None) -> dict:
    units = [TrafficUnit(kind=UnitKind.FRAME, meta=Metadata(flow=flow, conn_id=0),
                         payload=payload, seq=seq)
             for flow, seq, payload in rnd.frames]
    check = rnd.check
    now = [0]
    gc.collect()
    t0 = perf_counter()
    config = load_config(CONFIG)
    runtime = MeshRuntime(config, clock=lambda: now[0])
    setup_s = perf_counter() - t0

    ingress = runtime.fast_path.ingress
    lookup = runtime.queue_table.lookup
    vqs, stubs = runtime.vqs, runtime.stubs
    hooks = rnd.hooks
    frame_ns = []
    record = frame_ns.append
    ref_ns = []
    next_ref = ref_wall_ns = 0
    start = perf_counter()
    for i, unit in enumerate(units):
        hook = hooks.get(i)
        if hook is not None:
            now[0], expire, reload = hook
            if expire:
                runtime.expire_idle()
            if reload:
                runtime.distribute(config)
        flow = unit.meta.flow
        if tracer is not None:
            tracer.req = i
        t = perf_counter_ns()
        if t >= next_ref:
            ref_ns.append(reference_ns())
            next_ref = perf_counter_ns()
            ref_wall_ns += next_ref - t
            t = next_ref
            next_ref += INTERVAL_NS
        ingress(unit)
        qid = lookup(flow)
        fetched = []
        if qid is not None:
            q, stub = vqs[qid], stubs[qid]
            while (data := q.stub_fetch(stub)) is not None:
                fetched.append(data)
        record(perf_counter_ns() - t)
        for data in fetched:
            check.fetched(flow, data)
    wall = perf_counter() - start - ref_wall_ns / 1e9
    if tracer is not None:
        tracer.req = None
    k = rnd.frames_per_sample
    sample_ns = frame_ns if k == 1 else [sum(frame_ns[i:i + k])
                                         for i in range(0, len(frame_ns), k)]
    gauges = {
        "results_held": len(runtime.fast_path.results()),
        "buffers_held": len(runtime.buffer_pool),
        "conns_held": len(runtime.conns),
        "queues_held": len(runtime.vqs),
        "ingress_frames": len(units),
    }
    runtime.shutdown()
    return {"setup_s": setup_s, "wall_s": wall, "sample_ns": sample_ns, "gauges": gauges,
            "slowdown": sum(ref_ns) / len(ref_ns) / NOMINAL_NS}


def run_inprocess(workload: str, seed: int, seconds: float, tracer=None) -> dict:
    rng = random.Random(seed)
    gen = GENERATORS[workload]
    drive_round(gen(random.Random(seed ^ 0x5EED)))  # warm-up, neither counted nor traced
    probe = first_swap_probe(random.Random(seed)) if workload == "bulk_segmented" else None
    if tracer is not None:
        install(tracer)
    rounds = []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(rounds) < 3:
        rnd = gen(rng)
        res = drive_round(rnd, tracer)
        c = rnd.check
        res.update(attempted=c.attempted, failed=c.failed, lost=c.lost,
                   wrong=c.wrong, denied_leaked=c.denied_leaked,
                   correct=c.correct, delivered=c.delivered,
                   delivered_bytes=c.delivered_bytes)
        res["rss_kib"] = peak_rss_kib()
        rounds.append(res)
    return {"rounds": rounds, "first_swap": probe}


# ---------------------------------------------------------------------------
# simulator sweep

SIM_DURATION_S = 0.01


SIM_UNDER_LOAD = 0.7


def sim_grid():
    """(layer, load class, rate) points: SIM_UNDER_LOAD of the lowest mode
    capacity, below every mode's, and 2x the highest capacity
    (saturation_rps's rule).  The fraction is fixed: the cost per simulated
    arrival depends on the load, so a seeded fraction made the run's
    figures depend on the seed more than on the program."""
    from flatproxy.sim import Mode, Topology, builtin_cost_models, capacity_rps

    models = builtin_cost_models()
    topo = Topology(n_cores=2, n_workers=8)
    grid = []
    for layer in ("l4", "l7"):
        caps = [capacity_rps(m, models[(m, layer)], topo) for m in Mode]
        grid.append((layer, "under", SIM_UNDER_LOAD * min(caps)))
        grid.append((layer, "over", 2.0 * max(caps)))
    return grid


def run_sim_sweep(seed: int, seconds: float, tracer=None) -> dict:
    from flatproxy.sim import Mode, compare_modes

    if tracer is not None:
        install(tracer)
    first_rows = None
    sweeps = []
    identical = True
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(sweeps) < 3:
        t0 = perf_counter()
        grid = sim_grid()
        setup_s = perf_counter() - t0
        rows, call_ns, ref_ns, arrivals = [], [], [], 0
        next_ref = ref_wall_ns = 0
        start = perf_counter()
        for layer, load_class, rate in grid:
            if tracer is not None:
                tracer.tag = load_class
            for mode in Mode:
                t = perf_counter_ns()
                if t >= next_ref:
                    ref_ns.append(reference_ns())
                    next_ref = perf_counter_ns()
                    ref_wall_ns += next_ref - t
                    t = next_ref
                    next_ref += INTERVAL_NS
                rows += compare_modes(layer=layer, rates=(rate,), connections=(1,),
                                      cores=(2,), modes=(mode,),
                                      duration_s=SIM_DURATION_S, seed=seed)
                dt = perf_counter_ns() - t
                n = int(SIM_DURATION_S * 1e9 / (1e9 / rate))  # as run_sim counts them
                arrivals += n
                call_ns.append(dt / n)
        wall = perf_counter() - start - ref_wall_ns / 1e9
        if first_rows is None:
            first_rows = rows
        elif rows != first_rows:
            identical = False
        sweeps.append({"setup_s": setup_s, "wall_s": wall, "arrivals": arrivals,
                       "rss_kib": peak_rss_kib(),
                       "per_arrival_ns": call_ns,
                       "slowdown": sum(ref_ns) / len(ref_ns) / NOMINAL_NS})
    return {"sweeps": sweeps, "identical": identical}
