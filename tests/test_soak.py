"""Memory stays bounded per connection and per run.

Each test runs a warm-up, then two equal halves under `tracemalloc`, and
bounds the traced memory the second half adds to what the first half left:
a data plane that keeps anything per message or per closed flow grows by
the size of a half.
"""

import gc
import tracemalloc

from flatproxy.core import Metadata, TrafficUnit, UnitKind
from flatproxy.slow_path import IDLE_TIMEOUT_NS, MeshRuntime, load_config
from conftest import config_text, make_flow, make_request

GROWTH_BOUND = 64 * 1024  # bytes


def traced_marks(step, n):
    """Run `step(i)` for i in [0, n) untraced, then for [n, 2n) and
    [2n, 3n) under tracemalloc; returns the traced bytes after the warm-up
    and after each half."""
    for i in range(n):
        step(i)
    tracemalloc.start()
    try:
        gc.collect()
        marks = [tracemalloc.get_traced_memory()[0]]
        for half in (range(n, 2 * n), range(2 * n, 3 * n)):
            for i in half:
                step(i)
            gc.collect()
            marks.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    return marks


def drain(rt, flow):
    qid = rt.queue_table.lookup(flow)
    q, stub = rt.vqs[qid], rt.stubs[qid]
    while q.stub_fetch(stub) is not None:
        pass


def test_one_long_flow_keeps_nothing_per_message():
    """Keep-alive GETs on one flow, the flow's stub drained after each
    frame."""
    rt = MeshRuntime(config=load_config(config_text()))
    flow = make_flow(sport=48000)
    raw = make_request(b"/svc/a")

    def step(i):
        rt.fast_path.ingress(TrafficUnit(
            kind=UnitKind.FRAME, meta=Metadata(flow=flow), payload=raw,
            seq=i * len(raw)))
        drain(rt, flow)

    n = 2000
    marks = traced_marks(step, n)
    assert marks[2] - marks[1] < GROWTH_BOUND, marks
    assert rt.fast_path.counters()["msg_egress"] == 3 * n
    rt.shutdown()


def test_short_flows_keep_nothing_once_expired():
    """One GET per flow, the clock advancing 1/64 of the idle timeout per
    flow and idle flows expired every 16 flows, so about 70 are open at
    once."""
    now = [0]
    rt = MeshRuntime(config=load_config(config_text()), clock=lambda: now[0])
    raw = make_request(b"/svc/a")

    def step(i):
        now[0] += IDLE_TIMEOUT_NS // 64
        flow = make_flow(sport=1024 + i)
        rt.fast_path.ingress(TrafficUnit(
            kind=UnitKind.FRAME, meta=Metadata(flow=flow), payload=raw))
        drain(rt, flow)
        if i % 16 == 15:
            rt.expire_idle()

    n = 1000
    marks = traced_marks(step, n)
    assert marks[2] - marks[1] < GROWTH_BOUND, marks
    assert len(rt.conns) <= 64 + 16 + 1
    assert rt.fast_path.counters()["msg_egress"] == 3 * n
    rt.shutdown()
