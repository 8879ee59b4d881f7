import random
import threading

import pytest

from flatproxy.core import (
    BufferPool,
    Metadata,
    ProtoType,
    TrafficUnit,
    UnitKind,
    Verdict,
)
from flatproxy.fast_path import (
    Framing,
    OutOfWindow,
    ToeEngine,
    WorkerPool,
)
from flatproxy.l7 import Decision, FilterRule, http_parse
from flatproxy.match_action import (
    ActionProgram,
    ChainSpec,
    Layer,
    Ppm,
    proc,
)
from flatproxy.slow_path import MeshRuntime, load_config
from conftest import config_text, make_flow, make_message, make_request


def seg(payload, seq, flow=None, conn_id=1):
    return TrafficUnit(
        kind=UnitKind.SEGMENT,
        meta=Metadata(flow=flow or make_flow(), conn_id=conn_id),
        payload=payload,
        seq=seq,
    )


def frame(payload, flow=None, conn_id=1, seq=0):
    return TrafficUnit(
        kind=UnitKind.FRAME,
        meta=Metadata(flow=flow or make_flow(), conn_id=conn_id),
        payload=payload,
        seq=seq,
    )


# -- TOE reassembly ----------------------------------------------------------

def test_toe_in_order_single_message():
    toe = ToeEngine()
    raw = make_request(body=b"hi")
    msgs = toe.deliver(seg(raw, 0))
    assert len(msgs) == 1
    assert msgs[0].payload == raw
    assert msgs[0].kind is UnitKind.MESSAGE
    assert msgs[0].meta.proto_type is ProtoType.HTTP


def test_toe_split_across_segments():
    toe = ToeEngine()
    raw = make_request(body=b"0123456789")
    a, b = raw[:10], raw[10:]
    assert toe.deliver(seg(a, 0)) == []
    msgs = toe.deliver(seg(b, 10))
    assert len(msgs) == 1
    assert msgs[0].payload == raw


def test_toe_reorder_then_release():
    toe = ToeEngine()
    raw = make_request(body=b"abcdef")
    a, b, c = raw[:5], raw[5:12], raw[12:]
    toe.open(make_flow())
    assert toe.deliver(seg(b, 5)) == []
    assert toe.deliver(seg(c, 12)) == []
    msgs = toe.deliver(seg(a, 0))
    assert len(msgs) == 1
    assert msgs[0].payload == raw


def test_toe_duplicate_counted_once():
    toe = ToeEngine()
    raw = make_request()
    msgs = toe.deliver(seg(raw, 0))
    assert len(msgs) == 1
    assert toe.deliver(seg(raw, 0)) == []
    key = make_flow()
    assert toe.connections[key].duplicates == 1


def test_toe_two_messages_one_segment():
    toe = ToeEngine()
    r1 = make_request(b"/a")
    r2 = make_request(b"/b", body=b"zz")
    msgs = toe.deliver(seg(r1 + r2, 0))
    assert [m.payload for m in msgs] == [r1, r2]


def test_toe_unknown_conn_nonzero_seq_slow_path():
    toe = ToeEngine()
    s = seg(b"x", 100)
    assert toe.deliver(s) == []
    assert s.meta.verdict is Verdict.TO_SLOW_PATH
    assert s.meta.verdict_reason == "connection_unknown"


def test_toe_reorder_overflow_raises():
    toe = ToeEngine(reorder_limit=4)
    toe.open(make_flow())
    for i in range(4):
        toe.deliver(seg(b"x", 10 + i))
    with pytest.raises(OutOfWindow):
        toe.deliver(seg(b"x", 100))


def test_toe_length_prefix_framing():
    toe = ToeEngine()
    key = make_flow()
    toe.open(key, framing=Framing.LENGTH_PREFIX)
    payload = (3).to_bytes(4, "big") + b"abc" + (2).to_bytes(4, "big") + b"de"
    msgs = toe.deliver(seg(payload, 0))
    assert [m.payload for m in msgs] == [b"abc", b"de"]
    assert all(m.meta.proto_type is ProtoType.L4_STREAM for m in msgs)


def test_toe_stream_framing_passthrough():
    toe = ToeEngine()
    key = make_flow()
    toe.open(key, framing=Framing.STREAM)
    msgs = toe.deliver(seg(b"raw bytes", 0))
    assert [m.payload for m in msgs] == [b"raw bytes"]


def test_toe_randomized_permutations_reassemble_exactly():
    rng = random.Random(7)
    for trial in range(30):
        raw = make_request(body=bytes(rng.randrange(256) for _ in range(200)))
        cuts = sorted(rng.sample(range(1, len(raw)), 6))
        pieces, prev = [], 0
        for c in cuts + [len(raw)]:
            pieces.append((prev, raw[prev:c]))
            prev = c
        rng.shuffle(pieces)
        toe = ToeEngine()
        toe.open(make_flow())
        out = []
        for off, chunk in pieces:
            out.extend(toe.deliver(seg(chunk, off)))
        assert len(out) == 1
        assert out[0].payload == raw


def test_toe_bad_content_length_keeps_stream_framed():
    """A negative Content-Length frames the header block alone: the next
    request on the stream is still framed whole, and the parser sends the
    bad one to the slow path."""
    toe = ToeEngine()
    bad = b"POST /svc/a HTTP/1.1\r\nHost: x\r\nContent-Length: -3\r\n\r\n"
    good = make_request(b"/svc/b", body=b"zz")
    msgs = toe.deliver(seg(bad + good, 0))
    assert [m.payload for m in msgs] == [bad, good]
    http_parse(msgs[0], BufferPool())
    assert msgs[0].meta.verdict is Verdict.TO_SLOW_PATH
    assert msgs[0].meta.verdict_reason == "malformed_http:bad content-length"


# -- worker pool -------------------------------------------------------------

def test_worker_pool_rejects_non_message():
    pool = WorkerPool(1, lambda u: None, synchronous=True)
    with pytest.raises(ValueError):
        pool.submit(frame(b"x"))


def test_worker_pool_per_flow_fifo():
    done = []
    lock = threading.Lock()

    def egress(unit):
        with lock:
            done.append((unit.meta.flow.sport, unit.meta.conn_id))

    pool = WorkerPool(4, egress)
    flows = [make_flow(sport=40000 + i) for i in range(8)]
    for i in range(50):
        for f in flows:
            pool.submit(TrafficUnit(
                kind=UnitKind.MESSAGE, meta=Metadata(flow=f, conn_id=i)
            ))
    pool.drain()
    pool.shutdown()
    assert len(done) == 400
    by_flow = {}
    for sport, i in done:
        by_flow.setdefault(sport, []).append(i)
    for seq_list in by_flow.values():
        assert seq_list == sorted(seq_list)


def test_worker_pool_result_multiset_invariant_across_sizes():
    payloads = [make_request(b"/p%d" % i) for i in range(40)]
    results = {}
    for n in (1, 2, 8):
        done = []
        lock = threading.Lock()

        def egress(unit):
            with lock:
                done.append(unit.payload)

        pool = WorkerPool(n, egress)
        for i, p in enumerate(payloads):
            pool.submit(TrafficUnit(
                kind=UnitKind.MESSAGE,
                meta=Metadata(flow=make_flow(sport=40000 + i)),
                payload=p,
            ))
        pool.drain()
        pool.shutdown()
        results[n] = sorted(done)
    assert results[1] == results[2] == results[8]


# -- full fast path ----------------------------------------------------------

@pytest.fixture
def runtime():
    cfg = load_config(config_text())
    rt = MeshRuntime(config=cfg, synchronous=True)
    yield rt
    rt.shutdown()


def test_ingress_requires_frame(runtime):
    with pytest.raises(ValueError):
        runtime.fast_path.ingress(
            TrafficUnit(kind=UnitKind.MESSAGE, meta=Metadata(flow=make_flow()))
        )


def test_first_packet_slow_path_then_delivery(runtime):
    raw = make_request(b"/svc/a")
    disp = runtime.fast_path.ingress(frame(raw))
    # the slow path installs the flow and reinjects; the reinjected unit
    # travels the whole pipeline to delivery
    assert disp == "slow_path"
    runtime.fast_path.drain()
    snap = runtime.stats_snapshot()
    assert snap["slow_path"]["installed"] == 1
    assert snap["slow_path"]["reinjected"] == 1
    assert snap["fast_path"]["msg_egress"] == 1
    results = runtime.fast_path.results()
    assert results[0][0].meta.verdict is Verdict.DELIVER


def test_established_flow_skips_slow_path(runtime):
    raw = make_request(b"/svc/a")
    runtime.fast_path.ingress(frame(raw))
    before = runtime.stats_snapshot()["slow_path"].get("installed", 0)
    disp = runtime.fast_path.ingress(frame(raw, conn_id=2, seq=len(raw)))
    assert disp == "l7"
    after = runtime.stats_snapshot()["slow_path"].get("installed", 0)
    assert after == before


def test_l4_forward_short_circuits_to_vq(runtime):
    from flatproxy.vq import ServiceStub, VirtQueue

    flow = make_flow(sport=45000)
    stub = ServiceStub(tenant="t")
    q = VirtQueue(tenant="t")
    q.bind(stub)
    runtime.vqs[q.id] = q
    runtime.conn_controller.publish(
        runtime.l4_table, add={flow: ("forward_vq", q.id)}
    )
    unit = frame(b"opaque-l4-bytes", flow=flow)
    disp = runtime.fast_path.ingress(unit)
    assert disp == "vq"
    assert unit.meta.queue == q.id
    assert q.stub_fetch(stub) == b"opaque-l4-bytes"
    # never submitted to the L7 pool
    assert runtime.fast_path.counters().get("msg_submitted", 0) == 0


def test_filtered_request_dropped(runtime):
    raw = make_request(b"/admin/panel")
    runtime.fast_path.ingress(frame(raw))
    runtime.fast_path.drain()
    counters = runtime.fast_path.counters()
    assert counters.get("msg_dropped", 0) == 1
    assert counters.get("msg_egress", 0) == 0


def test_partial_message_buffers(runtime):
    raw = make_request(b"/svc/a", body=b"0123456789")
    flow = make_flow(sport=46000)
    runtime.fast_path.ingress(frame(raw[:20], flow=flow))  # installs + reinjects
    disp = runtime.fast_path.ingress(frame(raw[20:], flow=flow, seq=20))
    assert disp == "l7"
    runtime.fast_path.drain()
    counters = runtime.fast_path.counters()
    assert counters.get("buffered", 0) == 1
    assert counters.get("msg_egress", 0) == 1


def test_unit_conservation(runtime):
    rng = random.Random(3)
    for i in range(60):
        path = rng.choice([b"/svc/a", b"/admin/x", b"/nowhere"])
        raw = make_request(path)
        runtime.fast_path.ingress(frame(raw, flow=make_flow(sport=47000 + i)))
    runtime.fast_path.drain()
    c = runtime.fast_path.counters()
    assert c["ingress"] == (
        c.get("egress", 0) + c.get("dropped", 0)
        + c.get("slow_path", 0) + c.get("buffered", 0)
    )
    assert c.get("msg_submitted", 0) == (
        c.get("msg_egress", 0) + c.get("msg_dropped", 0)
        + c.get("msg_slow_path", 0)
    )
    # every parsed body is released once its unit is disposed of
    assert len(runtime.buffer_pool) == 0


def test_first_segments_swapped_still_delivered(runtime):
    """A new flow whose second segment arrives first: the slow path opens
    the flow's TOE state when it installs the L4 entry, so the reinjected
    segment waits for the first one instead of being dropped."""
    flow = make_flow(sport=46500)
    raw = make_request(b"/svc/a", method=b"POST", body=bytes(range(256)) * 4)
    cuts = [0, len(raw) // 3, 2 * len(raw) // 3, len(raw)]
    segs = [(cuts[i], raw[cuts[i]:cuts[i + 1]]) for i in range(3)]
    segs[0], segs[1] = segs[1], segs[0]
    for off, chunk in segs:
        runtime.fast_path.ingress(frame(chunk, flow=flow, seq=off))
    runtime.fast_path.drain()
    qid = runtime.queue_table.lookup(flow)
    assert qid is not None
    assert runtime.vqs[qid].stub_fetch(runtime.stubs[qid]) == raw


def test_oversize_message_goes_to_slow_path(runtime):
    """A message larger than a VQ descriptor is refused by the framer, so
    it never reaches tx_deliver."""
    raw = make_request(b"/svc/a", method=b"POST", body=b"x" * (70 * 1024))
    runtime.fast_path.ingress(frame(raw))
    runtime.fast_path.drain()
    results = runtime.fast_path.results()
    assert results
    for unit, _trace in results:
        assert unit.meta.verdict is Verdict.TO_SLOW_PATH
        assert unit.meta.verdict_reason.startswith("malformed_http:")
    assert runtime.fast_path.counters().get("msg_egress", 0) == 0


def test_deparsed_payload_byte_exact(runtime):
    raw = make_request(b"/svc/a", host=b"api", body=b"payload")
    runtime.fast_path.ingress(frame(raw))
    runtime.fast_path.drain()
    unit, _trace = runtime.fast_path.results()[0]
    assert unit.meta.verdict is Verdict.DELIVER
    assert unit.payload == raw


# -- epoch consistency -------------------------------------------------------

@pytest.mark.parametrize("republish", ["deny_all_filters", "empty_routes"])
def test_traversal_keeps_snapshot_from_its_start(runtime, republish):
    """An L7 PPM ahead of the filter publishes new rules mid-traversal.
    The request in flight keeps the rules its traversal started with; the
    next traversal sees the new ones."""

    def publish(unit, ctx, snaps):
        if republish == "deny_all_filters":
            rules = (FilterRule(decision=Decision.DENY),)
            runtime.msg_controller.publish(runtime.filter_table,
                                           add={"rules": rules})
        else:
            routes = list(runtime.route_table.current.entries)
            runtime.msg_controller.publish(runtime.route_table, remove=routes)

    runtime.registry["publisher"] = Ppm(
        id="publisher", layer=Layer.L7, matcher=lambda unit, snaps: "publish",
        actions={"publish": ActionProgram("publish", [proc(publish)])},
    )
    chain = runtime.compile(ChainSpec(["toe", "http_parser", "publisher",
                                       "filter", "router", "http_deparser"]))
    flow = make_flow(sport=48000)
    runtime.conn_controller.publish(runtime.l4_table,
                                    add={flow: ("l7", Framing.HTTP)})
    first, _ = chain.execute(make_message(make_request(b"/svc/a"), flow=flow))
    assert first.meta.verdict is Verdict.DELIVER
    assert first.meta.verdict_reason == "deparsed"
    second, _ = chain.execute(
        make_message(make_request(b"/svc/a"), flow=flow, conn_id=2))
    assert second.meta.verdict is Verdict.DROP
    assert second.meta.verdict_reason == (
        "filter" if republish == "deny_all_filters" else "no_route")
