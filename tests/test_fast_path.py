import random
from collections import Counter, OrderedDict, defaultdict
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from flatproxy import fast_path, l7
from flatproxy.core import (
    Conn,
    Message,
    Metadata,
    TrafficUnit,
    UnitKind,
    Verdict,
)
from flatproxy.fast_path import FastPath, OutOfWindow, ToeEngine
from flatproxy.l7 import Decision, FilterRule, frame_http, http_parse
from flatproxy.match_action import ExecutableChain, MatchTable, Ppm
from flatproxy.slow_path import IDLE_TIMEOUT_NS, MeshRuntime, load_config
from flatproxy.vq import DEFAULT_RING_CAPACITY
from conftest import (config_text, flow_message, make_flow, make_request,
                      profiled)


def seg(payload, seq, flow=None, conn_id=1):
    return TrafficUnit(
        kind=UnitKind.FRAME,
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

def new_conn():
    """A flow's record as the slow path builds it: the TOE's state."""
    return Conn(l7.HttpReader())


def test_toe_in_order_single_message():
    toe = ToeEngine()
    conn = new_conn()
    raw = make_request(body=b"hi")
    msgs = toe.deliver(seg(raw, 0), conn)
    assert len(msgs) == 1
    assert msgs[0].payload == raw
    assert type(msgs[0]) is Message


def test_toe_hands_on_one_message_object_per_message():
    """Each message the TOE cuts is one `Message` of the frame's flow; a
    segment that is exactly one whole message is handed on as that very
    bytes object, neither copied nor joined."""
    flow = make_flow(sport=40500)
    toe = ToeEngine()
    conn = new_conn()
    raw = make_request(body=b"hi")
    (msg,) = toe.deliver(seg(raw, 0, flow=flow), conn)
    assert msg.payload is raw
    assert msg.flow is flow
    assert msg.head == frame_http(raw)
    assert msg.verdict is Verdict.CONTINUE and msg.queue is None
    assert msg.method is None  # not parsed yet
    pipelined = make_request(b"/svc/b") + make_request(b"/svc/c")
    msgs = toe.deliver(seg(pipelined, len(raw), flow=flow), conn)
    assert [m.payload for m in msgs] == [make_request(b"/svc/b"),
                                         make_request(b"/svc/c")]
    assert all(m.flow is flow and m.conn is conn for m in [msg, *msgs])
    assert msgs[0] is not msgs[1]


def test_toe_split_across_segments():
    toe = ToeEngine()
    conn = new_conn()
    raw = make_request(body=b"0123456789")
    a, b = raw[:10], raw[10:]
    assert toe.deliver(seg(a, 0), conn) == ()
    msgs = toe.deliver(seg(b, 10), conn)
    assert len(msgs) == 1
    assert msgs[0].payload == raw


def test_toe_reorder_then_release():
    toe = ToeEngine()
    raw = make_request(body=b"abcdef")
    a, b, c = raw[:5], raw[5:12], raw[12:]
    conn = new_conn()
    assert toe.deliver(seg(b, 5), conn) == ()
    assert toe.deliver(seg(c, 12), conn) == ()
    msgs = toe.deliver(seg(a, 0), conn)
    assert len(msgs) == 1
    assert msgs[0].payload == raw


def test_toe_duplicate_counted_once():
    """A duplicate segment is refused as `duplicate`, whether its bytes
    were delivered or wait in the reorder buffer; the fast path counts it
    once, as a drop by that reason."""
    toe = ToeEngine()
    conn = new_conn()
    raw = make_request()
    msgs = toe.deliver(seg(raw, 0), conn)
    assert len(msgs) == 1
    # held for reordering
    assert toe.deliver(seg(raw, 2 * len(raw)), conn) == ()
    for seq in (0, 2 * len(raw)):  # delivered, and held
        with pytest.raises(OutOfWindow) as exc:
            toe.deliver(seg(raw, seq), conn)
        assert exc.value.args == ("duplicate",)

    rt = MeshRuntime(config=load_config(config_text()))
    assert rt.fast_path.ingress(frame(raw)) == "l7"
    assert rt.fast_path.ingress(frame(raw)) == "dropped"
    c = rt.fast_path.counters()
    assert c["dropped"] == c["dropped.duplicate"] == 1
    assert "buffered" not in c and c["msg_egress"] == 1
    rt.shutdown()


def test_toe_two_messages_one_segment():
    toe = ToeEngine()
    conn = new_conn()
    r1 = make_request(b"/a")
    r2 = make_request(b"/b", body=b"zz")
    msgs = toe.deliver(seg(r1 + r2, 0), conn)
    assert [m.payload for m in msgs] == [r1, r2]


def test_toe_deliver_needs_an_opened_flow():
    """A flow's record has one builder, the slow path's handoff, and the
    TOE reassembles into the record it is given: a segment of a flow with
    no record goes to the handoff, and one it builds none for is dropped
    before the TOE, so no state is opened."""
    handed = []
    fp = FastPath(l7_chain=None, slow_path_handoff=handed.append,
                  vq_egress=None)
    unit = seg(make_request(), 0)
    assert fp.ingress(unit) == "dropped"
    assert handed == [unit] and unit.meta.verdict_reason == "no_listener"
    assert fp.toe.connections == {}


def test_toe_reorder_overflow_raises(monkeypatch):
    monkeypatch.setattr(fast_path, "REORDER_BUFFER_SEGMENTS", 4)
    toe = ToeEngine()
    conn = new_conn()
    for i in range(4):
        toe.deliver(seg(b"x", 10 + i), conn)
    with pytest.raises(OutOfWindow):
        toe.deliver(seg(b"x", 100), conn)


def _post49():
    raw = make_request(b"/a", method=b"POST", body=b"h")
    assert len(raw) == 49
    return raw


def test_toe_overlapping_segment_delivers_its_new_bytes():
    """A segment that starts behind `next_seq` but ends past it, such as a
    retransmission cut at other boundaries, goes on as its bytes past
    `next_seq`; one that ends at or before `next_seq` is a duplicate."""
    raw = _post49()
    toe = ToeEngine()
    conn = new_conn()
    assert toe.deliver(seg(raw[:20], 0), conn) == ()
    for seq, end in ((0, 20), (10, 20), (5, 15)):
        with pytest.raises(OutOfWindow, match="duplicate"):
            toe.deliver(seg(raw[seq:end], seq), conn)
    msgs = toe.deliver(seg(raw[10:], 10), conn)
    assert [m.payload for m in msgs] == [raw]
    assert conn.next_seq == 49


def test_toe_drops_held_segments_the_stream_has_passed():
    """Draining takes off every held segment the stream has reached: one
    that ends at or before `next_seq` is dropped, and one that straddles
    it goes on as its bytes past it, so no slot stays held behind the
    stream."""
    raw = _post49()
    toe = ToeEngine()
    conn = new_conn()
    assert toe.deliver(seg(raw[30:], 30), conn) == ()
    assert toe.deliver(seg(raw[25:], 25), conn) == ()
    msgs = toe.deliver(seg(raw[:25], 0), conn)
    assert [m.payload for m in msgs] == [raw]
    assert conn.reorder == {} and conn.next_seq == 49
    # held behind a segment that overlaps them: trimmed, or dropped whole
    flow2, conn2 = make_flow(sport=40999), new_conn()
    for seq, end in ((30, 40), (35, 49), (20, 28)):
        assert toe.deliver(seg(raw[seq:end], seq, flow=flow2), conn2) == ()
    msgs = toe.deliver(seg(raw[:32], 0, flow=flow2), conn2)
    assert [m.payload for m in msgs] == [raw]
    assert conn2.reorder == {} and conn2.next_seq == 49


def test_toe_longer_segment_replaces_a_held_one_at_its_seq():
    """A segment ahead of `next_seq` at the seq of a held one is a
    duplicate unless it is longer: then it is held instead, so its bytes
    past the shorter one are not lost."""
    raw = _post49()
    toe = ToeEngine()
    conn = new_conn()
    assert toe.deliver(seg(raw[30:35], 30), conn) == ()
    with pytest.raises(OutOfWindow, match="duplicate"):
        toe.deliver(seg(raw[30:33], 30), conn)
    assert toe.deliver(seg(raw[30:], 30), conn) == ()
    msgs = toe.deliver(seg(raw[:30], 0), conn)
    assert [m.payload for m in msgs] == [raw]
    assert conn.reorder == {}


@st.composite
def segmented_streams(draw):
    """A pipelined stream of requests, and segments of it to send in
    order: a segmentation of the whole stream, segments over random byte
    ranges that overlap it, and copies of some of its segments, shuffled,
    fewer than REORDER_BUFFER_SEGMENTS in all."""
    sizes = draw(st.lists(st.integers(0, 120), min_size=1, max_size=4))
    raws = [make_request(b"/svc/m%d" % i, method=b"POST" if n else b"GET",
                         body=bytes(range(n)))
            for i, n in enumerate(sizes)]
    stream = b"".join(raws)
    n = len(stream)
    cuts = sorted(set(draw(st.lists(st.integers(1, n - 1), max_size=12))))
    bounds = [0, *cuts, n]
    segs = [(a, b) for a, b in zip(bounds, bounds[1:])]
    segs += [(a, min(n, a + length)) for a, length in draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(1, n)), max_size=10))]
    segs += draw(st.lists(st.sampled_from(segs[:len(bounds) - 1]),
                          max_size=5))
    order = draw(st.permutations(segs))
    return raws, [(a, stream[a:b]) for a, b in order]


@settings(max_examples=200, deadline=None)
@given(segmented_streams())
def test_toe_any_segmentation_delivers_each_message_once(case):
    """Whatever the segmentation, overlaps, duplicates and order (within
    the reorder buffer), each message reaches the service once, in order
    and byte-exact, the reorder buffer ends empty, and each frame is
    counted under exactly one outcome."""
    raws, segments = case
    assert len(segments) < fast_path.REORDER_BUFFER_SEGMENTS
    rt = MeshRuntime(config=load_config(config_text()))
    flow = make_flow(sport=40777)
    for seq, chunk in segments:
        rt.fast_path.ingress(frame(chunk, flow=flow, seq=seq))
    qid = rt.queue_table.lookup(flow)
    q, stub = rt.vqs[qid], rt.stubs[qid]
    got = []
    while (data := q.stub_fetch(stub)) is not None:
        got.append(data)
    assert got == raws
    conn = rt.conns[flow]
    assert conn.reorder == {} and conn.next_seq == sum(map(len, raws))
    c = rt.fast_path.counters()
    assert c["ingress"] == c.get("egress", 0) + c.get("buffered", 0) + c.get(
        "dropped", 0) == len(segments)
    assert c["msg_egress"] == c["msg_submitted"] == len(raws)
    rt.shutdown()


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
        conn = new_conn()
        out = []
        for off, chunk in pieces:
            out.extend(toe.deliver(seg(chunk, off), conn))
        assert len(out) == 1
        assert out[0].payload == raw


def test_toe_bad_content_length_keeps_stream_framed():
    """A negative Content-Length frames the header block alone: the next
    request on the stream is still framed whole, and the parser drops the
    bad one."""
    toe = ToeEngine()
    conn = new_conn()
    bad = b"POST /svc/a HTTP/1.1\r\nHost: x\r\nContent-Length: -3\r\n\r\n"
    good = make_request(b"/svc/b", body=b"zz")
    msgs = toe.deliver(seg(bad + good, 0), conn)
    assert [m.payload for m in msgs] == [bad, good]
    http_parse(msgs[0], {}, {})
    assert msgs[0].verdict is Verdict.DROP
    assert msgs[0].verdict_reason == "malformed_http:bad content-length"


# -- full fast path ----------------------------------------------------------

@pytest.fixture
def runtime():
    cfg = load_config(config_text())
    rt = MeshRuntime(config=cfg)
    yield rt
    rt.shutdown()


def _overlong_length(digits):
    return (b"POST /svc/a HTTP/1.1\r\nHost: x\r\nContent-Length: " + digits
            + b"\r\n\r\n")


def test_overlong_content_length_is_one_counted_400(runtime):
    """A Content-Length of thousands of digits -- past what `int` takes from
    a string -- is a malformed request, dropped as `malformed_http` (400)
    inside its one `ingress` call, and the request behind it is delivered;
    one with leading zeros is a legal length, however many zeros."""
    flow = make_flow(sport=40600)
    good = make_request(b"/svc/b")
    bad = _overlong_length(b"9" * 5000)
    assert runtime.fast_path.ingress(frame(bad + good, flow=flow)) == "l7"
    zeros = _overlong_length(b"0" * 5000 + b"5") + b"hello"
    assert runtime.fast_path.ingress(
        frame(zeros, flow=flow, seq=len(bad + good))) == "l7"
    c = runtime.fast_path.counters()
    assert c["ingress"] == c["egress"] + c.get("buffered", 0) + c.get(
        "dropped", 0) == 2
    assert c["msg_submitted"] == 3
    assert c["msg_dropped"] == c["msg_dropped.malformed_http"] == 1
    assert c["status.400"] == 1 and c["msg_egress"] == 2
    qid = runtime.queue_table.lookup(flow)
    q, stub = runtime.vqs[qid], runtime.stubs[qid]
    assert [q.stub_fetch(stub) for _ in range(2)] == [good, zeros]


def test_first_packet_slow_path_then_delivery(runtime):
    raw = make_request(b"/svc/a")
    disp = runtime.fast_path.ingress(frame(raw))
    # the slow path opens the flow within the one ingress call, and the
    # frame goes on through the whole pipeline to delivery
    assert disp == "l7"
    snap = runtime.stats_snapshot()
    assert snap["fast_path"]["ingress"] == snap["fast_path"]["slow_path"] == 1
    assert snap["fast_path"]["msg_egress"] == 1
    qid = runtime.queue_table.lookup(make_flow())
    assert runtime.vqs[qid].stub_fetch(runtime.stubs[qid]) == raw


def test_established_flow_skips_slow_path(runtime):
    raw = make_request(b"/svc/a")
    runtime.fast_path.ingress(frame(raw))
    before = runtime.fast_path.counters()["slow_path"]
    disp = runtime.fast_path.ingress(frame(raw, conn_id=2, seq=len(raw)))
    assert disp == "l7"
    assert runtime.fast_path.counters()["slow_path"] == before


def test_filtered_request_dropped(runtime):
    raw = make_request(b"/admin/panel")
    runtime.fast_path.ingress(frame(raw))
    counters = runtime.fast_path.counters()
    assert counters.get("msg_dropped", 0) == 1
    assert counters.get("msg_egress", 0) == 0


def test_partial_message_buffers(runtime):
    raw = make_request(b"/svc/a", body=b"0123456789")
    flow = make_flow(sport=46000)
    runtime.fast_path.ingress(frame(raw[:20], flow=flow))  # opens the flow
    disp = runtime.fast_path.ingress(frame(raw[20:], flow=flow, seq=20))
    assert disp == "l7"
    counters = runtime.fast_path.counters()
    assert counters.get("buffered", 0) == 1
    assert counters.get("msg_egress", 0) == 1


def test_ingress_keeps_per_flow_fifo(runtime):
    """8 flows x 50 requests, each cut into two frames, the flows' frames
    interleaved at random: each flow's stub fetches its own requests
    byte-exact and in the order they were sent."""
    rng = random.Random(11)
    flows = [make_flow(sport=49000 + f) for f in range(8)]
    sent = {flow: [] for flow in flows}
    streams = []
    for flow in flows:
        seq, frames = 0, []
        for i in range(50):
            raw = make_request(b"/svc/item/%d" % i, method=b"POST",
                               body=b"%d:%d;" % (flow.sport, i) * rng.randrange(1, 9))
            sent[flow].append(raw)
            cut = rng.randrange(1, len(raw))
            frames += [frame(raw[:cut], flow=flow, seq=seq),
                       frame(raw[cut:], flow=flow, seq=seq + cut)]
            seq += len(raw)
        streams.append(frames)
    while streams:
        frames = rng.choice(streams)
        runtime.fast_path.ingress(frames.pop(0))
        streams = [s for s in streams if s]
    assert runtime.fast_path.counters()["msg_egress"] == 400
    for flow in flows:
        qid = runtime.queue_table.lookup(flow)
        q, stub = runtime.vqs[qid], runtime.stubs[qid]
        got = []
        while (data := q.stub_fetch(stub)) is not None:
            got.append(data)
        assert got == sent[flow], flow.sport


def test_unit_conservation(runtime):
    def conserved(offered):
        """Check the counters after `offered` frames in all."""
        c = runtime.fast_path.counters()
        assert c["ingress"] == offered == (
            c.get("egress", 0) + c.get("dropped", 0) + c.get("buffered", 0)
        )
        assert c.get("msg_submitted", 0) == (
            c.get("msg_egress", 0) + c.get("msg_dropped", 0))
        # every drop is counted under its reason, and a message's also
        # under its status
        for prefix in ("dropped", "msg_dropped"):
            by_reason = {k: v for k, v in c.items()
                         if k.startswith(prefix + ".")}
            assert sum(by_reason.values()) == c.get(prefix, 0)
        assert sum(v for k, v in c.items() if k.startswith("status.")) == (
            c.get("msg_dropped", 0))
        return c

    rng = random.Random(3)
    for i in range(60):
        path = rng.choice([b"/svc/a", b"/admin/x", b"/nowhere"])
        raw = make_request(path)
        runtime.fast_path.ingress(frame(raw, flow=make_flow(sport=47000 + i)))
    c = conserved(60)
    assert c["msg_dropped.filter"] > 0 and c["msg_dropped.no_route"] > 0
    # every parsed body is released once its unit is disposed of
    assert len(runtime.buffer_pool) == 0

    # one flow sends more messages than its TX ring holds, nothing drained:
    # the ones the full ring lost count as dropped, not as egress
    flow, seq = make_flow(sport=47099), 0
    sent = DEFAULT_RING_CAPACITY + 44
    for i in range(sent):
        raw = make_request(b"/svc/a/%d" % i)
        runtime.fast_path.ingress(frame(raw, flow=flow, seq=seq))
        seq += len(raw)
    c = conserved(60 + sent)
    assert c["msg_dropped.ring_full"] == sent - DEFAULT_RING_CAPACITY
    fetched = 0
    for qid, stub in runtime.stubs.items():
        while runtime.vqs[qid].stub_fetch(stub) is not None:
            pass
        fetched += stub.fetched
    assert c["msg_egress"] == fetched


def test_each_frame_is_one_ingress_with_one_outcome(runtime):
    """A first packet to the listener, that flow's later segments -- one
    out of order, one a duplicate -- and a first packet to an unknown
    listener: each frame is one `ingress` call with one outcome, the
    outcomes sum to the frames offered, and `slow_path` counts the first
    packets."""
    flow = make_flow(sport=46700)
    first = make_request(b"/svc/a")
    second = make_request(b"/svc/b", method=b"POST", body=b"0123456789")
    third = make_request(b"/svc/c")
    at2, at3 = len(first), len(first) + len(second)
    frames = [
        (frame(first, flow=flow), "l7"),
        (frame(second[20:], flow=flow, seq=at2 + 20), "buffered"),
        (frame(second[:20], flow=flow, seq=at2), "l7"),
        (frame(second[:20], flow=flow, seq=at2), "dropped"),
        (frame(third, flow=flow, seq=at3), "l7"),
        (frame(make_request(), flow=make_flow(dport=9999)), "dropped"),
    ]
    assert [runtime.fast_path.ingress(u) for u, _ in frames] == [
        outcome for _, outcome in frames]
    c = runtime.fast_path.counters()
    assert c["ingress"] == len(frames) == (
        c["egress"] + c["buffered"] + c["dropped"])
    assert c["slow_path"] == 2
    assert c["dropped.no_listener"] == c["dropped.duplicate"] == 1
    assert c["msg_egress"] == 3
    qid = runtime.queue_table.lookup(flow)
    assert [runtime.vqs[qid].stub_fetch(runtime.stubs[qid])
            for _ in range(3)] == [first, second, third]


def _refused(rt, reason):
    """Make `rt` refuse the next message for `reason`; returns its flow.
    Messages sent before it, to fill a TX ring, are delivered."""
    flow = make_flow(sport=47300)
    if reason == "no_listener":
        return make_flow(dport=9999)
    if reason == "no_healthy_endpoint":
        rt.distribute(load_config(config_text(unhealthy=(9001, 9002))))
    elif reason == "unknown_cluster":
        rt.cluster_table.publish({})
    elif reason == "connect_failure":
        def refuse(endpoint, msg):
            raise l7.ConnectFailure("refused")
        rt._connector = refuse
    elif reason == "ring_full":
        for i in range(DEFAULT_RING_CAPACITY):
            rt.fast_path.message(flow_message(rt, make_request(), flow))
    return flow


REFUSALS = {  # reason -> (request, the status it is answered with)
    "filter": (make_request(b"/admin/x"), 403),
    "no_listener": (make_request(), 404),
    "no_route": (make_request(b"/nowhere"), 404),
    "malformed_http": (b"BOGUS\r\nHost: x\r\n\r\n", 400),
    "no_healthy_endpoint": (make_request(), 503),
    "ring_full": (make_request(), 503),
    "connect_failure": (make_request(), 502),
    "unknown_cluster": (make_request(), 502),
}


@pytest.mark.parametrize("reason", sorted(REFUSALS))
def test_every_refusal_is_one_drop_counted_with_its_status(runtime, reason):
    """Each way the data path refuses a message is one DROP, counted once
    under `msg_dropped.<reason>` and once under the status `http_status`
    gives it -- the status live mode answers with -- and never handed to
    the slow path."""
    raw, status = REFUSALS[reason]
    flow = _refused(runtime, reason)
    before = runtime.fast_path.counters()
    unit = runtime.fast_path.message(flow_message(runtime, raw, flow))
    c = runtime.fast_path.counters()
    assert fast_path.http_status(reason) == status
    if reason != "ring_full":  # a full ring loses a message it delivered
        assert unit.verdict is Verdict.DROP
        assert unit.verdict_reason.partition(":")[0] == reason
    added = {k: v - before.get(k, 0) for k, v in c.items()
             if v != before.get(k, 0)}
    assert added == {"msg_submitted": 1, "msg_dropped": 1,
                     f"msg_dropped.{reason}": 1, f"status.{status}": 1}
    assert c["msg_submitted"] == c.get("msg_egress", 0) + c["msg_dropped"]
    assert sum(v for k, v in c.items() if k.startswith("status.")) == (
        c["msg_dropped"])
    assert "slow_path" not in c


def test_first_segments_swapped_still_delivered(runtime):
    """A new flow whose second segment arrives first: the slow path opens
    the flow's TOE state on its first packet, so that segment waits in the
    reorder buffer for the first one instead of being dropped."""
    flow = make_flow(sport=46500)
    raw = make_request(b"/svc/a", method=b"POST", body=bytes(range(256)) * 4)
    cuts = [0, len(raw) // 3, 2 * len(raw) // 3, len(raw)]
    segs = [(cuts[i], raw[cuts[i]:cuts[i + 1]]) for i in range(3)]
    segs[0], segs[1] = segs[1], segs[0]
    for off, chunk in segs:
        runtime.fast_path.ingress(frame(chunk, flow=flow, seq=off))
    qid = runtime.queue_table.lookup(flow)
    assert qid is not None
    assert runtime.vqs[qid].stub_fetch(runtime.stubs[qid]) == raw


def test_oversize_message_goes_to_slow_path(runtime):
    """A message larger than a VQ descriptor is refused by the framer, so
    it never reaches tx_deliver: it is dropped as `malformed_http`, a 400,
    and the slow path sees only the flow's first packet."""
    raw = make_request(b"/svc/a", method=b"POST", body=b"x" * (70 * 1024))
    runtime.fast_path.ingress(frame(raw))
    c = runtime.fast_path.counters()
    assert c["msg_submitted"] == c["msg_dropped.malformed_http"] > 0
    assert c["status.400"] == c["msg_submitted"]
    assert c.get("msg_egress", 0) == 0


def test_deparsed_payload_byte_exact(runtime):
    raw = make_request(b"/svc/a", host=b"api", body=b"payload")
    runtime.fast_path.ingress(frame(raw))
    qid = runtime.queue_table.lookup(make_flow())
    assert runtime.vqs[qid].stub_fetch(runtime.stubs[qid]) == raw


# -- epoch consistency -------------------------------------------------------

@pytest.mark.parametrize("republish", ["deny_all_filters", "empty_routes"])
def test_traversal_keeps_snapshot_from_its_start(runtime, republish):
    """An L7 PPM ahead of the filter publishes new rules mid-traversal.
    The request in flight keeps the rules its traversal started with; the
    next traversal sees the new ones."""

    def publish(unit, ctx, snaps):
        if republish == "deny_all_filters":
            rules = (FilterRule(decision=Decision.DENY),)
            runtime.filter_table.publish({"rules": rules})
        else:
            runtime.route_table.publish({})

    runtime.registry["publisher"] = Ppm("publisher", steps=[publish])
    chain = ExecutableChain(["toe", "http_parser", "publisher", "filter",
                             "router", "http_deparser"], runtime.registry)
    flow = make_flow(sport=48000)
    ctx = defaultdict(int)
    first = chain.execute(
        flow_message(runtime, make_request(b"/svc/a"), flow), ctx)
    assert first.verdict is Verdict.DELIVER
    assert first.verdict_reason == "deparsed"
    second = chain.execute(
        flow_message(runtime, make_request(b"/svc/a"), flow), ctx)
    assert second.verdict is Verdict.DROP
    assert second.verdict_reason == (
        "filter" if republish == "deny_all_filters" else "no_route")


def spy_ppm(seen):
    """A PPM that records the snapshot dict each traversal hands it."""
    return Ppm("spy", steps=[lambda unit, ctx, snaps: seen.append(snaps)])


def test_distribute_is_seen_by_the_next_message(runtime):
    """The chain takes its snapshot again once a table publishes: a deny
    rule a reload adds drops the very next message."""
    flow = make_flow(sport=48010)
    first = runtime.fast_path.message(
        flow_message(runtime, make_request(b"/svc/b"), flow))
    assert first.verdict is Verdict.DELIVER
    runtime.distribute(load_config(config_text().replace("/admin", "/svc/b")))
    second = runtime.fast_path.message(
        flow_message(runtime, make_request(b"/svc/b"), flow))
    assert second.verdict is Verdict.DROP
    assert second.verdict_reason == "filter"


def test_unchanged_reload_keeps_the_snapshot(runtime):
    """A reload that changes nothing keeps every epoch, and traversals go on
    with the one snapshot dict; a reload that changes a table gives the
    next traversal a new dict holding the new version."""
    seen = []
    runtime.registry["spy"] = spy_ppm(seen)
    chain = ExecutableChain(["toe", "http_parser", "spy", "filter", "router",
                             "http_deparser"], runtime.registry)
    flow = make_flow(sport=48020)
    ctx = defaultdict(int)
    tables = {t.name: t for t in (
        runtime.listener_table, runtime.filter_table, runtime.route_table,
        runtime.cluster_table)}
    chain.execute(flow_message(runtime, make_request(b"/svc/a"), flow), ctx)
    epochs = runtime.stats_snapshot()["table_epochs"]
    versions = {n: t.current for n, t in tables.items()}
    assert {n: v.epoch for n, v in versions.items()} == epochs
    assert runtime.distribute(load_config(config_text())) == epochs
    chain.execute(flow_message(runtime, make_request(b"/svc/a"), flow),
                  ctx)
    assert seen[1] is seen[0]
    # the snapshot holds each table's entries of the versions at `epochs`
    assert seen[1] == {n: v.entries for n, v in versions.items()}
    assert all(seen[1][n] is v.entries for n, v in versions.items())
    after = runtime.distribute(
        load_config(config_text().replace("/admin", "/svc/b")))
    assert after == dict(epochs, filters=epochs["filters"] + 1)
    chain.execute(flow_message(runtime, make_request(b"/svc/a"), flow),
                  ctx)
    assert seen[2] is not seen[1]
    assert {n: t.epoch for n, t in tables.items()} == after
    assert all(seen[2][n] is t.current.entries for n, t in tables.items())
    assert seen[1]["filters"] is versions["filters"].entries
    assert seen[2]["filters"] is not seen[1]["filters"]


# -- compiled chain against each PPM applied in turn -------------------------

def hand_built_ppms():
    """PPMs as a test would build them: a parser and a match on the path,
    and a match on a rule table keyed by method, read through the
    traversal's snapshot."""
    methods = MatchTable("methods")
    methods.publish({b"DELETE": "deny"})

    def parse(unit, ctx, snaps):
        ctx["tag.parsed"] += 1

    def mark(unit, ctx, snaps):
        if unit.url_path == b"/svc/a":
            ctx["tag.marked"] += 1

    def gate(unit, ctx, snaps):
        if snaps["methods"].get(unit.method) == "deny":
            ctx["gate.denied"] += 1
            unit.set_verdict(Verdict.DROP, "method")

    return {
        "tag": Ppm("tag", steps=[parse, mark]),
        "gate": Ppm("gate", steps=[gate], tables=[methods]),
    }


STANDARD = ["toe", "http_parser", "filter", "router", "http_deparser"]
WITH_MATCHERS = ["toe", "http_parser", "tag", "gate", "filter", "router",
                 "http_deparser"]


@pytest.mark.parametrize("nodes, raw", [
    (STANDARD, make_request(b"/svc/a", body=b"payload")),
    (STANDARD, make_request(b"/admin/x")),
    (STANDARD, make_request(b"/nowhere")),
    (STANDARD, b"BOGUS\r\nHost: x\r\n\r\n"),
    (WITH_MATCHERS, make_request(b"/svc/a")),
    (WITH_MATCHERS, make_request(b"/svc/b")),
    (WITH_MATCHERS, make_request(b"/svc/b", method=b"DELETE")),
], ids=["standard", "denied", "no_route", "malformed", "matchers_mark",
        "matchers_pass", "matchers_deny"])
def test_compiled_chain_equals_each_ppm_applied_in_turn(nodes, raw):
    """The compiled chain gives the verdict, reason, counters and payload
    that running each PPM's `Ppm.apply` in turn gives, until one leaves a
    terminal verdict; each side runs on its own runtime."""
    outcomes = []
    for compiled in (True, False):
        rt = MeshRuntime(config=load_config(config_text()))
        registry = dict(rt.registry, **hand_built_ppms())
        unit = flow_message(rt, raw, make_flow(sport=48030))
        ctx = defaultdict(int)
        if compiled:
            ExecutableChain(nodes, registry).execute(unit, ctx)
        else:
            for pid in nodes:
                if unit.verdict is not Verdict.CONTINUE:
                    break
                registry[pid].apply(unit, ctx)
        outcomes.append((unit.verdict, unit.verdict_reason,
                         ctx, unit.payload,
                         rt.queue_table.lookup(unit.flow) is not None))
        rt.shutdown()
    assert outcomes[0] == outcomes[1]


# -- hot path ----------------------------------------------------------------

def test_standard_chain_is_one_flat_step_list(runtime):
    """`toe` has no step and each L7 PPM one, its `l7` function itself, so
    a message runs through four steps and no adapter frame."""
    assert runtime.registry["toe"].steps == ()
    assert runtime.chain.steps == tuple(
        step for pid in ("http_parser", "filter", "router", "http_deparser")
        for step in runtime.registry[pid].steps)
    parse, filter_, route, deparse = runtime.chain.steps
    assert (parse, filter_, deparse) == (
        l7.http_parse, l7.filter_apply, l7.http_deparse)
    assert route.func is l7.route and not route.keywords
    assert route.args == (runtime.lb, runtime._connect)


def test_hot_path_bypasses_ppm_apply(runtime, monkeypatch):
    """Frames and messages run on the compiled node tuples; `Ppm.apply`,
    the single-PPM entry, is never on the hot path."""

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"Ppm.apply({self.id}) on the hot path")

    monkeypatch.setattr(Ppm, "apply", refuse)
    flow = make_flow(sport=48600)
    first = make_request(b"/svc/a", extra_headers=(b"X-Req: 1",))
    second = make_request(b"/svc/b", extra_headers=(b"X-Req: 2",))
    assert runtime.fast_path.ingress(frame(first, flow=flow)) == "l7"
    assert runtime.fast_path.ingress(
        frame(second, flow=flow, seq=len(first))) == "l7"
    third = make_request(b"/svc/c", extra_headers=(b"X-Req: 3",))
    unit = runtime.fast_path.message(flow_message(runtime, third, flow))
    assert unit.verdict is Verdict.DELIVER
    assert unit.verdict_reason == "deparsed"
    qid = runtime.queue_table.lookup(flow)
    q, stub = runtime.vqs[qid], runtime.stubs[qid]
    assert [q.stub_fetch(stub) for _ in range(3)] == [first, second, third]


KEEPALIVE_CALL_BUDGET = 16


def test_keepalive_get_call_budget(runtime):
    """A keep-alive GET of an open flow makes at most
    KEEPALIVE_CALL_BUDGET Python-level calls through `FastPath.ingress`,
    its VQ egress included, counted as `sys.setprofile` "call" events: one
    frame per layer and per L7 step, so an adapter layer added between
    them fails here."""
    flow = make_flow(sport=48650)
    raw = make_request(b"/svc/b")
    ingress = runtime.fast_path.ingress
    qid = None
    calls = Counter()
    n = 50
    for i in range(n + 3):
        unit = frame(raw, flow=flow, seq=i * len(raw))
        if i >= 3:  # once the flow is open and its queue bound
            assert profiled(calls, ingress, unit) == "l7"
        else:
            assert ingress(unit) == "l7"
        qid = runtime.queue_table.lookup(flow)
        assert runtime.vqs[qid].stub_fetch(runtime.stubs[qid]) == raw
    assert sum(calls.values()) <= KEEPALIVE_CALL_BUDGET * n, {
        name: c / n for name, c in calls.most_common()}


FIRST_PACKET_CALL_BUDGET = 28


def test_first_packet_call_budget(runtime):
    """A first packet -- the slow path's handoff, the flow's record, load
    balancing and a new bound queue -- makes at most
    FIRST_PACKET_CALL_BUDGET Python-level calls through
    `FastPath.ingress`, its VQ egress included, counted as the keep-alive
    budget counts them: connection setup is a few object constructions,
    and no call only wires them together."""
    raw = make_request(b"/svc/b")
    ingress = runtime.fast_path.ingress
    calls = Counter()
    # the chain takes its table snapshot on the first message it runs
    assert ingress(frame(raw, flow=make_flow(sport=48660))) == "l7"
    n = 50
    for i in range(n):
        flow = make_flow(sport=48661 + i)
        assert profiled(calls, ingress, frame(raw, flow=flow)) == "l7"
        qid = runtime.queue_table.lookup(flow)
        assert runtime.vqs[qid].stub_fetch(runtime.stubs[qid]) == raw
    assert calls["MeshRuntime.handle_slow_path"] == n
    assert sum(calls.values()) <= FIRST_PACKET_CALL_BUDGET * n, {
        name: c / n for name, c in calls.most_common()}


def test_in_order_frame_looks_its_flow_up_once(monkeypatch):
    """An in-order frame of an open flow looks its flow up in the record
    map once, in `ingress`: the TOE, its messages and the router use the
    record it found, and egress moves that record to the end of the
    activity order."""
    used = Counter()

    class CountingDict(OrderedDict):
        def get(self, key, default=None):
            used["get"] += 1
            return super().get(key, default)

        def __getitem__(self, key):
            used["getitem"] += 1
            return super().__getitem__(key)

        def __contains__(self, key):
            used["contains"] += 1
            return super().__contains__(key)

        def pop(self, key, *default):
            used["pop"] += 1
            return super().pop(key, *default)

        def move_to_end(self, key, last=True):
            used["move_to_end"] += 1
            return super().move_to_end(key, last)

    monkeypatch.setattr(fast_path, "OrderedDict", CountingDict)
    rt = MeshRuntime(config=load_config(config_text()))
    assert type(rt.conns) is CountingDict
    assert rt.fast_path.toe.connections is rt.conns
    flow = make_flow(sport=48720)
    raw = make_request(b"/svc/a")
    assert rt.fast_path.ingress(frame(raw, flow=flow)) == "l7"  # first packet
    used.clear()
    n = 10
    for i in range(1, n + 1):
        assert rt.fast_path.ingress(
            frame(raw, flow=flow, seq=i * len(raw))) == "l7"
    assert used == {"get": n, "move_to_end": n}
    rt.shutdown()


# -- classification ----------------------------------------------------------

@pytest.mark.parametrize("reload", ["equal_entries", "same_config",
                                    "config_loaded_again"])
def test_unchanged_reload_keeps_the_classification(runtime, reload):
    """Publishing the entries a rule table already holds, or distributing a
    config equal to the current one, or loading the same config again,
    moves no table's epoch, and the flow's next frame goes on to L7."""
    flow = make_flow(sport=48715)
    raw = make_request(b"/svc/a")
    runtime.fast_path.ingress(frame(raw, flow=flow))
    before = runtime.stats_snapshot()["table_epochs"]
    if reload == "equal_entries":
        for table in (runtime.listener_table, runtime.filter_table,
                      runtime.route_table, runtime.cluster_table):
            table.publish(dict(table.current.entries))
    elif reload == "same_config":
        runtime.distribute(runtime.config)
    else:
        runtime.distribute(load_config(config_text()))
    after = runtime.stats_snapshot()["table_epochs"]
    assert {n for n in before if before[n] != after[n]} == set()
    assert runtime.fast_path.ingress(frame(raw, flow=flow, seq=len(raw))) == "l7"


def test_closed_flow_is_a_new_connection_again(runtime):
    flow = make_flow(sport=48720)
    raw = make_request(b"/svc/a")
    runtime.fast_path.ingress(frame(raw, flow=flow))
    runtime.close_flow(flow)
    assert flow not in runtime.fast_path.toe.connections
    unit = frame(raw, flow=flow)
    assert runtime.fast_path.ingress(unit) == "l7"
    assert runtime.fast_path.counters()["slow_path"] == 2
    qid = runtime.queue_table.lookup(flow)
    assert runtime.vqs[qid].stub_fetch(runtime.stubs[qid]) == raw


FLOW_SPORTS = (48800, 48801, 48802)
# (frame, sport, whether the request's two halves arrive swapped)
FRAME_STEP = st.tuples(st.just("frame"), st.sampled_from(FLOW_SPORTS),
                       st.booleans())
RELOADS = {"equal": config_text(), "changed_filters": config_text(filters=False),
           "listener_dropped": config_text(dport=8081)}
STEPS = st.one_of(
    FRAME_STEP, FRAME_STEP, FRAME_STEP,  # mostly frames
    st.tuples(st.just("reload"), st.sampled_from(sorted(RELOADS))),
    st.tuples(st.just("close"), st.sampled_from(FLOW_SPORTS)),
    st.tuples(st.just("expire"), st.booleans()),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(STEPS, max_size=40))
def test_reused_classification_equals_a_traversal(steps):
    """Frames, some with their halves swapped, interleaved with reloads
    that keep, change or drop the listener, close_flow and expire_idle.
    Every frame is one ingress call with one outcome, and is counted
    `slow_path` exactly when its flow had no TOE state before the call.
    After every step only flows with a connection record have TOE
    state."""
    now = [0]
    rt = MeshRuntime(config=load_config(config_text()), clock=lambda: now[0])
    fp = rt.fast_path
    flows = {sport: make_flow(sport=sport) for sport in FLOW_SPORTS}
    seqs = dict.fromkeys(FLOW_SPORTS, 0)
    ingress = fp.ingress

    def checked_ingress(unit):
        new = unit.meta.flow not in fp.toe.connections
        before = fp.counters()
        disposition = ingress(unit)
        after = fp.counters()
        assert disposition in ("l7", "buffered", "dropped")
        assert after["ingress"] - before.get("ingress", 0) == 1
        assert after.get("slow_path", 0) - before.get("slow_path", 0) == new
        return disposition

    fp.ingress = checked_ingress
    for step in steps:
        kind = step[0]
        if kind == "frame":
            sport = step[1]
            if flows[sport] not in fp.toe.connections:
                seqs[sport] = 0  # a new connection on the same 5-tuple
            raw, seq = make_request(b"/svc/%d" % seqs[sport]), seqs[sport]
            halves = [(seq, raw[:9]), (seq + 9, raw[9:])]
            for off, chunk in halves[::-1] if step[2] else halves:
                fp.ingress(frame(chunk, flow=flows[sport], seq=off))
            seqs[sport] += len(raw)
        elif kind == "reload":
            rt.distribute(load_config(RELOADS[step[1]]))
        elif kind == "close":
            rt.close_flow(flows[step[1]])
            assert flows[step[1]] not in fp.toe.connections
        else:
            if step[1]:
                now[0] += IDLE_TIMEOUT_NS + 1
            rt.expire_idle()
        assert set(fp.toe.connections) <= set(rt.conns)
    for flow in flows.values():
        rt.close_flow(flow)
    assert fp.toe.connections == {}
    rt.shutdown()


# -- framing once ------------------------------------------------------------

def segments_of(raw, seq0=0, size=1460):
    return [(seq0 + off, raw[off:off + size]) for off in range(0, len(raw), size)]


def test_toe_frames_each_message_once(monkeypatch):
    """Each message is framed once and its header block split once, from
    its first segment to the parser: three 32 KiB POSTs in 1,460 B
    segments into a bare ToeEngine; keep-alive GETs and segmented 32 KiB
    POSTs through `FastPath.ingress`; and pipelined requests read by
    `HttpReader` and run through `FastPath.message`.  The services receive
    the bytes sent."""
    framed, splits = [], []
    real_frame = l7.frame_http

    def counting_frame(data):
        # a framing that finds the terminator reads the header block
        if b"\r\n\r\n" in data:
            splits.append(len(data))
        head = real_frame(data)
        if head is not None:
            framed.append(head[0])
        return head

    monkeypatch.setattr(l7, "frame_http", counting_frame)

    def posts(n):
        return [make_request(b"/svc/up/%d" % i, method=b"POST",
                             body=bytes([i]) * (32 * 1024)) for i in range(n)]

    toe = ToeEngine()
    conn = new_conn()
    sent, out, seq = posts(3), [], 0
    for raw in sent:
        for off, chunk in segments_of(raw, seq):
            out.extend(toe.deliver(seg(chunk, off), conn))
        seq += len(raw)
    assert [m.payload for m in out] == sent
    assert len(framed) == len(splits) == 3
    assert conn.reader.need is None

    framed.clear()
    splits.clear()
    rt = MeshRuntime(config=load_config(config_text()))
    fp = rt.fast_path
    units, real_message = [], fp.message

    def keeping_message(msg):
        unit = real_message(msg)
        units.append(unit)
        return unit

    monkeypatch.setattr(fp, "message", keeping_message)
    sent = {make_flow(sport=47100): [make_request(b"/svc/a/%d" % i)
                                     for i in range(5)],
            make_flow(sport=47101): posts(2)}
    for flow, msgs in sent.items():
        seq = 0
        for raw in msgs:
            for off, chunk in segments_of(raw, seq):
                fp.ingress(frame(chunk, flow=flow, seq=off))
            seq += len(raw)
    pipelined = make_flow(sport=47102)
    sent[pipelined] = [make_request(b"/svc/p/%d" % i, body=b"x" * i)
                       for i in range(4)]
    conn = rt.open_flow(pipelined)
    for data, head in l7.HttpReader().take(b"".join(sent[pipelined])):
        unit = fp.message(Message(pipelined, data, head, conn))
        assert unit.verdict is Verdict.DELIVER
    assert len(framed) == len(splits) == 11
    # a parsed unit keeps no head, so it holds no header fields twice
    assert len(units) == 11 and all(u.head is None for u in units)
    for flow, msgs in sent.items():
        qid = rt.queue_table.lookup(flow)
        q, stub = rt.vqs[qid], rt.stubs[qid]
        got = []
        while (data := q.stub_fetch(stub)) is not None:
            got.append(data)
        assert got == msgs
    rt.shutdown()


_BAD_HEAD = b"POST /svc/bad HTTP/1.1\r\nHost: x\r\nContent-Length: abc\r\n\r\n"


@settings(max_examples=80, deadline=None)
@given(bodies=st.lists(st.integers(0, 3000), min_size=1, max_size=5),
       bad_at=st.none() | st.integers(0, 5),
       split=st.sampled_from(["per_message", "several", "mid_line",
                              "anywhere"]),
       data=st.data())
def test_toe_and_reader_cut_any_split_alike(bodies, bad_at, split, data):
    """A pipelined request stream, with a malformed head among the requests
    or not, is cut into segments: one message each, several each, each
    head cut mid-line, or anywhere.  A ToeEngine fed those segments and a
    bare `HttpReader` fed the same bytes hand on the same messages with the
    same heads -- the malformed block alone, with none -- and each frames
    every block once."""
    sent = [make_request(b"/svc/%d" % i, method=b"POST" if n else b"GET",
                         body=bytes([65 + i]) * n)
            for i, n in enumerate(bodies)]
    blocks = list(sent)
    if bad_at is not None:
        blocks.insert(min(bad_at, len(sent)), _BAD_HEAD)
    stream = b"".join(blocks)
    starts = [sum(map(len, blocks[:i])) for i in range(len(blocks))]
    if split == "per_message":
        cuts = starts[1:]
    elif split == "several":
        cuts = sorted(data.draw(st.sets(st.sampled_from(starts[1:]))))\
            if starts[1:] else []
    elif split == "mid_line":
        # inside each head's Host line, and at each block's start
        cuts = sorted(set(starts[1:]) | {
            at + blocks[i].index(b"\r\n") + 4 for i, at in enumerate(starts)})
    else:
        cuts = sorted(set(data.draw(st.lists(
            st.integers(1, len(stream) - 1), max_size=12))))
    bounds = [0, *cuts, len(stream)]
    segments = [(a, stream[a:b]) for a, b in zip(bounds, bounds[1:])]

    framed = []
    real_frame = l7.frame_http

    def counting_frame(data):
        try:
            head = real_frame(data)
        except l7.MalformedHttp:
            framed.append(None)
            raise
        if head is not None:
            framed.append(head)
        return head

    with mock.patch.object(l7, "frame_http", counting_frame):
        toe = ToeEngine()
        conn = new_conn()
        by_toe = [(m.payload, m.head) for off, chunk in segments
                  for m in toe.deliver(seg(chunk, off), conn)]
        toe_framed = len(framed)
        framed.clear()
        reader = l7.HttpReader()
        by_reader = [msg for _off, chunk in segments
                     for msg in reader.take(chunk)]
    assert by_toe == by_reader
    assert [m for m, _head in by_toe] == blocks
    assert [head is None for _m, head in by_toe] == [
        b is _BAD_HEAD for b in blocks]
    assert all(head[0] == len(m) for m, head in by_toe if head is not None)
    assert toe_framed == len(framed) == len(blocks)
    assert conn.reader.held == 0


@pytest.mark.parametrize("with_head", [False, True])
@pytest.mark.parametrize("case", ["smuggled", "truncated"])
def test_message_is_forwarded_only_as_the_filter_saw_it(runtime, case,
                                                        with_head):
    """Pass-through never forwards bytes the filter did not see: a message
    holding an allowed GET and a denied one behind it, or a request
    cut short, is refused whole as a 400 -- with no head, or with the head
    of the allowed GET (the whole request when cut short) -- and no
    service receives either request."""
    if case == "smuggled":
        framed = make_request(b"/svc/a")
        payload = framed + make_request(b"/admin/x")
    else:
        framed = make_request(b"/svc/a", method=b"POST", body=b"0123456789")
        payload = framed[:-3]
    flow = make_flow(sport=47200)
    unit = runtime.fast_path.message(Message(
        flow, payload, frame_http(framed) if with_head else None))
    assert unit.verdict is Verdict.DROP
    assert unit.verdict_reason.startswith("malformed_http:")
    assert runtime.fast_path.counters()["status.400"] == 1
    assert runtime.fast_path.counters().get("msg_egress", 0) == 0
    assert runtime.queue_table.lookup(flow) is None
    assert all(q.tx_ring.occupied == 0 for q in runtime.vqs.values())


def test_toe_reordered_and_duplicate_segments_reassemble_exactly():
    """Large messages whose segments arrive shuffled within a window and
    partly twice: every message is delivered once, byte-exact, in order."""
    rng = random.Random(9)
    sent, segs, seq = [], [], 0
    for i in range(4):
        raw = make_request(b"/svc/up/%d" % i, method=b"POST",
                           body=rng.randbytes(rng.randrange(2000, 20000)))
        sent.append(raw)
        segs += segments_of(raw, seq, size=rng.choice((700, 1460)))
        seq += len(raw)
    windows = [segs[k:k + 6] for k in range(0, len(segs), 6)]
    arrived = []
    for window in windows:
        window += rng.sample(window, min(2, len(window)))  # duplicates
        rng.shuffle(window)
        arrived += window
    toe = ToeEngine()
    conn = new_conn()
    out, duplicates = [], 0
    for off, chunk in arrived:
        try:
            out.extend(toe.deliver(seg(chunk, off), conn))
        except OutOfWindow as exc:
            assert exc.args == ("duplicate",)
            duplicates += 1
    assert [m.payload for m in out] == sent
    assert duplicates == len(arrived) - len(segs)
