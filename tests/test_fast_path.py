import random

import pytest
from hypothesis import given, settings, strategies as st

from flatproxy import fast_path, l7, live
from flatproxy.core import (
    Metadata,
    Proto,
    TrafficUnit,
    UnitKind,
    Verdict,
)
from flatproxy.fast_path import OutOfWindow, ToeEngine
from flatproxy.l7 import Decision, FilterRule, frame_http, http_parse
from flatproxy.match_action import (
    ExecContext,
    Layer,
    Ppm,
    proc,
    traverse,
)
from flatproxy.slow_path import IDLE_TIMEOUT_NS, MeshRuntime, load_config
from flatproxy.vq import ServiceStub, VirtQueue
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
    http_parse(msgs[0])
    assert msgs[0].meta.verdict is Verdict.TO_SLOW_PATH
    assert msgs[0].meta.verdict_reason == "malformed_http:bad content-length"


# -- full fast path ----------------------------------------------------------

@pytest.fixture
def runtime():
    cfg = load_config(config_text())
    rt = MeshRuntime(config=cfg)
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
    snap = runtime.stats_snapshot()
    assert snap["slow_path"]["installed"] == 1
    assert snap["slow_path"]["reinjected"] == 1
    assert snap["fast_path"]["msg_egress"] == 1
    qid = runtime.queue_table.lookup(make_flow())
    assert runtime.vqs[qid].stub_fetch(runtime.stubs[qid]) == raw


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
    # never run through the L7 chain
    assert runtime.fast_path.counters().get("msg_submitted", 0) == 0


def test_filtered_request_dropped(runtime):
    raw = make_request(b"/admin/panel")
    runtime.fast_path.ingress(frame(raw))
    counters = runtime.fast_path.counters()
    assert counters.get("msg_dropped", 0) == 1
    assert counters.get("msg_egress", 0) == 0


def test_partial_message_buffers(runtime):
    raw = make_request(b"/svc/a", body=b"0123456789")
    flow = make_flow(sport=46000)
    runtime.fast_path.ingress(frame(raw[:20], flow=flow))  # installs + reinjects
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
    rng = random.Random(3)
    for i in range(60):
        path = rng.choice([b"/svc/a", b"/admin/x", b"/nowhere"])
        raw = make_request(path)
        runtime.fast_path.ingress(frame(raw, flow=make_flow(sport=47000 + i)))
    c = runtime.fast_path.counters()
    assert c["ingress"] == (
        c.get("egress", 0) + c.get("dropped", 0)
        + c.get("slow_path", 0) + c.get("buffered", 0)
    )
    assert c.get("msg_submitted", 0) == (
        c.get("msg_egress", 0) + c.get("msg_dropped", 0)
        + c.get("msg_slow_path", 0)
    )
    # every drop is counted under its reason: /admin (filter), /nowhere
    # (no_route)
    for prefix in ("dropped", "msg_dropped"):
        by_reason = {k: v for k, v in c.items() if k.startswith(prefix + ".")}
        assert sum(by_reason.values()) == c.get(prefix, 0)
    assert c["msg_dropped.filter"] > 0 and c["msg_dropped.no_route"] > 0
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
    qid = runtime.queue_table.lookup(flow)
    assert qid is not None
    assert runtime.vqs[qid].stub_fetch(runtime.stubs[qid]) == raw


def test_oversize_message_goes_to_slow_path(runtime):
    """A message larger than a VQ descriptor is refused by the framer, so
    it never reaches tx_deliver."""
    raw = make_request(b"/svc/a", method=b"POST", body=b"x" * (70 * 1024))
    runtime.fast_path.ingress(frame(raw))
    c = runtime.fast_path.counters()
    assert c["msg_submitted"] == c["msg_slow_path"] > 0
    assert runtime.stats_snapshot()["slow_path"]["reason.malformed_http"] == (
        c["msg_slow_path"])
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
            runtime.msg_controller.publish(runtime.filter_table,
                                           add={"rules": rules})
        else:
            routes = list(runtime.route_table.current.entries)
            runtime.msg_controller.publish(runtime.route_table, remove=routes)

    runtime.registry["publisher"] = Ppm(
        id="publisher", layer=Layer.L7, matcher=lambda unit, snaps: "publish",
        actions={"publish": [proc(publish)]},
    )
    chain = runtime.compile(["toe", "http_parser", "publisher",
                             "filter", "router", "http_deparser"])
    flow = make_flow(sport=48000)
    runtime.conn_controller.publish(runtime.l4_table,
                                    add={flow: "l7"})
    first, _ = chain.execute(make_message(make_request(b"/svc/a"), flow=flow))
    assert first.meta.verdict is Verdict.DELIVER
    assert first.meta.verdict_reason == "deparsed"
    second, _ = chain.execute(
        make_message(make_request(b"/svc/a"), flow=flow, conn_id=2))
    assert second.meta.verdict is Verdict.DROP
    assert second.meta.verdict_reason == (
        "filter" if republish == "deny_all_filters" else "no_route")


def test_l2_l4_traversal_keeps_snapshot_from_its_start(runtime, monkeypatch):
    """The vswitch step publishes an "l7" entry for the frame's own flow
    mid-traversal.  The toe step of that frame still matches on the
    snapshot its traversal started with, so the frame goes to the slow
    path as a new connection; the reinjected frame sees the entry."""
    flow = make_flow(sport=48500)
    l2_lookup = runtime.l2_table.lookup
    published = []

    def lookup(key, snap=None):
        if not published:
            published.append(runtime.conn_controller.publish(
                runtime.l4_table, add={flow: "l7"}))
        return l2_lookup(key, snap)

    monkeypatch.setattr(runtime.l2_table, "lookup", lookup)
    raw = make_request(b"/svc/a")
    unit = frame(raw, flow=flow)
    assert runtime.fast_path.ingress(unit) == "slow_path"
    assert published
    assert unit.meta.verdict is Verdict.TO_SLOW_PATH
    assert unit.meta.verdict_reason == "new_connection"
    slow = runtime.stats_snapshot()["slow_path"]
    assert slow["reason.new_connection"] == 1
    assert slow["reinjected"] == 1
    qid = runtime.queue_table.lookup(flow)
    assert runtime.vqs[qid].stub_fetch(runtime.stubs[qid]) == raw


# -- hot path ----------------------------------------------------------------

def test_hot_path_bypasses_ppm_apply(runtime, monkeypatch):
    """Frames and messages run on the compiled node tuples; `Ppm.apply`,
    the single-PPM entry, is never on the hot path."""

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"Ppm.apply({self.id}) on the hot path")

    monkeypatch.setattr(Ppm, "apply", refuse)
    flow = make_flow(sport=48600)
    first = make_request(b"/svc/a", extra_headers=(b"X-Req: 1",))
    second = make_request(b"/svc/b", extra_headers=(b"X-Req: 2",))
    assert runtime.fast_path.ingress(frame(first, flow=flow)) == "slow_path"
    assert runtime.fast_path.ingress(
        frame(second, flow=flow, seq=len(first))) == "l7"
    third = make_request(b"/svc/c", extra_headers=(b"X-Req: 3",))
    unit, trace = runtime.fast_path.message(make_message(third, flow=flow))
    assert unit.meta.verdict is Verdict.DELIVER
    assert trace[-1] == ("http_deparser", "deparse")
    qid = runtime.queue_table.lookup(flow)
    q, stub = runtime.vqs[qid], runtime.stubs[qid]
    assert [q.stub_fetch(stub) for _ in range(3)] == [first, second, third]


# -- classification reuse ----------------------------------------------------

def count_l2_l4_matches(runtime, monkeypatch) -> list:
    """Wrap the fast path's vswitch, l3 and toe matchers; returns the list
    each match appends its ppm id to."""
    calls = []

    def counted(node):
        ppm, pid, parser, matcher, programs = node

        def matcher_(unit, snaps):
            calls.append(pid)
            return matcher(unit, snaps)

        return ppm, pid, parser, matcher_, programs

    monkeypatch.setattr(runtime.fast_path, "_l2_l4",
                        tuple(counted(n) for n in runtime.fast_path._l2_l4))
    return calls


def test_established_flow_reuses_its_classification(runtime, monkeypatch):
    calls = count_l2_l4_matches(runtime, monkeypatch)
    flow = make_flow(sport=48700)
    first, second = make_request(b"/svc/a"), make_request(b"/svc/b")
    assert runtime.fast_path.ingress(frame(first, flow=flow)) == "slow_path"
    # the miss, then the reinjected frame's traversal
    assert calls == ["vswitch", "l3", "toe"] * 2
    calls.clear()
    unit = frame(second, flow=flow, seq=len(first))
    assert runtime.fast_path.ingress(unit) == "l7"
    assert calls == []
    assert unit.kind is UnitKind.SEGMENT
    qid = runtime.queue_table.lookup(flow)
    q, stub = runtime.vqs[qid], runtime.stubs[qid]
    assert [q.stub_fetch(stub), q.stub_fetch(stub)] == [first, second]


@pytest.mark.parametrize("table", ["l2_table", "l3_table", "l4_table"])
def test_publish_between_frames_forces_a_traversal(runtime, monkeypatch, table):
    calls = count_l2_l4_matches(runtime, monkeypatch)
    flow = make_flow(sport=48710)
    raw = make_request(b"/svc/a")
    runtime.fast_path.ingress(frame(raw, flow=flow))
    add = {"l2_table": {flow.dip: "forward"},
           "l3_table": {Proto.TCP: "forward"},
           "l4_table": {make_flow(sport=48711): "l7"}}[table]
    getattr(runtime, table).publish(add=add)
    calls.clear()
    assert runtime.fast_path.ingress(frame(raw, flow=flow, seq=len(raw))) == "l7"
    assert calls == ["vswitch", "l3", "toe"]
    calls.clear()
    assert runtime.fast_path.ingress(
        frame(raw, flow=flow, seq=2 * len(raw))) == "l7"
    assert calls == []


def test_closed_flow_is_a_new_connection_again(runtime):
    flow = make_flow(sport=48720)
    raw = make_request(b"/svc/a")
    runtime.fast_path.ingress(frame(raw, flow=flow))
    runtime.close_flow(flow)
    assert flow not in runtime.fast_path.toe.connections
    unit = frame(raw, flow=flow)
    assert runtime.fast_path.ingress(unit) == "slow_path"
    assert unit.meta.verdict_reason == "new_connection"
    assert runtime.stats_snapshot()["slow_path"]["reason.new_connection"] == 2
    qid = runtime.queue_table.lookup(flow)
    assert runtime.vqs[qid].stub_fetch(runtime.stubs[qid]) == raw


def test_l4_entry_replaced_by_forward_vq_delivers_at_l4(runtime, monkeypatch):
    calls = count_l2_l4_matches(runtime, monkeypatch)
    flow = make_flow(sport=48730)
    raw = make_request(b"/svc/a")
    runtime.fast_path.ingress(frame(raw, flow=flow))
    stub, q = ServiceStub(tenant="t"), VirtQueue(tenant="t")
    q.bind(stub)
    runtime.vqs[q.id] = q
    runtime.conn_controller.publish(runtime.l4_table,
                                    add={flow: ("forward_vq", q.id)})
    for i, payload in enumerate((b"opaque-1", b"opaque-2")):
        calls.clear()
        unit = frame(payload, flow=flow, seq=len(raw) + 8 * i)
        assert runtime.fast_path.ingress(unit) == "vq"
        # an L4 forward is classified afresh on every frame
        assert calls == ["vswitch", "l3", "toe"]
        assert unit.meta.verdict is Verdict.DELIVER
        assert unit.meta.verdict_reason == "l4_forward"
        assert unit.meta.queue == q.id
        assert q.stub_fetch(stub) == payload


FLOW_SPORTS = (48800, 48801)
FRAME_STEP = st.tuples(st.just("frame"), st.sampled_from(FLOW_SPORTS))
STEPS = st.one_of(
    FRAME_STEP, FRAME_STEP, FRAME_STEP,  # mostly frames
    st.tuples(st.just("l2"), st.sampled_from(["forward", "to_slow_path"])),
    st.tuples(st.just("l3"), st.sampled_from(["forward", "to_slow_path"])),
    st.tuples(st.just("l4"), st.sampled_from(FLOW_SPORTS),
              st.sampled_from(["l7", "forward_vq", "remove"])),
    st.tuples(st.just("close"), st.sampled_from(FLOW_SPORTS)),
    st.tuples(st.just("expire"), st.booleans()),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(STEPS, max_size=40))
def test_reused_classification_equals_a_traversal(steps):
    """Frames interleaved with publishes to the three L2-L4 tables,
    close_flow and expire_idle.  Every frame ingress sees -- the reinjected
    ones too -- is classified as a traversal of a copy of it on the same
    snapshot classifies it: same kind, verdict and queue."""
    now = [0]
    rt = MeshRuntime(config=load_config(config_text()), clock=lambda: now[0])
    fp = rt.fast_path
    flows = {sport: make_flow(sport=sport) for sport in FLOW_SPORTS}
    seqs = dict.fromkeys(FLOW_SPORTS, 0)
    classified = []
    deliver = fp.toe.deliver

    def recording_deliver(seg):
        classified.append((seg, (seg.kind, seg.meta.verdict, seg.meta.queue)))
        return deliver(seg)

    ingress = fp.ingress

    def checked_ingress(unit):
        copy = TrafficUnit(kind=unit.kind, payload=unit.payload, seq=unit.seq,
                           meta=Metadata(flow=unit.meta.flow))
        snaps = {t.name: t.current for t in fp._l2_l4_tables}
        traverse(fp._l2_l4, copy, ExecContext(counters={}), snaps, [])
        expected = (copy.kind, copy.meta.verdict, copy.meta.queue)
        n = len(classified)
        disposition = ingress(unit)
        # a to_l7 frame is checked as deliver got it, before any TOE verdict
        seen = [c for seg, c in classified[n:] if seg is unit]
        got = seen[0] if seen else (unit.kind, unit.meta.verdict, unit.meta.queue)
        assert got == expected
        return disposition

    fp.toe.deliver = recording_deliver
    fp.ingress = checked_ingress
    for step in steps:
        kind = step[0]
        if kind == "frame":
            sport = step[1]
            if flows[sport] not in fp.toe.connections:
                seqs[sport] = 0  # a new connection on the same 5-tuple
            raw = make_request(b"/svc/%d" % seqs[sport])
            fp.ingress(frame(raw, flow=flows[sport], seq=seqs[sport]))
            seqs[sport] += len(raw)
        elif kind == "l2":
            rt.ovs_controller.publish(rt.l2_table,
                                      add={flows[FLOW_SPORTS[0]].dip: step[1]})
        elif kind == "l3":
            rt.conn_controller.publish(rt.l3_table, add={Proto.TCP: step[1]})
        elif kind == "l4":
            flow = flows[step[1]]
            if step[2] == "remove":
                rt.conn_controller.publish(rt.l4_table, remove=[flow])
            else:
                entry = "l7" if step[2] == "l7" else ("forward_vq", 999)
                rt.conn_controller.publish(rt.l4_table, add={flow: entry})
        elif kind == "close":
            rt.close_flow(flows[step[1]])
            assert flows[step[1]] not in fp.toe.connections
        else:
            if step[1]:
                now[0] += IDLE_TIMEOUT_NS + 1
            rt.expire_idle()
        for conn in fp.toe.connections.values():
            assert conn.epochs is None or all(type(e) is int for e in conn.epochs)
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
    real_frame, real_split = l7.frame_http, l7.split_head

    def counting_frame(data):
        head = real_frame(data)
        if head is not None:
            framed.append(head[0])
        return head

    def counting_split(block):
        splits.append(len(block))
        return real_split(block)

    for module in (fast_path, l7, live):
        monkeypatch.setattr(module, "frame_http", counting_frame)
    monkeypatch.setattr(l7, "split_head", counting_split)

    def posts(n):
        return [make_request(b"/svc/up/%d" % i, method=b"POST",
                             body=bytes([i]) * (32 * 1024)) for i in range(n)]

    toe = ToeEngine()
    sent, out, seq = posts(3), [], 0
    for raw in sent:
        for off, chunk in segments_of(raw, seq):
            out.extend(toe.deliver(seg(chunk, off)))
        seq += len(raw)
    assert [m.payload for m in out] == sent
    assert len(framed) == len(splits) == 3
    assert toe.connections[make_flow()].need is None

    framed.clear()
    splits.clear()
    rt = MeshRuntime(config=load_config(config_text()))
    fp = rt.fast_path
    units, real_message = [], fp.message

    def keeping_message(msg):
        unit, trace = real_message(msg)
        units.append(unit)
        return unit, trace

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
    chunks = [b"".join(sent[pipelined])]
    reader = live.HttpReader(lambda n: chunks.pop(0) if chunks else b"")
    while data := reader.read():
        unit, _ = fp.message(TrafficUnit(
            kind=UnitKind.MESSAGE, meta=Metadata(flow=pipelined),
            payload=data, head=reader.head))
        assert unit.meta.verdict is Verdict.DELIVER
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


@pytest.mark.parametrize("with_head", [False, True])
@pytest.mark.parametrize("case", ["smuggled", "truncated"])
def test_message_is_forwarded_only_as_the_filter_saw_it(runtime, case,
                                                        with_head):
    """Pass-through never forwards bytes the filter did not see: a MESSAGE
    unit holding an allowed GET and a denied one behind it, or a request
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
    unit, _ = runtime.fast_path.message(TrafficUnit(
        kind=UnitKind.MESSAGE, meta=Metadata(flow=flow), payload=payload,
        head=frame_http(framed) if with_head else None))
    assert unit.meta.verdict is Verdict.TO_SLOW_PATH
    assert unit.meta.verdict_reason.startswith("malformed_http:")
    assert runtime.stats_snapshot()["slow_path"]["status.400"] == 1
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
    toe.open(make_flow())
    out = []
    for off, chunk in arrived:
        out.extend(toe.deliver(seg(chunk, off)))
    assert [m.payload for m in out] == sent
    assert toe.connections[make_flow()].duplicates == len(arrived) - len(segs)
