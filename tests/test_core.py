import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from flatproxy.core import (
    Conn,
    FlowKey,
    Message,
    Metadata,
    Proto,
    Verdict,
    int_to_ip4,
    ip4_to_int,
)
from conftest import make_flow


def test_make_conn_key_verbatim():
    flow = make_flow()
    meta = Metadata(flow=flow)
    assert meta.flow == flow


def test_make_conn_key_equal_flows():
    m1 = Metadata(flow=make_flow())
    m2 = Metadata(flow=make_flow())
    assert m1.flow == m2.flow


def test_make_conn_key_sport_differs():
    m1 = Metadata(flow=make_flow(sport=40000))
    m2 = Metadata(flow=make_flow(sport=40001))
    assert m1.flow != m2.flow


@given(
    st.tuples(
        st.integers(0, 2**32 - 1), st.integers(0, 2**16 - 1),
        st.integers(0, 2**32 - 1), st.integers(0, 2**16 - 1),
    ),
    st.tuples(
        st.integers(0, 2**32 - 1), st.integers(0, 2**16 - 1),
        st.integers(0, 2**32 - 1), st.integers(0, 2**16 - 1),
    ),
)
def test_conn_key_injective(t1, t2):
    k1 = Metadata(flow=FlowKey(*t1)).flow
    k2 = Metadata(flow=FlowKey(*t2)).flow
    assert (k1 == k2) == (t1 == t2)


def test_flow_key_hash_matches_equality():
    a = FlowKey(0x01010101, 40000, 0x0A000002, 8080, Proto.TCP)
    b = FlowKey(0x01010101, 40000, 0x0A000002, 8080, Proto.TCP)
    assert a is not b
    assert a == b and hash(a) == hash(b)
    # a table keyed by one instance answers for an equal, separate one
    assert {a: "l7"}[b] == "l7"
    assert b in {a}


def test_flow_key_hashes_and_compares_in_c():
    """A key is a tuple: every table lookup hashes and compares it with
    tuple's own C slots, its proto with int's."""
    assert FlowKey.__hash__ is tuple.__hash__
    assert FlowKey.__eq__ is tuple.__eq__
    assert Proto.__hash__ is int.__hash__
    key = FlowKey(0x01010101, 40000, 0x0A000002, 8080)
    plain = (0x01010101, 40000, 0x0A000002, 8080, Proto.TCP)
    assert key == plain and hash(key) == hash(plain)
    assert {plain: "flow"}[key] == "flow"


def test_flow_key_proto_distinguishes():
    tcp = FlowKey(0x01010101, 53, 0x0A000002, 53, Proto.TCP)
    udp = FlowKey(0x01010101, 53, 0x0A000002, 53, Proto.UDP)
    assert tcp != udp
    assert len({tcp: 1, udp: 2}) == 2


def test_flow_key_frozen_fields_and_repr():
    key = make_flow()
    with pytest.raises(AttributeError):
        key.sport = 1
    assert FlowKey._fields == ("sip", "sport", "dip", "dport", "proto")
    assert repr(FlowKey(1, 2, 3, 4)) == (
        "FlowKey(sip=1, sport=2, dip=3, dport=4, proto=<Proto.TCP: 6>)")


def test_flow_key_copy_and_pickle_keep_hash():
    key = make_flow()
    for other in (copy.copy(key), copy.deepcopy(key),
                  pickle.loads(pickle.dumps(key))):
        assert other == key
        assert hash(other) == hash(key)
        assert {key: 1}[other] == 1


@pytest.mark.parametrize("fields", [
    (-1, 0, 0, 0), (2**32, 0, 0, 0), (0, 0, 2**32, 0),
    (0, -1, 0, 0), (0, 2**16, 0, 0), (0, 0, 0, 2**16),
])
def test_flow_key_range_validation(fields):
    with pytest.raises(ValueError):
        FlowKey(*fields)


TERMINAL = (Verdict.DROP, Verdict.DELIVER)


@pytest.mark.parametrize("terminal, then", [
    (t, v) for t in TERMINAL for v in Verdict
], ids=lambda v: v.name)
def test_verdict_terminal_sticks(terminal, then):
    """A terminal verdict refuses every other verdict, CONTINUE included;
    restating it is fine and keeps the first reason unless given one.  A
    frame's Metadata and a Message keep the one rule."""
    for meta in (Metadata(flow=make_flow()), Message(make_flow(), b"")):
        meta.set_verdict(terminal, "x")
        if then is terminal:
            meta.set_verdict(then)  # idempotent restatement is fine
        else:
            with pytest.raises(ValueError):
                meta.set_verdict(then)
        assert meta.verdict is terminal
        assert meta.verdict_reason == "x"


def test_verdict_continue_may_become_anything():
    for v in TERMINAL:
        for meta in (Metadata(flow=make_flow()), Message(make_flow(), b"")):
            assert meta.verdict is Verdict.CONTINUE
            meta.set_verdict(v)
            assert meta.verdict is v


def test_message_is_one_slotted_object():
    """A Message has no `__dict__`: a misspelt field write raises instead
    of passing silently."""
    msg = Message(make_flow(), b"GET / HTTP/1.1\r\n\r\n")
    assert not hasattr(msg, "__dict__")
    with pytest.raises(AttributeError):
        msg.verdcit = Verdict.DROP
    assert msg.verdict is Verdict.CONTINUE and msg.verdict_reason is None
    assert msg.head is None and msg.queue is None and msg.method is None


def test_queue_binding_stable():
    """The router binds a message to its connected flow's queue, with no
    load balancing, and routing it again keeps that queue."""
    from flatproxy.l7 import (
        HttpReader, MatchKind, PathMatcher, RouteRule, http_parse, route)

    flow = make_flow()
    lkey = (flow.dip, flow.dport)
    listeners = {lkey: "web"}
    routes = {lkey: (
        RouteRule(lkey, (PathMatcher(MatchKind.PREFIX, b"/"),), "c"),)}
    conn = Conn(HttpReader())
    conn.queue = 7  # the flow's record, connected
    msg = Message(flow, b"GET / HTTP/1.1\r\nHost: x\r\n\r\n", None, conn)
    http_parse(msg, {}, {})
    snaps = {"listeners": listeners, "routes": routes, "clusters": {}}
    ctx = {}
    route({}, None, msg, ctx, snaps)
    route({}, None, msg, ctx, snaps)
    assert msg.queue == 7


def test_endpoint_weight_validation():
    from flatproxy.core import Endpoint

    with pytest.raises(ValueError):
        Endpoint(id="e", address=(0x7F000001, 9001), weight=-1)


def test_ip_roundtrip():
    for addr in ("0.0.0.0", "10.0.0.2", "255.255.255.255"):
        assert int_to_ip4(ip4_to_int(addr)) == addr
    # an address is an int in 32 bits that is not a bool, or a dotted quad
    # of plain decimal octets: no octet is read loosely
    for bad in ("not-an-ip", "10.0.0.2_0", "1_0.0.0.1", " 10.0.0.1",
                "+10.0.0.1", "01.0.0.1", "\uff11\uff10.0.0.1", "10.0.0", True,
                False, -1, 2**32, 10.5, None, b"\x0a\x00\x00\x02"):
        with pytest.raises(ValueError):
            ip4_to_int(bad)
