import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, strategies as st

from flatproxy.core import (
    FlowKey,
    Metadata,
    Proto,
    TrafficUnit,
    UnitKind,
    Verdict,
    BufferPool,
    int_to_ip4,
    ip4_to_int,
    make_listener_key,
)
from conftest import make_flow


def test_make_listener_key_wildcard_source():
    key = make_listener_key("10.0.0.2", 8080)
    assert key == FlowKey(0, 0, ip4_to_int("10.0.0.2"), 8080, Proto.TCP)
    assert key.sip == key.sport == 0


def test_make_listener_key_deterministic():
    a = make_listener_key("10.0.0.2", 8080)
    b = make_listener_key("10.0.0.2", 8080)
    assert a == b
    assert hash(a) == hash(b)


def test_make_listener_key_distinct_ports():
    assert make_listener_key("10.0.0.2", 8080) != make_listener_key("10.0.0.2", 8081)


def test_flow_key_listener_key_is_kept():
    key = make_flow()
    lkey = key.listener_key
    assert lkey == make_listener_key("10.0.0.2", 8080)
    assert key.listener_key is lkey
    # keeping it changes neither equality, hash nor repr
    fresh = make_flow()
    assert key == fresh and hash(key) == hash(fresh)
    assert repr(key) == repr(fresh)
    assert pickle.loads(pickle.dumps(key)) == fresh
    assert make_flow(dport=8081).listener_key != lkey


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


def test_flow_key_proto_distinguishes():
    tcp = FlowKey(0x01010101, 53, 0x0A000002, 53, Proto.TCP)
    udp = FlowKey(0x01010101, 53, 0x0A000002, 53, Proto.UDP)
    assert tcp != udp
    assert len({tcp: 1, udp: 2}) == 2


def test_flow_key_frozen_fields_and_repr():
    key = make_flow()
    with pytest.raises(dataclasses.FrozenInstanceError):
        key.sport = 1
    assert [f.name for f in dataclasses.fields(key)] == [
        "sip", "sport", "dip", "dport", "proto"]
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


def test_verdict_terminal_sticks():
    meta = Metadata(flow=make_flow())
    meta.set_verdict(Verdict.DROP, "x")
    with pytest.raises(ValueError):
        meta.set_verdict(Verdict.DELIVER)
    meta.set_verdict(Verdict.DROP)  # idempotent restatement is fine


def test_verdict_continue_may_become_anything():
    for v in (Verdict.DROP, Verdict.TO_SLOW_PATH, Verdict.DELIVER):
        meta = Metadata(flow=make_flow())
        meta.set_verdict(v)
        assert meta.verdict is v


def test_queue_binding_stable():
    meta = Metadata(flow=make_flow())
    meta.bind_queue(7)
    meta.bind_queue(7)
    with pytest.raises(ValueError):
        meta.bind_queue(8)


def test_unit_kind_only_advances():
    unit = TrafficUnit(kind=UnitKind.FRAME, meta=Metadata(flow=make_flow()))
    unit.advance(UnitKind.PACKET)
    unit.advance(UnitKind.MESSAGE)
    with pytest.raises(ValueError):
        unit.advance(UnitKind.SEGMENT)


def test_endpoint_weight_validation():
    from flatproxy.core import Endpoint

    with pytest.raises(ValueError):
        Endpoint(id="e", address=make_flow(), weight=-1)


def test_ip_roundtrip():
    for addr in ("0.0.0.0", "10.0.0.2", "255.255.255.255"):
        assert int_to_ip4(ip4_to_int(addr)) == addr
    with pytest.raises(ValueError):
        ip4_to_int("not-an-ip")


def test_buffer_pool():
    pool = BufferPool()
    ref = pool.put(b"hello")
    assert pool.get(ref) == b"hello"
    pool.release(ref)
    assert len(pool) == 0
