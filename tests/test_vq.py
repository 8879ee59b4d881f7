import pytest
from hypothesis import given, settings, strategies as st

from flatproxy.vq import (
    MAX_DESCRIPTOR_BYTES,
    AlreadyBoundElsewhere,
    QueueClosed,
    RingFull,
    ServiceStub,
    TenantMismatch,
    VirtQueue,
    VqError,
    VqState,
)


def bound_pair(tenant="t", capacity=256):
    stub = ServiceStub(tenant=tenant)
    q = VirtQueue(tenant=tenant, capacity=capacity)
    q.bind(stub)
    return q, stub


# -- binding -----------------------------------------------------------------

def test_bind_records_memory_blocks():
    stub = ServiceStub(tenant="t")
    q = VirtQueue(tenant="t")
    assert q.state is VqState.UNBOUND
    q.bind(stub)
    assert q.state is VqState.BOUND
    assert q.bound_mem == {"rx_addr": stub.rx_addr, "tx_addr": stub.tx_addr}
    assert stub.rx_addr.owner == "t"


def test_bind_idempotent_same_stub():
    q, stub = bound_pair()
    assert q.bind(stub) is q


def test_bind_rejects_other_stub():
    q, _ = bound_pair()
    with pytest.raises(AlreadyBoundElsewhere):
        q.bind(ServiceStub(tenant="t"))


def test_bind_rejects_wrong_tenant():
    q = VirtQueue(tenant="alpha")
    with pytest.raises(TenantMismatch):
        q.bind(ServiceStub(tenant="beta"))


def test_unbound_queue_refuses_transfer():
    q = VirtQueue(tenant="t")
    with pytest.raises(VqError):
        q.tx_deliver(b"x")
    with pytest.raises(VqError):
        q.rx_collect()


def test_closed_queue_refuses_everything():
    q, stub = bound_pair()
    q.close()
    with pytest.raises(QueueClosed):
        q.tx_deliver(b"x")
    with pytest.raises(QueueClosed):
        q.bind(stub)


# each transfer, given its queue and the stub it claims to be
TRANSFERS = {
    "tx_deliver": lambda q, stub: q.tx_deliver(b"x"),
    "stub_fetch": lambda q, stub: q.stub_fetch(stub),
    "stub_write": lambda q, stub: q.stub_write(stub, b"x"),
    "rx_collect": lambda q, stub: q.rx_collect(),
}


@pytest.mark.parametrize("transfer", list(TRANSFERS))
def test_every_transfer_refuses_by_state_then_stub(transfer):
    """An unbound queue refuses each transfer with a plain VqError, a
    closed one with QueueClosed even for its own stub, and a bound one
    refuses a stub-side transfer by a stub it is not bound to, of its
    tenant or another, with TenantMismatch; a refused transfer moves
    nothing."""
    run = TRANSFERS[transfer]
    with pytest.raises(VqError) as exc:
        run(VirtQueue(tenant="t"), ServiceStub(tenant="t"))
    assert type(exc.value) is VqError
    q, stub = bound_pair()
    q.tx_deliver(b"m")
    q.stub_write(stub, b"r")
    if transfer in ("stub_fetch", "stub_write"):
        for tenant in ("t", "u"):
            with pytest.raises(TenantMismatch):
                run(q, ServiceStub(tenant=tenant))
    q.close()
    with pytest.raises(QueueClosed):
        run(q, stub)
    assert q.tx_ring.occupied == q.rx_ring.occupied == 1
    assert (stub.events, stub.fetched, q.dma_copies) == (1, 0, 1)


# -- TX path (proxy -> service) ----------------------------------------------

def test_tx_deliver_byte_exact_fifo():
    q, stub = bound_pair()
    msgs = [b"one", b"two", b"three"]
    for m in msgs:
        q.tx_deliver(m)
    assert [q.stub_fetch(stub) for _ in msgs] == msgs
    assert stub.fetched == len(msgs)


def test_tx_one_event_per_delivery_zero_doorbells():
    q, stub = bound_pair()
    for i in range(10):
        q.tx_deliver(b"m%d" % i)
    assert stub.events == 10
    assert q.host_doorbells == 0


def test_tx_rejects_empty_and_oversized():
    q, _ = bound_pair()
    with pytest.raises(ValueError):
        q.tx_deliver(b"")
    with pytest.raises(ValueError):
        q.tx_deliver(b"x" * (MAX_DESCRIPTOR_BYTES + 1))


def test_tx_ring_full_backpressure_nonblocking():
    q, stub = bound_pair(capacity=4)
    for i in range(4):
        q.tx_deliver(b"m%d" % i)
    with pytest.raises(RingFull):
        q.tx_deliver(b"m4")
    # a fetch releases exactly one slot
    q.stub_fetch(stub)
    q.tx_deliver(b"m4")
    assert q.tx_ring.occupied == 4


def test_stub_fetch_wrong_stub_rejected():
    q, _stub = bound_pair()
    q.tx_deliver(b"x")
    intruder = ServiceStub(tenant="t")
    with pytest.raises(TenantMismatch):
        q.stub_fetch(intruder)


# -- RX path (service -> proxy) ----------------------------------------------

def test_rx_roundtrip():
    q, stub = bound_pair()
    q.stub_write(stub, b"resp1")
    q.stub_write(stub, b"resp2")
    assert q.rx_collect() == b"resp1"
    assert q.rx_collect() == b"resp2"
    assert q.rx_collect() is None


def test_rx_slot_released_only_after_collect():
    q, stub = bound_pair(capacity=2)
    q.stub_write(stub, b"a")
    q.stub_write(stub, b"b")
    with pytest.raises(RingFull):
        q.stub_write(stub, b"c")
    q.rx_collect()
    q.stub_write(stub, b"c")


def test_tenant_isolation_across_queues():
    """A stub never observes bytes from a queue of another tenant."""
    qa, stub_a = bound_pair(tenant="a")
    qb, stub_b = bound_pair(tenant="b")
    qa.tx_deliver(b"for-a")
    qb.tx_deliver(b"for-b")
    with pytest.raises(TenantMismatch):
        qa.stub_fetch(stub_b)
    with pytest.raises(TenantMismatch):
        qb.stub_write(stub_a, b"spoof")
    assert qa.stub_fetch(stub_a) == b"for-a"
    assert qb.stub_fetch(stub_b) == b"for-b"
    assert stub_a.fetched == stub_b.fetched == 1


# -- slot conservation property ----------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.sampled_from(["tx", "fetch", "write", "collect"]), max_size=60
    ),
    capacity=st.integers(1, 8),
)
def test_slot_conservation_property(ops, capacity):
    """Over any op sequence: pushed = popped + in-ring for both rings,
    occupancy never exceeds capacity, and payloads arrive byte-exact in
    FIFO order with one event per TX delivery."""
    q, stub = bound_pair(capacity=capacity)
    tx_sent, tx_got, rx_sent, rx_got = [], [], [], []
    for i, op in enumerate(ops):
        if op == "tx":
            data = b"t%d" % i
            try:
                q.tx_deliver(data)
                tx_sent.append(data)
            except RingFull:
                assert q.tx_ring.occupied == capacity
        elif op == "fetch":
            got = q.stub_fetch(stub)
            if got is not None:
                tx_got.append(got)
        elif op == "write":
            data = b"r%d" % i
            try:
                q.stub_write(stub, data)
                rx_sent.append(data)
            except RingFull:
                assert q.rx_ring.occupied == capacity
        else:
            got = q.rx_collect()
            if got is not None:
                rx_got.append(got)
        assert 0 <= q.tx_ring.occupied <= capacity
        assert 0 <= q.rx_ring.occupied <= capacity
    assert len(tx_sent) == len(tx_got) + q.tx_ring.occupied
    assert len(rx_sent) == len(rx_got) + q.rx_ring.occupied
    assert tx_got == tx_sent[: len(tx_got)]
    assert rx_got == rx_sent[: len(rx_got)]
    assert stub.events == len(tx_sent)
    assert q.host_doorbells == 0
    assert q.dma_copies == len(tx_got) + len(rx_sent)
