"""Virtualization-queue transport between the proxy and a service.

Models SRIOV + socket-direct: a bound RX/TX ring pair, descriptor copies
standing in for DMA, and logical tenant isolation.  The TX path raises a
single readiness event per delivered message and never touches a host
doorbell; the RX path releases its ring slot only after the proxy fetch.
Rings never block: a write to a full ring raises RingFull, and a read of
an empty one returns None.  A ring is a `deque`, built with no Python
`__init__` of its own, and its capacity is its queue's; each transfer
checks state, stub and capacity in its own body: one Python call per
transfer.  A stub's memory-block handles are named tuples, so a new queue
and stub, which each new flow gets, cost a few constructions in all.
"""

from __future__ import annotations

import itertools
from collections import deque
from enum import Enum
from typing import NamedTuple

DEFAULT_RING_CAPACITY = 256
MAX_DESCRIPTOR_BYTES = 64 * 1024


class VqError(Exception):
    pass


class TenantMismatch(VqError):
    pass


class AlreadyBoundElsewhere(VqError):
    pass


class RingFull(VqError):
    pass


class QueueClosed(VqError):
    pass


class VqState(Enum):
    UNBOUND = "unbound"
    BOUND = "bound"
    CLOSED = "closed"


_UNBOUND, _BOUND, _CLOSED = VqState.UNBOUND, VqState.BOUND, VqState.CLOSED


class _Ring(deque):
    """Descriptor ring, oldest descriptor first: its queue appends only
    below the queue's `capacity` and pops from the left.  It is a `deque`
    with no Python `__init__` of its own."""

    __slots__ = ()

    @property
    def occupied(self) -> int:
        return len(self)


class MemoryBlockAddr(NamedTuple):
    """Opaque handle for a socket-memory block, labelled with the tenant
    that owns it.  The handle checks nothing itself: access is checked at
    the queue, where `bind` refuses a stub of another tenant and every
    stub-side transfer refuses a stub the queue is not bound to."""

    addr: int
    owner: str


_block_ids = itertools.count(1)


class ServiceStub:
    """Service-side endpoint.  A stub only ever observes bytes delivered
    through a queue bound to it; it counts what it fetched and keeps none
    of it."""

    def __init__(self, tenant: str):
        self.tenant = tenant
        self.rx_addr = MemoryBlockAddr(next(_block_ids), tenant)
        self.tx_addr = MemoryBlockAddr(next(_block_ids), tenant)
        self.events = 0  # readiness events raised, one per TX delivery
        self.fetched = 0  # messages fetched from the proxy


_queue_ids = itertools.count(1)


class VirtQueue:
    """One proxy-side user, one stub-side user; queues never share rings."""

    def __init__(self, tenant: str, capacity: int = DEFAULT_RING_CAPACITY):
        self.id = next(_queue_ids)
        self.tenant = tenant
        self.capacity = capacity  # of each ring
        self.rx_ring = _Ring()  # service -> proxy
        self.tx_ring = _Ring()  # proxy -> service
        self.bound_mem = None  # {"rx_addr": .., "tx_addr": ..}
        self.state = _UNBOUND
        self._stub = None
        self.host_doorbells = 0  # must stay 0 on the TX path
        self.dma_copies = 0

    # -- memory binding ----------------------------------------------------
    def bind(self, stub: ServiceStub) -> "VirtQueue":
        """Binding handshake: the stub allocates its RX/TX blocks and the
        queue records their addresses; idempotent for the same stub."""
        if self.state is _CLOSED:
            raise QueueClosed(self.id)
        if stub.tenant != self.tenant:
            raise TenantMismatch(
                f"queue tenant {self.tenant}, stub tenant {stub.tenant}"
            )
        if self._stub is not None:
            if self._stub is stub:
                return self  # idempotent re-bind
            raise AlreadyBoundElsewhere(self.id)
        self._stub = stub
        self.bound_mem = {"rx_addr": stub.rx_addr, "tx_addr": stub.tx_addr}
        self.state = _BOUND
        return self

    def close(self):
        self.state = _CLOSED

    def _refusal(self, stub: ServiceStub = None) -> VqError:
        """What a transfer refused by the queue's state, else `stub`'s, raises."""
        if self.state is _CLOSED:
            return QueueClosed(self.id)
        if self.state is not _BOUND:
            return VqError(f"queue {self.id} not bound")
        return TenantMismatch(
            f"stub of tenant {stub.tenant} is not bound to queue {self.id}"
        )

    # -- transmitting path (proxy -> service) ------------------------------
    def tx_deliver(self, data: bytes):
        """Data lands in the TX ring and one readiness event fires; no
        host doorbell.  A full ring raises RingFull and delivers nothing."""
        if self.state is not _BOUND:
            raise self._refusal()
        if not data:
            raise ValueError("empty delivery")
        if len(data) > MAX_DESCRIPTOR_BYTES:
            raise ValueError(f"descriptor exceeds {MAX_DESCRIPTOR_BYTES} bytes")
        ring = self.tx_ring
        if len(ring) >= self.capacity:
            raise RingFull(self.id)
        ring.append(data)
        self._stub.events += 1

    def stub_fetch(self, stub: ServiceStub):
        """The service consumes one delivered message; this is the DMA
        copy into socket memory plus the TX slot release."""
        if self.state is not _BOUND or stub is not self._stub:
            raise self._refusal(stub)
        ring = self.tx_ring
        if not ring:
            return None
        self.dma_copies += 1
        stub.fetched += 1
        return ring.popleft()

    # -- receiving path (service -> proxy) ---------------------------------
    def stub_write(self, stub: ServiceStub, data: bytes):
        """The service writes into its TX buffer; the free address returns
        synchronously, the driver kicks the DMA, and the bytes land in the
        proxy-facing RX ring.  A full ring raises RingFull."""
        if self.state is not _BOUND or stub is not self._stub:
            raise self._refusal(stub)
        ring = self.rx_ring
        if len(ring) >= self.capacity:
            raise RingFull(self.id)
        ring.append(data)
        self.dma_copies += 1

    def rx_collect(self):
        """Proxy fetch plus RX slot release; None when nothing pending."""
        if self.state is not _BOUND:
            raise self._refusal()
        return self.rx_ring.popleft() if self.rx_ring else None
