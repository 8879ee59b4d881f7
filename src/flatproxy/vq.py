"""Virtualization-queue transport between the proxy and a service.

Models SRIOV + socket-direct: a bound RX/TX ring pair, descriptor copies
standing in for DMA, and logical tenant isolation.  The TX path raises a
single readiness event per delivered message and never touches a host
doorbell; the RX path releases its ring slot only after the proxy fetch.
Rings never block: a write to a full ring raises RingFull, and a read of
an empty one returns None.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from enum import Enum

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


class _Ring:
    """Bounded descriptor ring with slot accounting."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._slots = deque()

    @property
    def occupied(self) -> int:
        return len(self._slots)

    def push(self, data: bytes) -> bool:
        """Append `data`; False, with nothing appended, if the ring is full."""
        if len(self._slots) >= self.capacity:
            return False
        self._slots.append(data)
        return True

    def pop(self):
        """The oldest descriptor, or None if the ring is empty."""
        return self._slots.popleft() if self._slots else None


@dataclass(frozen=True)
class MemoryBlockAddr:
    """Opaque handle for a socket-memory block; carries its owner so every
    access can be tenant-checked."""

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
        self.outbox_count = 0


_queue_ids = itertools.count(1)


class VirtQueue:
    """One proxy-side user, one stub-side user; queues never share rings."""

    def __init__(
        self,
        tenant: str,
        capacity: int = DEFAULT_RING_CAPACITY,
        max_descriptor: int = MAX_DESCRIPTOR_BYTES,
    ):
        self.id = next(_queue_ids)
        self.tenant = tenant
        self.rx_ring = _Ring(capacity)  # service -> proxy
        self.tx_ring = _Ring(capacity)  # proxy -> service
        self.bound_mem = None  # {"rx_addr": .., "tx_addr": ..}
        self.state = VqState.UNBOUND
        self.max_descriptor = max_descriptor
        self._stub = None
        self.host_doorbells = 0  # must stay 0 on the TX path
        self.dma_copies = 0

    # -- memory binding ----------------------------------------------------
    def bind(self, stub: ServiceStub) -> "VirtQueue":
        """Binding handshake: the stub allocates its RX/TX blocks and the
        queue records their addresses; idempotent for the same stub."""
        if self.state is VqState.CLOSED:
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
        self.state = VqState.BOUND
        return self

    def close(self):
        self.state = VqState.CLOSED

    def _check_bound(self):
        if self.state is VqState.CLOSED:
            raise QueueClosed(self.id)
        if self.state is not VqState.BOUND:
            raise VqError(f"queue {self.id} not bound")

    def _check_stub(self, stub: ServiceStub):
        if stub is not self._stub:
            raise TenantMismatch(
                f"stub of tenant {stub.tenant} is not bound to queue {self.id}"
            )

    # -- transmitting path (proxy -> service) ------------------------------
    def tx_deliver(self, data: bytes):
        """Data lands in the TX ring and one readiness event fires; no
        host doorbell.  A full ring raises RingFull and delivers nothing."""
        self._check_bound()
        if not data:
            raise ValueError("empty delivery")
        if len(data) > self.max_descriptor:
            raise ValueError(f"descriptor exceeds {self.max_descriptor} bytes")
        if not self.tx_ring.push(data):
            raise RingFull(self.id)
        self._stub.events += 1

    def stub_fetch(self, stub: ServiceStub):
        """The service consumes one delivered message; this is the DMA
        copy into socket memory plus the TX slot release."""
        self._check_bound()
        self._check_stub(stub)
        data = self.tx_ring.pop()
        if data is None:
            return None
        self.dma_copies += 1
        stub.fetched += 1
        return data

    # -- receiving path (service -> proxy) ---------------------------------
    def stub_write(self, stub: ServiceStub, data: bytes):
        """The service writes into its TX buffer; the free address returns
        synchronously, the driver kicks the DMA, and the bytes land in the
        proxy-facing RX ring.  A full ring raises RingFull."""
        self._check_bound()
        self._check_stub(stub)
        if not self.rx_ring.push(data):
            raise RingFull(self.id)
        self.dma_copies += 1
        stub.outbox_count += 1

    def rx_collect(self):
        """Proxy fetch plus RX slot release; None when nothing pending."""
        self._check_bound()
        return self.rx_ring.pop()
