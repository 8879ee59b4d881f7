"""Core domain types shared by every processing module.

Two things move through the proxy.  An L2 frame is a TrafficUnit carrying
a Metadata descriptor, its flow and its verdict.  A framed HTTP message is
one `Message`, which holds its bytes, its head, the request fields the
parser reads from it, its queue and its verdict.  Each is owned by exactly
one stage at a time; stages hand them off, they never share them.
"""

from __future__ import annotations

import itertools
import struct
import weakref
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Optional


class Proto(Enum):
    TCP = 6
    UDP = 17


class UnitKind(Enum):
    """Traffic category of a TrafficUnit: a frame the fast path takes in,
    reassembled as a TCP segment once its flow is known."""

    FRAME = 2


class Verdict(Enum):
    CONTINUE = "continue"
    DROP = "drop"  # with a reason; counted at the disposition
    DELIVER = "deliver"


_CONTINUE = Verdict.CONTINUE


def ip4_to_int(addr) -> int:
    """Accepts dotted-quad strings or ints; returns a 32-bit address."""
    if isinstance(addr, int):
        if not 0 <= addr <= 0xFFFFFFFF:
            raise ValueError(f"address out of 32-bit range: {addr}")
        return addr
    parts = addr.split(".")
    if len(parts) != 4:
        raise ValueError(f"not an IPv4 address: {addr!r}")
    return struct.unpack(">I", bytes(int(p) for p in parts))[0]


def int_to_ip4(value: int) -> str:
    return ".".join(str(b) for b in struct.pack(">I", value))


@dataclass(frozen=True)
class FlowKey:
    """Five-tuple flow identity; hashable, field-wise equality.

    A listener (2-tuple) key uses sip=0, sport=0 as a wildcard source.
    """

    sip: int
    sport: int
    dip: int
    dport: int
    proto: Proto = Proto.TCP

    def __post_init__(self):
        if not 0 <= self.sip <= 0xFFFFFFFF or not 0 <= self.dip <= 0xFFFFFFFF:
            raise ValueError("addresses must fit in 32 bits")
        if not 0 <= self.sport <= 0xFFFF or not 0 <= self.dport <= 0xFFFF:
            raise ValueError("ports must fit in 16 bits")
        # hashed on every table lookup: hash once, on proto's `_value_`
        # (Enum.__hash__ and `.value` run as Python code)
        object.__setattr__(self, "_hash", hash(
            (self.sip, self.sport, self.dip, self.dport, self.proto._value_)))

    def __hash__(self):
        return self._hash

    @cached_property
    def listener_key(self) -> "FlowKey":
        """The interned wildcard-source key of this flow's listener, kept
        after first use: the router looks it up for every message."""
        return make_listener_key(self.dip, self.dport, self.proto)


# (dip, dport, proto) -> the one listener key for it; an entry goes with
# the last table, rule or flow that holds its key
_listener_keys = weakref.WeakValueDictionary()


def make_listener_key(dip, dport: int, proto: Proto = Proto.TCP) -> FlowKey:
    """The wildcard-source key used for listener lookup, interned: the
    listener and route tables hold the very object each flow to that
    listener looks up, so a lookup matches by identity."""
    ident = (ip4_to_int(dip), dport, proto)
    lkey = _listener_keys.get(ident)
    if lkey is None:
        lkey = _listener_keys[ident] = FlowKey(
            sip=0, sport=0, dip=ident[0], dport=dport, proto=proto)
    return lkey


def _set_verdict(self, verdict: Verdict, reason: str = None):
    """Verdict transitions are monotone: CONTINUE may become any verdict,
    and every other verdict is terminal and sticks."""
    if self.verdict is not _CONTINUE and verdict is not self.verdict:
        raise ValueError(
            f"verdict {self.verdict} is terminal, cannot become {verdict}"
        )
    self.verdict = verdict
    if reason is not None:
        self.verdict_reason = reason


@dataclass
class Metadata:
    """A frame's descriptor: its flow and its verdict."""

    flow: FlowKey
    conn_id: int = 0
    verdict: Verdict = Verdict.CONTINUE
    verdict_reason: Optional[str] = None

    set_verdict = _set_verdict


@dataclass
class TrafficUnit:
    kind: UnitKind
    meta: Metadata
    payload: bytes = b""
    seq: int = 0  # TCP sequence offset of a FRAME's payload


class Message:
    """One framed HTTP message, one object: its flow and bytes, the head
    `l7.frame_http` read when it was framed (None for a block that could
    not be), the request fields the parser sets -- `method` stays None
    until it has -- the queue the router binds, and its verdict.  It has
    no `__dict__`, so a misspelt field is an AttributeError."""

    __slots__ = ("flow", "payload", "head", "method", "url_path", "host",
                 "body_at", "queue", "verdict", "verdict_reason")

    def __init__(self, flow: FlowKey, payload: bytes, head: tuple = None):
        self.flow = flow
        self.payload = payload  # as it arrived, which the deparser forwards
        self.head = head
        self.method = None
        self.url_path = self.host = b""
        self.body_at = 0  # where the body starts in `payload`
        self.queue = None
        self.verdict = _CONTINUE
        self.verdict_reason = None

    set_verdict = _set_verdict


@dataclass(frozen=True)
class Endpoint:
    """An upstream host, as configured.  Its balancing state is kept by
    address in its cluster's `l7.LbState`."""

    id: str
    address: FlowKey  # destination half only (sip/sport zero)
    weight: int = 1
    healthy: bool = True

    def __post_init__(self):
        if self.weight < 0:
            raise ValueError("endpoint weight must be non-negative")

    @property
    def selectable(self) -> bool:
        return self.healthy and self.weight > 0


class BufferPool:
    """Payload buffer store; `put` returns the handle to `get` it by."""

    def __init__(self):
        self._buffers = {}
        self._next = itertools.count(1)

    def put(self, data: bytes) -> int:
        ref = next(self._next)
        self._buffers[ref] = data
        return ref

    def get(self, ref: int) -> bytes:
        return self._buffers[ref]

    def release(self, ref: int):
        self._buffers.pop(ref, None)

    def __len__(self):
        return len(self._buffers)
