"""Core domain types shared by every processing module.

Two things move through the proxy.  An L2 frame is a TrafficUnit carrying
a Metadata descriptor, its flow and its verdict.  A framed HTTP message is
one `Message`, which holds its bytes, its head, the request fields the
parser reads from it, its flow's record, its queue and its verdict.  Each
is owned by exactly one stage at a time; stages hand them off, they never
share them.  A flow's state is one `Conn` record, which the slow path
builds in one step and every later frame and message of the flow reaches.

A flow is named by its `FlowKey`, a tuple, so every table keyed by flow
hashes and compares it in C.  A listener or an endpoint is named by a
plain `(ip, port)` pair: a 32-bit address and a 16-bit port.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import NamedTuple, Optional


class Proto(IntEnum):
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
    """A 32-bit address from an int (not a bool) in range, or from a
    dotted-quad string as `ipaddress.IPv4Address` reads it; ValueError on
    anything else.  Bytes are refused: IPv4Address would read four of them
    as a packed address."""
    if isinstance(addr, str):
        return int(ipaddress.IPv4Address(addr))
    if type(addr) is int and 0 <= addr <= 0xFFFFFFFF:
        return addr
    raise ValueError(f"not an IPv4 address: {addr!r}")


def int_to_ip4(value: int) -> str:
    return str(ipaddress.IPv4Address(value))


class _FlowFields(NamedTuple):
    sip: int
    sport: int
    dip: int
    dport: int
    proto: Proto = Proto.TCP


class FlowKey(_FlowFields):
    """A flow's five-tuple.  It is a tuple, so it hashes and compares in
    C, and a key equals the plain tuple of its fields."""

    __slots__ = ()

    def __new__(cls, sip: int, sport: int, dip: int, dport: int,
                proto: Proto = Proto.TCP):
        if not 0 <= sip <= 0xFFFFFFFF or not 0 <= dip <= 0xFFFFFFFF:
            raise ValueError("addresses must fit in 32 bits")
        if not 0 <= sport <= 0xFFFF or not 0 <= dport <= 0xFFFF:
            raise ValueError("ports must fit in 16 bits")
        return tuple.__new__(cls, (sip, sport, dip, dport, proto))


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


class Conn:
    """One open flow's record, the whole of its state: the TOE's
    `next_seq`, `reader` (an `l7.HttpReader`) and `reorder` buffer (seq ->
    held payload); once the router has connected it, its `queue`, the
    `endpoint` load balancing picked and the `l7.LbState` whose count it
    holds there; and when it was `last_active`.  The slow path builds it
    in one step, and `close_flow` releases all it holds."""

    __slots__ = ("next_seq", "reader", "reorder", "queue", "endpoint", "lb",
                 "last_active")

    def __init__(self, reader, last_active: int = 0):
        self.next_seq = 0
        self.reader = reader
        self.reorder = {}
        self.queue = self.endpoint = self.lb = None
        self.last_active = last_active


class Message:
    """One framed HTTP message, one object: its flow and bytes, the head
    `l7.frame_http` read when it was framed (None for a block that could
    not be), its flow's `Conn` record, which the router reads the flow's
    queue from, the request fields the parser sets -- `method` stays None
    until it has -- the queue the router binds, and its verdict.  It has
    no `__dict__`, so a misspelt field is an AttributeError."""

    __slots__ = ("flow", "payload", "head", "conn", "method", "url_path",
                 "host", "body_at", "queue", "verdict", "verdict_reason")

    def __init__(self, flow: FlowKey, payload: bytes, head: tuple = None,
                 conn: Conn = None):
        self.flow = flow
        self.payload = payload  # as it arrived, which the deparser forwards
        self.head = head
        self.conn = conn
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
    address: tuple  # (ip, port): its 32-bit address and its port
    weight: int = 1
    healthy: bool = True

    def __post_init__(self):
        if self.weight < 0:
            raise ValueError("endpoint weight must be non-negative")

    @property
    def selectable(self) -> bool:
        return self.healthy and self.weight > 0

