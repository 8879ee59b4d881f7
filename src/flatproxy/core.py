"""Core domain types shared by every processing module.

Everything that moves through the proxy is a TrafficUnit carrying a
Metadata descriptor.  Metadata for a given connection is owned by exactly
one stage at a time; stages hand units off, they never share them.
"""

from __future__ import annotations

import itertools
import struct
import weakref
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Optional


class Proto(Enum):
    TCP = 6
    UDP = 17


class UnitKind(Enum):
    """Traffic category; only ever advances upward on ingress."""

    FRAME = 2
    PACKET = 3
    SEGMENT = 4
    MESSAGE = 7


class Verdict(Enum):
    CONTINUE = "continue"
    DROP = "drop"
    TO_SLOW_PATH = "to_slow_path"
    DELIVER = "deliver"


#: Verdicts that end a chain traversal.  CONTINUE may transition to any of
#: these; none of these ever transitions back.
TERMINAL_VERDICTS = frozenset({Verdict.DROP, Verdict.TO_SLOW_PATH, Verdict.DELIVER})


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
        """The wildcard-source key of this flow's listener, made on first
        use and kept: the router looks it up for every message.  Flows to
        one listener share one key, so keeping it costs a flow a pointer."""
        ident = (self.dip, self.dport, self.proto)
        lkey = _listener_keys.get(ident)
        if lkey is None:
            lkey = _listener_keys[ident] = make_listener_key(*ident)
        return lkey


# (dip, dport, proto) -> the listener key flows to it share; an entry goes
# with the last flow that holds its key
_listener_keys = weakref.WeakValueDictionary()


def make_listener_key(dip, dport: int, proto: Proto = Proto.TCP) -> FlowKey:
    """Wildcard-source key used for listener lookup."""
    return FlowKey(sip=0, sport=0, dip=ip4_to_int(dip), dport=dport, proto=proto)


@dataclass
class HttpMessage:
    """Parsed HTTP/1.1 request fields, and the message bytes they were
    parsed from.  The deparser forwards `raw` untouched unless the request
    was `rewritten`; header wire order is preserved for that case."""

    method: bytes = b""
    url_path: bytes = b""
    host: bytes = b""
    version: bytes = b"HTTP/1.1"
    headers: list = field(default_factory=list)  # list[(name bytes, value bytes)]
    raw: bytes = b""  # the whole framed message as it arrived
    body_at: int = 0  # where the body starts in `raw`
    rewritten: bool = False  # a field was changed: serialise it again


_conn_ids = itertools.count(1)


def next_conn_id() -> int:
    return next(_conn_ids)


@dataclass
class Metadata:
    """Per-unit descriptor threaded through every processing module."""

    flow: FlowKey
    conn_id: int = 0
    http: Optional[HttpMessage] = None
    queue: Optional[int] = None
    verdict: Verdict = Verdict.CONTINUE
    verdict_reason: Optional[str] = None

    def set_verdict(self, verdict: Verdict, reason: str = None):
        """Verdict transitions are monotone: terminal verdicts stick."""
        if self.verdict in TERMINAL_VERDICTS and verdict != self.verdict:
            raise ValueError(
                f"verdict {self.verdict} is terminal, cannot become {verdict}"
            )
        self.verdict = verdict
        if reason is not None:
            self.verdict_reason = reason

    def bind_queue(self, queue_id: int):
        if self.queue is not None and self.queue != queue_id:
            raise ValueError(
                f"conn {self.conn_id} already bound to queue {self.queue}"
            )
        self.queue = queue_id

    def reset_transient(self):
        """Clear routing scratch state at the end of a traversal (the
        'initial metadata' step of the routing algorithm): the parsed
        request, and with it the message bytes it holds."""
        self.http = None


@dataclass
class TrafficUnit:
    kind: UnitKind
    meta: Metadata
    payload: bytes = b""
    seq: int = 0  # L4 sequence offset, meaningful for SEGMENT only
    # a MESSAGE framed on arrival: `l7.frame_http(payload)`, which the
    # parser builds the request from instead of framing it again
    head: Optional[tuple] = None

    def advance(self, kind: UnitKind):
        """Kind only moves upward within ingress processing; the UnitKind
        values are in ingress order."""
        if kind._value_ < self.kind._value_:
            raise ValueError(f"cannot demote {self.kind} to {kind}")
        self.kind = kind


@dataclass
class Endpoint:
    id: str
    address: FlowKey  # destination half only (sip/sport zero)
    weight: int = 1
    healthy: bool = True
    # open flows routed here; MeshRuntime keeps it, LEAST_CONN reads it
    active_conns: int = field(default=0, compare=False)

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
