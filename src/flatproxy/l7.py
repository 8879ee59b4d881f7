"""Application-layer functions: HTTP parse/deparse, filtering, routing
and load balancing.

An HTTP message's header block is split once, by `frame_http` when it
frames the message; the parser builds the request from that head, and the
deparser forwards the framed bytes untouched unless the request was
rewritten -- header fields are extracted, the payload passes through.

The router follows the hash-lookup routing flow: listener lookup on the
(dip, dport) pair, path match, then a 4-tuple queue lookup; only a queue
miss triggers load balancing and connection establishment, after which
the flow is pinned to its queue for life.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

from .core import (
    Endpoint,
    FlowKey,
    HttpMessage,
    Metadata,
    TrafficUnit,
    Verdict,
)
from .vq import MAX_DESCRIPTOR_BYTES


class MalformedHttp(Exception):
    """An HTTP message that cannot be parsed or framed.  `end`, set by
    `frame_http`, is where the unframeable message's header block ends (or
    the whole buffer, when it has none)."""

    end = None


class NoHealthyEndpoint(Exception):
    pass


class ConnectFailure(Exception):
    pass


# ---------------------------------------------------------------------------
# HTTP/1.1 parse / deparse

_CRLF = b"\r\n"


def http_parse(unit: TrafficUnit) -> Metadata:
    """Parse an HTTP/1.1 request message into `meta.http`, from the head
    `frame_http` gave when the unit was framed (`unit.head`), else framing
    it here.  On malformed input the verdict becomes TO_SLOW_PATH (the slow
    path decides drop vs. 400) and metadata is otherwise untouched.
    """
    meta = unit.meta
    # a head is used once, so a parsed unit holds no header fields twice
    head, unit.head = unit.head, None
    try:
        meta.http = parse_request(unit.payload, head)
    except MalformedHttp as exc:
        meta.set_verdict(Verdict.TO_SLOW_PATH, f"malformed_http:{exc}")
    return meta


def frame_http(data: bytes) -> Optional[tuple]:
    """The one HTTP/1.1 framing rule (RFC 9112 section 6.3), for requests
    and responses alike: once the header block of the message at the start
    of `data` is in, the message's head `(length, body_at, start_line,
    fields)` -- header block plus Content-Length body, where the body
    starts, and what `split_head` found -- else None.  The message is whole
    once `len(data)` reaches that length; a caller that keeps the head need
    neither frame nor split the message again.  Raises MalformedHttp, with
    `end` set, for a message larger than MAX_DESCRIPTOR_BYTES (or no header
    terminator within that many bytes) and for what `split_head` refuses.
    """
    head_end = data.find(_CRLF + _CRLF)
    end = head_end + 4 if head_end >= 0 else len(data)
    try:
        if head_end < 0:
            if end < MAX_DESCRIPTOR_BYTES:
                return None
            raise MalformedHttp(
                f"no header terminator within {MAX_DESCRIPTOR_BYTES} bytes")
        start, fields, length = split_head(data[:head_end])
        if end + length > MAX_DESCRIPTOR_BYTES:
            raise MalformedHttp(f"message exceeds {MAX_DESCRIPTOR_BYTES} bytes")
    except MalformedHttp as exc:
        exc.end = end
        raise
    return end + length, end, start, fields


def split_head(block: bytes):
    """A header block (less its blank line), split once: the start line,
    each header line's `(name, colon, value)` partition at its first colon
    (`colon` empty if it has none), and the Content-Length (0 without one).
    Raises MalformedHttp for a bad or conflicting Content-Length, or any
    Transfer-Encoding, which is not supported."""
    lines = block.split(_CRLF)
    fields = []
    length = None
    for line in lines[1:]:
        field = line.partition(b":")
        fields.append(field)
        name = field[0].strip().lower()
        if name == b"content-length":
            # a non-negative decimal; "+3", "-3" and "1_0" are not
            if not field[2].strip().isdigit():
                raise MalformedHttp("bad content-length")
            if length is not None and length != int(field[2]):
                raise MalformedHttp("conflicting content-length")
            length = int(field[2])
        elif name == b"transfer-encoding":
            raise MalformedHttp("transfer-encoding not supported")
    return lines[0], fields, length or 0


def parse_request(data: bytes, head: Optional[tuple] = None) -> HttpMessage:
    """The request `data` holds, exactly, built from `head`, its
    `frame_http` head (framed here when None).  Raises MalformedHttp for a
    message cut short or followed by more bytes, a bad request line or a
    bad header line."""
    if head is None:
        head = frame_http(data)
    if head is None or head[0] > len(data):
        raise MalformedHttp("incomplete message")
    length, body_at, start, fields = head
    if length < len(data):
        raise MalformedHttp("bytes past the end of the message")
    parts = start.split(b" ")
    if len(parts) != 3 or not parts[0] or not parts[2].startswith(b"HTTP/"):
        raise MalformedHttp("bad request line")
    method, path, version = parts
    headers = []
    host = b""
    for name, colon, value in fields:
        if not colon or not name:
            raise MalformedHttp(f"bad header line {name + colon + value!r}")
        headers.append((name, value))
        if name.strip().lower() == b"host":
            host = value.strip()
    return HttpMessage(method=method, url_path=path, host=host,
                       version=version, headers=headers, raw=data,
                       body_at=body_at)


def parse_request_bytes(data: bytes, head: Optional[tuple] = None):
    """`parse_request`, returning (HttpMessage, body bytes)."""
    msg = parse_request(data, head)
    return msg, data[msg.body_at:]


def http_deparse(meta: Metadata) -> bytes:
    """The request bytes for the bound queue: the message exactly as it
    arrived, or, once `rewrite_host` rewrote it, serialised again from its
    fields in header wire order, with the body as it arrived."""
    http = meta.http
    if http is None:
        raise MalformedHttp("no http metadata to deparse")
    if not http.rewritten:
        return http.raw
    lines = [http.method + b" " + http.url_path + b" " + http.version]
    lines += [name + b":" + value for name, value in http.headers]
    return _CRLF.join(lines) + _CRLF + _CRLF + http.raw[http.body_at:]


def rewrite_host(http: HttpMessage, new_host: bytes):
    """Rewrite the Host header in place, keeping wire order; the deparser
    then serialises the request again."""
    http.host = new_host
    http.rewritten = True
    for i, (name, value) in enumerate(http.headers):
        if name.strip().lower() == b"host":
            # keep the original leading whitespace of the value
            ws = value[: len(value) - len(value.lstrip())]
            http.headers[i] = (name, ws + new_host)
            return
    http.headers.append((b"Host", b" " + new_host))


# ---------------------------------------------------------------------------
# Filtering

class Decision(Enum):
    ALLOW = "allow"
    DENY = "deny"


@dataclass(frozen=True)
class FilterRule:
    """First-match-wins predicate over request metadata."""

    decision: Decision
    method: Optional[bytes] = None
    host: Optional[bytes] = None
    path_prefix: Optional[bytes] = None
    sip: Optional[int] = None

    def matches(self, meta: Metadata) -> bool:
        http = meta.http
        if http is None:
            return False
        if self.method is not None and http.method != self.method:
            return False
        if self.host is not None and http.host != self.host:
            return False
        if self.path_prefix is not None and not http.url_path.startswith(
            self.path_prefix
        ):
            return False
        if self.sip is not None and meta.flow.sip != self.sip:
            return False
        return True


def filter_apply(meta: Metadata, rules) -> Verdict:
    """First matching rule decides; no rule at all -> slow path."""
    for rule in rules:
        if rule.matches(meta):
            if rule.decision is Decision.ALLOW:
                return Verdict.CONTINUE
            return Verdict.DROP
    return Verdict.TO_SLOW_PATH


# ---------------------------------------------------------------------------
# Routing

class MatchKind(Enum):
    EXACT = "exact"
    PREFIX = "prefix"


@dataclass(frozen=True)
class PathMatcher:
    kind: MatchKind
    pattern: bytes

    def __post_init__(self):
        if not self.pattern:
            raise ValueError("empty path pattern")

    def matches(self, path: bytes) -> bool:
        if self.kind is MatchKind.EXACT:
            return path == self.pattern
        return path.startswith(self.pattern)


@dataclass(frozen=True)
class RouteRule:
    listener: FlowKey  # wildcard-source key
    path_matchers: tuple
    cluster: str


class LbPolicy(Enum):
    ROUND_ROBIN = "round_robin"
    WEIGHTED_RR = "weighted_rr"
    LEAST_CONN = "least_conn"


@dataclass
class Cluster:
    """Endpoint set plus the mutable balancing state."""

    ref: str
    endpoints: list
    policy: LbPolicy = LbPolicy.ROUND_ROBIN
    rr_cursor: int = 0
    _wrr_current: dict = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def selectable(self):
        return [e for e in self.endpoints if e.selectable]


def load_balance(cluster: Cluster, meta: Metadata = None) -> Endpoint:
    """Pick the next endpoint under the cluster's policy."""
    with cluster._lock:
        live = cluster.selectable()
        if not live:
            raise NoHealthyEndpoint(cluster.ref)
        if cluster.policy is LbPolicy.ROUND_ROBIN:
            choice = live[cluster.rr_cursor % len(live)]
            cluster.rr_cursor = (cluster.rr_cursor + 1) % len(live)
            return choice
        if cluster.policy is LbPolicy.WEIGHTED_RR:
            return _smooth_wrr(cluster, live)
        # LEAST_CONN; ties broken by endpoint id order
        return min(live, key=lambda e: (e.active_conns, e.id))


def _smooth_wrr(cluster: Cluster, live) -> Endpoint:
    total = sum(e.weight for e in live)
    best = None
    for e in live:
        cur = cluster._wrr_current.get(e.id, 0) + e.weight
        cluster._wrr_current[e.id] = cur
        if best is None or cur > cluster._wrr_current[best.id]:
            best = e
    cluster._wrr_current[best.id] -= total
    return best


class QueueTable:
    """4-tuple flow -> virtualization queue binding; one queue per flow."""

    def __init__(self):
        self._map = {}
        self._lock = threading.Lock()

    def lookup(self, key: FlowKey):
        return self._map.get(key)

    def bind(self, key: FlowKey, queue_id: int):
        with self._lock:
            existing = self._map.get(key)
            if existing is not None and existing != queue_id:
                raise ValueError(f"flow {key} already bound to queue {existing}")
            self._map[key] = queue_id

    def remove(self, key: FlowKey):
        with self._lock:
            self._map.pop(key, None)

    def __len__(self):
        return len(self._map)


@dataclass
class RouteResult:
    meta: Metadata
    endpoint: Optional[Endpoint] = None
    lb_called: bool = False


def route(
    meta: Metadata,
    listeners: dict,
    routes: dict,
    queues: QueueTable,
    clusters: dict,
    connector: Callable,
) -> RouteResult:
    """HTTP routing: listener hash lookup, path match, queue lookup with
    lazy connection establishment.

    listeners: listener FlowKey -> listener name
    routes:    listener FlowKey -> list[RouteRule]
    clusters:  cluster ref -> Cluster
    connector: (endpoint, meta) -> queue id, on a queue miss
    """
    result = RouteResult(meta)
    lkey = meta.flow.listener_key
    if lkey not in listeners:
        meta.reset_transient()
        meta.set_verdict(Verdict.DROP, "no_listener")
        return result
    rule = _match_route(routes.get(lkey, ()), meta.http.url_path)
    if rule is None:
        meta.reset_transient()
        meta.set_verdict(Verdict.DROP, "no_route")
        return result
    ckey = meta.flow
    queue_id = queues.lookup(ckey)
    if queue_id is None:
        cluster = clusters.get(rule.cluster)
        if cluster is None:
            meta.set_verdict(Verdict.TO_SLOW_PATH, f"unknown_cluster:{rule.cluster}")
            return result
        try:
            endpoint = load_balance(cluster, meta)
        except NoHealthyEndpoint:
            meta.set_verdict(Verdict.TO_SLOW_PATH, "no_healthy_endpoint")
            return result
        result.lb_called = True
        result.endpoint = endpoint
        try:
            queue_id = connector(endpoint, meta)
        except ConnectFailure:
            meta.set_verdict(Verdict.TO_SLOW_PATH, "connect_failure")
            return result
        queues.bind(ckey, queue_id)
    meta.bind_queue(queue_id)
    return result


def _match_route(rules, path: bytes):
    for rule in rules:
        for matcher in rule.path_matchers:
            if matcher.matches(path):
                return rule
    return None
