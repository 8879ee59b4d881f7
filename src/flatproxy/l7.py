"""Application-layer functions: HTTP parse/deparse, filtering, routing
and load balancing.

The router follows the hash-lookup routing flow: listener lookup on the
(dip, dport) pair, path match, then a 4-tuple queue lookup; only a queue
miss triggers load balancing and connection establishment, after which
the flow is pinned to its queue for life.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

from .core import (
    BufferPool,
    Endpoint,
    FlowKey,
    HttpMessage,
    Metadata,
    ProtoType,
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


def http_parse(unit: TrafficUnit, pool: BufferPool) -> Metadata:
    """Parse an HTTP/1.1 request message into metadata; body goes to the
    buffer pool and is referenced by body_ref.

    On malformed input the verdict becomes TO_SLOW_PATH (the slow path
    decides drop vs. 400) and metadata is otherwise untouched.
    """
    meta = unit.meta
    try:
        http, body = parse_request_bytes(unit.payload)
    except MalformedHttp as exc:
        meta.set_verdict(Verdict.TO_SLOW_PATH, f"malformed_http:{exc}")
        return meta
    meta.proto_type = ProtoType.HTTP
    meta.http = http
    meta.body_ref = pool.put(body)
    return meta


def frame_http(data: bytes) -> Optional[int]:
    """The one HTTP/1.1 framing rule (RFC 9112 section 6.3): the length of
    the message at the start of `data` -- header block plus Content-Length
    body -- as soon as its header block is complete, or None while it is
    not.  The message is whole once `len(data)` reaches that length; a
    caller that keeps it need not frame the same message again.

    Raises MalformedHttp, with `end` set, for a message larger than
    MAX_DESCRIPTOR_BYTES (or no header terminator within that many bytes),
    a bad or conflicting Content-Length, or any Transfer-Encoding, which is
    not supported.
    """
    head_end = data.find(_CRLF + _CRLF)
    end = head_end + 4 if head_end >= 0 else len(data)
    try:
        if head_end < 0:
            if end < MAX_DESCRIPTOR_BYTES:
                return None
            raise MalformedHttp(
                f"no header terminator within {MAX_DESCRIPTOR_BYTES} bytes")
        lengths = set()
        for line in data[:head_end].split(_CRLF)[1:]:
            name, _, value = line.partition(b":")
            name = name.strip().lower()
            if name == b"content-length":
                # a non-negative decimal; "+3", "-3" and "1_0" are not
                if not value.strip().isdigit():
                    raise MalformedHttp("bad content-length")
                lengths.add(int(value))
            elif name == b"transfer-encoding":
                raise MalformedHttp("transfer-encoding not supported")
        if len(lengths) > 1:
            raise MalformedHttp("conflicting content-length")
        total = end + sum(lengths)
        if total > MAX_DESCRIPTOR_BYTES:
            raise MalformedHttp(f"message exceeds {MAX_DESCRIPTOR_BYTES} bytes")
    except MalformedHttp as exc:
        exc.end = end
        raise
    return total


def parse_request_bytes(data: bytes):
    """Returns (HttpMessage, body bytes) of the request `frame_http` finds
    at the start of `data`; raises MalformedHttp."""
    end = frame_http(data)
    if end is None or end > len(data):
        raise MalformedHttp("incomplete message")
    head_end = data.find(_CRLF + _CRLF)
    lines = data[:head_end].split(_CRLF)
    parts = lines[0].split(b" ")
    if len(parts) != 3 or not parts[0] or not parts[2].startswith(b"HTTP/"):
        raise MalformedHttp("bad request line")
    method, path, version = parts
    headers = []
    host = b""
    for line in lines[1:]:
        name, colon, value = line.partition(b":")
        if not colon or not name:
            raise MalformedHttp(f"bad header line {line!r}")
        headers.append((name, value))
        if name.strip().lower() == b"host":
            host = value.strip()
    msg = HttpMessage(
        method=method, url_path=path, host=host, version=version, headers=headers
    )
    return msg, data[head_end + 4:end]


def http_deparse(meta: Metadata, pool: BufferPool) -> bytes:
    """Serialize the (possibly rewritten) request for the bound queue.

    Header wire order is preserved, so an untouched parse round-trips
    byte-for-byte.  Content-Length is synthesized only when a body exists
    without a matching header.
    """
    http = meta.http
    if http is None:
        raise MalformedHttp("no http metadata to deparse")
    body = pool.get(meta.body_ref) if meta.body_ref is not None else b""
    lines = [http.method + b" " + http.url_path + b" " + http.version]
    have_cl = False
    for name, value in http.headers:
        if name.strip().lower() == b"content-length":
            value = b" " + str(len(body)).encode()
            have_cl = True
        lines.append(name + b":" + value)
    if body and not have_cl:
        lines.append(b"Content-Length: " + str(len(body)).encode())
    return _CRLF.join(lines) + _CRLF + _CRLF + body


def rewrite_host(http: HttpMessage, new_host: bytes):
    """Rewrite the Host header in place, keeping wire order."""
    http.host = new_host
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


_queue_ids = itertools.count(1)


def default_connector(endpoint: Endpoint, meta: Metadata) -> int:
    """Stand-in connection establishment: allocate a fresh queue id."""
    return next(_queue_ids)


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
    connector: Callable = default_connector,
) -> RouteResult:
    """HTTP routing: listener hash lookup, path match, queue lookup with
    lazy connection establishment.

    listeners: listener FlowKey -> listener name
    routes:    listener FlowKey -> list[RouteRule]
    clusters:  cluster ref -> Cluster
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
