"""Application-layer functions: HTTP parse/deparse, filtering, routing
and load balancing.

`http_parse`, `filter_apply`, `route` and `http_deparse` are the steps of
the standard L7 PPMs, which the chain runs directly: each takes the step
signature `(msg, ctx, snaps)` -- `route` once its queue table, balancing
states and connector are bound ahead of them -- reads any table it needs
from the traversal's snapshot `snaps`, table name to published entries
(the filter reads "filters", the router "listeners", "routes" and
"clusters"), and sets the message's verdict through its monotone
`set_verdict`.

An HTTP message's header block is read once, in one pass over its lines,
by `frame_http` when it frames the message: that pass finds the
Content-Length, the Host and the first bad header line, and the parser
sets the request fields of the message's one `core.Message` from the head
it returns; the filter, router and deparser read them there, and the
deparser forwards the framed bytes untouched -- header fields are
extracted, the payload passes through.  `HttpReader` is the one reader
that cuts whole messages off a byte stream by that rule: the TOE's
per-flow reassembly, and in live mode each client, upstream and echo stub
connection, use it.

The router follows the hash-lookup routing flow: listener lookup on the
(dip, dport) pair, path match, then the queue of the flow's record, which
the message carries, looked up by its 4-tuple once, as its frame came in;
only a queue miss triggers load balancing and connection establishment,
after which the flow is pinned to its queue for life.  A `Cluster` and its
`Endpoint`s are frozen config, as the cluster table publishes them; what
balancing changes is each cluster's `LbState`, which the runtime owns and
keeps by endpoint address, so it outlives any reload that keeps the
address.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Callable, Optional

from .core import Endpoint, Message, Verdict
from .vq import MAX_DESCRIPTOR_BYTES


class MalformedHttp(Exception):
    """An HTTP message that cannot be parsed or framed.  `end`, given
    where `frame_http` raises it, is where the unframeable message's header
    block ends (or the whole buffer, when it has none)."""

    def __init__(self, message: str, end: Optional[int] = None):
        super().__init__(message)
        self.end = end


class NoHealthyEndpoint(Exception):
    pass


class ConnectFailure(Exception):
    pass


# ---------------------------------------------------------------------------
# HTTP/1.1 parse / deparse

_CRLF = b"\r\n"
_LENGTH_DIGITS = len(str(MAX_DESCRIPTOR_BYTES))
# a field name is a token (RFC 9110 section 5.6.2) when it is all ASCII
# letters once this table has made a letter of each other token character,
# leaving every other byte as it is
_TOKEN_AS_ALPHA = bytes.maketrans(b"!#$%&'*+-.^_`|~0123456789", b"a" * 25)


def http_parse(msg: Message, ctx: dict, snaps: dict):
    """The parser's step: set `msg`'s request fields from the head
    `frame_http` gave when it was framed (`msg.head`), else framing it
    here.  Malformed input is dropped as `malformed_http:<what>`, and `msg`
    is otherwise untouched.  It reads no table."""
    # a head is used once, so a parsed message holds no header fields twice
    head, msg.head = msg.head, None
    try:
        msg.method, msg.url_path, msg.host, msg.body_at = parse_request(
            msg.payload, head)
    except MalformedHttp as exc:
        msg.set_verdict(_DROP, f"malformed_http:{exc}")


def frame_http(data: bytes) -> Optional[tuple]:
    """The one HTTP/1.1 framing rule (RFC 9112 section 6.3), for requests
    and responses alike, in one pass over the header lines: once the header
    block of the message at the start of `data` is in, its head `(length,
    body_at, start_line, host, bad_line)` -- header block plus
    Content-Length body, where the body starts, the start line, the Host
    (None if none) and the first line a request may not have (None if
    none): one with no colon, a name that is no token (RFC 9110 section
    5.6.2), such as an empty one or one with whitespace before the colon or
    an obs-fold (RFC 9112 sections 5.1 and 5.2), or a second Host line (3.2)
    -- else None.  The message is whole once `len(data)` reaches that
    length.  Raises MalformedHttp, with `end` set, for a message over
    MAX_DESCRIPTOR_BYTES (or no header terminator within that many), a bad,
    over-long or conflicting Content-Length, or any Transfer-Encoding."""
    head_end = data.find(_CRLF + _CRLF)
    if head_end < 0:
        if len(data) < MAX_DESCRIPTOR_BYTES:
            return None
        raise MalformedHttp(
            f"no header terminator within {MAX_DESCRIPTOR_BYTES} bytes",
            len(data))
    end = head_end + 4
    lines = data[:head_end].split(_CRLF)
    length = host = bad_line = None
    for line in lines[1:]:
        name, colon, value = line.partition(b":")
        # most names are letters and digits alone: one cheap test for them
        if bad_line is None and not (colon and (
                name.isalnum() or name.translate(_TOKEN_AS_ALPHA).isalpha())):
            bad_line = line
        name = name.strip().lower()
        if name == b"host":
            if host is not None and bad_line is None:
                bad_line = line
            host = value.strip()
        elif name == b"content-length":
            # a non-negative decimal; "+3", "-3" and "1_0" are not
            value = value.strip()
            if not value.isdigit():
                raise MalformedHttp("bad content-length", end)
            # leading zeros are legal; past them, a value with more digits
            # than MAX_DESCRIPTOR_BYTES exceeds it, whatever they are (and
            # `int` refuses a string of over 4,300 digits)
            value = value.lstrip(b"0")
            if len(value) > _LENGTH_DIGITS:
                raise MalformedHttp("content-length too large", end)
            value = int(value or b"0")
            if length is not None and length != value:
                raise MalformedHttp("conflicting content-length", end)
            length = value
        elif name == b"transfer-encoding":
            raise MalformedHttp("transfer-encoding not supported", end)
    length = end + (length or 0)
    if length > MAX_DESCRIPTOR_BYTES:
        raise MalformedHttp(f"message exceeds {MAX_DESCRIPTOR_BYTES} bytes", end)
    return length, end, lines[0], host, bad_line


class HttpReader:
    """Cuts whole messages off an HTTP/1.1 byte stream by `frame_http`,
    each framed once and joined once: the bytes not yet taken are kept in
    `chunks` as they arrived, `held` in all, and the head of the message at
    their front waits in `need` until that many bytes are held.  A block
    `frame_http` refuses is cut off alone -- its header block, or all that
    is held when it has none -- and framing goes on after it, so the stream
    stays framed and no caller sees `MalformedHttp`.  A new reader holds
    nothing: it starts from these class defaults, with no Python
    `__init__` to run."""

    chunks = ()
    held = 0
    need = None

    def take(self, data: bytes):
        """Add `data`, then return every whole message held, in order, as
        `(bytes, head)` pairs, a refused block's head None; empty when
        none is whole.  When nothing was held and `data` is exactly one
        whole message, that is `data` itself, never kept, joined or cut."""
        if self.held:
            self.chunks.append(data)
            self.held += len(data)
            head = self.need
            if head is not None and self.held < head[0]:
                return ()  # the body is still coming
        elif not data:
            return ()
        else:
            # nothing held: frame `data` as it came, once
            try:
                head = frame_http(data)
            except MalformedHttp as exc:
                self.chunks = [data]
                self.held = len(data)
                return self._drain(None, [(self._cut(exc.end), None)])
            if head is not None and head[0] == len(data):
                return ((data, head),)
            self.chunks = [data]
            self.held = len(data)
            if head is None or head[0] > len(data):
                self.need = head
                return ()
        return self._drain(head, [])

    def _drain(self, head, out: list) -> list:
        """Append to `out` each whole message held, `head` that of the one
        at the front (None if not framed yet), and return it."""
        while True:
            if head is None:
                chunks = self.chunks
                if not chunks:
                    break
                if len(chunks) > 1:
                    self.chunks = chunks = [b"".join(chunks)]
                try:
                    head = frame_http(chunks[0])
                except MalformedHttp as exc:
                    out.append((self._cut(exc.end), None))
                    continue
                if head is None:
                    break
            if self.held < head[0]:
                break
            out.append((self._cut(head[0]), head))
            head = None
        self.need = head
        return out

    def _cut(self, end: int) -> bytes:
        """The first `end` bytes held, taken off the stream and joined once.
        `end` falls within the last chunk -- `take` cuts a message in the
        call whose chunk completes it -- and that chunk's tail stays held."""
        chunks = self.chunks
        last = chunks[-1]
        at = end - self.held + len(last)  # where `end` falls in the last
        chunks[-1] = last[:at]
        data = b"".join(chunks)  # the one chunk itself, if one
        rest = last[at:]
        self.chunks = [rest] if rest else []
        self.held = len(rest)
        return data


def parse_request(data: bytes, head: Optional[tuple] = None) -> tuple:
    """The request `data` holds, exactly, as `(method, url_path, host,
    body_at)`, built from `head`, its `frame_http` head (framed here when
    None), with no second pass over its header lines; `host` is b'' when
    an HTTP/1.0 request has none.  Raises MalformedHttp for a message cut
    short or followed by more bytes, a bad request line, a bad header line
    or an HTTP/1.1 request with no Host (RFC 9112 section 3.2)."""
    if head is None:
        head = frame_http(data)
    if head is None or head[0] > len(data):
        raise MalformedHttp("incomplete message")
    length, body_at, start, host, bad_line = head
    if length < len(data):
        raise MalformedHttp("bytes past the end of the message")
    parts = start.split(b" ")
    if len(parts) != 3 or not parts[0] or not parts[2].startswith(b"HTTP/"):
        raise MalformedHttp("bad request line")
    if bad_line is not None:
        raise MalformedHttp(f"bad header line {bad_line!r}")
    if host is None and parts[2] == b"HTTP/1.1":
        raise MalformedHttp("no host")
    return parts[0], parts[1], host or b"", body_at


def http_deparse(msg: Message, ctx: dict, snaps: dict):
    """The deparser's step, last in the chain: the message, which the
    router ahead of it bound to a queue, is delivered as its bytes exactly
    as they arrived, `msg.payload` untouched.  It reads no table."""
    msg.set_verdict(_DELIVER, "deparsed")


# ---------------------------------------------------------------------------
# Filtering

class Decision(Enum):
    ALLOW = "allow"
    DENY = "deny"


@dataclass(frozen=True)
class FilterRule:
    """First-match-wins predicate over request metadata.  `host` is a
    lowercase host name, with no port."""

    decision: Decision
    method: Optional[bytes] = None
    host: Optional[bytes] = None
    path_prefix: Optional[bytes] = None
    sip: Optional[int] = None

    def matches(self, msg: Message) -> bool:
        """Whether each field the rule sets equals the parsed request's."""
        if self.method is not None and msg.method != self.method:
            return False
        if self.host is not None and host_name(msg.host) != self.host:
            return False
        if self.path_prefix is not None and not msg.url_path.startswith(
            self.path_prefix
        ):
            return False
        if self.sip is not None and msg.flow.sip != self.sip:
            return False
        return True


def host_name(host: bytes) -> bytes:
    """A Host value lowercased (RFC 9110 section 7.2) and without a trailing
    `:port` of digits or none (RFC 3986 section 3.2.3); in a bracketed IPv6
    literal a `]` follows the last colon, so it keeps its colons."""
    name, colon, port = host.rpartition(b":")
    return (name if colon and (port.isdigit() or not port) else host).lower()


# Enum members read per message, bound once: a member read is an
# attribute lookup through the Enum's metaclass
_DENY = Decision.DENY
_DROP, _DELIVER = Verdict.DROP, Verdict.DELIVER


def filter_apply(msg: Message, ctx: dict, snaps: dict):
    """The filter's step, over the rules `snaps["filters"]["rules"]`: the
    first rule that matches decides, and a DENY drops the message as
    `filter`; a request no rule matches is allowed."""
    for rule in snaps["filters"].get("rules", ()):
        if rule.matches(msg):
            if rule.decision is _DENY:
                msg.set_verdict(_DROP, "filter")
            return


# ---------------------------------------------------------------------------
# Routing

class MatchKind(Enum):
    EXACT = "exact"
    PREFIX = "prefix"


@dataclass(frozen=True)
class PathMatcher:
    """The one path rule: `matches(path)` is whether `path` equals the
    pattern (EXACT) or starts with it (PREFIX).  It is bound once, here, to
    a C callable, so a match costs the router no Python frame."""

    kind: MatchKind
    pattern: bytes

    def __post_init__(self):
        if not self.pattern:
            raise ValueError("empty path pattern")
        object.__setattr__(
            self, "matches",
            partial(operator.eq, self.pattern) if self.kind is MatchKind.EXACT
            else operator.methodcaller("startswith", self.pattern))


@dataclass(frozen=True)
class RouteRule:
    listener: tuple  # its listener's (dip, dport)
    path_matchers: tuple
    cluster: str


class LbPolicy(Enum):
    ROUND_ROBIN = "round_robin"
    WEIGHTED_RR = "weighted_rr"
    LEAST_CONN = "least_conn"


@dataclass(frozen=True)
class Cluster:
    """A cluster as configured: a plain value, published as it is.
    `selectable` is the endpoints that can be picked, by
    `Endpoint.selectable`, found once as the cluster is built."""

    ref: str
    endpoints: tuple
    policy: LbPolicy = LbPolicy.ROUND_ROBIN
    selectable: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "selectable", tuple(
            e for e in self.endpoints if e.selectable))


@dataclass
class LbState:
    """A cluster's balancing state, kept by the runtime across reloads:
    the round-robin cursor, and per endpoint address the smooth-WRR
    current weight and the count of open flows balanced there.  An
    address that holds no flow has no count."""

    cursor: int = 0
    current: dict = field(default_factory=dict)
    conns: dict = field(default_factory=dict)

    def open(self, endpoint: Endpoint):
        self.conns[endpoint.address] = self.conns.get(endpoint.address, 0) + 1

    def close(self, endpoint: Endpoint):
        left = self.conns.pop(endpoint.address) - 1
        if left:
            self.conns[endpoint.address] = left


def load_balance(cluster: Cluster, state: LbState) -> Endpoint:
    """Pick the next endpoint under the cluster's policy, of those it can
    pick."""
    live = cluster.selectable
    if not live:
        raise NoHealthyEndpoint(cluster.ref)
    if cluster.policy is LbPolicy.ROUND_ROBIN:
        choice = live[state.cursor % len(live)]
        state.cursor = (state.cursor + 1) % len(live)
        return choice
    if cluster.policy is LbPolicy.WEIGHTED_RR:
        return _smooth_wrr(state, live)
    # LEAST_CONN; ties broken by endpoint id order
    conns = state.conns
    return min(live, key=lambda e: (conns.get(e.address, 0), e.id))


def _smooth_wrr(state: LbState, live) -> Endpoint:
    # weights only for the endpoints that can be picked now
    prev = state.current
    current = state.current = {
        e.address: prev.get(e.address, 0) + e.weight for e in live}
    best = max(live, key=lambda e: current[e.address])  # first of equals
    current[best.address] -= sum(e.weight for e in live)
    return best


class QueueTable(dict):
    """4-tuple flow -> the id of its virtualization queue, for each flow
    connected: the runtime writes it as a flow connects and as it closes,
    and no message step reads it.  `lookup` is its bound `dict.get`."""

    def __init__(self):
        super().__init__()
        self.lookup = self.get  # key -> queue id, or None


def route(
    lb: dict,
    connector: Callable,
    msg: Message,
    ctx: dict,
    snaps: dict,
) -> Optional[Endpoint]:
    """The router's step, once `functools.partial` has bound its first
    two arguments: listener hash lookup, path match, then the queue of the
    flow's record, `msg.conn`, with lazy connection establishment.  Returns
    the endpoint load balancing picked and connected to, counted
    `load_balance_calls` and `endpoint.<id>` in `ctx`, or None when the
    flow's queue was found or no connection was opened.  It reads its
    tables from `snaps`:

    snaps["listeners"]: (dip, dport) -> listener name
    snaps["routes"]:    (dip, dport) -> list[RouteRule], in priority order
    snaps["clusters"]:  cluster ref -> Cluster
    lb:                 cluster ref -> LbState
    connector:          (endpoint, msg) -> queue, on a queue miss

    A queue miss pins the record to the queue the connector returns, with
    the endpoint and a count on it in the cluster's state, which
    `close_flow` gives back.  The chain runs the router once on each
    message, which it binds to its flow's queue.
    """
    flow = msg.flow
    lkey = (flow.dip, flow.dport)
    if lkey not in snaps["listeners"]:
        msg.set_verdict(_DROP, "no_listener")
        return None
    # the first rule with a path matcher that matches
    path = msg.url_path
    for rule in snaps["routes"].get(lkey, ()):
        for matcher in rule.path_matchers:
            if matcher.matches(path):
                break
        else:
            continue
        break
    else:
        msg.set_verdict(_DROP, "no_route")
        return None
    conn = msg.conn
    queue = conn.queue
    endpoint = None
    if queue is None:
        cluster = snaps["clusters"].get(rule.cluster)
        if cluster is None:
            msg.set_verdict(_DROP, f"unknown_cluster:{rule.cluster}")
            return None
        state = lb[rule.cluster]
        try:
            endpoint = load_balance(cluster, state)
        except NoHealthyEndpoint:
            msg.set_verdict(_DROP, "no_healthy_endpoint")
            return None
        try:
            queue = connector(endpoint, msg)
        except ConnectFailure:
            # the round-robin cursor has moved on, as Envoy's does
            msg.set_verdict(_DROP, "connect_failure")
            return None
        conn.queue, conn.endpoint, conn.lb = queue, endpoint, state
        state.open(endpoint)
    msg.queue = queue
    if endpoint is not None:
        ctx["load_balance_calls"] += 1
        ctx[f"endpoint.{endpoint.id}"] += 1
    return endpoint
