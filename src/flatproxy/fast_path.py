"""Hierarchical data plane.

A flow's TOE state is its classification.  `FastPath.ingress` looks each
L2 frame's flow up in the ToeEngine once: a flow with TOE state has its
frame reassembled as a TCP segment, and any other frame is a first packet,
which the slow path's handoff takes in the same call.  The handoff opens
the flow's state, if a listener takes the flow, and the frame goes on to
reassembly as any other does; a first packet no listener takes is dropped
as `no_listener`, counted where a refused segment is.  So each frame is
one `ingress` call with one outcome, and `counters()` derives the
`ingress` count from the outcomes.  A flow's TOE state is opened by the
slow path and released by `close_flow`.  The ToeEngine feeds a flow's
in-order bytes to its `l7.HttpReader`, the one reader live mode uses too,
which frames and joins each HTTP message once and hands it on with its
head, read in one pass as soon as the header block is in; a segment that
is exactly one whole message is framed and handed on as it came, and a
block that cannot be framed is cut off and handed on alone, with no head.
Each message is one `core.Message`, which every L7 step reads and sets.
`ingress` runs the messages at once, in order, through `FastPath.message`,
the L7 entry live mode shares; the parser sets each request's fields from
its head, and the deparser forwards the message bytes untouched.  Every
message leaves through one disposition, which counts the outcome and keeps
nothing: its VQ egress, or a drop counted by reason and by the HTTP status
`http_status` gives that reason.
Per-flow FIFO holds by construction: one thread runs the data plane -- the
caller's in-process, live mode's loop thread -- and it runs a flow's frames
and messages in order.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .core import FlowKey, Message, TrafficUnit, Verdict
from .l7 import (
    HttpReader,
    QueueTable,
    filter_apply,
    http_deparse,
    http_parse,
    route,
)
from .match_action import ExecutableChain, MatchTable, Ppm

REORDER_BUFFER_SEGMENTS = 64

_CONTINUE, _DROP, _DELIVER = Verdict.CONTINUE, Verdict.DROP, Verdict.DELIVER


# ---------------------------------------------------------------------------
# PPM factories for the standard HTTP routing chain

# the standard PPM ids, in the default chain's order: a config's chain is
# checked against these before any table exists
STANDARD_CHAIN = ("toe", "http_parser", "filter", "router", "http_deparser")


def make_toe() -> Ppm:
    """The TOE's node in the L7 chain: no step, so each framed message
    passes it at no cost.  Reassembly lives in ToeEngine, which
    `FastPath.ingress` drives because one segment may yield zero or many
    messages.
    """
    return Ppm("toe")


def make_http_parser() -> Ppm:
    """The parser, the PPM's one step: `http_parse` either sets the
    message's request fields or drops it as `malformed_http`."""

    def parser(msg: Message, ctx: dict, snaps: dict):
        if msg.method is None:
            http_parse(msg)

    return Ppm("http_parser", steps=[parser])


def make_filter(filter_table: MatchTable) -> Ppm:
    def evaluate(msg: Message, ctx: dict, snaps: dict):
        rules = snaps[filter_table.name].entries.get("rules", ())
        verdict = filter_apply(msg, rules)
        if verdict is not _CONTINUE:
            msg.set_verdict(verdict, "filter")

    return Ppm("filter", steps=[evaluate], tables=[filter_table])


def make_router(
    listener_table: MatchTable,
    route_table: MatchTable,
    cluster_table: MatchTable,
    queues: QueueTable,
    lb: dict,
    connector: Callable,
) -> Ppm:
    """The router, over the live `lb` map (cluster ref -> LbState)."""

    def route_step(msg: Message, ctx: dict, snaps: dict):
        endpoint = route(
            msg,
            snaps[listener_table.name].entries,
            snaps[route_table.name].entries,
            queues,
            snaps[cluster_table.name].entries,
            lb,
            connector,
        )
        if endpoint is not None:
            ctx["load_balance_calls"] += 1
            ctx[f"endpoint.{endpoint.id}"] += 1

    return Ppm("router", steps=[route_step],
               tables=[listener_table, route_table, cluster_table])


def make_http_deparser() -> Ppm:
    """The deparser: a message no router bound to a queue is dropped as
    `no_queue`."""

    def deparse(msg: Message, ctx: dict, snaps: dict):
        if msg.queue is None:
            msg.set_verdict(_DROP, "no_queue")
            return
        msg.payload = http_deparse(msg)
        msg.set_verdict(_DELIVER, "deparsed")

    return Ppm("http_deparser", steps=[deparse])


def standard_registry(
    listener_table: MatchTable,
    filter_table: MatchTable,
    route_table: MatchTable,
    cluster_table: MatchTable,
    queues: QueueTable,
    lb: dict,
    connector: Callable,
) -> dict:
    """The standard PPMs by id, over the given tables."""
    return {
        "toe": make_toe(),
        "http_parser": make_http_parser(),
        "filter": make_filter(filter_table),
        "router": make_router(
            listener_table, route_table, cluster_table, queues, lb, connector
        ),
        "http_deparser": make_http_deparser(),
    }


# ---------------------------------------------------------------------------
# TOE reassembly

class OutOfWindow(Exception):
    """A segment the TOE refuses.  Its one argument is the drop reason:
    'duplicate' for bytes already delivered or held, 'out_of_window' past
    a full reorder buffer."""


@dataclass
class _ToeConn:
    """One flow's TOE state, released by `ToeEngine.close`."""

    next_seq: int = 0
    # the in-order bytes not yet delivered as messages
    reader: HttpReader = field(default_factory=HttpReader)
    reorder: dict = field(default_factory=dict)


class ToeEngine:
    """In-order exactly-once byte delivery with HTTP message framing.

    Reliable by construction (no retransmit timers); a duplicate segment,
    and one past a full reorder buffer, is refused with `OutOfWindow`.
    `connections` holds exactly the flows the fast path reassembles: the
    slow path opens a flow's state (`open`) on its first frame, and
    `close_flow` releases it.
    """

    def __init__(self):
        self.connections: dict[FlowKey, _ToeConn] = {}

    def open(self, key: FlowKey):
        self.connections.setdefault(key, _ToeConn())

    def close(self, key: FlowKey):
        self.connections.pop(key, None)

    def deliver(self, seg: TrafficUnit) -> Sequence[Message]:
        """Feed one frame of an opened flow, a TCP segment at `seg.seq`;
        returns a list with a `Message` of the frame's flow for each
        message its reader cut, in order, or `()` when it cut none -- a
        block that cannot be framed with no head, so the parser drops it.
        A segment ahead of `next_seq` is held; an in-order one goes to the
        reader, then any held segments it lets through."""
        key = seg.meta.flow
        conn = self.connections[key]
        if seg.seq != conn.next_seq:
            if seg.seq < conn.next_seq or seg.seq in conn.reorder:
                raise OutOfWindow("duplicate")
            if len(conn.reorder) >= REORDER_BUFFER_SEGMENTS:
                raise OutOfWindow("out_of_window")
            conn.reorder[seg.seq] = seg.payload
            return ()
        conn.next_seq += len(seg.payload)
        cut = conn.reader.take(seg.payload)
        reorder = conn.reorder
        if reorder:
            cut = list(cut)
            while (chunk := reorder.pop(conn.next_seq, None)) is not None:
                conn.next_seq += len(chunk)
                cut += conn.reader.take(chunk)
        return [Message(key, data, head) for data, head in cut] if cut else ()


# ---------------------------------------------------------------------------
# HTTP status of a dropped message, by each drop reason the data path gives
# a message (its part before any ':')

_STATUS_BY_REASON = {"filter": 403, "no_listener": 404, "no_route": 404,
                     "malformed_http": 400, "no_healthy_endpoint": 503,
                     "ring_full": 503, "connect_failure": 502,
                     "unknown_cluster": 502, "no_queue": 502}


def http_status(reason: str) -> int:
    """The one status rule, for live replies and the `status.<code>`
    counters: the HTTP status of a message dropped for `reason`."""
    return _STATUS_BY_REASON[reason.partition(":")[0]]


# ---------------------------------------------------------------------------
# Fast path assembly

class FastPath:
    """The full ingress data plane: classification by TOE state, TOE
    reassembly, the L7 chain run inline on each framed message (from the
    TOE, or live mode's `message` calls), and one disposition.  It keeps
    nothing of a message: `counters()` is the record of what happened.
    `vq_egress(msg)` returns whether the message's queue took it;
    `slow_path_handoff(frame)` takes each first packet and returns whether
    it opened the frame's flow."""

    def __init__(
        self,
        l7_chain: ExecutableChain,
        slow_path_handoff: Callable,
        vq_egress: Callable,
    ):
        # the one counter dict: the data plane runs on one thread -- the
        # caller's in-process, the loop thread's in live mode -- so a count
        # is a plain increment, and `counters()` copies the dict in one
        # step, between two of them
        self.ctx = defaultdict(int)
        self.chain = l7_chain
        self.toe = ToeEngine()
        self.slow_path_handoff = slow_path_handoff
        self.vq_egress = vq_egress

    def counters(self) -> dict:
        """The counter dict, copied, with `ingress` the outcomes' sum if any."""
        c = dict(self.ctx)
        frames = c.get("egress", 0) + c.get("buffered", 0) + c.get("dropped", 0)
        if frames:
            c["ingress"] = frames
        return c

    # ingress ---------------------------------------------------------------
    def ingress(self, unit: TrafficUnit) -> str:
        """Classify one L2 frame by one lookup of its flow's TOE state: a
        frame of a flow without any is a first packet, counted `slow_path`,
        whose flow the slow path opens, or not, in this call; the frame of
        an open flow is reassembled as a TCP segment.  Returns the frame's
        outcome: 'l7' (messages went to the L7 chain), 'buffered' (none
        completed yet) or 'dropped' (counted by reason), each counted once.
        A frame is never delivered at L4."""
        ctx = self.ctx
        if unit.meta.flow not in self.toe.connections:
            ctx["slow_path"] += 1
            if not self.slow_path_handoff(unit):
                return self._drop(unit, "no_listener")
        try:
            messages = self.toe.deliver(unit)
        except OutOfWindow as exc:
            return self._drop(unit, exc.args[0])
        for msg in messages:
            self.message(msg)
        if messages:
            ctx["egress"] += 1
            return "l7"
        ctx["buffered"] += 1
        return "buffered"

    def _drop(self, unit: TrafficUnit, reason: str) -> str:
        """The one exit for a refused frame: a first packet no listener
        takes, or a segment the TOE refuses, counted by reason."""
        unit.meta.set_verdict(_DROP, reason)
        ctx = self.ctx
        ctx["dropped"] += 1
        ctx[f"dropped.{reason}"] += 1
        return "dropped"

    def message(self, msg: Message) -> Message:
        """The one L7 message entry, for `ingress` and live mode: run the
        chain and dispose of the message.  Returns it."""
        self.ctx["msg_submitted"] += 1
        self.chain.execute(msg, self.ctx)
        self._dispose(msg)
        return msg

    def _dispose(self, msg: Message):
        """The one exit for messages: send DELIVER to VQ egress and count it
        `msg_egress` once the queue took it; count a DROP -- and a DELIVER
        that a full TX ring lost, as `ring_full` -- as `msg_dropped`, by
        reason and by its `http_status`."""
        ctx = self.ctx
        if msg.verdict is _DELIVER:
            if self.vq_egress(msg):
                ctx["msg_egress"] += 1
                return
            reason = "ring_full"
        else:
            # the reason before any ':', so no input bytes name a counter
            reason = msg.verdict_reason.partition(":")[0]
        ctx["msg_dropped"] += 1
        ctx[f"msg_dropped.{reason}"] += 1
        ctx[f"status.{http_status(reason)}"] += 1

    def results(self):
        """Always empty: nothing is kept per message.  It remains only for
        the benchmark's `fast_path.results_held` gauge, which reads its
        length."""
        return []
