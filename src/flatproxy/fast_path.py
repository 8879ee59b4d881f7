"""Hierarchical data plane.

A flow's record is its classification.  Each open flow has one
`core.Conn` record, in the one map `ToeEngine.connections`, which is also
the runtime's `conns`, and `FastPath.ingress` looks each L2 frame's flow
up there once, through the map's bound `get`: the frame of a flow with a
record is reassembled as a TCP segment, and any other frame is a first
packet, which the slow path's handoff takes in the same call.  The handoff
builds the flow's record, if a listener takes the flow, and the frame goes
on to reassembly with it as any other does; a first packet no listener
takes is dropped as `no_listener`, counted where a refused segment is.  So
each frame is one `ingress` call with one outcome, and `counters()`
derives the `ingress` count from the outcomes.  A record is built by the
slow path and released by `close_flow`.  The frame's record goes to the
ToeEngine with it, which keeps its TOE state there and hands the record on
with each message it cuts, so no later step looks the flow's state up:
egress only moves the record to the end of the activity order.  The
ToeEngine feeds a flow's in-order bytes -- those of a segment that
overlaps what was delivered included, past it -- to its record's
`l7.HttpReader`, the one reader live mode uses too, which frames and
joins each HTTP message once and hands it on with its head, read in one
pass as soon as the header block is in; a segment
that is exactly one whole message is framed and handed on as it came, and
a block that cannot be framed is cut off and handed on alone, with no
head.  Each message is one `core.Message`, which every L7 step reads and
sets.  `ingress` runs the messages at once, in order, through
`FastPath.message`, the L7 entry live mode shares.  The standard chain's
steps are the `l7` functions themselves: the parser sets each request's
fields from its head, and the deparser forwards the message bytes
untouched.  `FastPath.message` is also the one disposition, which counts
the outcome and keeps nothing: its VQ egress, or a drop counted by reason
and by the HTTP status `http_status` gives that reason; `counters()`
derives `msg_submitted` from the two.
Per-flow FIFO holds by construction: one thread runs the data plane -- the
caller's in-process, live mode's loop thread -- and it runs a flow's frames
and messages in order.
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict
from functools import partial
from typing import Callable, Sequence

from .core import Conn, FlowKey, Message, TrafficUnit, Verdict
from .l7 import filter_apply, http_deparse, http_parse, route
from .match_action import ExecutableChain, MatchTable, Ppm

REORDER_BUFFER_SEGMENTS = 64

_DROP, _DELIVER = Verdict.DROP, Verdict.DELIVER


# ---------------------------------------------------------------------------
# The standard HTTP routing chain

# the one L7 chain every runtime runs, fixed when it is built; a config's
# chain section may only spell it
STANDARD_CHAIN = ("toe", "http_parser", "filter", "router", "http_deparser")


def standard_registry(
    listener_table: MatchTable,
    filter_table: MatchTable,
    route_table: MatchTable,
    cluster_table: MatchTable,
    lb: dict,
    connector: Callable,
) -> dict:
    """The standard PPMs by id, over the given tables, which are named as
    the `l7` steps read them from a traversal's snapshot: "listeners",
    "filters", "routes" and "clusters".  Each L7 PPM's one step is its
    `l7` function, looked up in this module's globals as the registry is
    built; the router's binds the live `lb` map (cluster ref -> LbState)
    and `connector`.  The parser drops a malformed message as
    `malformed_http`.  `toe` has no step, so each framed message passes it
    at no cost: reassembly lives in ToeEngine, which `FastPath.ingress`
    drives because one segment may yield zero or many messages."""
    return {
        "toe": Ppm("toe"),
        "http_parser": Ppm("http_parser", steps=[http_parse]),
        "filter": Ppm("filter", steps=[filter_apply], tables=[filter_table]),
        "router": Ppm(
            "router",
            steps=[partial(route, lb, connector)],
            tables=[listener_table, route_table, cluster_table]),
        "http_deparser": Ppm("http_deparser", steps=[http_deparse]),
    }


# ---------------------------------------------------------------------------
# TOE reassembly

class OutOfWindow(Exception):
    """A segment the TOE refuses.  Its one argument is the drop reason:
    'duplicate' for a segment with no byte past those already delivered,
    or none past a segment held at its seq; 'out_of_window' past a full
    reorder buffer."""


class ToeEngine:
    """In-order exactly-once byte delivery with HTTP message framing.

    Reliable by construction (no retransmit timers); a duplicate segment,
    and one past a full reorder buffer, is refused with `OutOfWindow`.
    `connections` maps each open flow to its `core.Conn` record, oldest
    activity first: the slow path builds a flow's record on its first
    frame, or as live mode accepts it, and `close_flow` releases it.  The
    TOE keeps a flow's state in its record's `next_seq`, `reader` and
    `reorder`, and reads no map itself: `deliver` is given the record.
    """

    def __init__(self):
        self.connections: OrderedDict[FlowKey, Conn] = OrderedDict()

    def deliver(self, seg: TrafficUnit, conn: Conn) -> Sequence[Message]:
        """Feed one frame of an open flow, a TCP segment at `seg.seq`, to
        the flow's record `conn`; returns a list with a `Message` of the
        frame's flow and record for each message its reader cut, in order,
        or `()` when it cut none -- a block that cannot be framed with no
        head, so the parser drops it.
        A segment ahead of `next_seq` is held, unless one as long is held
        at its seq; a segment that starts behind `next_seq` but ends past
        it goes on as its bytes past `next_seq`.  An in-order segment goes
        to the reader, then the held segments it lets through: each held
        segment the stream has reached is taken off the buffer, and its
        bytes past `next_seq`, if any, go to the reader too."""
        payload = seg.payload
        if seg.seq != conn.next_seq:
            behind = conn.next_seq - seg.seq
            if behind > 0:
                if behind >= len(payload):
                    raise OutOfWindow("duplicate")
                payload = payload[behind:]
            else:
                held = conn.reorder.get(seg.seq)
                if held is not None and len(held) >= len(payload):
                    raise OutOfWindow("duplicate")
                if held is None and len(conn.reorder) >= REORDER_BUFFER_SEGMENTS:
                    raise OutOfWindow("out_of_window")
                conn.reorder[seg.seq] = payload
                return ()
        conn.next_seq += len(payload)
        cut = conn.reader.take(payload)
        reorder = conn.reorder
        if reorder:
            cut = list(cut)
            while reorder and (seq := min(reorder)) <= conn.next_seq:
                chunk = reorder.pop(seq)
                behind = conn.next_seq - seq
                if behind < len(chunk):
                    conn.next_seq += len(chunk) - behind
                    cut += conn.reader.take(chunk[behind:])
        if not cut:
            return ()
        key = seg.meta.flow
        messages = []
        for data, head in cut:
            messages.append(Message(key, data, head, conn))
        return messages


# ---------------------------------------------------------------------------
# HTTP status of a dropped message, by each drop reason the data path gives
# a message (its part before any ':')

_STATUS_BY_REASON = {"filter": 403, "no_listener": 404, "no_route": 404,
                     "malformed_http": 400, "no_healthy_endpoint": 503,
                     "ring_full": 503, "connect_failure": 502,
                     "unknown_cluster": 502}


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
    `slow_path_handoff(frame)` takes each first packet and returns the
    record it built for the frame's flow, or None."""

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
        # the one flow-keyed lookup of a frame
        self._conn_of = self.toe.connections.get
        self.slow_path_handoff = slow_path_handoff
        self.vq_egress = vq_egress

    def counters(self) -> dict:
        """The counter dict, copied, with `ingress` the frames' outcomes'
        sum and `msg_submitted` the messages', each if any."""
        c = dict(self.ctx)
        frames = c.get("egress", 0) + c.get("buffered", 0) + c.get("dropped", 0)
        if frames:
            c["ingress"] = frames
        messages = c.get("msg_egress", 0) + c.get("msg_dropped", 0)
        if messages:
            c["msg_submitted"] = messages
        return c

    # ingress ---------------------------------------------------------------
    def ingress(self, unit: TrafficUnit) -> str:
        """Classify one L2 frame by one lookup of its flow's record: a
        frame of a flow without one is a first packet, counted `slow_path`,
        for whose flow the slow path builds one, or not, in this call; the
        frame of an open flow is reassembled as a TCP segment, with its
        record.  Returns the frame's outcome: 'l7' (messages went to the L7
        chain), 'buffered' (none completed yet) or 'dropped' (counted by
        reason), each counted once.  A frame is never delivered at L4."""
        ctx = self.ctx
        conn = self._conn_of(unit.meta.flow)
        if conn is None:
            ctx["slow_path"] += 1
            conn = self.slow_path_handoff(unit)
            if conn is None:
                return self._drop(unit, "no_listener")
        try:
            messages = self.toe.deliver(unit, conn)
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
        """The one L7 message entry, for `ingress` and live mode, and the
        one disposition: run the chain, then send DELIVER to VQ egress and
        count it `msg_egress` once the queue took it; count a DROP -- and a
        DELIVER that a full TX ring lost, as `ring_full` -- as
        `msg_dropped`, by reason and by its `http_status`.  Returns the
        message."""
        ctx = self.ctx
        self.chain.execute(msg, ctx)
        if msg.verdict is _DELIVER:
            if self.vq_egress(msg):
                ctx["msg_egress"] += 1
                return msg
            reason = "ring_full"
        else:
            # the reason before any ':', so no input bytes name a counter
            reason = msg.verdict_reason.partition(":")[0]
        ctx["msg_dropped"] += 1
        ctx[f"msg_dropped.{reason}"] += 1
        ctx[f"status.{http_status(reason)}"] += 1
        return msg

    def results(self):
        """Always empty: nothing is kept per message.  It remains only for
        the benchmark's `fast_path.results_held` gauge, which reads its
        length."""
        return []
