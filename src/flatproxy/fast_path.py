"""Hierarchical data plane.

`FastPath.ingress` applies the vswitch, l3 and toe PPMs to each L2 frame on
one snapshot of their tables; the toe PPM is the one place a flow is
classified.  Like an exact-match flow cache, a flow classified `to_l7`
keeps the epochs of those three tables on its TOE state, and its later
frames skip the traversal until one of the tables is republished;
`close_flow` drops the epochs with the TOE state.  A flow forwarded at L4
short-circuits to its virtualization queue and is classified on every
frame.  The ToeEngine collects an L7 flow's segments and cuts HTTP
messages off them, each framed once and joined once: `frame_http` splits a
message's header block as soon as it is in, and the message leaves with
that head once its length is held.  `ingress` runs the messages at once,
in order, through `FastPath.message`, the L7 entry live mode shares; the
parser builds each request from its head, and the deparser forwards the
message bytes untouched unless the request was rewritten.  Frames and
messages leave through one disposition, which counts the outcome and keeps
nothing: VQ egress, a drop counted by reason or the slow-path handoff.
Per-flow FIFO holds by construction: one caller runs a flow's frames, and
each live client has its own thread.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .core import (
    FlowKey,
    Metadata,
    TrafficUnit,
    UnitKind,
    Verdict,
)
from .l7 import (
    QueueTable,
    filter_apply,
    frame_http,
    http_deparse,
    http_parse,
    route,
    MalformedHttp,
)
from .match_action import (
    DEFAULT_ACTION,
    ExecContext,
    ExecutableChain,
    Layer,
    MatchTable,
    Ppm,
    proc,
    set_verdict,
    traverse,
)

REORDER_BUFFER_SEGMENTS = 64


# ---------------------------------------------------------------------------
# PPM factories for the standard HTTP routing chain

def make_l2_vswitch(l2_table: MatchTable) -> Ppm:
    """Destination-based forwarding; VLAN tags pass through untouched."""

    def parser(unit: TrafficUnit, ctx: ExecContext):
        if unit.kind is UnitKind.FRAME:
            unit.advance(UnitKind.PACKET)

    def matcher(unit, snaps):
        snap = snaps.get(l2_table.name)
        return l2_table.lookup(unit.meta.flow.dip, snap)

    return Ppm(
        id="vswitch",
        layer=Layer.L2,
        parser=parser,
        tables=[l2_table],
        matcher=matcher,
        actions={"forward": []},
    )


def make_l3(l3_table: MatchTable) -> Ppm:
    def parser(unit: TrafficUnit, ctx: ExecContext):
        if unit.kind is UnitKind.PACKET:
            unit.advance(UnitKind.SEGMENT)

    def matcher(unit, snaps):
        snap = snaps.get(l3_table.name)
        return l3_table.lookup(unit.meta.flow.proto, snap)

    return Ppm(
        id="l3",
        layer=Layer.L3,
        parser=parser,
        tables=[l3_table],
        matcher=matcher,
        actions={"forward": []},
    )


def make_toe(l4_table: MatchTable) -> Ppm:
    """TOE as a PPM, the one place a flow is classified by its L4 entry:
    `"l7"` goes on to HTTP reassembly (`to_l7`), `("forward_vq", q)` binds
    queue q and delivers the segment as it is, and a miss goes to the slow
    path as `new_connection`.  MESSAGE units, already framed, pass
    through without a lookup.  Reassembly lives in ToeEngine, which the fast
    path drives because one segment may yield zero or many messages.
    """

    def matcher(unit, snaps):
        if unit.kind is UnitKind.MESSAGE:
            return "to_l7"
        entry = l4_table.lookup(unit.meta.flow, snaps.get(l4_table.name))
        if entry == l4_table.default:
            return entry
        if entry == "l7":
            return "to_l7"
        unit.meta.bind_queue(entry[1])  # ("forward_vq", q)
        return "forward_vq"

    return Ppm(
        id="toe",
        layer=Layer.L4,
        tables=[l4_table],
        matcher=matcher,
        actions={
            "to_l7": [],
            "forward_vq": [set_verdict(Verdict.DELIVER, "l4_forward")],
            DEFAULT_ACTION: [set_verdict(Verdict.TO_SLOW_PATH, "new_connection")],
        },
    )


def make_http_parser() -> Ppm:
    def parser(unit: TrafficUnit, ctx: ExecContext):
        if unit.meta.http is None:
            http_parse(unit)

    def matcher(unit, snaps):
        return "parsed" if unit.meta.http is not None else DEFAULT_ACTION

    return Ppm(
        id="http_parser",
        layer=Layer.L7,
        parser=parser,
        matcher=matcher,
        actions={"parsed": []},
    )


def make_filter(filter_table: MatchTable) -> Ppm:
    def filter_proc(unit: TrafficUnit, ctx: ExecContext, snaps: dict):
        rules = snaps[filter_table.name].entries.get("rules", ())
        verdict = filter_apply(unit.meta, rules)
        if verdict is not Verdict.CONTINUE:
            unit.meta.set_verdict(verdict, "filter")

    def matcher(unit, snaps):
        return "evaluate"

    return Ppm(
        id="filter",
        layer=Layer.L7,
        tables=[filter_table],
        matcher=matcher,
        actions={"evaluate": [proc(filter_proc)]},
    )


def make_router(
    listener_table: MatchTable,
    route_table: MatchTable,
    cluster_table: MatchTable,
    queues: QueueTable,
    connector: Callable,
) -> Ppm:
    def route_proc(unit: TrafficUnit, ctx: ExecContext, snaps: dict):
        result = route(
            unit.meta,
            snaps[listener_table.name].entries,
            snaps[route_table.name].entries,
            queues,
            snaps[cluster_table.name].entries,
            connector,
        )
        if result.lb_called:
            ctx.bump("load_balance_calls")
            ctx.bump(f"endpoint.{result.endpoint.id}")

    def matcher(unit, snaps):
        return "route"

    return Ppm(
        id="router",
        layer=Layer.L7,
        tables=[listener_table, route_table, cluster_table],
        matcher=matcher,
        actions={"route": [proc(route_proc)]},
    )


def make_http_deparser() -> Ppm:
    def deparse_proc(unit: TrafficUnit, ctx: ExecContext, snaps: dict):
        try:
            unit.payload = http_deparse(unit.meta)
        except MalformedHttp:
            unit.meta.set_verdict(Verdict.TO_SLOW_PATH, "deparse_failed")
            return
        unit.meta.set_verdict(Verdict.DELIVER, "deparsed")

    def matcher(unit, snaps):
        return "deparse" if unit.meta.queue is not None else DEFAULT_ACTION

    return Ppm(
        id="http_deparser",
        layer=Layer.L7,
        matcher=matcher,
        actions={"deparse": [proc(deparse_proc)]},
    )


def standard_registry(
    l2_table: MatchTable,
    l3_table: MatchTable,
    l4_table: MatchTable,
    listener_table: MatchTable,
    filter_table: MatchTable,
    route_table: MatchTable,
    cluster_table: MatchTable,
    queues: QueueTable,
    connector: Callable,
) -> dict:
    """The standard PPMs by id, over the given tables."""
    return {
        "vswitch": make_l2_vswitch(l2_table),
        "l3": make_l3(l3_table),
        "toe": make_toe(l4_table),
        "http_parser": make_http_parser(),
        "filter": make_filter(filter_table),
        "router": make_router(
            listener_table, route_table, cluster_table, queues, connector
        ),
        "http_deparser": make_http_deparser(),
    }


# ---------------------------------------------------------------------------
# TOE reassembly

class OutOfWindow(Exception):
    pass


@dataclass
class _ToeConn:
    """One flow's TOE state, released by `ToeEngine.close`."""

    next_seq: int = 0
    # the in-order bytes not yet delivered, as they arrived, `held` bytes
    # in all; joined once a whole message is in
    chunks: list = field(default_factory=list)
    held: int = 0
    reorder: dict = field(default_factory=dict)
    duplicates: int = 0
    # `frame_http`'s result for the message at the head of `chunks` once
    # its header block is in and the rest is not; None otherwise
    need: Optional[tuple] = None
    # the (l2_fwd, l3_proto, l4_flows) epochs the flow was last classified
    # on by a traversal that ended in to_l7; plain ints, never snapshots
    epochs: Optional[tuple] = None


class ToeEngine:
    """In-order exactly-once byte delivery with HTTP message framing.

    Reliable by construction (no retransmit timers); out-of-window
    segments beyond the reorder buffer are dropped.
    """

    def __init__(self, reorder_limit: int = REORDER_BUFFER_SEGMENTS):
        self.connections: dict[FlowKey, _ToeConn] = {}
        self.reorder_limit = reorder_limit

    def open(self, key: FlowKey):
        self.connections.setdefault(key, _ToeConn())

    def close(self, key: FlowKey):
        self.connections.pop(key, None)

    def deliver(self, seg: TrafficUnit) -> list:
        """Feed one SEGMENT; returns completed MESSAGE units (possibly
        none).  Unknown connection: seq 0 implicitly opens, anything else
        goes to the slow path."""
        key = seg.meta.flow
        conn = self.connections.get(key)
        if conn is None:
            if seg.seq == 0:
                conn = _ToeConn()
                self.connections[key] = conn
            else:
                seg.meta.set_verdict(Verdict.TO_SLOW_PATH, "connection_unknown")
                return []
        if seg.seq < conn.next_seq or seg.seq in conn.reorder:
            conn.duplicates += 1
            return []
        if seg.seq > conn.next_seq:
            if len(conn.reorder) >= self.reorder_limit:
                raise OutOfWindow(f"reorder buffer full for {key}")
            conn.reorder[seg.seq] = seg.payload
            return []
        chunk = seg.payload
        while True:
            if chunk:
                conn.chunks.append(chunk)
            conn.held += len(chunk)
            conn.next_seq += len(chunk)
            if conn.next_seq not in conn.reorder:
                break
            chunk = conn.reorder.pop(conn.next_seq)
        return self._frame_messages(conn, seg.meta)

    def _frame_messages(self, conn: _ToeConn, meta: Metadata) -> list:
        """Cut each whole message off the bytes `conn` holds.  A message is
        framed once, its head waiting in `conn.need` until that many bytes
        are held, and its segments are joined once."""
        out = []
        while conn.held:
            head = conn.need
            if head is None:
                try:
                    head = frame_http(_joined(conn))
                except MalformedHttp as exc:
                    # deliver the bad header block alone, so the stream
                    # stays framed; the parser raises the slow-path verdict
                    out.append(_cut(conn, meta, exc.end, None))
                    continue
                if head is None:
                    break
            if conn.held < head[0]:
                conn.need = head
                break
            conn.need = None
            out.append(_cut(conn, meta, head[0], head))
        return out


def _joined(conn: _ToeConn) -> bytes:
    """The bytes `conn` holds, as one chunk."""
    if len(conn.chunks) > 1:
        conn.chunks = [b"".join(conn.chunks)]
    return conn.chunks[0]


def _cut(conn: _ToeConn, meta: Metadata, end: int, head) -> TrafficUnit:
    """The MESSAGE unit of the first `end` bytes `conn` holds."""
    data = _joined(conn)
    rest = data[end:]
    conn.chunks = [rest] if rest else []
    conn.held = len(rest)
    return TrafficUnit(
        kind=UnitKind.MESSAGE, payload=data[:end], head=head,
        meta=Metadata(flow=meta.flow, conn_id=meta.conn_id))


# ---------------------------------------------------------------------------
# Fast path assembly

class FastPath:
    """The full ingress data plane: the registry's vswitch, l3 and toe PPMs,
    TOE reassembly, the L7 chain run inline on each framed message (from the
    TOE, or live mode's `message` calls), and one disposition.  It keeps
    nothing of a message: `counters()` is the record of what happened."""

    def __init__(
        self,
        l7_chain: ExecutableChain,
        registry: dict,
        slow_path_handoff: Callable,
        vq_egress: Callable,
    ):
        self.ctx = ExecContext(counters={})
        self.chain = l7_chain
        self.toe = ToeEngine()
        l2_l4 = tuple(registry[pid] for pid in ("vswitch", "l3", "toe"))
        self._l2_l4 = tuple(ppm.node for ppm in l2_l4)
        self._l2_l4_tables = tuple(t for ppm in l2_l4 for t in ppm.tables)
        self.slow_path_handoff = slow_path_handoff
        self.vq_egress = vq_egress

    def counters(self) -> dict:
        return self.ctx.snapshot()

    # ingress ---------------------------------------------------------------
    def ingress(self, unit: TrafficUnit) -> str:
        """Run one L2 frame through the vswitch, l3 and toe PPMs, on one
        snapshot of their tables taken here -- or, for a flow classified
        to_l7 on the tables' current epochs, reuse that -- then TOE
        reassembly; returns the disposition:
        'l7' | 'vq' | 'slow_path' | 'dropped' | 'buffered'."""
        if unit.kind is not UnitKind.FRAME:
            raise ValueError("ingress takes FRAME units")
        self.ctx.bump("ingress")
        l2, l3, l4 = self._l2_l4_tables
        s2, s3, s4 = l2.current, l3.current, l4.current
        epochs = (s2.epoch, s3.epoch, s4.epoch)
        flow = unit.meta.flow
        conn = self.toe.connections.get(flow)
        if conn is not None and conn.epochs == epochs:
            # classified to_l7 on these very table versions: reuse that
            unit.kind = UnitKind.SEGMENT
        else:
            snaps = {l2.name: s2, l3.name: s3, l4.name: s4}
            traverse(self._l2_l4, unit, self.ctx, snaps, [])
            if unit.meta.verdict is not Verdict.CONTINUE:
                return self._dispose(unit)

        # to_l7: reassemble, then run each completed message in order
        try:
            messages = self.toe.deliver(unit)
        except OutOfWindow:
            unit.meta.set_verdict(Verdict.DROP, "out_of_window")
        if unit.meta.verdict is not Verdict.CONTINUE:
            return self._dispose(unit)
        if conn is None:  # deliver opened the flow's TOE state
            conn = self.toe.connections[flow]
        conn.epochs = epochs
        for msg in messages:
            self.message(msg)
        if messages:
            self.ctx.bump("egress")
            return "l7"
        self.ctx.bump("buffered")
        return "buffered"

    def message(self, msg: TrafficUnit):
        """The one L7 message entry, for `ingress` and live mode: run the
        chain and dispose of the unit.  Returns (unit, trace)."""
        self.ctx.bump("msg_submitted")
        unit, trace = self.chain.execute(msg, self.ctx)
        self._dispose(unit, "msg_")
        return unit, trace

    def _dispose(self, unit: TrafficUnit, prefix: str = "") -> str:
        """The one exit from the data plane, for frames (`prefix` '') and
        messages ('msg_'): send DELIVER to VQ egress, count DROP in all and
        by reason (`dropped.<reason>`), and hand any other verdict to the
        slow path.  Returns 'vq' | 'dropped' | 'slow_path'."""
        meta = unit.meta
        if meta.verdict is Verdict.DELIVER:
            self.ctx.bump(prefix + "egress")
            self.vq_egress(unit)
            return "vq"
        if meta.verdict is Verdict.DROP:
            self.ctx.bump(prefix + "dropped")
            self.ctx.bump(f"{prefix}dropped.{meta.verdict_reason or 'unknown'}")
            return "dropped"
        self.ctx.bump(prefix + "slow_path")
        self.slow_path_handoff(unit, meta.verdict_reason)
        return "slow_path"

    def results(self):
        """Always empty: nothing is kept per message.  It remains only for
        the benchmark's `fast_path.results_held` gauge, which reads its
        length."""
        return []
