"""Hierarchical data plane.

`FastPath.ingress` applies the vswitch, l3 and toe PPMs to each L2 frame on
one snapshot of their tables; the toe PPM is the one place a flow is
classified.  A flow's L4 entry, of the one kind `"l7"`, and its TOE state
are opened together by the slow path and released together by
`close_flow`.  Like an exact-match flow cache, a flow classified `to_l7`
keeps the epochs of those three tables on its TOE state, and its later
frames skip the traversal until one of the tables is written.  The
ToeEngine feeds a flow's in-order bytes to its `l7.HttpReader`, the one
reader live mode uses too, which frames and joins each HTTP message once
and hands it on with its head, split as soon as the header block is in.
`ingress` runs the messages at once, in order, through `FastPath.message`,
the L7 entry live mode shares; the parser builds each request from its
head, and the deparser forwards the message bytes untouched.  Frames and
messages leave through one disposition, which counts the outcome and
keeps nothing: a message's VQ egress, a drop counted by reason or the
slow-path handoff.
Per-flow FIFO holds by construction: one thread runs the data plane -- the
caller's in-process, live mode's loop thread -- and it runs a flow's frames
and messages in order.
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
    HttpReader,
    QueueTable,
    filter_apply,
    http_deparse,
    http_parse,
    route,
    MalformedHttp,
)
from .match_action import (
    DEFAULT_ACTION,
    ExecContext,
    ExecutableChain,
    FlowTable,
    Layer,
    MatchTable,
    Ppm,
    set_verdict,
    traverse,
)

REORDER_BUFFER_SEGMENTS = 64


# ---------------------------------------------------------------------------
# PPM factories for the standard HTTP routing chain

# the layer of each standard PPM, by id: the factories below take theirs
# from here, and a config's chain is checked against it before any table
# exists
STANDARD_LAYERS = {
    "vswitch": Layer.L2,
    "l3": Layer.L3,
    "toe": Layer.L4,
    "http_parser": Layer.L7,
    "filter": Layer.L7,
    "router": Layer.L7,
    "http_deparser": Layer.L7,
}


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
        layer=STANDARD_LAYERS["vswitch"],
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
        layer=STANDARD_LAYERS["l3"],
        parser=parser,
        tables=[l3_table],
        matcher=matcher,
        actions={"forward": []},
    )


def make_toe(l4_table: FlowTable) -> Ppm:
    """TOE as a PPM, the one place a flow is classified by its L4 entry:
    the one kind of entry, `"l7"`, goes on to HTTP reassembly (`to_l7`),
    and a miss goes to the slow path as `new_connection`.  MESSAGE units,
    already framed, pass through without a lookup.  Reassembly lives in
    ToeEngine, which the fast path drives because one segment may yield
    zero or many messages.
    """

    def matcher(unit, snaps):
        if unit.kind is UnitKind.MESSAGE:
            return "to_l7"
        entry = l4_table.lookup(unit.meta.flow, snaps.get(l4_table.name))
        return "to_l7" if entry == "l7" else entry

    return Ppm(
        id="toe",
        layer=STANDARD_LAYERS["toe"],
        tables=[l4_table],
        matcher=matcher,
        actions={
            "to_l7": [],
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
        layer=STANDARD_LAYERS["http_parser"],
        parser=parser,
        matcher=matcher,
        actions={"parsed": []},
    )


def make_filter(filter_table: MatchTable) -> Ppm:
    def evaluate(unit: TrafficUnit, ctx: ExecContext, snaps: dict):
        rules = snaps[filter_table.name].entries.get("rules", ())
        verdict = filter_apply(unit.meta, rules)
        if verdict is not Verdict.CONTINUE:
            unit.meta.set_verdict(verdict, "filter")

    def matcher(unit, snaps):
        return "evaluate"

    return Ppm(
        id="filter",
        layer=STANDARD_LAYERS["filter"],
        tables=[filter_table],
        matcher=matcher,
        actions={"evaluate": [evaluate]},
    )


def make_router(
    listener_table: MatchTable,
    route_table: MatchTable,
    cluster_table: MatchTable,
    queues: QueueTable,
    lb: dict,
    connector: Callable,
) -> Ppm:
    """The router, over the live `lb` map (cluster ref -> LbState)."""

    def route_step(unit: TrafficUnit, ctx: ExecContext, snaps: dict):
        endpoint = route(
            unit.meta,
            snaps[listener_table.name].entries,
            snaps[route_table.name].entries,
            queues,
            snaps[cluster_table.name].entries,
            lb,
            connector,
        )
        if endpoint is not None:
            ctx.bump("load_balance_calls")
            ctx.bump(f"endpoint.{endpoint.id}")

    def matcher(unit, snaps):
        return "route"

    return Ppm(
        id="router",
        layer=STANDARD_LAYERS["router"],
        tables=[listener_table, route_table, cluster_table],
        matcher=matcher,
        actions={"route": [route_step]},
    )


def make_http_deparser() -> Ppm:
    def deparse(unit: TrafficUnit, ctx: ExecContext, snaps: dict):
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
        layer=STANDARD_LAYERS["http_deparser"],
        matcher=matcher,
        actions={"deparse": [deparse]},
    )


def standard_registry(
    l2_table: MatchTable,
    l3_table: MatchTable,
    l4_table: FlowTable,
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
        "vswitch": make_l2_vswitch(l2_table),
        "l3": make_l3(l3_table),
        "toe": make_toe(l4_table),
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
    pass


@dataclass
class _ToeConn:
    """One flow's TOE state, released by `ToeEngine.close`."""

    next_seq: int = 0
    # the in-order bytes not yet delivered as messages
    reader: HttpReader = field(default_factory=HttpReader)
    reorder: dict = field(default_factory=dict)
    duplicates: int = 0
    # the (l2_fwd, l3_proto, l4_flows) epochs the flow was last classified
    # on by a traversal that ended in to_l7; plain ints, never snapshots
    epochs: Optional[tuple] = None


class ToeEngine:
    """In-order exactly-once byte delivery with HTTP message framing.

    Reliable by construction (no retransmit timers); out-of-window
    segments beyond the reorder buffer are dropped.  The slow path opens a
    flow's state (`open`) as it installs the flow's L4 entry.
    """

    def __init__(self):
        self.connections: dict[FlowKey, _ToeConn] = {}

    def open(self, key: FlowKey):
        self.connections.setdefault(key, _ToeConn())

    def close(self, key: FlowKey):
        self.connections.pop(key, None)

    def deliver(self, seg: TrafficUnit) -> list:
        """Feed one SEGMENT of an opened flow; returns completed MESSAGE
        units (possibly none)."""
        key = seg.meta.flow
        conn = self.connections[key]
        if seg.seq < conn.next_seq or seg.seq in conn.reorder:
            conn.duplicates += 1
            return []
        if seg.seq > conn.next_seq:
            if len(conn.reorder) >= REORDER_BUFFER_SEGMENTS:
                raise OutOfWindow(f"reorder buffer full for {key}")
            conn.reorder[seg.seq] = seg.payload
            return []
        reader = conn.reader
        chunk = seg.payload
        while True:
            reader.feed(chunk)
            conn.next_seq += len(chunk)
            if conn.next_seq not in conn.reorder:
                break
            chunk = conn.reorder.pop(conn.next_seq)
        if reader.need is not None and reader.held < reader.need[0]:
            return []  # the message's head is in, its length is not yet
        out = []
        while reader.held:
            try:
                msg = reader.take()
            except MalformedHttp as exc:
                # deliver the bad header block alone, so the stream stays
                # framed; the parser raises the slow-path verdict
                msg = reader.cut(exc.end), None
            if msg is None:
                break
            out.append(TrafficUnit(
                kind=UnitKind.MESSAGE, payload=msg[0], head=msg[1],
                meta=Metadata(flow=key, conn_id=seg.meta.conn_id)))
        return out


# ---------------------------------------------------------------------------
# Fast path assembly

class FastPath:
    """The full ingress data plane: the registry's vswitch, l3 and toe PPMs,
    TOE reassembly, the L7 chain run inline on each framed message (from the
    TOE, or live mode's `message` calls), and one disposition.  It keeps
    nothing of a message: `counters()` is the record of what happened.
    `vq_egress(unit)` returns whether the unit's queue took it."""

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
        reassembly; returns the disposition: 'l7' (messages went to the L7
        chain), 'buffered' (none completed yet), 'slow_path' (a miss) or
        'dropped'.  A frame is never delivered at L4."""
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
            traverse(self._l2_l4, unit, self.ctx, snaps)
            if unit.meta.verdict is not Verdict.CONTINUE:
                return self._dispose(unit)

        # to_l7: reassemble, then run each completed message in order
        try:
            messages = self.toe.deliver(unit)
        except OutOfWindow:
            unit.meta.set_verdict(Verdict.DROP, "out_of_window")
            return self._dispose(unit)
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
        chain and dispose of the unit.  Returns the unit."""
        self.ctx.bump("msg_submitted")
        unit = self.chain.execute(msg, self.ctx)
        self._dispose(unit, "msg_")
        return unit

    def _dispose(self, unit: TrafficUnit, prefix: str = "") -> str:
        """The one exit from the data plane, for frames (`prefix` '') and
        messages ('msg_'): send DELIVER to VQ egress and count it `egress`
        once the queue took it, count DROP -- and a DELIVER that a full TX
        ring lost -- in all and by reason (`dropped.<reason>`), and hand any
        other verdict to the slow path.
        Returns 'vq' | 'dropped' | 'slow_path'."""
        meta = unit.meta
        if meta.verdict is Verdict.DELIVER:
            if self.vq_egress(unit):
                self.ctx.bump(prefix + "egress")
                return "vq"
            reason = "ring_full"
        elif meta.verdict is Verdict.DROP:
            reason = meta.verdict_reason or "unknown"
        else:
            self.ctx.bump(prefix + "slow_path")
            self.slow_path_handoff(unit, meta.verdict_reason)
            return "slow_path"
        self.ctx.bump(prefix + "dropped")
        self.ctx.bump(f"{prefix}dropped.{reason}")
        return "dropped"

    def results(self):
        """Always empty: nothing is kept per message.  It remains only for
        the benchmark's `fast_path.results_held` gauge, which reads its
        length."""
        return []
