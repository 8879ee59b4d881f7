"""Hierarchical data plane.

`FastPath.ingress` applies the vswitch, l3 and toe PPMs to each L2 frame on
one snapshot of their tables; the toe PPM is the one place a flow is
classified.  A flow forwarded at L4 short-circuits to its virtualization
queue; the segments of an L7 flow are reassembled by the ToeEngine into
messages, which a worker pool runs through `FastPath.message`, the L7 entry
live mode shares.  Frames and messages leave through one disposition: VQ
egress, a counted drop or the slow-path handoff.  Flow-to-worker affinity
keeps per-flow FIFO without locking.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, field
from typing import Callable, Optional

from .core import (
    BufferPool,
    FlowKey,
    Metadata,
    ProtoType,
    TrafficUnit,
    UnitKind,
    Verdict,
)
from .l7 import (
    QueueTable,
    default_connector,
    filter_apply,
    frame_http,
    http_deparse,
    http_parse,
    route,
    MalformedHttp,
)
from .match_action import (
    DEFAULT_ACTION,
    ActionProgram,
    ExecContext,
    ExecutableChain,
    Layer,
    MatchTable,
    Ppm,
    proc,
    set_verdict,
)

DEFAULT_RUN_QUEUE_DEPTH = 1024
REORDER_BUFFER_SEGMENTS = 64


class Framing:
    HTTP = "http"
    LENGTH_PREFIX = "length_prefix"
    STREAM = "stream"


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
        actions={"forward": ActionProgram("forward", [])},
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
        actions={"forward": ActionProgram("forward", [])},
    )


def make_toe(l4_table: MatchTable) -> Ppm:
    """TOE as a PPM, the one place a flow is classified by its L4 entry:
    `("l7", framing)` goes on to reassembly (`to_l7`), `("forward_vq", q)`
    binds queue q and delivers the segment as it is, and a miss goes to the
    slow path as `new_connection`.  MESSAGE units, already framed, pass
    through without a lookup.  Reassembly lives in ToeEngine, which the fast
    path drives because one segment may yield zero or many messages.
    """

    def matcher(unit, snaps):
        if unit.kind is UnitKind.MESSAGE:
            return "to_l7"
        entry = l4_table.lookup(unit.meta.flow, snaps.get(l4_table.name))
        if entry == l4_table.default:
            return l4_table.default
        if entry[0] == "forward_vq":
            unit.meta.bind_queue(entry[1])
            return "forward_vq"
        return "to_l7"

    return Ppm(
        id="toe",
        layer=Layer.L4,
        tables=[l4_table],
        matcher=matcher,
        actions={
            "to_l7": ActionProgram("to_l7", []),
            "forward_vq": ActionProgram(
                "forward_vq", [set_verdict(Verdict.DELIVER, "l4_forward")]
            ),
            DEFAULT_ACTION: ActionProgram(
                DEFAULT_ACTION,
                [set_verdict(Verdict.TO_SLOW_PATH, "new_connection")],
            ),
        },
    )


def make_http_parser(pool: BufferPool, proto_table: MatchTable) -> Ppm:
    def parser(unit: TrafficUnit, ctx: ExecContext):
        if unit.meta.http is None:
            http_parse(unit, pool)

    def matcher(unit, snaps):
        return "parsed" if unit.meta.http is not None else proto_table.default

    return Ppm(
        id="http_parser",
        layer=Layer.L7,
        parser=parser,
        tables=[proto_table],
        matcher=matcher,
        actions={"parsed": ActionProgram("parsed", [])},
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
        actions={"evaluate": ActionProgram("evaluate", [proc(filter_proc)])},
    )


def make_router(
    listener_table: MatchTable,
    route_table: MatchTable,
    cluster_table: MatchTable,
    queues: QueueTable,
    connector: Callable = default_connector,
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
        actions={"route": ActionProgram("route", [proc(route_proc)])},
    )


def make_http_deparser(pool: BufferPool, proto_table: MatchTable) -> Ppm:
    def deparse_proc(unit: TrafficUnit, ctx: ExecContext, snaps: dict):
        try:
            unit.payload = http_deparse(unit.meta, pool)
        except MalformedHttp:
            unit.meta.set_verdict(Verdict.TO_SLOW_PATH, "deparse_failed")
            return
        unit.meta.set_verdict(Verdict.DELIVER, "deparsed")

    def matcher(unit, snaps):
        return "deparse" if unit.meta.queue is not None else proto_table.default

    return Ppm(
        id="http_deparser",
        layer=Layer.L7,
        tables=[proto_table],
        matcher=matcher,
        actions={"deparse": ActionProgram("deparse", [proc(deparse_proc)])},
    )


def standard_registry(
    l2_table: MatchTable,
    l3_table: MatchTable,
    l4_table: MatchTable,
    listener_table: MatchTable,
    filter_table: MatchTable,
    route_table: MatchTable,
    cluster_table: MatchTable,
    proto_table: MatchTable,
    pool: BufferPool,
    queues: QueueTable,
    connector: Callable = default_connector,
) -> dict:
    """The standard PPMs by id, over the given tables."""
    return {
        "vswitch": make_l2_vswitch(l2_table),
        "l3": make_l3(l3_table),
        "toe": make_toe(l4_table),
        "http_parser": make_http_parser(pool, proto_table),
        "filter": make_filter(filter_table),
        "router": make_router(
            listener_table, route_table, cluster_table, queues, connector
        ),
        "http_deparser": make_http_deparser(pool, proto_table),
    }


# ---------------------------------------------------------------------------
# TOE reassembly

class OutOfWindow(Exception):
    pass


@dataclass
class _ToeConn:
    framing: str = Framing.HTTP
    next_seq: int = 0
    assembled: bytes = b""
    reorder: dict = field(default_factory=dict)
    duplicates: int = 0


class ToeEngine:
    """In-order exactly-once byte delivery with message framing.

    Reliable by construction (no retransmit timers); out-of-window
    segments beyond the reorder buffer are dropped.
    """

    def __init__(self, reorder_limit: int = REORDER_BUFFER_SEGMENTS):
        self.connections: dict[FlowKey, _ToeConn] = {}
        self.reorder_limit = reorder_limit

    def open(self, key: FlowKey, framing: str = Framing.HTTP):
        self.connections.setdefault(key, _ToeConn(framing=framing))

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
        conn.assembled += seg.payload
        conn.next_seq += len(seg.payload)
        while conn.next_seq in conn.reorder:
            chunk = conn.reorder.pop(conn.next_seq)
            conn.assembled += chunk
            conn.next_seq += len(chunk)
        return self._frame_messages(conn, seg.meta)

    def _frame_messages(self, conn: _ToeConn, meta: Metadata) -> list:
        proto = ProtoType.HTTP if conn.framing == Framing.HTTP else ProtoType.L4_STREAM
        out = []
        while (msg_bytes := self._next_message(conn)) is not None:
            msg_meta = Metadata(flow=meta.flow, proto_type=proto, conn_id=meta.conn_id)
            out.append(
                TrafficUnit(kind=UnitKind.MESSAGE, meta=msg_meta, payload=msg_bytes)
            )
        return out

    def _next_message(self, conn: _ToeConn) -> Optional[bytes]:
        data = conn.assembled
        if not data:
            return None
        if conn.framing == Framing.STREAM:
            conn.assembled = b""
            return data
        if conn.framing == Framing.LENGTH_PREFIX:
            if len(data) < 4:
                return None
            n = int.from_bytes(data[:4], "big")
            if len(data) < 4 + n:
                return None
            conn.assembled = data[4 + n :]
            return data[4 : 4 + n]
        try:
            end = frame_http(data)
        except MalformedHttp as exc:
            # deliver the bad header block alone, so the stream stays framed;
            # the parser PPM raises the slow-path verdict on it
            end = exc.end
        if end is None:
            return None
        conn.assembled = data[end:]
        return data[:end]


# ---------------------------------------------------------------------------
# Worker pool

class WorkerPool:
    """Fixed set of workers each draining a bounded run queue into
    `handle(msg)`.

    A unit is pinned to hash(conn_key) % n_workers, so units of one flow
    are processed in submission order end to end.  submit() blocks when
    the target queue is full: backpressure, never loss.
    """

    def __init__(self, n_workers: int, handle: Callable, synchronous=False):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = n_workers
        self.handle = handle
        self.synchronous = synchronous
        if not synchronous:
            self._queues = [queue.Queue(maxsize=DEFAULT_RUN_QUEUE_DEPTH)
                            for _ in range(n_workers)]
            self._threads = [
                threading.Thread(target=self._run, args=(q,), daemon=True)
                for q in self._queues
            ]
            for t in self._threads:
                t.start()

    def _shard(self, unit: TrafficUnit) -> int:
        return hash(unit.meta.flow) % self.n_workers

    def submit(self, msg: TrafficUnit):
        if msg.kind is not UnitKind.MESSAGE:
            raise ValueError("worker pool accepts MESSAGE units only")
        if self.synchronous:
            self.handle(msg)
        else:
            self._queues[self._shard(msg)].put(msg)

    def _run(self, q: queue.Queue):
        while True:
            msg = q.get()
            if msg is None:
                return
            try:
                self.handle(msg)
            finally:
                q.task_done()

    def drain(self):
        """Wait until all submitted units have been processed."""
        if not self.synchronous:
            for q in self._queues:
                q.join()

    def shutdown(self):
        if not self.synchronous:
            for q in self._queues:
                q.put(None)
            for t in self._threads:
                t.join(timeout=5)


# ---------------------------------------------------------------------------
# Fast path assembly

class FastPath:
    """The full ingress data plane: the registry's vswitch, l3 and toe PPMs,
    TOE reassembly, the L7 chain on a worker pool, and one disposition."""

    def __init__(
        self,
        l7_chain: ExecutableChain,
        registry: dict,
        buffer_pool: BufferPool,
        slow_path_handoff: Callable,
        vq_egress: Callable,
        n_workers: int = 4,
        synchronous: bool = False,
    ):
        self.ctx = ExecContext(counters={})
        self.chain = l7_chain
        self.toe = ToeEngine()
        self._l2_l4 = tuple(registry[pid] for pid in ("vswitch", "l3", "toe"))
        self._l2_l4_tables = tuple(t for ppm in self._l2_l4 for t in ppm.tables)
        self.buffer_pool = buffer_pool
        self._results = []
        self._results_lock = threading.Lock()
        self.slow_path_handoff = slow_path_handoff
        self.vq_egress = vq_egress
        self.pool = WorkerPool(n_workers, self._pooled, synchronous)

    def counters(self) -> dict:
        with self.ctx._lock:
            return dict(self.ctx.counters)

    # ingress ---------------------------------------------------------------
    def ingress(self, unit: TrafficUnit) -> str:
        """Run one L2 frame through the vswitch, l3 and toe PPMs, on one
        snapshot of their tables taken here, then TOE reassembly; returns
        the disposition: 'l7' | 'vq' | 'slow_path' | 'dropped' | 'buffered'."""
        if unit.kind is not UnitKind.FRAME:
            raise ValueError("ingress takes FRAME units")
        self.ctx.bump("ingress")
        snaps = {t.name: t.current for t in self._l2_l4_tables}
        for ppm in self._l2_l4:
            ppm.apply(unit, self.ctx, snaps)
            if unit.meta.verdict is not Verdict.CONTINUE:
                return self._dispose(unit)

        # to_l7: reassemble and hand completed messages to the pool
        try:
            messages = self.toe.deliver(unit)
        except OutOfWindow:
            unit.meta.set_verdict(Verdict.DROP, "out_of_window")
        if unit.meta.verdict is not Verdict.CONTINUE:
            return self._dispose(unit)
        for msg in messages:
            self.pool.submit(msg)
        if messages:
            self.ctx.bump("egress")
            return "l7"
        self.ctx.bump("buffered")
        return "buffered"

    def message(self, msg: TrafficUnit):
        """The one L7 message entry, for the worker pool and live mode: run
        the chain and dispose of the unit.  Returns (unit, trace)."""
        self.ctx.bump("msg_submitted")
        unit, trace = self.chain.execute(msg, self.ctx)
        self._dispose(unit, "msg_")
        return unit, trace

    def _dispose(self, unit: TrafficUnit, prefix: str = "") -> str:
        """The one exit from the data plane, for frames (`prefix` '') and
        messages ('msg_'): release the unit's parsed body, then send DELIVER
        to VQ egress, count DROP, and hand any other verdict to the slow
        path.  Returns 'vq' | 'dropped' | 'slow_path'."""
        meta = unit.meta
        if meta.body_ref is not None:
            self.buffer_pool.release(meta.body_ref)
            meta.body_ref = None
        if meta.verdict is Verdict.DELIVER:
            self.ctx.bump(prefix + "egress")
            self.vq_egress(unit)
            return "vq"
        if meta.verdict is Verdict.DROP:
            self.ctx.bump(prefix + "dropped")
            return "dropped"
        self.ctx.bump(prefix + "slow_path")
        self.slow_path_handoff(unit, meta.verdict_reason)
        return "slow_path"

    def _pooled(self, msg: TrafficUnit):
        result = self.message(msg)
        with self._results_lock:
            self._results.append(result)

    def results(self):
        with self._results_lock:
            return list(self._results)

    def drain(self):
        self.pool.drain()

    def shutdown(self):
        self.pool.shutdown()
