"""Configuration and control planes.

Config comes from local YAML files (standing in for a cloud control
center), gets validated into a MeshConfig, and is distributed layer-wise:
the OVS controller owns the L2 table, the connection controller owns the
L3/L4 and listener tables, and the message controller owns the L7 rule
tables.  Only a table's owning controller ever publishes to it.

The slow path itself handles first packets: it creates connection
records, binds virtualization queues, installs L4 entries, and reinjects
the triggering unit into the fast path.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Optional

import yaml

from .core import (
    BufferPool,
    Endpoint,
    FlowKey,
    Metadata,
    Proto,
    TrafficUnit,
    UnitKind,
    Verdict,
    ip4_to_int,
    make_listener_key,
)
from .fast_path import FastPath, Framing, standard_registry
from .l7 import (
    Cluster,
    Decision,
    FilterRule,
    LbPolicy,
    MatchKind,
    PathMatcher,
    QueueTable,
    RouteRule,
)
from .match_action import ChainSpec, MatchTable, compile_chain, MatchActionError
from .vq import RingFull, ServiceStub, VirtQueue

IDLE_TIMEOUT_NS = 60 * 1_000_000_000


class ConfigError(Exception):
    pass


class ParseError(ConfigError):
    def __init__(self, message, line=None, field_name=None):
        self.line = line
        self.field_name = field_name
        where = []
        if line is not None:
            where.append(f"line {line}")
        if field_name is not None:
            where.append(f"field {field_name!r}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(f"{message}{suffix}")


class DanglingClusterRef(ConfigError):
    def __init__(self, ref):
        self.ref = ref
        super().__init__(f"route references unknown cluster {ref!r}")


class InvalidChain(ConfigError):
    pass


@dataclass
class ListenerDef:
    name: str
    dip: int
    dport: int

    @property
    def key(self) -> FlowKey:
        return make_listener_key(self.dip, self.dport)


@dataclass
class MeshConfig:
    listeners: list
    filters: list
    routes: list
    clusters: list  # list[Cluster]
    chain: ChainSpec
    cost_profile: Optional[str] = None


DEFAULT_CHAIN_NODES = ["toe", "http_parser", "filter", "router", "http_deparser"]

_TOP_FIELDS = {"listeners", "filters", "routes", "clusters", "chain", "cost_profile"}
_LISTENER_FIELDS = {"name", "dip", "dport"}
_FILTER_FIELDS = {"decision", "method", "host", "path_prefix", "sip"}
_ROUTE_FIELDS = {"listener", "path_matchers", "cluster"}
_MATCHER_FIELDS = {"kind", "pattern"}
_CLUSTER_FIELDS = {"ref", "endpoints", "policy"}
_ENDPOINT_FIELDS = {"address", "port", "weight", "healthy"}
_CHAIN_FIELDS = {"nodes", "edges"}


def _reject_unknown(mapping, allowed, where):
    unknown = set(mapping) - allowed
    if unknown:
        raise ParseError(
            f"unknown field(s) {sorted(unknown)} in {where}",
            field_name=sorted(unknown)[0],
        )


def load_config(source) -> MeshConfig:
    """Parse and validate a config document (path, bytes, or str)."""
    if hasattr(source, "read"):
        text = source.read()
    elif isinstance(source, Path):
        text = source.read_text()
    elif isinstance(source, bytes):
        text = source.decode()
    elif isinstance(source, str) and "\n" not in source:
        with open(source) as fh:
            text = fh.read()
    else:
        text = source
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        raise ParseError(str(exc), line=(mark.line + 1) if mark else None)
    if not isinstance(doc, dict):
        raise ParseError("config document must be a mapping", line=1)
    _reject_unknown(doc, _TOP_FIELDS, "config root")

    listeners = [_parse_listener(d) for d in doc.get("listeners", [])]
    filters = [_parse_filter(d) for d in doc.get("filters", [])]
    clusters = [_parse_cluster(d) for d in doc.get("clusters", [])]
    by_name = {l.name: l for l in listeners}
    cluster_refs = {c.ref for c in clusters}
    routes = []
    for d in doc.get("routes", []):
        _reject_unknown(d, _ROUTE_FIELDS, "route")
        lname = d.get("listener")
        if lname not in by_name:
            raise ParseError(f"route references unknown listener {lname!r}",
                             field_name="listener")
        cref = d.get("cluster")
        if cref not in cluster_refs:
            raise DanglingClusterRef(cref)
        matchers = []
        for m in d.get("path_matchers", []):
            _reject_unknown(m, _MATCHER_FIELDS, "path matcher")
            try:
                kind = MatchKind[m["kind"].upper()]
            except KeyError:
                raise ParseError(f"bad matcher kind {m.get('kind')!r}",
                                 field_name="kind")
            matchers.append(PathMatcher(kind=kind, pattern=str(m["pattern"]).encode()))
        if not matchers:
            raise ParseError("route needs at least one path matcher",
                             field_name="path_matchers")
        routes.append(
            RouteRule(listener=by_name[lname].key, path_matchers=tuple(matchers),
                      cluster=cref)
        )

    chain_doc = doc.get("chain") or {"nodes": list(DEFAULT_CHAIN_NODES)}
    _reject_unknown(chain_doc, _CHAIN_FIELDS, "chain")
    edges = chain_doc.get("edges")
    chain = ChainSpec(
        nodes=list(chain_doc.get("nodes", [])),
        edges=[tuple(e) for e in edges] if edges is not None else None,
    )
    cfg = MeshConfig(
        listeners=listeners,
        filters=filters,
        routes=routes,
        clusters=clusters,
        chain=chain,
        cost_profile=doc.get("cost_profile"),
    )
    # the chain must compile against the standard PPM registry; compiling
    # reads only PPM ids and layers, so scratch tables will do
    registry = standard_registry(
        *(MatchTable(f"t{i}") for i in range(8)), BufferPool(), QueueTable()
    )
    try:
        compile_chain(cfg.chain, registry)
    except MatchActionError as exc:
        raise InvalidChain(str(exc)) from exc
    return cfg


def _parse_listener(d) -> ListenerDef:
    _reject_unknown(d, _LISTENER_FIELDS, "listener")
    try:
        return ListenerDef(
            name=str(d["name"]), dip=ip4_to_int(d["dip"]), dport=int(d["dport"])
        )
    except (KeyError, ValueError) as exc:
        raise ParseError(f"bad listener: {exc}", field_name="listeners")


def _parse_filter(d) -> FilterRule:
    _reject_unknown(d, _FILTER_FIELDS, "filter")
    try:
        decision = Decision[d["decision"].upper()]
    except KeyError:
        raise ParseError(f"bad filter decision {d.get('decision')!r}",
                         field_name="decision")
    enc = lambda v: str(v).encode() if v is not None else None
    return FilterRule(
        decision=decision,
        method=enc(d.get("method")),
        host=enc(d.get("host")),
        path_prefix=enc(d.get("path_prefix")),
        sip=ip4_to_int(d["sip"]) if d.get("sip") is not None else None,
    )


def _parse_cluster(d) -> Cluster:
    _reject_unknown(d, _CLUSTER_FIELDS, "cluster")
    try:
        policy = LbPolicy[d.get("policy", "ROUND_ROBIN").upper()]
    except KeyError:
        raise ParseError(f"bad policy {d.get('policy')!r}", field_name="policy")
    endpoints = []
    for i, e in enumerate(d.get("endpoints", [])):
        _reject_unknown(e, _ENDPOINT_FIELDS, "endpoint")
        addr = FlowKey(
            sip=0, sport=0, dip=ip4_to_int(e["address"]), dport=int(e["port"]),
            proto=Proto.TCP,
        )
        endpoints.append(
            Endpoint(
                id=f"{d['ref']}-{i}",
                address=addr,
                weight=int(e.get("weight", 1)),
                healthy=bool(e.get("healthy", True)),
            )
        )
    return Cluster(ref=str(d["ref"]), endpoints=endpoints, policy=policy)


# ---------------------------------------------------------------------------
# HTTP status of a verdict

_STATUS_BY_REASON = {"no_listener": 404, "no_route": 404,
                     "no_healthy_endpoint": 503, "malformed_http": 400}


def http_status(verdict: Verdict, reason: Optional[str]) -> int:
    """The one verdict -> HTTP status rule, for live replies and the slow
    path's synthesized responses: a known reason has its own status, any
    other drop is 403 (filtered) and anything else 502."""
    default = 403 if verdict is Verdict.DROP else 502
    return _STATUS_BY_REASON.get((reason or "").split(":")[0], default)


# ---------------------------------------------------------------------------
# Connection records

class ConnState(Enum):
    OPENING = "opening"
    OPEN = "open"
    CLOSING = "closing"
    CLOSED = "closed"


_CONN_TRANSITIONS = {
    ConnState.OPENING: {ConnState.OPEN},
    ConnState.OPEN: {ConnState.CLOSING},
    ConnState.CLOSING: {ConnState.CLOSED},
    ConnState.CLOSED: set(),
}


@dataclass
class ConnRecord:
    conn_key: FlowKey
    endpoint: Optional[Endpoint] = None
    vq: Optional[int] = None
    state: ConnState = ConnState.OPENING
    created_at: int = 0
    last_active: int = 0

    def transition(self, new: ConnState):
        if new not in _CONN_TRANSITIONS[self.state]:
            raise ValueError(f"illegal transition {self.state} -> {new}")
        self.state = new


# ---------------------------------------------------------------------------
# Controllers

@dataclass
class Controller:
    name: str
    layer: str  # "L2" | "L3L4" | "L7"
    tables: list = field(default_factory=list)

    def own(self, table: MatchTable):
        if table.owner is not None and table.owner != self.name:
            raise MatchActionError(
                f"table {table.name} already owned by {table.owner}"
            )
        table.owner = self.name
        if table not in self.tables:
            self.tables.append(table)

    def publish(self, table: MatchTable, add=None, remove=()):
        if table not in self.tables:
            raise MatchActionError(
                f"controller {self.name} does not own {table.name}"
            )
        return table.publish(add=add, remove=remove, writer=self.name)


# ---------------------------------------------------------------------------
# Runtime: tables + PPMs + fast path + control plane

class MeshRuntime:
    """Everything a running proxy needs, wired together."""

    def __init__(
        self,
        config: MeshConfig = None,
        n_workers: int = 4,
        synchronous: bool = True,
        connector=None,
        clock=None,
    ):
        self.buffer_pool = BufferPool()
        self.queue_table = QueueTable()
        self.clock = clock or (lambda: time.monotonic_ns())

        self.l2_table = MatchTable("l2_fwd", key_schema=("dip",), default="forward")
        self.l3_table = MatchTable("l3_proto", key_schema=("proto",),
                                   default="forward")
        self.l4_table = MatchTable("l4_flows", key_schema=("flow",))
        self.listener_table = MatchTable("listeners")
        self.filter_table = MatchTable("filters")
        self.route_table = MatchTable("routes")
        self.cluster_table = MatchTable("clusters")
        self.proto_table = MatchTable("l7_proto")

        self.ovs_controller = Controller("ovs", "L2")
        self.conn_controller = Controller("connection", "L3L4")
        self.msg_controller = Controller("message", "L7")
        self.ovs_controller.own(self.l2_table)
        for t in (self.l3_table, self.l4_table, self.listener_table):
            self.conn_controller.own(t)
        for t in (self.filter_table, self.route_table, self.cluster_table,
                  self.proto_table):
            self.msg_controller.own(t)

        self._connector = connector or self._default_connect
        self.registry = standard_registry(
            self.l2_table, self.l3_table, self.l4_table, self.listener_table,
            self.filter_table, self.route_table, self.cluster_table,
            self.proto_table, self.buffer_pool, self.queue_table,
            connector=lambda ep, meta: self._connector(ep, meta),
        )

        self.config = config
        self.conns: dict[FlowKey, ConnRecord] = {}
        self.vqs: dict[int, object] = {}  # vq id -> VirtQueue or LiveQueue
        self.stubs: dict[int, object] = {}
        self.responses = []  # synthesized slow-path responses
        self.slow_counters: dict[str, int] = {}
        self._lock = threading.RLock()

        chain_spec = config.chain if config else ChainSpec(list(DEFAULT_CHAIN_NODES))
        self.chain = self.compile(chain_spec)
        self.fast_path = FastPath(
            l7_chain=self.chain,
            registry=self.registry,
            buffer_pool=self.buffer_pool,
            n_workers=n_workers,
            synchronous=synchronous,
            slow_path_handoff=self.handle_slow_path,
            vq_egress=self._vq_egress,
        )
        if config is not None:
            self.distribute(config)

    # -- assembly ----------------------------------------------------------
    def compile(self, spec: ChainSpec):
        return compile_chain(spec, self.registry)

    # -- rule distribution -------------------------------------------------
    def distribute(self, config: MeshConfig) -> dict:
        """Publish config-derived entries layer-wise; returns the epoch
        each table reached."""
        self.config = config
        epochs = {}
        epochs[self.l2_table.name] = self.ovs_controller.publish(
            self.l2_table, add={l.dip: "forward" for l in config.listeners}
        )
        epochs[self.l3_table.name] = self.conn_controller.publish(
            self.l3_table, add={Proto.TCP: "forward", Proto.UDP: "forward"}
        )
        listener_add = {l.key: l.name for l in config.listeners}
        old_listeners = set(self.listener_table.current.entries) - set(listener_add)
        epochs[self.listener_table.name] = self.conn_controller.publish(
            self.listener_table, add=listener_add, remove=old_listeners
        )
        # explicit rules first, then a catch-all ALLOW so a request the
        # config says nothing about is forwarded rather than stranded
        rules = tuple(config.filters) + (FilterRule(decision=Decision.ALLOW),)
        epochs[self.filter_table.name] = self.msg_controller.publish(
            self.filter_table, add={"rules": rules}
        )
        routes_by_listener = {}
        for r in config.routes:
            routes_by_listener.setdefault(r.listener, []).append(r)
        routes_add = {k: tuple(v) for k, v in routes_by_listener.items()}
        old_routes = set(self.route_table.current.entries) - set(routes_add)
        epochs[self.route_table.name] = self.msg_controller.publish(
            self.route_table, add=routes_add, remove=old_routes
        )
        cluster_add = {c.ref: c for c in config.clusters}
        old_clusters = set(self.cluster_table.current.entries) - set(cluster_add)
        epochs[self.cluster_table.name] = self.msg_controller.publish(
            self.cluster_table, add=cluster_add, remove=old_clusters
        )
        return epochs

    # -- connection management --------------------------------------------
    def _default_connect(self, endpoint: Endpoint, meta: Metadata) -> int:
        """Establish a connection: ConnRecord plus a bound VirtQueue."""
        with self._lock:
            key = meta.flow
            record = self.conns.get(key)
            if record is not None and record.state is ConnState.OPEN:
                return record.vq
            now = self.clock()
            record = ConnRecord(conn_key=key, endpoint=endpoint,
                                created_at=now, last_active=now)
            stub = ServiceStub(tenant=f"svc:{endpoint.id}")
            q = VirtQueue(tenant=stub.tenant)
            q.bind(stub)
            record.vq = q.id
            record.transition(ConnState.OPEN)
            self.conns[key] = record
            self.vqs[q.id] = q
            self.stubs[q.id] = stub
            return q.id

    def _vq_egress(self, unit: TrafficUnit):
        """Never blocks: a full TX ring loses the message, which is counted
        as `ring_full` and marked with that reason.  Egress is the activity
        `expire_idle` measures a flow's idle time from."""
        rec = self.conns.get(unit.meta.flow)
        if rec is not None:
            rec.last_active = self.clock()
        q = self.vqs.get(unit.meta.queue)
        if q is not None and unit.payload:
            try:
                q.tx_deliver(unit.payload, block=False)
            except RingFull:
                unit.meta.verdict_reason = "ring_full"
                self.fast_path.ctx.bump("ring_full")

    def close_flow(self, key: FlowKey):
        """Release a flow's queue binding, L4 entry, queue (closed), stub and
        TOE state; its ConnRecord, if any, is the caller's to move on."""
        qid = self.queue_table.lookup(key)
        self.queue_table.remove(key)
        if key in self.l4_table.current.entries:  # live flows have none
            self.conn_controller.publish(self.l4_table, remove=[key])
        q = self.vqs.pop(qid, None)
        if q is not None:
            q.close()
        self.stubs.pop(qid, None)
        self.fast_path.toe.close(key)

    # -- slow path ---------------------------------------------------------
    def _count(self, name):
        with self._lock:
            self.slow_counters[name] = self.slow_counters.get(name, 0) + 1

    def handle_slow_path(self, unit: TrafficUnit, reason) -> str:
        """Dispose of a unit the fast path could not process.

        Returns the disposition: 'reinjected' | 'responded' | 'dropped'.
        """
        reason = reason or "unknown"
        self._count(f"reason.{reason.split(':')[0]}")
        if reason == "new_connection":
            return self._handle_new_connection(unit)
        if reason in ("no_listener", "no_route"):
            self._count(f"drop.{reason}")
        if reason in ("no_listener", "no_route", "no_healthy_endpoint"):
            status = http_status(unit.meta.verdict, reason)
            self.responses.append((unit.meta.conn_id, status, reason))
            self._count("responded")
            return "responded"
        self._count("dropped")
        return "dropped"

    def _handle_new_connection(self, unit: TrafficUnit) -> str:
        if self.config is None:
            self._count("dropped")
            return "dropped"
        lkey = make_listener_key(unit.meta.flow.dip, unit.meta.flow.dport,
                                 unit.meta.flow.proto)
        if lkey not in {l.key for l in self.config.listeners}:
            self._count("drop.no_listener")
            return "dropped"
        key = unit.meta.flow
        with self._lock:
            if key not in self.conns:
                now = self.clock()
                rec = ConnRecord(conn_key=key, created_at=now, last_active=now)
                self.conns[key] = rec
        self.conn_controller.publish(
            self.l4_table, add={key: ("l7", Framing.HTTP)}
        )
        # open the TOE state with the entry, as close_flow closes both, so a
        # first segment that arrives out of order waits for the ones before it
        self.fast_path.toe.open(key)
        self._count("installed")
        # reinjection preserves the original unit bytes; the unit re-enters
        # at L2 as a fresh frame
        fresh = TrafficUnit(
            kind=UnitKind.FRAME,
            meta=Metadata(flow=unit.meta.flow, conn_id=unit.meta.conn_id),
            payload=unit.payload,
            arrival_time=unit.arrival_time,
            seq=unit.seq,
        )
        self.fast_path.ingress(fresh)
        self._count("reinjected")
        return "reinjected"

    def expire_idle(self, now: int = None):
        """Idle connections move to CLOSING and release their flow."""
        now = now if now is not None else self.clock()
        for key, rec in list(self.conns.items()):
            if rec.state is ConnState.OPEN and now - rec.last_active > IDLE_TIMEOUT_NS:
                rec.transition(ConnState.CLOSING)
                self.close_flow(key)

    # -- statistics --------------------------------------------------------
    def stats_snapshot(self) -> dict:
        """Point-in-time counters document; never blocks the fast path."""
        with self._lock:
            slow = dict(self.slow_counters)
            conn_states = {}
            for rec in self.conns.values():
                conn_states[rec.state.value] = conn_states.get(rec.state.value, 0) + 1
        fast = self.fast_path.counters()
        epochs = {
            t.name: t.epoch
            for t in (
                self.l2_table, self.l3_table, self.l4_table, self.listener_table,
                self.filter_table, self.route_table, self.cluster_table,
            )
        }
        endpoints = {
            k.split(".", 1)[1]: v for k, v in fast.items()
            if k.startswith("endpoint.")
        }
        return {
            "fast_path": fast,
            "slow_path": slow,
            "table_epochs": epochs,
            "endpoint_assignments": endpoints,
            "connections": conn_states,
        }

    def shutdown(self):
        self.fast_path.shutdown()
