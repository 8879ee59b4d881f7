"""Configuration and control planes.

Config comes from local YAML files (standing in for a cloud control
center), gets validated into a MeshConfig, and is distributed layer-wise:
the OVS controller owns the L2 table, the connection controller owns the
L3/L4 and listener tables, and the message controller owns the L7 rule
tables.  Only a table's owning controller ever publishes to it.

The slow path itself handles first packets: it installs L4 entries and
TOE state and reinjects the triggering unit into the fast path.  A flow
has a connection record exactly while it holds something -- an L4 entry,
TOE state, a queue or an endpoint's LB count -- and `close_flow`, called
on idle expiry and on a live client's disconnect, releases all of it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
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
from .fast_path import FastPath, standard_registry
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
from .match_action import ExecContext, MatchTable, compile_chain, MatchActionError
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
    chain: list  # PPM ids, in traversal order
    cost_profile: Optional[str] = None


DEFAULT_CHAIN_NODES = ["toe", "http_parser", "filter", "router", "http_deparser"]

_TOP_FIELDS = {"listeners", "filters", "routes", "clusters", "chain", "cost_profile"}
_LISTENER_FIELDS = {"name", "dip", "dport"}
_FILTER_FIELDS = {"decision", "method", "host", "path_prefix", "sip"}
_ROUTE_FIELDS = {"listener", "path_matchers", "cluster"}
_MATCHER_FIELDS = {"kind", "pattern"}
_CLUSTER_FIELDS = {"ref", "endpoints", "policy"}
_ENDPOINT_FIELDS = {"address", "port", "weight", "healthy"}
_CHAIN_FIELDS = {"nodes"}


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
    cfg = MeshConfig(
        listeners=listeners,
        filters=filters,
        routes=routes,
        clusters=clusters,
        chain=list(chain_doc.get("nodes", [])),
        cost_profile=doc.get("cost_profile"),
    )
    # the chain must compile against the standard PPM registry; compiling
    # reads only PPM ids and layers, so scratch tables will do
    registry = standard_registry(
        *(MatchTable(f"t{i}") for i in range(7)), QueueTable(), connector=None
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
                     "no_healthy_endpoint": 503, "malformed_http": 400,
                     "connect_failure": 502, "unknown_cluster": 502,
                     "deparse_failed": 502}


def http_status(verdict: Verdict, reason: Optional[str]) -> int:
    """The one verdict -> HTTP status rule, for live replies and the slow
    path's `status.<code>` counters: a known reason has its own status, any
    other drop is 403 (filtered) and anything else 502."""
    default = 403 if verdict is Verdict.DROP else 502
    return _STATUS_BY_REASON.get((reason or "").split(":")[0], default)


# ---------------------------------------------------------------------------
# Connection records

@dataclass
class ConnRecord:
    """An open flow: the endpoint whose LB count it holds (None until it
    routes) and when it was last active.  A record is in `MeshRuntime.conns`
    exactly while its flow is open; `close_flow` removes it."""

    endpoint: Optional[Endpoint] = None
    last_active: int = 0


# ---------------------------------------------------------------------------
# Controllers

@dataclass
class Controller:
    name: str
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
        connector=None,
        clock=None,
    ):
        # nothing on the message path uses it: the benchmark reads its
        # length as the core.buffers_held gauge
        self.buffer_pool = BufferPool()
        self.queue_table = QueueTable()
        self.clock = clock or (lambda: time.monotonic_ns())

        self.l2_table = MatchTable("l2_fwd", default="forward")
        self.l3_table = MatchTable("l3_proto", default="forward")
        self.l4_table = MatchTable("l4_flows")
        self.listener_table = MatchTable("listeners")
        self.filter_table = MatchTable("filters")
        self.route_table = MatchTable("routes")
        self.cluster_table = MatchTable("clusters")

        self.ovs_controller = Controller("ovs")
        self.conn_controller = Controller("connection")
        self.msg_controller = Controller("message")
        self.ovs_controller.own(self.l2_table)
        for t in (self.l3_table, self.l4_table, self.listener_table):
            self.conn_controller.own(t)
        for t in (self.filter_table, self.route_table, self.cluster_table):
            self.msg_controller.own(t)

        self._connector = connector or self._default_connect
        self.registry = standard_registry(
            self.l2_table, self.l3_table, self.l4_table, self.listener_table,
            self.filter_table, self.route_table, self.cluster_table,
            self.queue_table,
            connector=self._connect,
        )

        self.config = config
        self.conns: dict[FlowKey, ConnRecord] = {}
        self.vqs: dict[int, object] = {}  # vq id -> VirtQueue or LiveQueue
        self.stubs: dict[int, object] = {}
        self.slow = ExecContext(counters={})  # the slow path's counters
        self._lock = threading.RLock()

        self.chain = self.compile(config.chain if config else DEFAULT_CHAIN_NODES)
        self.fast_path = FastPath(
            l7_chain=self.chain,
            registry=self.registry,
            slow_path_handoff=self.handle_slow_path,
            vq_egress=self._vq_egress,
        )
        if config is not None:
            self.distribute(config)

    # -- assembly ----------------------------------------------------------
    def compile(self, nodes: list):
        return compile_chain(nodes, self.registry)

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
    def _record(self, key: FlowKey) -> ConnRecord:
        """The flow's record, made active as of now if it has none; called
        wherever a flow starts to hold something."""
        with self._lock:
            rec = self.conns.get(key)
            if rec is None:
                rec = self.conns[key] = ConnRecord(last_active=self.clock())
            return rec

    def _connect(self, endpoint: Endpoint, meta: Metadata) -> int:
        """The router's connector: the transport connector builds the
        queue, then the flow's record takes the endpoint and its LB count."""
        qid = self._connector(endpoint, meta)
        with self._lock:
            self._record(meta.flow).endpoint = endpoint
            endpoint.active_conns += 1
        return qid

    def _default_connect(self, endpoint: Endpoint, meta: Metadata) -> int:
        """The in-process transport connector: a VirtQueue bound to a fresh
        ServiceStub, registered in `vqs` and `stubs`."""
        stub = ServiceStub(tenant=f"svc:{endpoint.id}")
        q = VirtQueue(tenant=stub.tenant)
        q.bind(stub)
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
                q.tx_deliver(unit.payload)
            except RingFull:
                unit.meta.verdict_reason = "ring_full"
                self.fast_path.ctx.bump("ring_full")

    def close_flow(self, key: FlowKey):
        """The one path that releases a flow: its record and the LB count
        the record holds on its endpoint, queue binding, L4 entry, queue
        (closed), stub and TOE state."""
        with self._lock:
            rec = self.conns.pop(key, None)
            if rec is not None and rec.endpoint is not None:
                rec.endpoint.active_conns -= 1
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
    def handle_slow_path(self, unit: TrafficUnit, reason) -> str:
        """Dispose of a unit the fast path could not process.  A unit whose
        reason has its own HTTP status gets that reply, counted under
        `status.<code>` and `responded`; any other is dropped.

        Returns the disposition: 'reinjected' | 'responded' | 'dropped'.
        """
        reason = (reason or "unknown").split(":")[0]
        self.slow.bump(f"reason.{reason}")
        if reason == "new_connection":
            return self._handle_new_connection(unit)
        if reason in ("no_listener", "no_route"):
            self.slow.bump(f"drop.{reason}")
        if reason in _STATUS_BY_REASON:
            self.slow.bump(f"status.{http_status(unit.meta.verdict, reason)}")
            self.slow.bump("responded")
            return "responded"
        self.slow.bump("dropped")
        return "dropped"

    def _handle_new_connection(self, unit: TrafficUnit) -> str:
        """First packet of a flow to a published listener: make its record,
        install its L4 entry and TOE state, and reinject the frame.

        The TOE state opens at seq 0.  A flow that resumes after expiry, its
        first segment now at seq > 0, cannot be told from a first pair that
        arrived swapped, so its segments wait in the reorder buffer -- up to
        REORDER_BUFFER_SEGMENTS, counted `buffered`, then dropped as
        `out_of_window` -- and the next `expire_idle` past its idle timeout
        releases it like any other idle flow.
        """
        key = unit.meta.flow
        if key.listener_key not in self.listener_table.current.entries:
            self.slow.bump("drop.no_listener")
            self.slow.bump("dropped")
            return "dropped"
        self._record(key)
        self.conn_controller.publish(self.l4_table, add={key: "l7"})
        # open the TOE state with the entry, as close_flow closes both, so a
        # first segment that arrives out of order waits for the ones before it
        self.fast_path.toe.open(key)
        self.slow.bump("installed")
        # reinjection preserves the original unit bytes; the unit re-enters
        # at L2 as a fresh frame
        fresh = TrafficUnit(
            kind=UnitKind.FRAME,
            meta=Metadata(flow=unit.meta.flow, conn_id=unit.meta.conn_id),
            payload=unit.payload,
            seq=unit.seq,
        )
        self.fast_path.ingress(fresh)
        self.slow.bump("reinjected")
        return "reinjected"

    def expire_idle(self, now: int = None):
        """Close every flow idle for longer than IDLE_TIMEOUT_NS."""
        now = now if now is not None else self.clock()
        with self._lock:
            idle = [key for key, rec in self.conns.items()
                    if now - rec.last_active > IDLE_TIMEOUT_NS]
        for key in idle:
            self.close_flow(key)

    # -- statistics --------------------------------------------------------
    def stats_snapshot(self) -> dict:
        """Point-in-time counters document; each path's counters are
        copied whole, between two of its bumps."""
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
            "slow_path": self.slow.snapshot(),
            "table_epochs": epochs,
            "endpoint_assignments": endpoints,
            "connections": {"open": len(self.conns)},
        }

    def shutdown(self):
        """Close every queue in `vqs`."""
        for q in list(self.vqs.values()):
            q.close()
