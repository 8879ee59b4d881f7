"""Configuration and control planes.

Config comes from local YAML files (standing in for a cloud control
center), parsed by libyaml's C parser where PyYAML has it, and gets
validated into a MeshConfig of frozen values -- a chain section, if
there is one, must spell the one L7 chain, `fast_path.STANDARD_CHAIN` --
and is distributed layer-wise: the connection controller ("connection")
owns the listener table, and the message controller ("message") the L7
rule tables.  Each table is built with its owner's name and refuses a
write that names another writer or none.  A rule table is published
whole, and a reload keeps the version of every table whose entries it
leaves equal.
Balancing state is not config: `MeshRuntime.lb` holds each cluster's
`LbState`, kept across every reload, changed or not, and dropped with the
cluster ref; a flow still open keeps its state through its record.

The slow path handles first packets only, inside the fast path's
`ingress` call: it builds the flow's one record, a `core.Conn`, in one
step and in O(1), which is what classifies the flow's later frames, and
returns it; the fast path goes on with the frame and counts its outcome.
In live mode each accepted client's record is built as it is accepted.
The slow path counts nothing of its own.  Every message the chain refuses
is a drop that the fast path counts with its HTTP status.  The router
fills in the record's queue, endpoint and LB count when the flow connects,
and `close_flow`, called on idle expiry and on a live client's disconnect,
releases all the record holds, in one place.  Records are kept in one
map, `conns`, which is the TOE's, in order of last activity, so idle
expiry visits only the flows it closes and the first one it keeps.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import yaml

from .core import (
    BufferPool,
    Conn,
    Endpoint,
    FlowKey,
    Message,
    TrafficUnit,
    int_to_ip4,
    ip4_to_int,
)
from .fast_path import STANDARD_CHAIN, FastPath, standard_registry
from .l7 import (
    Cluster,
    Decision,
    FilterRule,
    HttpReader,
    LbPolicy,
    LbState,
    MatchKind,
    PathMatcher,
    QueueTable,
    RouteRule,
    host_name,
)
from .match_action import ExecutableChain, MatchTable
from .vq import RingFull, ServiceStub, VirtQueue

IDLE_TIMEOUT_NS = 60 * 1_000_000_000

# libyaml's scanner and parser where PyYAML was built with them; the
# constructor and resolver are SafeLoader's either way
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


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
    def key(self) -> tuple:
        return (self.dip, self.dport)  # its listener and route entries' key


@dataclass
class MeshConfig:
    listeners: list
    filters: list
    routes: list
    clusters: list  # list[Cluster]
    cost_profile: Optional[str] = None


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
    """Parse and validate a config document: a `Path` is read as a file,
    and anything else -- YAML text, bytes or a stream -- goes to the YAML
    parser as it is."""
    if isinstance(source, Path):
        source = source.read_text()
    try:
        doc = yaml.load(source, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        raise ParseError(str(exc), line=(mark.line + 1) if mark else None)
    if not isinstance(doc, dict):
        raise ParseError("config document must be a mapping", line=1)
    _reject_unknown(doc, _TOP_FIELDS, "config root")

    # what a malformed entry raises while its section is parsed becomes a
    # ParseError that names the section
    section = "listeners"
    try:
        listeners = [_parse_listener(d) for d in doc.get("listeners", [])]
        _unique((l.name for l in listeners), "listener name")
        _unique((f"{int_to_ip4(l.dip)}:{l.dport}" for l in listeners),
                "listener address")
        section = "filters"
        filters = [_parse_filter(d) for d in doc.get("filters", [])]
        section = "clusters"
        clusters = [_parse_cluster(d) for d in doc.get("clusters", [])]
        _unique((c.ref for c in clusters), "cluster ref")
        by_name = {l.name: l for l in listeners}
        cluster_refs = {c.ref for c in clusters}
        section = "routes"
        routes = [_parse_route(d, by_name, cluster_refs)
                  for d in doc.get("routes", [])]
        section = "chain"
        chain = doc.get("chain", {"nodes": list(STANDARD_CHAIN)})
        _reject_unknown(chain, _CHAIN_FIELDS, "chain")
        nodes = chain.get("nodes")
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ParseError(f"bad {section}: {exc!r}", field_name=section) from exc
    # the pipeline is fixed, as the paper's and P4's are: a config changes
    # table entries, never the chain
    if nodes != list(STANDARD_CHAIN):
        raise InvalidChain(f"chain {nodes!r} is not the standard chain "
                           f"{list(STANDARD_CHAIN)}")
    return MeshConfig(
        listeners=listeners,
        filters=filters,
        routes=routes,
        clusters=clusters,
        cost_profile=doc.get("cost_profile"),
    )


def _unique(keys, what: str):
    """Refuse a key that `keys` holds twice: the last would silently win."""
    seen = set()
    for key in keys:
        if key in seen:
            raise ValueError(f"{what} {key!r} given twice")
        seen.add(key)


def _name(value) -> str:
    """A listener name or cluster ref, where it is defined and where a
    route names it: a YAML string, so both sides read it the same way."""
    if type(value) is not str:
        raise ValueError(f"not a string: {value!r}")
    return value


def _port(value) -> int:
    """A configured port: an int (not a bool, not a float) in 16 bits."""
    if type(value) is not int or not 0 <= value <= 0xFFFF:
        raise ValueError(f"not a 16-bit port: {value!r}")
    return value


def _parse_listener(d) -> ListenerDef:
    _reject_unknown(d, _LISTENER_FIELDS, "listener")
    return ListenerDef(
        name=_name(d["name"]), dip=ip4_to_int(d["dip"]), dport=_port(d["dport"])
    )


def _parse_filter(d) -> FilterRule:
    _reject_unknown(d, _FILTER_FIELDS, "filter")
    enc = lambda v: str(v).encode() if v is not None else None
    host = enc(d.get("host"))
    if host is not None and host_name(host) != host.lower():
        raise ValueError(f"a filter's host takes no port: {host!r}")
    return FilterRule(
        decision=Decision[d["decision"].upper()],
        method=enc(d.get("method")),
        host=host and host.lower(),
        path_prefix=enc(d.get("path_prefix")),
        sip=ip4_to_int(d["sip"]) if d.get("sip") is not None else None,
    )


def _parse_route(d, by_name: dict, cluster_refs: set) -> RouteRule:
    _reject_unknown(d, _ROUTE_FIELDS, "route")
    lname = _name(d["listener"])
    if lname not in by_name:
        raise ParseError(f"route references unknown listener {lname!r}",
                         field_name="listener")
    cref = _name(d["cluster"])
    if cref not in cluster_refs:
        raise DanglingClusterRef(cref)
    matchers = []
    for m in d.get("path_matchers", []):
        _reject_unknown(m, _MATCHER_FIELDS, "path matcher")
        matchers.append(PathMatcher(kind=MatchKind[m["kind"].upper()],
                                    pattern=str(m["pattern"]).encode()))
    if not matchers:
        raise ParseError("route needs at least one path matcher",
                         field_name="path_matchers")
    return RouteRule(listener=by_name[lname].key, path_matchers=tuple(matchers),
                     cluster=cref)


def _parse_cluster(d) -> Cluster:
    _reject_unknown(d, _CLUSTER_FIELDS, "cluster")
    ref = _name(d["ref"])
    endpoints = []
    for i, e in enumerate(d.get("endpoints", [])):
        _reject_unknown(e, _ENDPOINT_FIELDS, "endpoint")
        addr = (ip4_to_int(e["address"]), _port(e["port"]))
        weight, healthy = e.get("weight", 1), e.get("healthy", True)
        if type(weight) is not int or type(healthy) is not bool:
            raise ValueError(f"endpoint weight {weight!r}, healthy {healthy!r}")
        endpoints.append(Endpoint(id=f"{ref}-{i}", address=addr,
                                  weight=weight, healthy=healthy))
    if len({e.address for e in endpoints}) < len(endpoints):
        raise ValueError(f"cluster {ref!r} lists an endpoint address twice")
    return Cluster(ref=ref, endpoints=tuple(endpoints),
                   policy=LbPolicy[d.get("policy", "ROUND_ROBIN").upper()])


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
        self.clock = clock or time.monotonic_ns

        self.listener_table = MatchTable("listeners", owner="connection")
        self.filter_table = MatchTable("filters", owner="message")
        self.route_table = MatchTable("routes", owner="message")
        self.cluster_table = MatchTable("clusters", owner="message")
        # cluster ref -> LbState; the router reads this very dict
        self.lb: dict[str, LbState] = {}

        self._connector = connector or self._default_connect
        self.registry = standard_registry(
            self.listener_table, self.filter_table, self.route_table,
            self.cluster_table, self.lb, connector=self._connect,
        )

        self.config = config
        self.vqs: dict[int, object] = {}  # vq id -> VirtQueue or LiveQueue
        self.stubs: dict[int, object] = {}

        self.chain = ExecutableChain(STANDARD_CHAIN, self.registry)
        self.fast_path = FastPath(
            l7_chain=self.chain,
            slow_path_handoff=self.handle_slow_path,
            vq_egress=self._vq_egress,
        )
        # flow -> its record, the TOE's very map, oldest activity first: a
        # new record goes to the end, and so does a record on each egress
        self.conns: OrderedDict[FlowKey, Conn] = self.fast_path.toe.connections
        if config is not None:
            self.distribute(config)

    # -- rule distribution -------------------------------------------------
    def distribute(self, config: MeshConfig) -> dict:
        """Publish each rule table whole from `config`, by its owning
        controller; returns the epoch each table is at.  A table whose
        entries did not change keeps its epoch.  Each cluster ref keeps its
        `LbState`; the states of refs `config` lacks are dropped."""
        self.config = config
        refs = {c.ref for c in config.clusters}
        for ref in self.lb.keys() - refs:
            del self.lb[ref]
        for ref in refs:
            self.lb.setdefault(ref, LbState())
        routes = {}
        for r in config.routes:
            routes[r.listener] = routes.get(r.listener, ()) + (r,)
        published = (
            ("connection", self.listener_table,
             {l.key: l.name for l in config.listeners}),
            ("message", self.filter_table, {"rules": tuple(config.filters)}),
            ("message", self.route_table, routes),
            ("message", self.cluster_table, {c.ref: c for c in config.clusters}),
        )
        return {t.name: t.publish(entries, writer=w) for w, t, entries in published}

    # -- connection management --------------------------------------------
    def open_flow(self, key: FlowKey) -> Conn:
        """Build `key`'s record in one step, active as of now, and keep it
        in `conns`: a first packet's, and a live client's as it is
        accepted."""
        conn = self.conns[key] = Conn(HttpReader(), self.clock())
        return conn

    def _connect(self, endpoint: Endpoint, msg: Message):
        """The router's connector: the transport connector builds the
        queue, which is kept in `vqs` by its id and in the queue table by
        the message's flow."""
        q = self._connector(endpoint, msg)
        self.vqs[q.id] = q
        self.queue_table[msg.flow] = q.id
        return q

    def _default_connect(self, endpoint: Endpoint, msg: Message) -> VirtQueue:
        """The in-process transport connector: a VirtQueue bound to a fresh
        ServiceStub, which is kept in `stubs`."""
        stub = ServiceStub(tenant=f"svc:{endpoint.id}")
        q = VirtQueue(tenant=stub.tenant)
        q.bind(stub)
        self.stubs[q.id] = stub
        return q

    def _vq_egress(self, msg: Message) -> bool:
        """Deliver a message to the queue the router bound it to.  Never
        blocks: returns False when a full TX ring lost the message, which
        the fast path counts as `msg_dropped.ring_full`.  Egress is the
        activity `expire_idle` measures a flow's idle time from: it stamps
        the message's record and moves it to the end of `conns`."""
        msg.conn.last_active = self.clock()
        self.conns.move_to_end(msg.flow)
        try:
            msg.queue.tx_deliver(msg.payload)
        except RingFull:
            return False
        return True

    def close_flow(self, key: FlowKey):
        """The one path that releases a flow: its record, with its TOE
        state, and what the record holds once connected -- the LB count,
        the queue (closed), its stub and its queue table entry.  The record
        goes last, so a flow missing from `conns` holds nothing."""
        conn = self.conns.get(key)
        if conn is None:
            return
        q = conn.queue
        if q is not None:
            conn.lb.close(conn.endpoint)
            q.close()
            del self.vqs[q.id], self.queue_table[key]
            self.stubs.pop(q.id, None)
        del self.conns[key]

    # -- slow path ---------------------------------------------------------
    def handle_slow_path(self, unit: TrafficUnit) -> Optional[Conn]:
        """First packet of a flow, taken inside `FastPath.ingress`: to a
        published listener, build the flow's record, which classifies its
        later frames, and return it, so the fast path goes on to reassemble
        the frame; to any other, return None, and the fast path drops it as
        `no_listener`.

        The TOE state opens at seq 0.  A flow that resumes after expiry, its
        first segment now at seq > 0, cannot be told from a first pair that
        arrived swapped, so its segments wait in the reorder buffer -- up to
        REORDER_BUFFER_SEGMENTS, counted `buffered`, then dropped as
        `out_of_window` -- and the next `expire_idle` past its idle timeout
        releases it like any other idle flow.
        """
        key = unit.meta.flow
        if (key.dip, key.dport) not in self.listener_table.current.entries:
            return None
        return self.open_flow(key)

    def expire_idle(self, now: int = None):
        """Close every flow idle for longer than IDLE_TIMEOUT_NS: the
        oldest records first, stopping at the first one still active, as
        every record after it was active later."""
        now = now if now is not None else self.clock()
        conns = self.conns
        while conns:
            key, rec = next(iter(conns.items()))
            if now - rec.last_active <= IDLE_TIMEOUT_NS:
                return
            self.close_flow(key)

    # -- statistics --------------------------------------------------------
    def stats_snapshot(self) -> dict:
        """Point-in-time counters document, at schema `version` 1; the
        fast path's one counter dict is copied whole, between two of its
        counts."""
        fast = self.fast_path.counters()
        epochs = {
            t.name: t.epoch
            for t in (
                self.listener_table, self.filter_table, self.route_table,
                self.cluster_table,
            )
        }
        endpoints = {
            k.split(".", 1)[1]: v for k, v in fast.items()
            if k.startswith("endpoint.")
        }
        return {
            "version": 1,
            "fast_path": fast,
            "table_epochs": epochs,
            "endpoint_assignments": endpoints,
            "connections": {"open": len(self.conns)},
        }

    def shutdown(self):
        """Close every queue in `vqs`."""
        for q in list(self.vqs.values()):
            q.close()
