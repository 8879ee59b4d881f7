import io
from collections import Counter
from dataclasses import FrozenInstanceError, fields
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from flatproxy import slow_path
from flatproxy.core import (
    Metadata,
    TrafficUnit,
    UnitKind,
    ip4_to_int,
)
from flatproxy.fast_path import REORDER_BUFFER_SEGMENTS, STANDARD_CHAIN
from flatproxy.l7 import ConnectFailure, Decision, LbPolicy, MatchKind
from flatproxy.slow_path import (
    ConfigError,
    DanglingClusterRef,
    IDLE_TIMEOUT_NS,
    InvalidChain,
    MeshRuntime,
    ParseError,
    load_config,
)
from flatproxy.match_action import MatchActionError
from flatproxy.vq import VqState
from conftest import (DUPLICATE_HOST, config_text, host_denied_config_text,
                      make_flow, make_message, make_request)


# -- config parsing ----------------------------------------------------------

def test_load_example_config(example_config_path):
    cfg = load_config(example_config_path)
    assert [l.name for l in cfg.listeners] == ["web"]
    assert cfg.listeners[0].dport == 8080
    assert cfg.filters[0].decision is Decision.DENY
    assert cfg.filters[0].path_prefix == b"/admin"
    assert len(cfg.routes) == 1
    assert cfg.routes[0].path_matchers[0].kind is MatchKind.EXACT
    assert cfg.clusters[0].policy is LbPolicy.ROUND_ROBIN
    assert len(cfg.clusters[0].endpoints) == 2
    assert MeshRuntime(cfg).chain.order == ["toe", "http_parser", "filter",
                                            "router", "http_deparser"]
    assert cfg.cost_profile == "flatproxy_l7"


def test_load_config_accepts_text_bytes_and_file():
    text = config_text()
    for source in (text, text.encode(), io.StringIO(text)):
        cfg = load_config(source)
        assert cfg.listeners[0].name == "web"


def test_one_line_yaml_text_loads():
    """YAML text is parsed as it is, however short: it is never taken for
    a file name."""
    cfg = load_config("listeners: []")
    assert cfg.listeners == [] and cfg.routes == []


def test_unknown_top_level_field_rejected():
    with pytest.raises(ParseError) as exc:
        load_config(config_text() + "\nmystery: 1\n")
    assert "mystery" in str(exc.value)


def test_unknown_nested_field_rejected():
    bad = config_text().replace("dport: 8080", "dport: 8080\n    extra: true")
    with pytest.raises(ParseError):
        load_config(bad)


def test_dangling_cluster_ref_rejected():
    bad = config_text().replace("cluster: backend", "cluster: ghost")
    with pytest.raises(DanglingClusterRef):
        load_config(bad)


def test_route_to_unknown_listener_rejected():
    bad = config_text().replace("listener: web", "listener: ghost")
    with pytest.raises(ParseError):
        load_config(bad)


def with_listener(entry):
    """`config_text` with one more listener, `entry`, ahead of `web`."""
    return config_text().replace("listeners:\n", f"listeners:\n  - {entry}\n")


@pytest.mark.parametrize("section, doc", [
    ("listeners", with_listener("{name: web, dip: 10.0.0.3, dport: 8080}")),
    ("listeners", with_listener("{name: api, dip: 10.0.0.2, dport: 8080}")),
    ("clusters", config_text().replace(
        "clusters:\n", "clusters:\n  - {ref: backend, endpoints: []}\n")),
], ids=["listener_name", "listener_address", "cluster_ref"])
def test_name_defined_twice_rejected(section, doc):
    """A listener name or (dip, dport), or a cluster ref, given twice is
    refused, naming its section: the last one once silently won."""
    with pytest.raises(ParseError) as exc:
        load_config(doc)
    assert exc.value.field_name == section
    assert "twice" in str(exc.value)


def spelled(name="web", listener="web", ref="backend", cluster="backend"):
    """`config_text` with its listener's name, the route's listener, its
    cluster's ref and the route's cluster written as the YAML given."""
    return (config_text().replace("name: web", f"name: {name}")
            .replace("listener: web", f"listener: {listener}")
            .replace("ref: backend", f"ref: {ref}")
            .replace("cluster: backend", f"cluster: {cluster}"))


@pytest.mark.parametrize("spelling", [
    dict(name="1", listener="'1'"), dict(name="'1'", listener="1"),
    dict(ref="1", cluster="'1'"), dict(ref="'1'", cluster="1"),
], ids=["name_int", "listener_int", "ref_int", "cluster_int"])
def test_names_and_refs_are_strings_on_both_sides(spelling):
    """A listener name or cluster ref, and a route's name for it, are
    YAML strings: `1` is refused on either side, so no side is read with
    `str()` and the other not."""
    assert load_config(spelled(name="'1'", listener="'1'", ref="'1'",
                               cluster="'1'")).routes
    with pytest.raises(ParseError, match="not a string"):
        load_config(spelled(**spelling))


def test_route_without_matchers_rejected():
    with pytest.raises(ParseError):
        load_config("""
listeners:
  - {name: web, dip: 10.0.0.2, dport: 8080}
routes:
  - listener: web
    path_matchers: []
    cluster: c
clusters:
  - ref: c
    endpoints: []
""")


def test_bad_yaml_reports_line():
    with pytest.raises(ParseError) as exc:
        load_config("listeners:\n  - name: web\n   bad indent: [\n")
    assert exc.value.line is not None


def test_invalid_chain_rejected():
    bad = config_text() + "chain:\n  nodes: [vswitch, toe]\n"
    with pytest.raises(InvalidChain):
        load_config(bad)


def test_unknown_chain_node_rejected():
    bad = config_text() + "chain:\n  nodes: [warp_drive]\n"
    with pytest.raises(InvalidChain):
        load_config(bad)


def test_chain_edges_field_rejected():
    """A chain is an ordered list of PPM ids; `edges` is an unknown field."""
    bad = config_text() + (
        "chain:\n  nodes: [toe, http_parser]\n"
        "  edges: [[toe, http_parser]]\n")
    with pytest.raises(ParseError) as exc:
        load_config(bad)
    assert exc.value.field_name == "edges"


@pytest.mark.parametrize("nodes", ["[toe, router, http_deparser]",
                                   "[toe, filter, http_parser, router]"])
def test_chain_that_reads_a_request_before_the_parser_rejected(nodes):
    """The filter, router and deparser read the request the parser made:
    a chain that runs one of them without `http_parser` ahead of it would
    fail on every message.  It is refused, as every chain but the standard
    one is."""
    with pytest.raises(InvalidChain):
        load_config(config_text() + f"chain:\n  nodes: {nodes}\n")


@pytest.mark.parametrize("nodes", ["[toe, http_parser, filter, router]",
                                   "[toe, http_parser, http_deparser, filter]"])
def test_chain_that_does_not_end_with_the_deparser_rejected(nodes):
    """The deparser, last, delivers every message the chain did not drop,
    so a message never leaves the chain without a verdict and its reason.
    The error names the standard chain, which ends with it."""
    with pytest.raises(InvalidChain, match="http_deparser"):
        load_config(config_text() + f"chain:\n  nodes: {nodes}\n")


def test_repeated_chain_node_rejected():
    bad = config_text() + "chain:\n  nodes: [toe, http_parser, toe]\n"
    with pytest.raises(InvalidChain):
        load_config(bad)


needs_libyaml = pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"),
                                   reason="PyYAML built without libyaml")


def load_with(monkeypatch, loader, source):
    monkeypatch.setattr(slow_path, "_YAML_LOADER", loader)
    return load_config(source)


def test_loader_is_libyaml_where_built():
    assert slow_path._YAML_LOADER is getattr(yaml, "CSafeLoader",
                                             yaml.SafeLoader)


@needs_libyaml
@pytest.mark.parametrize("path", [Path("configs/http_routing.yaml"),
                                  Path("perfbench/mesh.yaml")], ids=str)
def test_c_and_python_loaders_give_equal_configs(monkeypatch, path):
    c = load_with(monkeypatch, yaml.CSafeLoader, path)
    py = load_with(monkeypatch, yaml.SafeLoader, path)
    assert c == py
    assert c.listeners and c.routes and c.clusters


MALFORMED_YAML = [
    "listeners:\n  - name: web\n   bad indent: [\n",
    "listeners: [\n  {name: web\n",
    "listeners:\n  - name: 'web\n",
    "a: 1\n\tb: 2\n",
    "listeners:\n  - name: web\n    dip: *nowhere\n",
    "a: 1\n- b\n",
    "routes:\n  - listener: web\n    cluster: {ref: [x}\n",
]


@needs_libyaml
@pytest.mark.parametrize("doc", MALFORMED_YAML)
def test_c_and_python_loaders_report_the_same_line(monkeypatch, doc):
    lines = []
    for loader in (yaml.CSafeLoader, yaml.SafeLoader):
        with pytest.raises(ParseError) as exc:
            load_with(monkeypatch, loader, doc)
        lines.append(exc.value.line)
    assert lines[0] is not None
    assert lines[0] == lines[1]


@pytest.mark.parametrize("nodes", [
    "[toe, http_parser, toe]",   # a repeated id
    "[toe, warp_drive]",         # an unknown id
])
def test_chain_checked_against_standard_layers(nodes):
    with pytest.raises(InvalidChain):
        load_config(config_text() + f"chain:\n  nodes: {nodes}\n")
    every = "[toe, http_parser, filter, router, http_deparser]"
    assert load_config(config_text() + f"chain:\n  nodes: {every}\n") == (
        load_config(config_text()))


def test_config_error_is_common_base():
    assert issubclass(ParseError, ConfigError)
    assert issubclass(DanglingClusterRef, ConfigError)
    assert issubclass(InvalidChain, ConfigError)


def test_missing_chain_defaults():
    rt = MeshRuntime(load_config(config_text()))
    assert rt.chain.order == ["toe", "http_parser", "filter", "router",
                              "http_deparser"]
    rt.shutdown()


def test_standard_chain_names_every_registered_ppm():
    """One tuple is both the ids of the registered PPMs and the chain."""
    rt = MeshRuntime()
    assert set(rt.registry) == set(STANDARD_CHAIN)
    assert rt.chain.order == list(STANDARD_CHAIN)
    rt.shutdown()


# -- table ownership ---------------------------------------------------------

def test_runtime_table_ownership_layout():
    rt = MeshRuntime(config=None)
    assert rt.listener_table.owner == "connection"
    for t in (rt.filter_table, rt.route_table, rt.cluster_table):
        assert t.owner == "message"
    with pytest.raises(MatchActionError):
        rt.cluster_table.publish({}, writer="connection")
    rt.shutdown()


def test_owned_table_refuses_a_write_that_names_no_writer():
    rt = MeshRuntime(config=load_config(config_text()))
    epoch = rt.cluster_table.epoch
    with pytest.raises(MatchActionError):
        rt.cluster_table.publish({}, None)
    assert rt.cluster_table.epoch == epoch
    rt.shutdown()


# -- distribution ------------------------------------------------------------

def test_distribute_returns_epochs_and_installs_rules():
    cfg = load_config(config_text())
    rt = MeshRuntime(config=None)
    epochs = rt.distribute(cfg)
    assert epochs["listeners"] == 1
    assert epochs["filters"] == 1
    lkey = (ip4_to_int("10.0.0.2"), 8080)
    assert rt.listener_table.current.entries[lkey] == "web"
    # the listener and route tables are keyed by the same (dip, dport)
    (listener_key,), (route_key,) = (rt.listener_table.current.entries,
                                     rt.route_table.current.entries)
    assert listener_key == route_key == lkey
    # the configured rules alone: a request none matches is allowed by
    # `filter_apply`, not by an appended catch-all rule
    rules = rt.filter_table.current.entries["rules"]
    assert rules == tuple(cfg.filters)
    assert [r.decision for r in rules] == [Decision.DENY]
    rt.shutdown()


def test_redistribute_removes_stale_entries():
    rt = MeshRuntime(config=load_config(config_text()))
    old_key = (ip4_to_int("10.0.0.2"), 8080)
    cfg2 = load_config(config_text(dip="10.0.0.3", dport=9090))
    epochs = rt.distribute(cfg2)
    entries = rt.listener_table.current.entries
    assert old_key not in entries
    assert entries[(ip4_to_int("10.0.0.3"), 9090)] == "web"
    assert epochs["listeners"] == 2
    rt.shutdown()


# -- slow-path handling ------------------------------------------------------

def make_frame(payload, flow=None, conn_id=1, seq=0):
    return TrafficUnit(
        kind=UnitKind.FRAME,
        meta=Metadata(flow=flow or make_flow(), conn_id=conn_id),
        payload=payload,
        seq=seq,
    )


@pytest.fixture
def runtime():
    rt = MeshRuntime(config=load_config(config_text()))
    yield rt
    rt.shutdown()


def test_new_connection_opens_and_delivers_in_one_ingress(runtime, monkeypatch):
    """A first packet is one `ingress` call: the slow path opens the flow
    once, counting nothing of its own, and the frame goes on to delivery in
    the same call."""
    calls = []
    real = runtime.fast_path.ingress

    def counting_ingress(unit):
        calls.append(unit)
        return real(unit)

    monkeypatch.setattr(runtime.fast_path, "ingress", counting_ingress)
    flow = make_flow()
    assert runtime.fast_path.ingress(
        make_frame(make_request(b"/svc/a"), flow)) == "l7"
    assert len(calls) == 1
    assert flow in runtime.fast_path.toe.connections
    assert runtime.conns[flow].endpoint is not None
    snap = runtime.stats_snapshot()
    assert "slow_path" not in snap
    assert snap["fast_path"]["ingress"] == snap["fast_path"]["slow_path"] == 1
    assert snap["fast_path"]["msg_egress"] == 1


def assert_refused(rt, reason, status):
    """One message dropped for `reason`, counted once with its HTTP status
    by the fast path; no frame was dropped."""
    c = rt.fast_path.counters()
    assert c["msg_dropped"] == c[f"msg_dropped.{reason}"] == 1
    assert c[f"status.{status}"] == 1
    assert "dropped" not in c


def test_unknown_listener_404(runtime):
    """A message on a flow whose listener is not published is dropped as
    `no_listener` and counted with its 404."""
    flow = make_flow(dport=9999)
    runtime.fast_path.message(make_message(make_request(), flow))
    assert_refused(runtime, "no_listener", 404)


def test_no_route_dropped_with_reason(runtime):
    flow = make_flow(sport=41234)
    runtime.fast_path.ingress(make_frame(make_request(b"/missing"), flow, conn_id=9))
    assert_refused(runtime, "no_route", 404)


def test_no_healthy_endpoint_503(runtime):
    runtime.distribute(load_config(config_text(unhealthy=(9001, 9002))))
    flow = make_flow(sport=42000)
    runtime.fast_path.ingress(make_frame(make_request(b"/svc/a"), flow, conn_id=3))
    assert_refused(runtime, "no_healthy_endpoint", 503)


def test_connect_failure_answered_502():
    def refuse(endpoint, msg):
        raise ConnectFailure("refused")

    rt = MeshRuntime(config=load_config(config_text()), connector=refuse)
    rt.fast_path.ingress(make_frame(make_request(b"/svc/a"), make_flow(sport=42100)))
    assert_refused(rt, "connect_failure", 502)
    # no connection opened, so none is counted
    snap = rt.stats_snapshot()
    assert snap["endpoint_assignments"] == {}
    assert "load_balance_calls" not in snap["fast_path"]
    rt.shutdown()


def test_unknown_cluster_answered_502(runtime):
    runtime.cluster_table.publish({}, writer="message")
    runtime.fast_path.ingress(make_frame(make_request(b"/svc/a"), make_flow(sport=42200)))
    assert_refused(runtime, "unknown_cluster", 502)


def test_slow_path_frame_for_unconfigured_listener_dropped(runtime):
    """The slow path opens no flow to an unpublished listener and counts
    nothing; the fast path drops the frame as `no_listener`, where it
    counts a refused segment."""
    flow = make_flow(dport=7777)
    assert runtime.handle_slow_path(make_frame(b"x", flow)) is None
    assert flow not in runtime.conns
    assert flow not in runtime.fast_path.toe.connections
    assert runtime.fast_path.counters() == {}
    unit = make_frame(b"x", flow)
    assert runtime.fast_path.ingress(unit) == "dropped"
    assert unit.meta.verdict_reason == "no_listener"
    assert flow not in runtime.conns
    assert runtime.fast_path.counters() == {
        "ingress": 1, "slow_path": 1, "dropped": 1, "dropped.no_listener": 1}


def test_every_handoff_has_one_disposition(runtime):
    """The slow path takes first packets only, and each one once: every
    frame the fast path hands it opens its flow or is dropped as
    `no_listener`.  A refused message is no handoff."""
    runtime.fast_path.ingress(make_frame(make_request(), make_flow(dport=7777)))
    runtime.fast_path.ingress(make_frame(make_request(), make_flow(sport=44001)))
    runtime.fast_path.ingress(make_frame(MALFORMED, make_flow(sport=44002)))
    runtime.distribute(load_config(config_text(unhealthy=(9001, 9002))))
    runtime.fast_path.ingress(make_frame(make_request(), make_flow(sport=44003)))
    c = runtime.fast_path.counters()
    assert c["ingress"] == c["slow_path"] == 4
    assert c["dropped"] == c["dropped.no_listener"] == 1
    assert len(runtime.fast_path.toe.connections) == 3
    assert c["msg_dropped"] == 2  # the malformed one and the unhealthy one


def test_malformed_request_answered_400(runtime):
    runtime.fast_path.ingress(make_frame(MALFORMED, make_flow(sport=44010)))
    assert_refused(runtime, "malformed_http", 400)


@pytest.mark.parametrize("line", [
    b"<script>alert(1)</script>",
    b"\xff\xfe\x00 \x1b[2J\r",
    b": empty name",
], ids=["markup", "control_bytes", "empty_name"])
def test_hostile_header_line_counts_only_its_reason(runtime, line):
    """A bad header line's bytes may go into the verdict reason, but a
    counter is named by the reason before its ':' -- the input names none."""
    raw = b"GET /svc/a HTTP/1.1\r\nHost: x\r\n" + line + b"\r\n\r\n"
    unit = runtime.fast_path.message(make_message(raw, make_flow(sport=44020)))
    assert unit.verdict_reason.startswith("malformed_http:bad header line")
    assert runtime.fast_path.counters() == {
        "msg_submitted": 1, "msg_dropped": 1, "msg_dropped.malformed_http": 1,
        "status.400": 1}


def test_duplicate_host_is_refused_as_malformed():
    """A request with a second Host line (RFC 9112 section 3.2) is a 400,
    `malformed_http`, before the filter reads its Host: `Host: internal`
    then `Host: x` does not pass a deny rule on `host: internal` by its
    last line, and reaches no service.  One Host line of either value is
    judged by the filter."""
    rt = MeshRuntime(config=load_config(host_denied_config_text()))
    assert rt.fast_path.ingress(
        make_frame(DUPLICATE_HOST, make_flow(sport=44040))) == "l7"
    assert_refused(rt, "malformed_http", 400)
    assert rt.vqs == {}
    for sport, host in ((44041, b"internal"), (44042, b"x")):
        rt.fast_path.ingress(
            make_frame(make_request(host=host), make_flow(sport=sport)))
    c = rt.fast_path.counters()
    assert c["msg_dropped.filter"] == c["msg_egress"] == 1
    rt.shutdown()


def test_filtered_and_unrouted_requests_are_counted_with_their_status(runtime):
    """New flows to a denied path, an unrouted one and a routed one: the
    403 and the 404 are counted, as live mode answers them, and the three
    first packets are counted once each, as `slow_path`."""
    for sport, path in ((44030, b"/nowhere"), (44031, b"/admin/x"),
                        (44032, b"/svc/a")):
        runtime.fast_path.ingress(
            make_frame(make_request(path), make_flow(sport=sport)))
    c = runtime.fast_path.counters()
    assert c["status.403"] == c["status.404"] == 1
    assert c["msg_egress"] == 1
    assert c["ingress"] == c["slow_path"] == 3
    assert "dropped" not in c


def test_connection_end_to_end_uses_vq(runtime):
    flow = make_flow(sport=43000)
    raw = make_request(b"/svc/a", body=b"ping")
    runtime.fast_path.ingress(make_frame(raw, flow))
    qid = runtime.queue_table.lookup(flow)
    assert runtime.vqs[qid].stub_fetch(runtime.stubs[qid]) == raw
    assert runtime.conns[flow].endpoint is not None


def test_expire_idle_closes_and_uninstalls(runtime):
    flow = make_flow(sport=44000)
    runtime.fast_path.ingress(make_frame(make_request(b"/svc/a"), flow))
    rec = runtime.conns[flow]
    now = rec.last_active + IDLE_TIMEOUT_NS + 1
    qid = runtime.queue_table.lookup(flow)
    q = runtime.vqs[qid]
    runtime.expire_idle(now=now)
    assert flow not in runtime.conns
    assert rec.lb is runtime.lb["backend"] and rec.lb.conns == {}
    assert runtime.queue_table.lookup(flow) is None
    # the flow's queue, stub and TOE state are released too
    assert qid not in runtime.vqs
    assert qid not in runtime.stubs
    assert flow not in runtime.fast_path.toe.connections
    assert q.state is VqState.CLOSED
    # the 4-tuple connecting again gets a fresh queue, not the closed one
    raw = make_request(b"/svc/a")
    runtime.fast_path.ingress(make_frame(raw, flow))
    new_qid = runtime.queue_table.lookup(flow)
    assert new_qid != qid
    assert runtime.vqs[new_qid].stub_fetch(runtime.stubs[new_qid]) == raw


def test_idle_expiry_counts_from_last_activity():
    """A flow that delivers a request every 30 s is not idle: expiry counts
    from its last egress, not from when it opened."""
    now = [0]
    rt = MeshRuntime(config=load_config(config_text()), clock=lambda: now[0])
    flow = make_flow(sport=44100)
    seq = 0
    for t in (0, 30, 60):
        now[0] = t * 1_000_000_000
        raw = make_request(b"/svc/a")
        rt.fast_path.ingress(make_frame(raw, flow, seq=seq))
        seq += len(raw)
    rt.expire_idle(now=90 * 1_000_000_000)
    assert flow in rt.conns
    assert rt.queue_table.lookup(flow) is not None
    assert rt.lb["backend"].conns == {rt.conns[flow].endpoint.address: 1}
    rt.expire_idle(now=60 * 1_000_000_000 + IDLE_TIMEOUT_NS + 1)
    assert flow not in rt.conns
    assert rt.queue_table.lookup(flow) is None
    assert rt.lb["backend"].conns == {}
    rt.shutdown()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 20).flatmap(lambda n: st.tuples(
    st.just(n), st.permutations(range(n)), st.integers(0, n))))
def test_expire_idle_closes_exactly_the_idle_and_keeps_order(case):
    """N flows open at 0 s; N - k of them, in some order, send again at
    30 s.  Expiry at one timeout closes exactly the k idle ones, and the
    records left are in the order of their activity, as before it."""
    n, order, k = case
    rt, now = clocked_runtime()
    flows = [make_flow(sport=44200 + i) for i in range(n)]
    seqs = [0] * n
    raw = make_request(b"/svc/a")

    def send(i):
        rt.fast_path.ingress(make_frame(raw, flows[i], seq=seqs[i]))
        seqs[i] += len(raw)

    for i in range(n):
        send(i)
    now[0] = 30 * 1_000_000_000
    active = order[k:]
    for i in active:
        send(i)
    before = list(rt.conns)
    idle = sorted(order[:k])  # in the order they opened
    assert before == [flows[i] for i in idle] + [flows[i] for i in active]
    rt.expire_idle(now=IDLE_TIMEOUT_NS + 1)
    assert list(rt.conns) == [flows[i] for i in active]
    for i in idle:
        assert flows[i] not in rt.fast_path.toe.connections
        assert rt.queue_table.lookup(flows[i]) is None
    assert len(rt.fast_path.toe.connections) == len(rt.vqs) == n - k
    rt.shutdown()


def test_expire_idle_stops_at_the_first_active_record():
    """Expiry walks records oldest first and stops at the first one still
    active: a later record is not looked at, however old it claims to be."""
    rt, now = clocked_runtime()
    flows = [make_flow(sport=44300 + i) for i in range(3)]
    for i, t in enumerate((0, 30, 30)):
        now[0] = t * 1_000_000_000
        rt.fast_path.ingress(make_frame(make_request(b"/svc/a"), flows[i]))
    rt.conns[flows[2]].last_active = 0  # out of order, on purpose
    rt.expire_idle(now=IDLE_TIMEOUT_NS + 1)
    assert list(rt.conns) == flows[1:]
    rt.shutdown()


def test_shutdown_closes_every_queue():
    rt = MeshRuntime(config=load_config(config_text()))
    for i in range(3):
        rt.fast_path.ingress(
            make_frame(make_request(b"/svc/a"), make_flow(sport=45100 + i)))
    assert len(rt.vqs) == 3
    rt.shutdown()
    assert all(q.state is VqState.CLOSED for q in rt.vqs.values())


def test_stats_snapshot_shape(runtime):
    for i in range(4):
        runtime.fast_path.ingress(
            make_frame(make_request(b"/svc/a"), make_flow(sport=45000 + i))
        )
    snap = runtime.stats_snapshot()
    assert set(snap) == {"version", "fast_path", "table_epochs",
                         "endpoint_assignments", "connections"}
    assert snap["version"] == 1
    assert snap["connections"].get("open", 0) == 4
    assert sum(snap["endpoint_assignments"].values()) == 4
    # round robin over two endpoints
    assert sorted(snap["endpoint_assignments"].values()) == [2, 2]


# -- flow lifecycle ----------------------------------------------------------

S = 1_000_000_000

MALFORMED = b"BOGUS\r\nHost: x\r\n\r\n"
REQUESTS = {
    "allowed": make_request(b"/svc/a"),
    "denied": make_request(b"/admin/x"),
    "unrouted": make_request(b"/missing"),
    "malformed": MALFORMED,
}


def clocked_runtime(text=None):
    now = [0]
    rt = MeshRuntime(config=load_config(text or config_text()),
                     clock=lambda: now[0])
    return rt, now


def assert_released(rt, *states):
    """Nothing a flow takes is left: records, tables, queues, TOE state,
    buffers and LB counts, in `rt.lb` and in the `states` given."""
    assert rt.conns == {}
    assert rt.vqs == {} and rt.stubs == {}
    assert len(rt.queue_table) == 0
    assert rt.fast_path.toe.connections == {}
    assert len(rt.buffer_pool) == 0
    assert [s.conns for s in (*rt.lb.values(), *states)] == [{}] * (
        len(rt.lb) + len(states))


def test_each_new_flow_makes_one_record(monkeypatch):
    made = []
    real = slow_path.Conn

    def counting(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(slow_path, "Conn", counting)
    rt, _ = clocked_runtime()
    for i in range(100):
        rt.fast_path.ingress(
            make_frame(make_request(b"/svc/a"), make_flow(sport=46000 + i)))
    assert len(made) == len(rt.conns) == 100
    assert all(rec.endpoint is not None for rec in rt.conns.values())
    assert sum(rt.lb["backend"].conns.values()) == 100
    rt.shutdown()


def test_flows_that_never_connect_are_released_on_expiry():
    rt, now = clocked_runtime()
    kinds = ("denied", "unrouted", "malformed")
    for i in range(99):
        rt.fast_path.ingress(make_frame(REQUESTS[kinds[i % 3]],
                                        make_flow(sport=47000 + i)))
    assert len(rt.conns) == len(rt.fast_path.toe.connections) == 99
    assert rt.vqs == {}
    now[0] = IDLE_TIMEOUT_NS + 1
    rt.expire_idle()
    assert_released(rt)
    rt.shutdown()


def test_close_flow_drops_the_record_last():
    """A live flow is closed on the loop thread while another thread may
    read `conns` (a stats reader, a test waiting for the close), and the
    queue's close can release the interpreter lock: the record leaves
    `conns` after everything it holds, so a flow missing from `conns`
    holds nothing."""
    rt, _now = clocked_runtime()
    flow = make_flow(sport=48990)
    rt.fast_path.ingress(make_frame(make_request(b"/svc/a"), flow))
    q = rt.conns[flow].queue
    seen = []
    real_close = q.close

    def close():
        seen.append(flow in rt.conns)
        real_close()

    q.close = close
    rt.close_flow(flow)
    assert seen == [True]
    assert_released(rt)
    rt.shutdown()


def test_least_conn_counts_drop_when_flows_close():
    """A and C (on backend-0) expire while B (backend-1) stays active, so
    the next flow D goes to backend-0: the counts are of open flows."""
    rt, now = clocked_runtime(config_text(policy="LEAST_CONN"))
    flows = {name: make_flow(sport=48000 + i) for i, name in enumerate("ABCD")}
    raw = make_request(b"/svc/a")

    def send(name, seq=0):
        rt.fast_path.ingress(make_frame(raw, flows[name], seq=seq))
        return rt.conns[flows[name]].endpoint.id

    assert [send("A"), send("B"), send("C")] == [
        "backend-0", "backend-1", "backend-0"]
    now[0] = 30 * S
    send("B", seq=len(raw))
    now[0] = IDLE_TIMEOUT_NS + 1
    rt.expire_idle()
    assert send("D") == "backend-0"
    assert set(rt.conns) == {flows["B"], flows["D"]}
    now[0] = 10 * IDLE_TIMEOUT_NS
    rt.expire_idle()
    assert_released(rt)
    rt.shutdown()


def open_flows(rt, sports):
    """Open one flow per source port with a GET; the endpoint ids they
    were balanced to."""
    raw = make_request(b"/svc/a")
    picks = []
    for sport in sports:
        flow = make_flow(sport=sport)
        rt.fast_path.ingress(make_frame(raw, flow))
        picks.append(rt.conns[flow].endpoint.id)
    return picks


def test_round_robin_continues_across_an_unchanged_reload():
    rt, _now = clocked_runtime()
    assert open_flows(rt, range(48100, 48103)) == [
        "backend-0", "backend-1", "backend-0"]
    epochs = rt.stats_snapshot()["table_epochs"]
    rt.distribute(load_config(config_text()))
    assert rt.stats_snapshot()["table_epochs"] == epochs
    assert open_flows(rt, range(48103, 48105)) == ["backend-1", "backend-0"]
    rt.shutdown()


def test_least_conn_counts_survive_an_unchanged_reload():
    """With 4 flows open at 2/2, the same config loaded again keeps the
    counts, so the next two flows go one to each endpoint, and closing
    every flow brings both back to 0."""
    text = config_text(policy="LEAST_CONN")
    rt, now = clocked_runtime(text)
    assert open_flows(rt, range(48200, 48204)) == ["backend-0", "backend-1"] * 2
    state = rt.lb["backend"]
    rt.distribute(load_config(text))
    (cluster,) = rt.cluster_table.current.entries.values()
    # the config the runtime holds is the config the table routes with
    assert rt.config.clusters == [cluster] and rt.lb == {"backend": state}
    assert [state.conns[e.address] for e in cluster.endpoints] == [2, 2]
    assert sorted(open_flows(rt, range(48204, 48206))) == [
        "backend-0", "backend-1"]
    assert [state.conns[e.address] for e in cluster.endpoints] == [3, 3]
    now[0] = IDLE_TIMEOUT_NS + 1
    rt.expire_idle()
    assert_released(rt)
    rt.shutdown()


def test_least_conn_counts_survive_a_changed_reload():
    """4 flows open while backend-1 is unhealthy all go to backend-0; a
    reload that makes backend-1 healthy keeps backend-0's count, as its
    address is unchanged, so the next 4 flows all go to backend-1."""
    rt, now = clocked_runtime(config_text(policy="LEAST_CONN",
                                          unhealthy=(9002,)))
    assert open_flows(rt, range(48300, 48304)) == ["backend-0"] * 4
    rt.distribute(load_config(config_text(policy="LEAST_CONN")))
    assert rt.stats_snapshot()["table_epochs"]["clusters"] == 2
    assert open_flows(rt, range(48304, 48308)) == ["backend-1"] * 4
    (cluster,) = rt.cluster_table.current.entries.values()
    assert [rt.lb["backend"].conns[e.address] for e in cluster.endpoints] == [
        4, 4]
    now[0] = IDLE_TIMEOUT_NS + 1
    rt.expire_idle()
    assert_released(rt)
    rt.shutdown()


def test_published_clusters_are_frozen(runtime):
    """The cluster table holds config only: no field of a Cluster or an
    Endpoint it publishes can be assigned, before or after traffic."""
    open_flows(runtime, range(48400, 48403))
    for cluster in runtime.cluster_table.current.entries.values():
        for obj in (cluster, *cluster.endpoints):
            for f in fields(obj):
                with pytest.raises(FrozenInstanceError):
                    setattr(obj, f.name, getattr(obj, f.name))


def test_reload_that_drops_a_cluster_drops_its_state():
    """A reload whose config lacks a cluster ref drops that ref's LbState
    from the runtime; the flows pinned to the dropped cluster keep it
    through their records, and closing them leaves no count behind."""
    rt, _now = clocked_runtime()
    open_flows(rt, range(48500, 48503))
    dropped = rt.lb["backend"]
    assert sum(dropped.conns.values()) == 3
    rt.distribute(load_config(config_text().replace("backend", "other")))
    assert set(rt.lb) == {"other"}
    assert open_flows(rt, [48503]) == ["other-0"]
    assert {rec.lb is dropped for rec in rt.conns.values()} == {True, False}
    for flow in list(rt.conns):
        rt.close_flow(flow)
    assert_released(rt, dropped)
    rt.shutdown()


def test_flow_resumed_after_expiry_is_held_then_released():
    """A flow resuming mid-stream after expiry looks like a swapped first
    pair: its segments wait in the reorder buffer, those past it are dropped
    as out_of_window, and the next expiry releases the flow."""
    rt, now = clocked_runtime()
    flow = make_flow(sport=49000)
    raw = make_request(b"/svc/a")
    rt.fast_path.ingress(make_frame(raw, flow))
    now[0] = IDLE_TIMEOUT_NS + 1
    rt.expire_idle()
    assert flow not in rt.conns
    for i in range(1, REORDER_BUFFER_SEGMENTS + 3):
        rt.fast_path.ingress(make_frame(raw, flow, seq=i * len(raw)))
    c = rt.fast_path.counters()
    assert c["buffered"] == REORDER_BUFFER_SEGMENTS
    assert c["dropped"] == c["dropped.out_of_window"] == 2
    assert c["msg_egress"] == 1  # the request before expiry, nothing after
    assert rt.vqs == {}
    assert flow in rt.conns
    rt.expire_idle()  # not idle for a full timeout since it resumed
    assert flow in rt.conns
    now[0] = 2 * IDLE_TIMEOUT_NS + 2
    rt.expire_idle()
    assert_released(rt)
    rt.shutdown()


_FLOWS = [make_flow(sport=50000 + i) for i in range(4)]
_STEPS = st.one_of(
    st.tuples(st.just("send"), st.integers(0, len(_FLOWS) - 1),
              st.sampled_from(sorted(REQUESTS))),
    st.tuples(st.just("expire"), st.sampled_from([1, 30, 61])),
    st.tuples(st.just("close"), st.integers(0, len(_FLOWS) - 1)),
    # an equal config loaded again, an endpoint dropped, one added
    st.tuples(st.just("reload"),
              st.sampled_from([(9001, 9002), (9001,), (9001, 9002, 9003)])),
)


@settings(max_examples=150, deadline=None)
@given(steps=st.lists(_STEPS, max_size=40))
def test_flow_lifecycle_property(steps):
    """Over any sequence of sends, expiries, closes and reloads, only open
    flows hold state, the open counts in `rt.lb` are the records routed,
    per endpoint address, and expiry past every timeout releases
    everything."""
    rt, now = clocked_runtime()
    seqs = [0] * len(_FLOWS)
    for step in steps:
        if step[0] == "send":
            _, i, kind = step
            rt.fast_path.ingress(make_frame(REQUESTS[kind], _FLOWS[i], seq=seqs[i]))
            seqs[i] += len(REQUESTS[kind])
        elif step[0] == "expire":
            now[0] += step[1] * S
            rt.expire_idle()
        elif step[0] == "close":
            rt.close_flow(_FLOWS[step[1]])
            seqs[step[1]] = 0  # the client opens the 4-tuple afresh
        else:
            rt.distribute(load_config(config_text(endpoint_ports=step[1])))
        for flow in _FLOWS:
            if flow not in rt.conns:
                assert rt.queue_table.lookup(flow) is None
                assert flow not in rt.fast_path.toe.connections
        assert len(rt.vqs) == len(rt.stubs) == len(rt.queue_table)
        assert len(rt.buffer_pool) == 0
        routed = [rec for rec in rt.conns.values() if rec.endpoint is not None]
        assert sum(n for s in rt.lb.values() for n in s.conns.values()) == len(
            routed)
        assert rt.lb["backend"].conns == Counter(
            rec.endpoint.address for rec in routed)
    now[0] += IDLE_TIMEOUT_NS + 1
    rt.expire_idle()
    assert_released(rt)
    rt.shutdown()
