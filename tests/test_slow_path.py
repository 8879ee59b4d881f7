import io

import pytest

from flatproxy.core import Metadata, TrafficUnit, UnitKind, make_listener_key
from flatproxy.l7 import Decision, LbPolicy, MatchKind
from flatproxy.slow_path import (
    ConfigError,
    ConnRecord,
    ConnState,
    Controller,
    DanglingClusterRef,
    IDLE_TIMEOUT_NS,
    InvalidChain,
    MeshRuntime,
    ParseError,
    load_config,
)
from flatproxy.match_action import MatchActionError, MatchTable
from flatproxy.vq import VqState
from conftest import config_text, make_flow, make_request


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
    assert cfg.chain.nodes == ["toe", "http_parser", "filter", "router",
                               "http_deparser"]
    assert cfg.cost_profile == "flatproxy_l7"


def test_load_config_accepts_text_bytes_and_file():
    text = config_text()
    for source in (text, text.encode(), io.StringIO(text)):
        cfg = load_config(source)
        assert cfg.listeners[0].name == "web"


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


def test_config_error_is_common_base():
    assert issubclass(ParseError, ConfigError)
    assert issubclass(DanglingClusterRef, ConfigError)
    assert issubclass(InvalidChain, ConfigError)


def test_missing_chain_defaults():
    cfg = load_config(config_text())
    assert cfg.chain.nodes == ["toe", "http_parser", "filter", "router",
                               "http_deparser"]


# -- connection records ------------------------------------------------------

def test_conn_state_machine():
    rec = ConnRecord(conn_key=make_flow())
    assert rec.state is ConnState.OPENING
    rec.transition(ConnState.OPEN)
    with pytest.raises(ValueError):
        rec.transition(ConnState.OPENING)
    rec.transition(ConnState.CLOSING)
    rec.transition(ConnState.CLOSED)
    with pytest.raises(ValueError):
        rec.transition(ConnState.OPEN)


# -- controllers and ownership -----------------------------------------------

def test_controller_ownership_exclusive():
    t = MatchTable("t")
    a = Controller("a", "L7")
    b = Controller("b", "L7")
    a.own(t)
    with pytest.raises(MatchActionError):
        b.own(t)
    with pytest.raises(MatchActionError):
        b.publish(t, add={"x": 1})
    a.publish(t, add={"x": 1})
    assert t.lookup("x") == 1


def test_runtime_table_ownership_layout():
    rt = MeshRuntime(config=None)
    assert rt.l2_table.owner == "ovs"
    for t in (rt.l3_table, rt.l4_table, rt.listener_table):
        assert t.owner == "connection"
    for t in (rt.filter_table, rt.route_table, rt.cluster_table):
        assert t.owner == "message"
    rt.shutdown()


# -- distribution ------------------------------------------------------------

def test_distribute_returns_epochs_and_installs_rules():
    cfg = load_config(config_text())
    rt = MeshRuntime(config=None)
    epochs = rt.distribute(cfg)
    assert epochs["listeners"] == 1
    assert epochs["filters"] == 1
    lkey = make_listener_key("10.0.0.2", 8080)
    assert rt.listener_table.lookup(lkey) == "web"
    rules = rt.filter_table.snapshot().entries["rules"]
    # explicit rules first, catch-all ALLOW last
    assert rules[0].decision is Decision.DENY
    assert rules[-1].decision is Decision.ALLOW
    assert rules[-1].path_prefix is None
    rt.shutdown()


def test_redistribute_removes_stale_entries():
    rt = MeshRuntime(config=load_config(config_text()))
    old_key = make_listener_key("10.0.0.2", 8080)
    cfg2 = load_config(config_text(dip="10.0.0.3", dport=9090))
    epochs = rt.distribute(cfg2)
    assert rt.listener_table.lookup(old_key) == rt.listener_table.default
    assert rt.listener_table.lookup(make_listener_key("10.0.0.3", 9090)) == "web"
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


def test_new_connection_installs_and_reinjects(runtime):
    flow = make_flow()
    runtime.fast_path.ingress(make_frame(make_request(b"/svc/a"), flow))
    assert runtime.l4_table.lookup(flow) != runtime.l4_table.default
    rec = runtime.conns[flow]
    assert rec.state in (ConnState.OPENING, ConnState.OPEN)
    snap = runtime.stats_snapshot()
    assert snap["slow_path"]["reinjected"] == 1
    assert snap["fast_path"]["msg_egress"] == 1


def test_unknown_listener_404(runtime):
    flow = make_flow(dport=9999)
    disp = runtime.handle_slow_path(
        make_frame(make_request(), flow, conn_id=5), "no_listener"
    )
    assert disp == "responded"
    slow = runtime.stats_snapshot()["slow_path"]
    assert slow["status.404"] == slow["reason.no_listener"] == 1
    assert slow["responded"] == 1


def test_no_route_dropped_with_reason(runtime):
    flow = make_flow(sport=41234)
    runtime.fast_path.ingress(make_frame(make_request(b"/missing"), flow, conn_id=9))
    dropped = [u for u, _ in runtime.fast_path.results()
               if u.meta.verdict_reason == "no_route"]
    assert len(dropped) == 1
    assert runtime.fast_path.counters()["msg_dropped"] == 1


def test_no_healthy_endpoint_503(runtime):
    for c in runtime.config.clusters:
        for e in c.endpoints:
            e.healthy = False
    runtime.distribute(runtime.config)
    flow = make_flow(sport=42000)
    runtime.fast_path.ingress(make_frame(make_request(b"/svc/a"), flow, conn_id=3))
    slow = runtime.stats_snapshot()["slow_path"]
    assert slow["status.503"] == slow["reason.no_healthy_endpoint"] == 1
    assert slow["responded"] == 1


def test_slow_path_frame_for_unconfigured_listener_dropped(runtime):
    flow = make_flow(dport=7777)
    disp = runtime.handle_slow_path(make_frame(b"x", flow), "new_connection")
    assert disp == "dropped"
    assert flow not in runtime.conns


def test_connection_end_to_end_uses_vq(runtime):
    flow = make_flow(sport=43000)
    raw = make_request(b"/svc/a", body=b"ping")
    runtime.fast_path.ingress(make_frame(raw, flow))
    rec = runtime.conns[flow]
    q = runtime.vqs[rec.vq]
    stub = runtime.stubs[rec.vq]
    assert q.stub_fetch(stub) == raw
    assert rec.endpoint is not None


def test_expire_idle_closes_and_uninstalls(runtime):
    flow = make_flow(sport=44000)
    runtime.fast_path.ingress(make_frame(make_request(b"/svc/a"), flow))
    rec = runtime.conns[flow]
    assert rec.state is ConnState.OPEN
    now = rec.last_active + IDLE_TIMEOUT_NS + 1
    q = runtime.vqs[rec.vq]
    runtime.expire_idle(now=now)
    assert rec.state is ConnState.CLOSING
    assert runtime.l4_table.lookup(flow) == runtime.l4_table.default
    assert runtime.queue_table.lookup(flow) is None
    # the flow's queue, stub and TOE state are released too
    assert rec.vq not in runtime.vqs
    assert rec.vq not in runtime.stubs
    assert flow not in runtime.fast_path.toe.connections
    assert q.state is VqState.CLOSED
    # the 4-tuple connecting again gets a fresh queue, not the closed one
    raw = make_request(b"/svc/a")
    runtime.fast_path.ingress(make_frame(raw, flow))
    new = runtime.conns[flow]
    assert new.vq != rec.vq
    assert runtime.vqs[new.vq].stub_fetch(runtime.stubs[new.vq]) == raw


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
    assert rt.conns[flow].state is ConnState.OPEN
    rt.expire_idle(now=60 * 1_000_000_000 + IDLE_TIMEOUT_NS + 1)
    assert rt.conns[flow].state is ConnState.CLOSING
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
    assert set(snap) == {"fast_path", "slow_path", "table_epochs",
                         "endpoint_assignments", "connections"}
    assert snap["connections"].get("open", 0) == 4
    assert sum(snap["endpoint_assignments"].values()) == 4
    # round robin over two endpoints
    assert sorted(snap["endpoint_assignments"].values()) == [2, 2]
    assert snap["table_epochs"]["l4_flows"] >= 4
