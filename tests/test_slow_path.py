import io

import pytest
from hypothesis import given, settings, strategies as st

from flatproxy import slow_path
from flatproxy.core import Metadata, TrafficUnit, UnitKind, Verdict, make_listener_key
from flatproxy.fast_path import REORDER_BUFFER_SEGMENTS
from flatproxy.l7 import ConnectFailure, Decision, LbPolicy, MatchKind
from flatproxy.slow_path import (
    ConfigError,
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
    assert cfg.chain == ["toe", "http_parser", "filter", "router",
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


def test_chain_edges_field_rejected():
    """A chain is an ordered list of PPM ids; `edges` is an unknown field."""
    bad = config_text() + (
        "chain:\n  nodes: [toe, http_parser]\n"
        "  edges: [[toe, http_parser]]\n")
    with pytest.raises(ParseError) as exc:
        load_config(bad)
    assert exc.value.field_name == "edges"


def test_repeated_chain_node_rejected():
    bad = config_text() + "chain:\n  nodes: [toe, http_parser, toe]\n"
    with pytest.raises(InvalidChain):
        load_config(bad)


def test_config_error_is_common_base():
    assert issubclass(ParseError, ConfigError)
    assert issubclass(DanglingClusterRef, ConfigError)
    assert issubclass(InvalidChain, ConfigError)


def test_missing_chain_defaults():
    cfg = load_config(config_text())
    assert cfg.chain == ["toe", "http_parser", "filter", "router",
                         "http_deparser"]


# -- controllers and ownership -----------------------------------------------

def test_controller_ownership_exclusive():
    t = MatchTable("t")
    a = Controller("a")
    b = Controller("b")
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
    rules = rt.filter_table.current.entries["rules"]
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
    assert runtime.conns[flow].endpoint is not None
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
    c = runtime.fast_path.counters()
    assert c["msg_dropped.no_route"] == c["msg_dropped"] == 1


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


def assert_answered_502(rt, reason):
    slow = rt.stats_snapshot()["slow_path"]
    assert slow[f"reason.{reason}"] == 1
    assert slow["status.502"] == slow["responded"] == 1
    assert "dropped" not in slow


def test_connect_failure_answered_502():
    def refuse(endpoint, meta):
        raise ConnectFailure("refused")

    rt = MeshRuntime(config=load_config(config_text()), connector=refuse)
    rt.fast_path.ingress(make_frame(make_request(b"/svc/a"), make_flow(sport=42100)))
    assert_answered_502(rt, "connect_failure")
    rt.shutdown()


def test_unknown_cluster_answered_502(runtime):
    runtime.msg_controller.publish(runtime.cluster_table, remove=["backend"])
    runtime.fast_path.ingress(make_frame(make_request(b"/svc/a"), make_flow(sport=42200)))
    assert_answered_502(runtime, "unknown_cluster")


def test_deparse_failed_answered_502(runtime):
    unit = make_frame(make_request(b"/svc/a"), make_flow(sport=42300))
    unit.meta.set_verdict(Verdict.TO_SLOW_PATH, "deparse_failed")
    assert runtime.handle_slow_path(unit, "deparse_failed") == "responded"
    assert_answered_502(runtime, "deparse_failed")


def test_slow_path_frame_for_unconfigured_listener_dropped(runtime):
    flow = make_flow(dport=7777)
    disp = runtime.handle_slow_path(make_frame(b"x", flow), "new_connection")
    assert disp == "dropped"
    assert flow not in runtime.conns


def test_every_handoff_has_one_disposition(runtime):
    """Each unit handed to the slow path is counted once by reason and once
    by disposition: reinjected, responded or dropped."""
    runtime.fast_path.ingress(make_frame(make_request(), make_flow(dport=7777)))
    runtime.fast_path.ingress(make_frame(make_request(), make_flow(sport=44001)))
    runtime.fast_path.ingress(make_frame(MALFORMED, make_flow(sport=44002)))
    for e in endpoints_of(runtime.config):
        e.healthy = False
    runtime.distribute(runtime.config)
    runtime.fast_path.ingress(make_frame(make_request(), make_flow(sport=44003)))
    slow = runtime.stats_snapshot()["slow_path"]
    handoffs = sum(v for k, v in slow.items() if k.startswith("reason."))
    assert handoffs == 6
    assert handoffs == sum(slow.get(k, 0)
                           for k in ("reinjected", "responded", "dropped"))


def test_malformed_request_answered_400(runtime):
    runtime.fast_path.ingress(make_frame(MALFORMED, make_flow(sport=44010)))
    slow = runtime.stats_snapshot()["slow_path"]
    assert slow["reason.malformed_http"] == 1
    assert slow["status.400"] == slow["responded"] == 1
    assert "dropped" not in slow
    handoffs = sum(v for k, v in slow.items() if k.startswith("reason."))
    assert handoffs == slow["reinjected"] + slow["responded"]


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
    assert rec.endpoint.active_conns == 0
    assert runtime.l4_table.lookup(flow) == runtime.l4_table.default
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
    endpoint = rt.conns[flow].endpoint
    rt.expire_idle(now=60 * 1_000_000_000 + IDLE_TIMEOUT_NS + 1)
    assert flow not in rt.conns
    assert rt.queue_table.lookup(flow) is None
    assert endpoint.active_conns == 0
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


def endpoints_of(*configs):
    return [e for cfg in configs for c in cfg.clusters for e in c.endpoints]


def assert_released(rt, endpoints):
    """Nothing a flow takes is left: records, tables, queues, TOE state,
    buffers and LB counts."""
    assert rt.conns == {}
    assert rt.vqs == {} and rt.stubs == {}
    assert len(rt.queue_table) == 0
    assert rt.l4_table.current.entries == {}
    assert rt.fast_path.toe.connections == {}
    assert len(rt.buffer_pool) == 0
    assert [e.active_conns for e in endpoints] == [0] * len(endpoints)


def test_each_new_flow_makes_one_record(monkeypatch):
    made = []
    real = slow_path.ConnRecord

    def counting(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(slow_path, "ConnRecord", counting)
    rt, _ = clocked_runtime()
    for i in range(100):
        rt.fast_path.ingress(
            make_frame(make_request(b"/svc/a"), make_flow(sport=46000 + i)))
    assert len(made) == len(rt.conns) == 100
    assert all(rec.endpoint is not None for rec in rt.conns.values())
    assert sum(e.active_conns for e in endpoints_of(rt.config)) == 100
    rt.shutdown()


def test_flows_that_never_connect_are_released_on_expiry():
    rt, now = clocked_runtime()
    kinds = ("denied", "unrouted", "malformed")
    for i in range(99):
        rt.fast_path.ingress(make_frame(REQUESTS[kinds[i % 3]],
                                        make_flow(sport=47000 + i)))
    assert len(rt.conns) == len(rt.l4_table.current.entries) == 99
    assert len(rt.fast_path.toe.connections) == 99
    assert rt.vqs == {}
    now[0] = IDLE_TIMEOUT_NS + 1
    rt.expire_idle()
    assert_released(rt, endpoints_of(rt.config))
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
    assert_released(rt, endpoints_of(rt.config))
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
    assert_released(rt, endpoints_of(rt.config))
    rt.shutdown()


_FLOWS = [make_flow(sport=50000 + i) for i in range(4)]
_STEPS = st.one_of(
    st.tuples(st.just("send"), st.integers(0, len(_FLOWS) - 1),
              st.sampled_from(sorted(REQUESTS))),
    st.tuples(st.just("expire"), st.sampled_from([1, 30, 61])),
    st.tuples(st.just("close"), st.integers(0, len(_FLOWS) - 1)),
    st.tuples(st.just("reload"), st.booleans()),
)


@settings(max_examples=150, deadline=None)
@given(steps=st.lists(_STEPS, max_size=40))
def test_flow_lifecycle_property(steps):
    """Over any sequence of sends, expiries, closes and reloads, only open
    flows hold state, each endpoint's count is the records routed to it,
    and expiry past every timeout releases everything."""
    rt, now = clocked_runtime()
    configs = [rt.config]
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
            if step[1]:  # fresh Endpoint objects; old flows keep theirs
                configs.append(load_config(config_text()))
            rt.distribute(configs[-1])
        for flow in _FLOWS:
            if flow not in rt.conns:
                assert rt.queue_table.lookup(flow) is None
                assert flow not in rt.l4_table.current.entries
                assert flow not in rt.fast_path.toe.connections
        assert len(rt.vqs) == len(rt.stubs) == len(rt.queue_table)
        assert len(rt.buffer_pool) == 0
        assert sum(e.active_conns for e in endpoints_of(*configs)) == sum(
            rec.endpoint is not None for rec in rt.conns.values())
    now[0] += IDLE_TIMEOUT_NS + 1
    rt.expire_idle()
    assert_released(rt, endpoints_of(*configs))
    rt.shutdown()
