import itertools
import weakref

import pytest
from hypothesis import given, strategies as st

from flatproxy import core
from flatproxy.core import (
    Endpoint,
    FlowKey,
    Metadata,
    Proto,
    TrafficUnit,
    UnitKind,
    Verdict,
    make_listener_key,
)
from flatproxy.l7 import (
    Cluster,
    Decision,
    FilterRule,
    LbPolicy,
    MalformedHttp,
    MatchKind,
    NoHealthyEndpoint,
    PathMatcher,
    QueueTable,
    RouteRule,
    filter_apply,
    frame_http,
    http_deparse,
    http_parse,
    load_balance,
    parse_request_bytes,
    rewrite_host,
    route,
)
from flatproxy.vq import MAX_DESCRIPTOR_BYTES
from conftest import make_flow, make_request


def make_endpoint(i, weight=1, healthy=True):
    addr = FlowKey(sip=0, sport=0, dip=0x7F000001, dport=9000 + i, proto=Proto.TCP)
    return Endpoint(id=f"ep-{i}", address=addr, weight=weight, healthy=healthy)


def parsed_meta(payload, flow=None):
    unit = TrafficUnit(
        kind=UnitKind.MESSAGE, meta=Metadata(flow=flow or make_flow()),
        payload=payload,
    )
    http_parse(unit)
    return unit.meta


# -- parse / deparse ---------------------------------------------------------

def test_parse_basic_request():
    msg, body = parse_request_bytes(make_request(b"/svc/a", host=b"api", body=b"xy"))
    assert msg.method == b"GET"
    assert msg.url_path == b"/svc/a"
    assert msg.version == b"HTTP/1.1"
    assert msg.host == b"api"
    assert body == b"xy"


def test_parse_preserves_header_order():
    raw = (b"GET / HTTP/1.1\r\nB: 2\r\nA: 1\r\nHost: h\r\n\r\n")
    msg, _ = parse_request_bytes(raw)
    assert [n for n, _ in msg.headers] == [b"B", b"A", b"Host"]


@pytest.mark.parametrize("raw", [
    b"",
    b"GET / HTTP/1.1\r\nHost: h\r\n",           # no terminator
    b"GET /\r\n\r\n",                            # bad request line
    b"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n",    # bad header
    b"GET / HTTP/1.1\r\nContent-Length: zz\r\n\r\n",
    # a negative or signed length must not cut the body short instead
    b"GET / HTTP/1.1\r\nContent-Length: -3\r\n\r\nabcdef",
    b"GET / HTTP/1.1\r\nContent-Length: +3\r\n\r\nabcdef",
    b"GET / HTTP/1.1\r\nContent-Length: 1_0\r\n\r\n0123456789",
    b"GET / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
    # framing the proxy refuses: conflicting lengths, any transfer coding,
    # and messages larger than a VQ descriptor
    b"GET / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\nabcd",
    b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n",
    pytest.param(make_request(b"/", method=b"POST", body=b"x" * (70 * 1024)),
                 id="body_over_descriptor"),
    pytest.param(b"GET / HTTP/1.1\r\nX-Pad: " + b"a" * MAX_DESCRIPTOR_BYTES,
                 id="header_over_descriptor"),
])
def test_parse_rejects_malformed(raw):
    with pytest.raises(MalformedHttp):
        parse_request_bytes(raw)


def test_frame_http_gives_the_length_once_the_header_block_is_complete():
    raw = make_request(b"/svc/a", method=b"POST", body=b"0123456789")
    head = raw.index(b"\r\n\r\n") + 4
    assert frame_http(raw[:head - 1]) is None
    for cut in (head, head + 3, len(raw), len(raw) + 5):
        data = (raw + b"GET / HTTP/1.1\r\n")[:cut]
        assert frame_http(data)[0] == len(raw)
    assert frame_http(raw[:head + 3])[0] > len(raw[:head + 3])


def test_parse_rejects_incomplete_body():
    raw = make_request(b"/svc/a", method=b"POST", body=b"0123456789")
    for cut in (len(raw) - 10, len(raw) - 1):
        with pytest.raises(MalformedHttp, match="incomplete"):
            parse_request_bytes(raw[:cut])
    assert parse_request_bytes(raw)[1] == b"0123456789"


def test_parse_malformed_goes_to_slow_path_not_exception():
    unit = TrafficUnit(
        kind=UnitKind.MESSAGE, meta=Metadata(flow=make_flow()), payload=b"junk"
    )
    http_parse(unit)
    assert unit.meta.verdict is Verdict.TO_SLOW_PATH
    assert unit.meta.verdict_reason.startswith("malformed_http")
    assert unit.meta.http is None


def test_deparse_roundtrip_exact():
    raw = make_request(b"/svc/a", host=b"api", body=b"hello",
                       extra_headers=(b"X-Trace: abc",))
    meta = parsed_meta(raw)
    assert http_deparse(meta) == raw


_token = st.binary(min_size=1, max_size=12).filter(
    lambda b: not any(c in b for c in b"\r\n: ")
)


@given(
    path=st.binary(min_size=1, max_size=20).filter(
        lambda b: not any(c in b for c in b"\r\n ")
    ),
    headers=st.lists(st.tuples(_token, _token), max_size=5),
    body=st.binary(max_size=64),
)
def test_parse_deparse_roundtrip_property(path, headers, body):
    lines = [b"GET " + path + b" HTTP/1.1", b"Host: h"]
    lines += [n + b": " + v for n, v in headers]
    lines.append(b"Content-Length: " + str(len(body)).encode())
    raw = b"\r\n".join(lines) + b"\r\n\r\n" + body
    meta = parsed_meta(raw)
    assert meta.verdict is Verdict.CONTINUE
    assert http_deparse(meta) == raw


def test_rewrite_host_keeps_wire_shape():
    raw = make_request(b"/x", host=b"old.example")
    meta = parsed_meta(raw)
    rewrite_host(meta.http, b"new.example")
    out = http_deparse(meta)
    assert b"Host: new.example\r\n" in out
    assert meta.http.host == b"new.example"


@pytest.mark.parametrize("length", [b"Content-Length:5",
                                    b"Content-Length: 005"])
def test_deparse_forwards_the_message_untouched(length):
    raw = b"POST /svc/a HTTP/1.1\r\nHost: api\r\n" + length + b"\r\n\r\nhello"
    meta = parsed_meta(raw)
    assert meta.verdict is Verdict.CONTINUE
    assert http_deparse(meta) is raw


def test_rewrite_host_serialises_with_body_and_length_intact():
    raw = (b"POST /x HTTP/1.1\r\nHost: old.example\r\nContent-Length: 005"
           b"\r\nX-A:1\r\n\r\nhello")
    meta = parsed_meta(raw)
    rewrite_host(meta.http, b"new.example")
    assert http_deparse(meta) == (
        b"POST /x HTTP/1.1\r\nHost: new.example\r\nContent-Length: 005"
        b"\r\nX-A:1\r\n\r\nhello")


def test_rewrite_host_appends_when_missing():
    msg, _ = parse_request_bytes(b"GET / HTTP/1.1\r\nA: 1\r\n\r\n")
    rewrite_host(msg, b"h2")
    assert msg.headers[-1] == (b"Host", b" h2")


# -- filtering ---------------------------------------------------------------

def test_filter_first_match_wins():
    meta = parsed_meta(make_request(b"/admin/x"))
    rules = [
        FilterRule(decision=Decision.DENY, path_prefix=b"/admin"),
        FilterRule(decision=Decision.ALLOW),
    ]
    assert filter_apply(meta, rules) is Verdict.DROP
    # same rules reversed: allow wins first
    assert filter_apply(meta, list(reversed(rules))) is Verdict.CONTINUE


def test_filter_predicates_are_conjunctive():
    meta = parsed_meta(make_request(b"/a", host=b"h", method=b"POST"))
    rule = FilterRule(decision=Decision.DENY, method=b"POST", host=b"other")
    assert not rule.matches(meta)
    rule = FilterRule(decision=Decision.DENY, method=b"POST", host=b"h")
    assert rule.matches(meta)


def test_filter_sip_predicate():
    meta = parsed_meta(make_request(), flow=make_flow(sip="9.9.9.9"))
    assert FilterRule(decision=Decision.DENY, sip=0x09090909).matches(meta)
    assert not FilterRule(decision=Decision.DENY, sip=0x01010101).matches(meta)


def test_filter_no_rules_goes_slow_path():
    meta = parsed_meta(make_request())
    assert filter_apply(meta, []) is Verdict.TO_SLOW_PATH


# -- load balancing ----------------------------------------------------------

def test_round_robin_cycles():
    cluster = Cluster(ref="c", endpoints=[make_endpoint(i) for i in range(3)])
    picks = [load_balance(cluster).id for _ in range(6)]
    assert picks == ["ep-0", "ep-1", "ep-2", "ep-0", "ep-1", "ep-2"]


def test_round_robin_skips_unhealthy():
    eps = [make_endpoint(0), make_endpoint(1, healthy=False), make_endpoint(2)]
    cluster = Cluster(ref="c", endpoints=eps)
    picks = {load_balance(cluster).id for _ in range(10)}
    assert picks == {"ep-0", "ep-2"}


def test_no_healthy_endpoint_raises():
    cluster = Cluster(ref="c", endpoints=[make_endpoint(0, healthy=False),
                                          make_endpoint(1, weight=0)])
    with pytest.raises(NoHealthyEndpoint):
        load_balance(cluster)


def test_weighted_rr_matches_smooth_reference():
    """Independent smooth weighted-round-robin reference implementation."""
    weights = {"ep-0": 5, "ep-1": 1, "ep-2": 1}
    eps = [make_endpoint(i, weight=w) for i, w in enumerate(weights.values())]
    cluster = Cluster(ref="c", endpoints=eps, policy=LbPolicy.WEIGHTED_RR)

    # ties go to the first endpoint in list order, same as max() over an
    # insertion-ordered dict
    current = {k: 0 for k in weights}
    total = sum(weights.values())
    expected = []
    for _ in range(21):
        for k in current:
            current[k] += weights[k]
        best = max(current, key=current.get)
        current[best] -= total
        expected.append(best)

    got = [load_balance(cluster).id for _ in range(21)]
    assert got == expected
    # proportionality over full cycles
    assert got.count("ep-0") == 15
    assert got.count("ep-1") == 3
    assert got.count("ep-2") == 3


def test_least_conn_prefers_idle_and_breaks_ties_by_id():
    eps = [make_endpoint(i) for i in range(3)]
    cluster = Cluster(ref="c", endpoints=eps, policy=LbPolicy.LEAST_CONN)
    first = load_balance(cluster)
    assert first.id == "ep-0"  # all zero, lowest id
    eps[0].active_conns += 1
    assert load_balance(cluster).id == "ep-1"
    eps[1].active_conns += 1
    assert load_balance(cluster).id == "ep-2"
    eps[0].active_conns -= 1
    assert load_balance(cluster).id == "ep-0"


# -- routing -----------------------------------------------------------------

def make_route_env(n_endpoints=2, policy=LbPolicy.ROUND_ROBIN):
    lkey = make_listener_key("10.0.0.2", 8080)
    listeners = {lkey: "web"}
    cluster = Cluster(
        ref="backend",
        endpoints=[make_endpoint(i) for i in range(n_endpoints)],
        policy=policy,
    )
    routes = {lkey: (
        RouteRule(
            listener=lkey,
            path_matchers=(PathMatcher(MatchKind.EXACT, b"/svc/a"),
                           PathMatcher(MatchKind.PREFIX, b"/svc/")),
            cluster="backend",
        ),
    )}
    return listeners, routes, QueueTable(), {"backend": cluster}


_queue_ids = itertools.count(1)


def routed(path=b"/svc/a", flow=None, env=None, connector=None):
    listeners, routes, queues, clusters = env
    meta = parsed_meta(make_request(path), flow=flow or make_flow())
    connector = connector or (lambda ep, m: next(_queue_ids))
    return route(meta, listeners, routes, queues, clusters, connector), meta


def test_route_happy_path_binds_queue():
    env = make_route_env()
    result, meta = routed(env=env)
    assert meta.verdict is Verdict.CONTINUE
    assert meta.queue is not None
    assert result.lb_called
    assert result.endpoint.id == "ep-0"


def test_route_reuses_queue_without_lb():
    env = make_route_env()
    r1, m1 = routed(env=env)
    r2, m2 = routed(path=b"/svc/other", env=env)  # same 4-tuple
    assert not r2.lb_called
    assert m2.queue == m1.queue


def test_route_distinct_flows_get_distinct_queues():
    env = make_route_env()
    _, m1 = routed(flow=make_flow(sport=40000), env=env)
    _, m2 = routed(flow=make_flow(sport=40001), env=env)
    assert m1.queue != m2.queue


def test_route_no_listener_drops_and_resets():
    env = make_route_env()
    _, meta = routed(flow=make_flow(dport=9999), env=env)
    assert meta.verdict is Verdict.DROP
    assert meta.verdict_reason == "no_listener"
    assert meta.http is None  # transient state cleared
    assert meta.queue is None


def test_route_no_route_drops():
    env = make_route_env()
    _, meta = routed(path=b"/other", env=env)
    assert meta.verdict is Verdict.DROP
    assert meta.verdict_reason == "no_route"


def test_route_makes_a_flows_listener_key_once(monkeypatch):
    made = []
    real = core.make_listener_key

    def counting(*args):
        made.append(args)
        return real(*args)

    monkeypatch.setattr(core, "make_listener_key", counting)
    monkeypatch.setattr(core, "_listener_keys", weakref.WeakValueDictionary())
    env = make_route_env()
    flows = make_flow(sport=40100), make_flow(sport=40101)
    for flow in flows:
        for path in (b"/svc/a", b"/svc/b", b"/other"):
            routed(path=path, flow=flow, env=env)
    assert len(made) == 1
    assert flows[0].listener_key is flows[1].listener_key
    _, meta = routed(flow=make_flow(sport=40100, dport=9999), env=env)
    assert meta.verdict_reason == "no_listener"


def test_route_no_healthy_endpoint_to_slow_path():
    env = make_route_env()
    for ep in env[3]["backend"].endpoints:
        ep.healthy = False
    _, meta = routed(env=env)
    assert meta.verdict is Verdict.TO_SLOW_PATH
    assert meta.verdict_reason == "no_healthy_endpoint"


def test_route_connect_failure_to_slow_path():
    from flatproxy.l7 import ConnectFailure

    env = make_route_env()

    def bad_connector(endpoint, meta):
        raise ConnectFailure("refused")

    _, meta = routed(env=env, connector=bad_connector)
    assert meta.verdict is Verdict.TO_SLOW_PATH
    assert meta.verdict_reason == "connect_failure"
    assert meta.queue is None


def test_route_exact_beats_miss_prefix_order():
    # /svc/a matches EXACT first, /svc/bb only the PREFIX matcher
    env = make_route_env()
    r1, m1 = routed(path=b"/svc/a", env=env)
    r2, m2 = routed(path=b"/svc/bb", flow=make_flow(sport=41000), env=env)
    assert m1.verdict is Verdict.CONTINUE
    assert m2.verdict is Verdict.CONTINUE


def test_route_hundred_flows_round_robin_balance():
    env = make_route_env(n_endpoints=4)
    counts = {}
    for i in range(100):
        result, meta = routed(flow=make_flow(sport=50000 + i), env=env)
        counts[result.endpoint.id] = counts.get(result.endpoint.id, 0) + 1
    assert counts == {"ep-0": 25, "ep-1": 25, "ep-2": 25, "ep-3": 25}


def test_queue_table_rebind_conflict():
    qt = QueueTable()
    key = make_flow()
    qt.bind(key, 1)
    qt.bind(key, 1)  # same id fine
    with pytest.raises(ValueError):
        qt.bind(key, 2)
    qt.remove(key)
    qt.bind(key, 2)
    assert qt.lookup(key) == 2
