"""Acceptance suite: each test prints one PASS/FAIL line for its criterion."""

import itertools
import random
import socket
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import pytest

from flatproxy.core import (
    Conn,
    FlowKey,
    Message,
    Proto,
    Verdict,
    ip4_to_int,
)
from flatproxy.l7 import (
    Cluster,
    HttpReader,
    LbPolicy,
    LbState,
    MatchKind,
    PathMatcher,
    RouteRule,
    route,
)
from flatproxy.live import EchoStub, LiveProxy
from flatproxy.sim import (
    Mode,
    Topology,
    Workload,
    builtin_cost_models,
    capacity_rps,
    compare_modes,
    e2e_latency_reduction,
    rows_to_csv,
    run_sim,
    saturation_rps,
)
from flatproxy.slow_path import MeshRuntime, load_config
from flatproxy.vq import RingFull, ServiceStub, TenantMismatch, VirtQueue
from conftest import config_text, flow_message, make_flow, make_request

MODELS = builtin_cost_models()


@pytest.fixture
def announce(capsys):
    @contextmanager
    def _go(num, desc, limit_s):
        start = time.perf_counter()
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"\ncriterion {num:2d}: FAIL  {desc}")
            raise
        elapsed = time.perf_counter() - start
        ok = elapsed < limit_s
        with capsys.disabled():
            print(f"\ncriterion {num:2d}: {'PASS' if ok else 'FAIL'}  "
                  f"{desc} [{elapsed:.1f}s / limit {limit_s}s]")
        assert ok, f"runtime {elapsed:.1f}s exceeded {limit_s}s"
    return _go


def test_criterion_01_unloaded_latency(announce):
    expected = {
        (Mode.ENVOY, "l4"): 22_000,
        (Mode.FLATPROXY, "l4"): 7_600,
        (Mode.ENVOY, "l7"): 62_500,
        (Mode.FLATPROXY, "l7"): 17_600,
    }
    with announce(1, "unloaded single-request latencies exact to 1 ns", 1.0):
        for (mode, layer), total in expected.items():
            wl = Workload(rate_qps=10.0, duration_s=0.1)
            m = run_sim(mode, MODELS[(mode, layer)], wl, Topology())
            assert m.delivered >= 1
            assert abs(m.mean_ns - total) <= 1, (mode, layer, m.mean_ns)


def test_criterion_02_latency_reduction(announce):
    with announce(2, "table-level 65.5% and end-to-end >=85% latency "
                     "reduction", 30.0):
        table_level = 1 - 7_600 / 22_000
        assert abs(table_level - 0.655) < 0.005
        for seed in range(4):
            r = e2e_latency_reduction(seed=seed)
            assert 0.85 <= r <= 0.95, (seed, r)


def test_criterion_03_throughput_ratios(announce):
    with announce(3, "saturation ordering and >=3.5x bytes / >=6x qps "
                     "ratios", 60.0):
        for layer in ("l4", "l7"):
            for k in (1, 2):
                for conns in (1, 8):
                    topo = Topology(n_cores=k)
                    thr = {
                        m: saturation_rps(m, layer, topo, conns, duration_s=0.03)
                        for m in Mode
                    }
                    assert thr[Mode.FLATPROXY] > thr[Mode.TOE], (layer, k, conns)
                    assert thr[Mode.TOE] > max(thr[Mode.ENVOY],
                                               thr[Mode.SOCKMAP])
                    # envoy and sockmap sit in the same band
                    assert thr[Mode.SOCKMAP] < 1.5 * thr[Mode.ENVOY]
                    assert thr[Mode.SOCKMAP] >= thr[Mode.ENVOY]
        topo = Topology(n_cores=1)
        bytes_ratio = (saturation_rps(Mode.FLATPROXY, "l4", topo)
                       / saturation_rps(Mode.ENVOY, "l4", topo))
        qps_ratio = (saturation_rps(Mode.FLATPROXY, "l7", topo)
                     / saturation_rps(Mode.ENVOY, "l7", topo))
        assert bytes_ratio >= 3.5, bytes_ratio
        assert qps_ratio >= 6.0, qps_ratio


def test_criterion_04_cpu_cost(announce):
    with announce(4, "envoy/flatproxy cpu cost ratio >= 5 at equal "
                     "delivered bandwidth", 30.0):
        topo = Topology(n_cores=1)
        rate = 0.5 * capacity_rps(Mode.ENVOY, MODELS[(Mode.ENVOY, "l4")], topo)
        wl = Workload(rate_qps=rate, duration_s=0.1)
        envoy = run_sim(Mode.ENVOY, MODELS[(Mode.ENVOY, "l4")], wl, topo)
        fp = run_sim(Mode.FLATPROXY, MODELS[(Mode.FLATPROXY, "l4")], wl, topo)
        assert envoy.delivered == fp.delivered  # equal delivered bandwidth
        assert envoy.cpu_cost_ns / fp.cpu_cost_ns >= 5.0


def test_criterion_05_connection_scaling(announce):
    with announce(5, "flatproxy flat to 64 connections, toe declines past "
                     "16", 60.0):
        topo = Topology(n_cores=1)
        fp = [saturation_rps(Mode.FLATPROXY, "l4", topo, c, duration_s=0.03)
              for c in (1, 16, 64)]
        assert (max(fp) - min(fp)) / max(fp) < 0.05, fp
        toe16 = saturation_rps(Mode.TOE, "l4", topo, 16, duration_s=0.03)
        toe64 = saturation_rps(Mode.TOE, "l4", topo, 64, duration_s=0.03)
        assert toe64 < toe16, (toe16, toe64)


# -- criterion 6: routing vs brute force -------------------------------------

class _RefRouter:
    """Independent linear-scan reference for the routing flow."""

    def __init__(self, listeners, routes, clusters):
        self.listeners = listeners      # list[((dip, dport), name)]
        self.routes = routes            # list[RouteRule] in priority order
        self.clusters = clusters        # ref -> list of (endpoint_id, selectable)
        self.cursors = {ref: 0 for ref in clusters}
        self.queues = {}                # FlowKey -> queue id
        self.next_queue = itertools.count(1)

    def route(self, flow, path):
        lkey = (flow.dip, flow.dport)
        if not any(k == lkey for k, _ in self.listeners):
            return ("drop", "no_listener", None, None, False)
        rule = None
        for r in self.routes:
            if r.listener != lkey:
                continue
            if any(m.matches(path) for m in r.path_matchers):
                rule = r
                break
        if rule is None:
            return ("drop", "no_route", None, None, False)
        if flow in self.queues:
            return ("continue", None, self.queues[flow], None, False)
        live = [eid for eid, ok in self.clusters[rule.cluster] if ok]
        if not live:
            return ("drop", "no_healthy_endpoint", None, None, False)
        eid = live[self.cursors[rule.cluster] % len(live)]
        self.cursors[rule.cluster] = (self.cursors[rule.cluster] + 1) % len(live)
        qid = next(self.next_queue)
        self.queues[flow] = qid
        return ("continue", None, qid, eid, True)


def _random_route_env(rng):
    from flatproxy.core import Endpoint

    listeners = {}
    names = []
    for i in range(rng.randrange(1, 4)):
        key = (ip4_to_int(f"10.0.0.{i + 1}"), 8000 + i)
        listeners[key] = f"lst-{i}"
        names.append(key)
    clusters = {}
    for c in range(rng.randrange(1, 3)):
        eps = [
            Endpoint(
                id=f"c{c}e{j}",
                address=(0x7F000001, 9000 + j),
                healthy=rng.random() > 0.2,
            )
            for j in range(rng.randrange(1, 4))
        ]
        clusters[f"c{c}"] = Cluster(ref=f"c{c}", endpoints=tuple(eps),
                                    policy=LbPolicy.ROUND_ROBIN)
    routes = {}
    all_rules = []
    for key in names:
        rules = []
        for _ in range(rng.randrange(0, 3)):
            kind = rng.choice([MatchKind.EXACT, MatchKind.PREFIX])
            pattern = rng.choice([b"/a", b"/a/b", b"/x", b"/admin"])
            rules.append(RouteRule(
                listener=key,
                path_matchers=(PathMatcher(kind, pattern),),
                cluster=rng.choice(list(clusters)),
            ))
        routes[key] = tuple(rules)
        all_rules.extend(rules)
    return listeners, routes, clusters, all_rules


def test_criterion_06_routing_oracle(announce):
    with announce(6, "route() equals linear-scan reference over 10,000 "
                     "randomized instances", 30.0):
        rng = random.Random(20260823)
        checked = 0
        while checked < 10_000:
            listeners, routes, clusters, all_rules = _random_route_env(rng)
            counter = itertools.count(1)
            conns = {}  # flow -> its record
            lb = {ref_: LbState() for ref_ in clusters}
            snaps = {"listeners": listeners, "routes": routes,
                     "clusters": clusters}
            ref = _RefRouter(
                list(listeners.items()),
                all_rules,
                {ref_: [(e.id, e.selectable) for e in c.endpoints]
                 for ref_, c in clusters.items()},
            )
            for _ in range(rng.randrange(5, 30)):
                flow = FlowKey(
                    sip=rng.randrange(1, 2**32), sport=rng.randrange(1, 2**16),
                    dip=0x0A000001 + rng.randrange(4),
                    dport=8000 + rng.randrange(4), proto=Proto.TCP,
                )
                path = rng.choice([b"/a", b"/a/b", b"/a/bc", b"/x", b"/zzz",
                                   b"/admin/x"])
                msg = Message(flow, make_request(path), None,
                              conns.setdefault(flow, Conn(HttpReader())))
                from flatproxy.l7 import http_parse

                http_parse(msg, {}, {})
                got = route(lb, lambda ep, m: next(counter),
                            msg, defaultdict(int), snaps)
                verdict, reason, qid, eid, lb_called = ref.route(flow, path)
                assert msg.verdict.value == verdict, (flow, path)
                if reason is not None:
                    assert msg.verdict_reason == reason
                assert msg.queue == qid
                assert (got is not None) == lb_called
                if eid is not None:
                    assert got.id == eid
                checked += 1


def test_criterion_07_chain_monolith_and_workers(announce):
    with announce(7, "chain equals sequential PPM application; results "
                     "invariant over n_workers {1,2,8}", 60.0):
        rng = random.Random(7)
        payloads = []
        for i in range(1000):
            path = rng.choice([b"/svc/a", b"/svc/deep/x", b"/admin/x",
                               b"/nowhere"])
            if rng.random() < 0.05:
                payloads.append(b"garbage with no structure")
            else:
                payloads.append(make_request(
                    path, body=bytes(rng.randrange(32, 127)
                                     for _ in range(rng.randrange(32)))))
        flows = [make_flow(sport=30000 + i % 64) for i in range(1000)]

        def msg(i, rt):
            return flow_message(rt, payloads[i], flows[i])

        # chain vs sequential application on twin runtimes
        rt_a = MeshRuntime(config=load_config(config_text()))
        rt_b = MeshRuntime(config=load_config(config_text()))
        order = rt_b.chain.order
        reached = set()
        for i in range(1000):
            ua, ub = msg(i, rt_a), msg(i, rt_b)
            rt_a.chain.execute(ua, rt_a.fast_path.ctx)
            for pid in order:
                if ub.verdict is not Verdict.CONTINUE:
                    break
                rt_b.registry[pid].apply(ub, rt_b.fast_path.ctx)
            assert ua.payload == ub.payload, i
            assert ua.verdict == ub.verdict, i
            assert ua.verdict_reason == ub.verdict_reason, i
            reached.add((ua.verdict, (ua.verdict_reason or "").split(":")[0]))
        # the messages get past the toe node: parser, filter, router and
        # deparser each decide some of them
        assert (Verdict.DELIVER, "deparsed") in reached
        assert (Verdict.DROP, "filter") in reached
        assert (Verdict.DROP, "no_route") in reached
        assert (Verdict.DROP, "malformed_http") in reached
        rt_a.shutdown()
        rt_b.shutdown()

        # worker-count invariance: n flow-affine shards (hash(flow) % n),
        # each in submission order, fed to FastPath.message one message per
        # shard in turn
        outcomes = {}
        for n in (1, 2, 8):
            shards = [[] for _ in range(n)]
            for i in range(1000):
                shards[hash(flows[i]) % n].append(i)
            rt = MeshRuntime(config=load_config(config_text()))
            results = [(i, rt.fast_path.message(msg(i, rt)))
                       for turn in itertools.zip_longest(*shards)
                       for i in turn if i is not None]
            multiset = sorted(
                (u.flow.sport, u.payload, u.verdict.value)
                for _i, u in results
            )
            per_flow = {}
            for i, u in results:
                per_flow.setdefault(u.flow.sport, []).append(i)
            outcomes[n] = (multiset, per_flow)
            rt.shutdown()
        assert outcomes[1][0] == outcomes[2][0] == outcomes[8][0]
        for n in (2, 8):
            for sport, seq in outcomes[n][1].items():
                assert seq == sorted(seq), (n, sport)


def test_criterion_08_transport_properties(announce):
    with announce(8, "virtqueue byte-exactness, slot conservation, zero "
                     "doorbells, tenant isolation over 10,000 random ops",
                  30.0):
        rng = random.Random(88)
        total_ops = 0
        while total_ops < 10_000:
            capacity = rng.randrange(1, 9)
            q, stub = VirtQueue(tenant="t", capacity=capacity), None
            stub = ServiceStub(tenant="t")
            q.bind(stub)
            outsider = ServiceStub(tenant="other")
            tx_sent, tx_got, rx_sent, rx_got = [], [], [], []
            for i in range(rng.randrange(20, 80)):
                op = rng.choice(["tx", "fetch", "write", "collect", "evil"])
                total_ops += 1
                if op == "tx":
                    data = bytes([rng.randrange(256)]) * rng.randrange(1, 32)
                    try:
                        q.tx_deliver(data)
                        tx_sent.append(data)
                    except RingFull:
                        assert q.tx_ring.occupied == capacity
                elif op == "fetch":
                    got = q.stub_fetch(stub)
                    if got is not None:
                        tx_got.append(got)
                elif op == "write":
                    data = b"w%d" % i
                    try:
                        q.stub_write(stub, data)
                        rx_sent.append(data)
                    except RingFull:
                        assert q.rx_ring.occupied == capacity
                elif op == "collect":
                    got = q.rx_collect()
                    if got is not None:
                        rx_got.append(got)
                else:
                    with pytest.raises(TenantMismatch):
                        q.stub_fetch(outsider)
                    with pytest.raises(TenantMismatch):
                        q.stub_write(outsider, b"spoof")
                assert 0 <= q.tx_ring.occupied <= capacity
                assert 0 <= q.rx_ring.occupied <= capacity
            # byte-exact FIFO and slot conservation
            assert tx_got == tx_sent[: len(tx_got)]
            assert rx_got == rx_sent[: len(rx_got)]
            assert len(tx_sent) == len(tx_got) + q.tx_ring.occupied
            assert len(rx_sent) == len(rx_got) + q.rx_ring.occupied
            assert q.host_doorbells == 0
            assert stub.events == len(tx_sent)
            assert outsider.fetched == 0


def test_criterion_09_live_end_to_end(announce):
    with announce(9, "live mode: 1,000 requests split 500/500 across two "
                     "stubs, zero lost, 404 on unconfigured path", 60.0):
        stubs = [EchoStub(f"stub-{i}").start() for i in range(2)]
        cfg = load_config(config_text(
            endpoint_ports=tuple(s.port for s in stubs), dip="127.0.0.1",
        ))
        proxy = LiveProxy(cfg, listen_port=0).start()
        try:
            lost = 0
            lock = threading.Lock()

            def client(idx):
                nonlocal lost
                with socket.create_connection(
                    ("127.0.0.1", proxy.port), timeout=30
                ) as s:
                    fh = s.makefile("rb")
                    for r in range(250):
                        body = b"c%dr%d" % (idx, r)
                        s.sendall(make_request(b"/svc/a", body=body))
                        status = fh.readline()
                        length = 0
                        while True:
                            line = fh.readline().strip()
                            if not line:
                                break
                            k, _, v = line.partition(b":")
                            if k.strip().lower() == b"content-length":
                                length = int(v.strip())
                        resp_body = fh.read(length)
                        if not status.startswith(b"HTTP/1.1 200") or \
                                resp_body != body:
                            with lock:
                                lost += 1

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=55)
            assert lost == 0
            assert proxy.delivered == 1000
            assert sorted(s.hits for s in stubs) == [500, 500]

            # unconfigured path gets a 404
            with socket.create_connection(
                ("127.0.0.1", proxy.port), timeout=10
            ) as s:
                s.sendall(make_request(b"/not/configured"))
                assert s.makefile("rb").readline().startswith(b"HTTP/1.1 404")
        finally:
            proxy.stop()
            for s in stubs:
                s.stop()


def test_criterion_10_determinism(announce):
    with announce(10, "seed-identical sim invocations emit byte-identical "
                      "CSV", 30.0):
        for seed in (0, 7, 123):
            kw = dict(layer="l7", rates=(500.0, 2000.0), connections=(1, 32),
                      cores=(1, 2), duration_s=0.02, seed=seed)
            assert rows_to_csv(compare_modes(**kw)) == \
                rows_to_csv(compare_modes(**kw))
