import gc
import os
import socket
import sys
import threading
import time

import pytest

from flatproxy.l7 import HttpReader, frame_http, parse_request
from flatproxy.live import EchoStub, LiveProxy
from flatproxy.slow_path import load_config
from flatproxy.vq import MAX_DESCRIPTOR_BYTES
from conftest import (DUPLICATE_HOST, MessageReader, config_text,
                      host_denied_config_text, make_request)


def bad_length_request(value):
    return (b"POST /svc/a HTTP/1.1\r\nHost: x\r\nContent-Length: " + value
            + b"\r\n\r\n")


_PAD = b"GET /svc/a HTTP/1.1\r\nX-Pad: "

# each is refused on what arrived, without waiting for more bytes
BAD_FRAMING = [
    bad_length_request(b"abc"),
    bad_length_request(b"-3"),
    b"POST /svc/a HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\n",
    b"POST /svc/a HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
    bad_length_request(b"%d" % (70 * 1024)),
    # a header block with no terminator within the descriptor limit
    _PAD + b"a" * (MAX_DESCRIPTOR_BYTES - len(_PAD)),
]


def test_read_http_message_rejects_bad_content_length():
    """Each refused block comes back alone, with no head, and a good request
    sent after it is still framed."""
    good = make_request(b"/svc/a")
    for raw in [bad_length_request(v) for v in (b"+3", b"1_0", b"")] + BAD_FRAMING:
        reader = HttpReader()
        assert list(reader.take(raw)) == [(raw, None)]
        assert list(reader.take(good)) == [(good, frame_http(good))]
        assert reader.held == 0


def test_http_reader_returns_every_block_one_take_completes():
    """One `take` of a good message, a refused block and a second good
    message returns three pairs, in order, the middle one headless; one of
    exactly one whole message returns those very bytes."""
    first, second = make_request(b"/svc/a"), make_request(b"/svc/b", body=b"x")
    bad = bad_length_request(b"abc")
    reader = HttpReader()
    assert list(reader.take(first + bad + second)) == [
        (first, frame_http(first)), (bad, None), (second, frame_http(second))]
    assert reader.held == 0 and reader.need is None
    ((data, _head),) = reader.take(first)
    assert data is first and reader.held == 0


def test_http_reader_waits_for_the_whole_body_and_frames_it_once(monkeypatch):
    from flatproxy import l7

    framed = []
    real = l7.frame_http

    def counting(data):
        framed.append(len(data))
        return real(data)

    monkeypatch.setattr(l7, "frame_http", counting)
    raw = make_request(b"/svc/a", method=b"POST", body=b"x" * 5000)
    chunks = [raw[i:i + 700] for i in range(0, len(raw), 700)]
    reader = HttpReader()
    got = [msg for chunk in chunks for msg in reader.take(chunk)]
    assert [data for data, _head in got] == [raw]
    assert reader.held == 0
    # framed once the header block is in, not again per chunk
    assert [n for n in framed if n] == [700]
    # a message cut short is held, not handed on
    short = HttpReader()
    assert not short.take(raw[:-1]) and short.held == len(raw) - 1


@pytest.fixture
def proxy():
    stub = EchoStub("stub-0").start()
    cfg = load_config(config_text(endpoint_ports=(stub.port,), dip="127.0.0.1"))
    proxy = LiveProxy(cfg, listen_port=0).start()
    yield proxy
    proxy.stop()
    stub.stop()


def test_live_bad_content_length_gets_400(proxy):
    # the client keeps its side open: a reader that trusted a negative
    # length, or waited for a terminator, would block instead of answering
    for raw in BAD_FRAMING:
        with socket.create_connection(("127.0.0.1", proxy.port),
                                      timeout=5) as s:
            s.sendall(raw)
            assert s.makefile("rb").readline().startswith(b"HTTP/1.1 400")


def test_live_overlong_content_length_gets_400_and_keeps_serving(proxy):
    """A Content-Length of thousands of digits gets a 400, counted, and no
    crash of the client's handler; a length with thousands of leading
    zeros is legal and served."""
    with socket.create_connection(("127.0.0.1", proxy.port), timeout=5) as s:
        s.sendall(bad_length_request(b"0" * 5000 + b"5") + b"hello")
        reader = MessageReader(s.recv)
        reply = reader.read()
        assert reply.startswith(b"HTTP/1.1 200") and reply.endswith(b"hello")
        s.sendall(bad_length_request(b"9" * 5000))
        assert reader.read().startswith(b"HTTP/1.1 400")
        assert reader.read() == b""
    c = proxy.runtime.stats_snapshot()["fast_path"]
    assert c["msg_submitted"] == 2 and c["msg_egress"] == 1
    assert c["msg_dropped.malformed_http"] == c["status.400"] == 1


def test_live_unframeable_block_is_answered_and_counted_as_in_the_toe(proxy):
    """A block that cannot be framed runs through the data path once, as
    the TOE delivers one, and is answered from its verdict: one 400, none
    for the request pipelined behind it, then EOF."""
    with socket.create_connection(("127.0.0.1", proxy.port), timeout=5) as s:
        s.sendall(bad_length_request(b"abc") + make_request(b"/svc/a"))
        reader = MessageReader(s.recv)
        body = b"malformed_http\n"
        assert reader.read() == (b"HTTP/1.1 400 Bad Request\r\n"
                                 b"Content-Length: %d\r\n\r\n" % len(body)
                                 + body)
        assert reader.read() == b""
    c = proxy.runtime.stats_snapshot()["fast_path"]
    assert c["msg_submitted"] == 1
    assert c["msg_dropped.malformed_http"] == c["status.400"] == 1


def test_live_error_reply_echoes_none_of_the_request(proxy):
    """A refused request's reply body is the drop reason's part before any
    ':', so a bad header line's bytes are never sent back to the client."""
    raw = b"GET /svc/a HTTP/1.1\r\nHost: x\r\n<script>alert(1)</script>\r\n\r\n"
    with socket.create_connection(("127.0.0.1", proxy.port), timeout=5) as s:
        s.sendall(raw)
        reply = MessageReader(s.recv).read()
    assert reply == (b"HTTP/1.1 400 Bad Request\r\nContent-Length: 15\r\n\r\n"
                     b"malformed_http\n")
    assert b"script" not in reply


def test_live_refused_header_forms_get_400_and_keep_serving(proxy):
    """Whitespace around a field name (RFC 9112 sections 5.1 and 5.2) and an
    HTTP/1.1 request with no Host (section 3.2) get a 400.  The request is
    still framed by its Content-Length, so its body is not read as the
    start of the next request, which is served."""
    refused = [
        b"POST /svc/a HTTP/1.1\r\nHost: x\r\nContent-Length : 5\r\n\r\nhello",
        b"POST /svc/a HTTP/1.1\r\nHost: x\r\n Content-Length: 5\r\n\r\nhello",
        b"POST /svc/a HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello",
    ]
    for raw in refused:
        with socket.create_connection(("127.0.0.1", proxy.port),
                                      timeout=5) as s:
            reader = MessageReader(s.recv)
            s.sendall(raw)
            assert reader.read().startswith(b"HTTP/1.1 400")
            s.sendall(make_request(b"/svc/a"))
            assert reader.read().startswith(b"HTTP/1.1 200")
    c = proxy.runtime.stats_snapshot()["fast_path"]
    assert c["msg_dropped.malformed_http"] == c["status.400"] == len(refused)


def test_live_parser_reject_gets_400_and_keeps_serving(proxy):
    with socket.create_connection(("127.0.0.1", proxy.port), timeout=5) as s:
        reader = MessageReader(s.recv)
        s.sendall(b"BOGUS\r\nHost: x\r\n\r\n")
        assert reader.read().startswith(b"HTTP/1.1 400")
        s.sendall(make_request(b"/svc/a"))
        assert reader.read().startswith(b"HTTP/1.1 200")


def test_live_traffic_counts_in_fast_path(proxy):
    status = {b"/svc/a": b"HTTP/1.1 200", b"/admin/x": b"HTTP/1.1 403",
              b"/nowhere": b"HTTP/1.1 404"}
    paths = list(status)
    with socket.create_connection(("127.0.0.1", proxy.port), timeout=10) as s:
        reader = MessageReader(s.recv)
        for i in range(1000):
            path = paths[i % len(paths)]
            s.sendall(make_request(path))
            assert reader.read().startswith(status[path])
    c = proxy.runtime.stats_snapshot()["fast_path"]
    # the message half of test_unit_conservation's identity
    assert c["msg_submitted"] == 1000 == (
        c.get("msg_egress", 0) + c.get("msg_dropped", 0))
    assert c["msg_egress"] == proxy.delivered == c["resp_egress"] == 334
    assert c["status.403"] == c["status.404"] == 333
    # nothing is kept per request
    assert proxy.runtime.fast_path.results() == []
    # live flows arrive framed: no frame reaches the slow path
    assert "slow_path" not in c


def test_live_counted_statuses_are_the_replies_the_client_read(proxy):
    """A mix of requests answered 200, 400, 403 and 404 on one connection
    each: the `status.<code>` counters hold exactly the error codes the
    clients read, and every refused request is counted once."""
    requests = [make_request(b"/svc/a"), make_request(b"/admin/x"),
                make_request(b"/nowhere"), b"BOGUS\r\nHost: x\r\n\r\n",
                make_request(b"/admin/y"), make_request(b"/svc/b")]
    read = {}
    for raw in requests:
        with socket.create_connection(("127.0.0.1", proxy.port),
                                      timeout=5) as s:
            s.sendall(raw)
            code = int(MessageReader(s.recv).read().split(b" ", 2)[1])
            read[code] = read.get(code, 0) + 1
    assert read == {200: 2, 400: 1, 403: 2, 404: 1}
    c = proxy.runtime.stats_snapshot()["fast_path"]
    counted = {int(k[len("status."):]): v for k, v in c.items()
               if k.startswith("status.")}
    assert counted == {code: n for code, n in read.items() if code != 200}
    assert c["msg_dropped"] == sum(counted.values())


def test_live_client_close_releases_upstream(proxy):
    with socket.create_connection(("127.0.0.1", proxy.port), timeout=5) as s:
        s.sendall(make_request(b"/svc/a"))
        assert MessageReader(s.recv).read().startswith(b"HTTP/1.1 200")
        (lq,) = proxy.runtime.vqs.values()
        assert proxy.runtime.stats_snapshot()["connections"] == {"open": 1}
        # live flows arrive framed: the TOE never reassembles one, and
        # the flow's one record holds its upstream as its queue
        (conn,) = proxy.runtime.conns.values()
        assert conn.next_seq == 0 and conn.reorder == {}
        assert conn.queue is lq
    deadline = time.monotonic() + 5
    while proxy.runtime.vqs and time.monotonic() < deadline:
        time.sleep(0.01)
    assert proxy.runtime.vqs == {}
    assert len(proxy.runtime.queue_table) == 0
    assert lq.sock.fileno() == -1
    # the flow's record and its endpoint's LB count go with it
    assert proxy.runtime.conns == {}
    assert [s.conns for s in proxy.runtime.lb.values()] == [{}]


def test_live_client_is_counted_open_from_accept(proxy):
    """Each accepted client holds its flow's record: one that has sent
    nothing, and one whose only request was denied, each count as open;
    once they close, the count is 0 and their records are gone."""
    quiet = socket.create_connection(("127.0.0.1", proxy.port), timeout=5)
    try:
        _wait(lambda: len(proxy.runtime.conns) == 1)
        assert proxy.runtime.stats_snapshot()["connections"] == {"open": 1}
        with socket.create_connection(("127.0.0.1", proxy.port),
                                      timeout=5) as s:
            s.sendall(make_request(b"/admin/x"))
            assert MessageReader(s.recv).read().startswith(b"HTTP/1.1 403")
            assert proxy.runtime.stats_snapshot()["connections"] == {
                "open": 2}
    finally:
        quiet.close()
    _wait(lambda: not proxy.runtime.conns)
    assert proxy.runtime.stats_snapshot()["connections"] == {"open": 0}
    assert proxy.runtime.vqs == {} and len(proxy.runtime.queue_table) == 0


def test_live_duplicate_host_gets_400():
    """Over loopback, a request with two Host lines gets a 400 whichever
    Host a deny rule names; one Host line of either value is judged by the
    filter."""
    stub = EchoStub("stub-0").start()
    proxy = LiveProxy(load_config(host_denied_config_text(
        endpoint_ports=(stub.port,), dip="127.0.0.1")), listen_port=0).start()
    try:
        with socket.create_connection(("127.0.0.1", proxy.port),
                                      timeout=5) as s:
            reader = MessageReader(s.recv)
            s.sendall(DUPLICATE_HOST)
            assert reader.read().startswith(b"HTTP/1.1 400")
            s.sendall(make_request(host=b"internal"))
            assert reader.read().startswith(b"HTTP/1.1 403")
            s.sendall(make_request(host=b"x"))
            assert reader.read().startswith(b"HTTP/1.1 200")
        assert stub.hits == 1
    finally:
        proxy.stop()
        stub.stop()


def test_live_host_rule_denies_the_host_in_any_case_and_port():
    """Over loopback, a `host: internal` deny rule refuses `Host: INTERNAL`
    and `Host: internal:8080` with a 403, as it does `Host: internal`."""
    stub = EchoStub("stub-0").start()
    proxy = LiveProxy(load_config(host_denied_config_text(
        endpoint_ports=(stub.port,), dip="127.0.0.1")), listen_port=0).start()
    try:
        with socket.create_connection(("127.0.0.1", proxy.port),
                                      timeout=5) as s:
            reader = MessageReader(s.recv)
            for host in (b"INTERNAL", b"internal:8080", b"Internal:80"):
                s.sendall(make_request(host=host))
                assert reader.read().startswith(b"HTTP/1.1 403"), host
            s.sendall(make_request(host=b"x:8080"))
            assert reader.read().startswith(b"HTTP/1.1 200")
        assert stub.hits == 1
    finally:
        proxy.stop()
        stub.stop()


def test_live_upstream_socket_has_nodelay(proxy):
    with socket.create_connection(("127.0.0.1", proxy.port), timeout=5) as s:
        s.sendall(make_request(b"/svc/a", body=b"hi"))
        assert s.makefile("rb").readline().startswith(b"HTTP/1.1 200")
        (lq,) = proxy.runtime.vqs.values()
        assert lq.sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


def test_live_unreachable_upstream_gets_502():
    with socket.socket() as closed:
        closed.bind(("127.0.0.1", 0))
        port = closed.getsockname()[1]
    cfg = load_config(config_text(endpoint_ports=(port,), dip="127.0.0.1"))
    proxy = LiveProxy(cfg, listen_port=0).start()
    try:
        with socket.create_connection(("127.0.0.1", proxy.port),
                                      timeout=5) as s:
            s.sendall(make_request(b"/svc/a"))
            assert s.makefile("rb").readline().startswith(b"HTTP/1.1 502")
        c = proxy.runtime.fast_path.counters()
        assert c["msg_submitted"] == c["msg_dropped.connect_failure"] == 1
        assert c["status.502"] == 1
    finally:
        proxy.stop()


def test_live_bad_upstream_response_gets_502():
    upstream = socket.create_server(("127.0.0.1", 0))
    done = threading.Event()

    def serve_bad_length():
        conn, _ = upstream.accept()
        with conn:
            conn.recv(65536)
            conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: abc\r\n\r\n")
            done.wait(5)

    threading.Thread(target=serve_bad_length, daemon=True).start()
    cfg = load_config(config_text(endpoint_ports=(upstream.getsockname()[1],),
                                  dip="127.0.0.1"))
    proxy = LiveProxy(cfg, listen_port=0).start()
    try:
        with socket.create_connection(("127.0.0.1", proxy.port),
                                      timeout=5) as s:
            s.sendall(make_request(b"/svc/a"))
            assert s.makefile("rb").readline().startswith(b"HTTP/1.1 502")
        c = proxy.runtime.fast_path.counters()
        assert c["upstream_failed"] == 1
        assert proxy.delivered == c.get("resp_egress", 0) == 0
        # the request was counted when it went upstream
        assert c["msg_submitted"] == c["msg_egress"] == 1
        assert "msg_dropped" not in c and "status.502" not in c
    finally:
        done.set()
        proxy.stop()
        upstream.close()


def test_live_upstream_closed_with_requests_outstanding_gets_502s():
    """An upstream that closes with two pipelined requests unanswered: the
    client reads a 502 for each, each counted `upstream_failed`, and the
    message identity still holds."""
    upstream = socket.create_server(("127.0.0.1", 0))

    def read_two_then_close():
        conn, _ = upstream.accept()
        with conn:
            seen = b""
            while seen.count(b"\r\n\r\n") < 2:
                seen += conn.recv(65536)

    server = threading.Thread(target=read_two_then_close, daemon=True)
    server.start()
    proxy = _serve(upstream.getsockname()[1])
    try:
        with socket.create_connection(("127.0.0.1", proxy.port),
                                      timeout=5) as s:
            s.sendall(make_request(b"/svc/a") * 2)
            reader = MessageReader(s.recv)
            assert [reader.read().split(b" ", 2)[1] for _ in range(2)] == [
                b"502", b"502"]
            assert reader.read() == b""
        c = proxy.runtime.fast_path.counters()
        assert c["upstream_failed"] == 2
        assert proxy.delivered == c.get("resp_egress", 0) == 0
        assert c["msg_submitted"] == c["msg_egress"] + c.get("msg_dropped", 0)
        assert not any(k.startswith("status.") for k in c)
    finally:
        proxy.stop()
        server.join(timeout=5)
        upstream.close()


def _ok(body):
    return b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(body) + body


class BatchUpstream:
    """An HTTP upstream that answers nothing on its one connection until it
    has read `n` requests, then answers each, and each after them, with 200
    and the request's body.  `seen` counts the requests read."""

    def __init__(self, n):
        self.n = n
        self.seen = 0
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.port = self.sock.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        try:
            conn, _ = self.sock.accept()
        except OSError:
            return
        with conn:
            reader = MessageReader(conn.recv)
            held = []
            try:
                while data := reader.read():
                    self.seen += 1
                    body_at = parse_request(data, reader.head)[3]
                    held.append(_ok(data[body_at:]))
                    if self.seen >= self.n:
                        conn.sendall(b"".join(held))
                        held = []
            except OSError:
                return

    def close(self):
        self.sock.close()
        self._thread.join(timeout=5)
        assert not self._thread.is_alive()


def _serve(*ports, **kw):
    cfg = load_config(config_text(endpoint_ports=ports, dip="127.0.0.1", **kw))
    return LiveProxy(cfg, listen_port=0).start()


def _wait(cond, timeout=5):
    deadline = time.monotonic() + timeout
    while not cond() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert cond()


def test_live_pipelined_requests_are_answered_in_order_several_upstream():
    # the upstream answers only once all three are in, so the proxy must
    # have sent them without waiting for an answer
    up = BatchUpstream(3)
    proxy = _serve(up.port)
    try:
        with socket.create_connection(("127.0.0.1", proxy.port),
                                      timeout=5) as s:
            bodies = [b"r0", b"r1", b"r2"]
            s.sendall(b"".join(make_request(b"/svc/a", method=b"POST", body=b)
                               for b in bodies))
            reader = MessageReader(s.recv)
            assert [reader.read() for _ in bodies] == [_ok(b) for b in bodies]
        assert proxy.delivered == 3
    finally:
        proxy.stop()
        up.close()


def test_live_local_reply_waits_for_the_replies_before_it():
    up = BatchUpstream(2)
    proxy = _serve(up.port)
    try:
        with socket.create_connection(("127.0.0.1", proxy.port),
                                      timeout=5) as s:
            s.sendall(make_request(b"/svc/a", method=b"POST", body=b"r0")
                      + make_request(b"/admin/x")
                      + make_request(b"/svc/a", method=b"POST", body=b"r1"))
            reader = MessageReader(s.recv)
            assert reader.read() == _ok(b"r0")
            assert reader.read().startswith(b"HTTP/1.1 403")
            assert reader.read() == _ok(b"r1")
    finally:
        proxy.stop()
        up.close()


def test_live_slow_upstream_does_not_stall_another_connection():
    slow = BatchUpstream(2)
    stub = EchoStub("stub-0").start()
    # round robin: the first flow goes to `slow`, the second to the stub
    proxy = _serve(slow.port, stub.port)
    try:
        with socket.create_connection(("127.0.0.1", proxy.port),
                                      timeout=5) as a:
            a.sendall(make_request(b"/svc/a", method=b"POST", body=b"a0"))
            _wait(lambda: slow.seen == 1)
            with socket.create_connection(("127.0.0.1", proxy.port),
                                          timeout=5) as b:
                b.sendall(make_request(b"/svc/a", method=b"POST", body=b"b0"))
                assert MessageReader(b.recv).read().endswith(b"\r\n\r\nb0")
            a.sendall(make_request(b"/svc/a", method=b"POST", body=b"a1"))
            reader = MessageReader(a.recv)
            assert [reader.read(), reader.read()] == [_ok(b"a0"), _ok(b"a1")]
    finally:
        proxy.stop()
        stub.stop()
        slow.close()


def test_live_client_gone_mid_pipeline_releases_its_flow():
    up = BatchUpstream(3)
    proxy = _serve(up.port)
    try:
        with socket.create_connection(("127.0.0.1", proxy.port),
                                      timeout=5) as s:
            s.sendall(make_request(b"/svc/a") * 2)
            _wait(lambda: up.seen == 2)
            assert len(proxy.runtime.conns) == 1
        _wait(lambda: not proxy.runtime.conns)
        assert proxy.runtime.vqs == {}
        assert [s.conns for s in proxy.runtime.lb.values()] == [{}]
    finally:
        proxy.stop()
        up.close()


def test_live_counts_every_request_of_concurrent_clients():
    stubs = [EchoStub(f"stub-{i}").start() for i in range(2)]
    proxy = _serve(*(s.port for s in stubs))
    paths = [b"/svc/a", b"/admin/x", b"/nowhere"]
    errors = []

    def client():
        try:
            with socket.create_connection(("127.0.0.1", proxy.port),
                                          timeout=10) as s:
                reader = MessageReader(s.recv)
                for i in range(150):
                    s.sendall(make_request(paths[i % 3]))
                    reader.read()
        except OSError as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=client) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads) and errors == []
    finally:
        sys.setswitchinterval(interval)
        proxy.stop()
        for s in stubs:
            s.stop()
    c = proxy.runtime.stats_snapshot()["fast_path"]
    assert c["msg_submitted"] == 600 == c["msg_egress"] + c["msg_dropped"]
    assert c["msg_egress"] == proxy.delivered == 200
    assert sum(s.hits for s in stubs) == 200


def test_live_reload_applies_on_the_loop_between_requests():
    stub = EchoStub("stub-0").start()
    proxy = _serve(stub.port)
    stop_busy = threading.Event()
    errors = []

    def busy():
        try:
            with socket.create_connection(("127.0.0.1", proxy.port),
                                          timeout=5) as s:
                reader = MessageReader(s.recv)
                while not stop_busy.is_set():
                    s.sendall(make_request(b"/svc/a"))
                    assert reader.read().startswith(b"HTTP/1.1 200")
        except (OSError, AssertionError) as exc:
            errors.append(exc)

    t = threading.Thread(target=busy)
    t.start()
    try:
        with socket.create_connection(("127.0.0.1", proxy.port),
                                      timeout=5) as s:
            reader = MessageReader(s.recv)
            s.sendall(make_request(b"/new/x"))
            assert reader.read().startswith(b"HTTP/1.1 404")
            routes_epoch = proxy.runtime.route_table.epoch
            wider = load_config(config_text(endpoint_ports=(stub.port,),
                                            dip="127.0.0.1", path_pattern="/"))
            proxy.reload(wider)
            # applied by the time reload returns
            assert proxy.runtime.config is wider
            assert proxy.runtime.route_table.epoch == routes_epoch + 1
            s.sendall(make_request(b"/new/x"))
            assert reader.read().startswith(b"HTTP/1.1 200")
    finally:
        stop_busy.set()
        t.join(timeout=10)
        proxy.stop()
        stub.stop()
    assert not t.is_alive() and errors == []


def test_live_serves_every_listener_with_its_own_routes():
    stubs = {name: EchoStub(f"stub-{name}").start() for name in ("web", "api")}
    cfg = load_config(f"""
listeners:
  - {{name: web, dip: 127.0.0.1, dport: 8080}}
  - {{name: api, dip: 127.0.0.1, dport: 8081}}
routes:
  - listener: web
    path_matchers: [{{kind: PREFIX, pattern: /svc/}}]
    cluster: web-backend
  - listener: api
    path_matchers: [{{kind: PREFIX, pattern: /api/}}]
    cluster: api-backend
clusters:
  - ref: web-backend
    endpoints: [{{address: 127.0.0.1, port: {stubs["web"].port}}}]
  - ref: api-backend
    endpoints: [{{address: 127.0.0.1, port: {stubs["api"].port}}}]
""")
    proxy = LiveProxy(cfg, listen_port=0).start()
    try:
        assert set(proxy.ports) == {"web", "api"}
        assert proxy.port == proxy.ports["web"] != proxy.ports["api"]
        answers = {}
        # both listeners' connections open at once
        with socket.create_connection(("127.0.0.1", proxy.ports["web"]),
                                      timeout=5) as w, \
                socket.create_connection(("127.0.0.1", proxy.ports["api"]),
                                         timeout=5) as a:
            for name, s in (("web", w), ("api", a)):
                reader = MessageReader(s.recv)
                for path in (b"/svc/x", b"/api/x"):
                    s.sendall(make_request(path))
                    answers[name, path] = reader.read()
        assert answers["web", b"/svc/x"].startswith(b"HTTP/1.1 200")
        assert b"X-Stub: stub-web" in answers["web", b"/svc/x"]
        assert answers["web", b"/api/x"].startswith(b"HTTP/1.1 404")
        assert answers["api", b"/api/x"].startswith(b"HTTP/1.1 200")
        assert b"X-Stub: stub-api" in answers["api", b"/api/x"]
        assert answers["api", b"/svc/x"].startswith(b"HTTP/1.1 404")
    finally:
        proxy.stop()
        for s in stubs.values():
            s.stop()


def test_live_stop_ends_the_loop_and_closes_every_socket(proxy):
    with socket.create_connection(("127.0.0.1", proxy.port), timeout=5) as s:
        s.sendall(make_request(b"/svc/a"))
        assert MessageReader(s.recv).read().startswith(b"HTTP/1.1 200")
        (lq,) = proxy.runtime.vqs.values()
        proxy.stop()
        assert not proxy._thread.is_alive()
        assert lq.sock.fileno() == -1
        assert proxy.runtime.vqs == {} and proxy.runtime.conns == {}
        assert s.recv(1) == b""  # the client's connection was closed
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(("127.0.0.1", proxy.port), timeout=5).close()
    # a socket left open would be finalised here, as a ResourceWarning
    gc.collect()


def _open_sockets():
    links = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            links.append(os.readlink(f"/proc/self/fd/{fd}"))
        except OSError:  # the fd that listed the directory, closed since
            pass
    return sum(link.startswith("socket:") for link in links)


def test_stub_answers_what_came_before_a_block_it_cannot_frame():
    stub = EchoStub("stub-0").start()
    try:
        with socket.create_connection(("127.0.0.1", stub.port),
                                      timeout=5) as s:
            s.sendall(make_request(b"/svc/a", method=b"POST", body=b"hi")
                      + bad_length_request(b"abc")
                      + make_request(b"/svc/a", method=b"POST", body=b"no"))
            reader = MessageReader(s.recv)
            assert reader.read().endswith(b"\r\n\r\nhi")
            assert reader.read() == b""
        assert stub.hits == 1
    finally:
        stub.stop()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="counts open sockets through /proc")
def test_stub_stop_is_prompt_and_closes_every_socket():
    gc.collect()
    before = _open_sockets()
    stub = EchoStub("stub-0").start()
    with socket.create_connection(("127.0.0.1", stub.port), timeout=5) as s:
        s.sendall(make_request(b"/svc/a", method=b"POST", body=b"hi"))
        assert MessageReader(s.recv).read().endswith(b"X-Stub: stub-0\r\n"
                                                  b"Content-Length: 2\r\n\r\nhi")
        started = time.monotonic()
        stub.stop()
        assert time.monotonic() - started < 0.25
        assert not stub._thread.is_alive()
        assert s.recv(1) == b""  # the stub closed its end
    assert stub.hits == 1
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(("127.0.0.1", stub.port), timeout=5).close()
    assert _open_sockets() <= before
    # a socket left open would be finalised here, as a ResourceWarning
    gc.collect()


def test_live_pipeline_larger_than_the_socket_buffers_completes(proxy):
    # megabytes each way to a client that reads nothing at first: the proxy
    # must wait for its socket to take its replies, and read no more of the
    # client's requests meanwhile
    bodies = [bytes([65 + i % 26]) * 60_000 for i in range(120)]
    with socket.socket() as s:
        s.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        s.settimeout(10)
        s.connect(("127.0.0.1", proxy.port))
        sender = threading.Thread(target=s.sendall, args=(b"".join(
            make_request(b"/svc/a", method=b"POST", body=b) for b in bodies),))
        sender.start()
        _wait(lambda: any(c.writing for c in list(proxy._clients.values())))
        reader = MessageReader(s.recv)
        for b in bodies:
            resp = reader.read()
            assert resp.startswith(b"HTTP/1.1 200") and resp.endswith(b)
        sender.join(timeout=10)
        assert not sender.is_alive()
    assert proxy.delivered == 120
