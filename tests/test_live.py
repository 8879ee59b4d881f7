import io
import socket
import threading
import time

import pytest

from flatproxy.l7 import MalformedHttp
from flatproxy.live import EchoStub, HttpReader, LiveProxy
from flatproxy.slow_path import load_config
from flatproxy.vq import MAX_DESCRIPTOR_BYTES
from conftest import config_text, make_request


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
    for raw in [bad_length_request(v) for v in (b"+3", b"1_0", b"")] + BAD_FRAMING:
        with pytest.raises(MalformedHttp):
            HttpReader(io.BytesIO(raw + b"abcdef").read).read()


def test_http_reader_waits_for_the_whole_body_and_frames_it_once(monkeypatch):
    from flatproxy import live

    framed = []
    real = live.frame_http

    def counting(data):
        framed.append(len(data))
        return real(data)

    monkeypatch.setattr(live, "frame_http", counting)
    raw = make_request(b"/svc/a", method=b"POST", body=b"x" * 5000)
    chunks = [raw[i:i + 700] for i in range(0, len(raw), 700)]
    reader = HttpReader(lambda n: chunks.pop(0) if chunks else b"")
    assert reader.read() == raw
    assert reader.read() == b""
    # framed once the header block is in, not again per chunk
    assert [n for n in framed if n] == [700]
    short = HttpReader(io.BytesIO(raw[:-1]).read)
    with pytest.raises(MalformedHttp, match="mid-message"):
        short.read()


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


def test_live_parser_reject_gets_400_and_keeps_serving(proxy):
    with socket.create_connection(("127.0.0.1", proxy.port), timeout=5) as s:
        reader = HttpReader(s.recv)
        s.sendall(b"BOGUS\r\nHost: x\r\n\r\n")
        assert reader.read().startswith(b"HTTP/1.1 400")
        s.sendall(make_request(b"/svc/a"))
        assert reader.read().startswith(b"HTTP/1.1 200")


def test_live_traffic_counts_in_fast_path(proxy):
    status = {b"/svc/a": b"HTTP/1.1 200", b"/admin/x": b"HTTP/1.1 403",
              b"/nowhere": b"HTTP/1.1 404"}
    paths = list(status)
    with socket.create_connection(("127.0.0.1", proxy.port), timeout=10) as s:
        reader = HttpReader(s.recv)
        for i in range(1000):
            path = paths[i % len(paths)]
            s.sendall(make_request(path))
            assert reader.read().startswith(status[path])
    c = proxy.runtime.stats_snapshot()["fast_path"]
    # the message half of test_unit_conservation's identity
    assert c["msg_submitted"] == 1000 == (
        c.get("msg_egress", 0) + c.get("msg_dropped", 0)
        + c.get("msg_slow_path", 0)
    )
    assert c["msg_egress"] == proxy.delivered == 334
    # nothing is kept per request
    assert proxy.runtime.fast_path.results() == []
    assert proxy.runtime.stats_snapshot()["slow_path"].get("responded", 0) == 0


def test_live_client_close_releases_upstream(proxy):
    with socket.create_connection(("127.0.0.1", proxy.port), timeout=5) as s:
        s.sendall(make_request(b"/svc/a"))
        assert HttpReader(s.recv).read().startswith(b"HTTP/1.1 200")
        (lq,) = proxy.runtime.vqs.values()
        assert proxy.runtime.stats_snapshot()["connections"] == {"open": 1}
    deadline = time.monotonic() + 5
    while proxy.runtime.vqs and time.monotonic() < deadline:
        time.sleep(0.01)
    assert proxy.runtime.vqs == {}
    assert len(proxy.runtime.queue_table) == 0
    assert lq.sock.fileno() == -1
    # the flow's record and its endpoint's LB count go with it
    assert proxy.runtime.conns == {}
    endpoints = [e for c in proxy.runtime.config.clusters for e in c.endpoints]
    assert [e.active_conns for e in endpoints] == [0]
    # live flows are never installed in the L4 table, nor removed from it
    assert proxy.runtime.l4_table.epoch == 0


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
        assert c["msg_submitted"] == c["msg_slow_path"] == 1
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
    finally:
        done.set()
        proxy.stop()
        upstream.close()
