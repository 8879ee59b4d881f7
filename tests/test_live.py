import io
import socket
import threading

import pytest

from flatproxy.l7 import MalformedHttp
from flatproxy.live import EchoStub, LiveProxy, read_http_message
from flatproxy.slow_path import load_config
from conftest import config_text, make_request


def bad_length_request(value):
    return (b"POST /svc/a HTTP/1.1\r\nHost: x\r\nContent-Length: " + value
            + b"\r\n\r\n")


def test_read_http_message_rejects_bad_content_length():
    for value in (b"abc", b"-3", b"+3", b"1_0", b""):
        with pytest.raises(MalformedHttp):
            read_http_message(io.BytesIO(bad_length_request(value) + b"abcdef"))


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
    # length would block until EOF instead of answering
    for value in (b"abc", b"-3"):
        with socket.create_connection(("127.0.0.1", proxy.port),
                                      timeout=5) as s:
            s.sendall(bad_length_request(value))
            assert s.makefile("rb").readline().startswith(b"HTTP/1.1 400")


def test_live_upstream_socket_has_nodelay(proxy):
    with socket.create_connection(("127.0.0.1", proxy.port), timeout=5) as s:
        s.sendall(make_request(b"/svc/a", body=b"hi"))
        assert s.makefile("rb").readline().startswith(b"HTTP/1.1 200")
        (lq,) = proxy.live_queues.values()
        assert lq.sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


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
