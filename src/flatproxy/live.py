"""Live proxy mode: the same L7 chain, served over local TCP sockets.

VirtQueues are replaced by a thin socket wrapper with the same
tx-deliver / rx-collect surface, so the chain implementation is shared
between simulation and live operation.  One acceptor, one thread per
client connection, a single control path for config reloads.
"""

from __future__ import annotations

import itertools
import logging
import socket
import socketserver
import threading

from .core import (
    FlowKey,
    Metadata,
    Proto,
    TrafficUnit,
    UnitKind,
    Verdict,
    int_to_ip4,
    ip4_to_int,
    next_conn_id,
)
from .l7 import MalformedHttp, parse_content_length, parse_request_bytes
from .slow_path import MeshConfig, MeshRuntime

log = logging.getLogger("flatproxy.live")

_CRLF = b"\r\n"


def read_http_message(sock_file) -> bytes:
    """Read one HTTP message (headers + Content-Length body) off a socket
    file; returns b'' on clean EOF."""
    head = b""
    while _CRLF + _CRLF not in head:
        chunk = sock_file.read(1)
        if not chunk:
            if head:
                raise MalformedHttp("connection closed mid-headers")
            return b""
        head += chunk
    content_length = 0
    for line in head.split(_CRLF):
        name, colon, value = line.partition(b":")
        if colon and name.strip().lower() == b"content-length":
            content_length = parse_content_length(value)
    body = sock_file.read(content_length) if content_length else b""
    if len(body) != content_length:
        raise MalformedHttp("connection closed mid-body")
    return head + body


class EchoStub:
    """HTTP/1.1 echo server; answers 200 with the request body and an
    X-Stub header naming itself.  Counts requests served."""

    def __init__(self, stub_id: str, host: str = "127.0.0.1", port: int = 0):
        self.stub_id = stub_id
        self.hits = 0
        self._lock = threading.Lock()
        stub = self

        class Handler(socketserver.BaseRequestHandler):
            def handle(self):
                fh = self.request.makefile("rb")
                try:
                    while True:
                        data = read_http_message(fh)
                        if not data:
                            return
                        _msg, body = parse_request_bytes(data)
                        with stub._lock:
                            stub.hits += 1
                        resp = (
                            b"HTTP/1.1 200 OK\r\n"
                            b"X-Stub: " + stub.stub_id.encode() + b"\r\n"
                            b"Content-Length: " + str(len(body)).encode()
                            + b"\r\n\r\n" + body
                        )
                        self.request.sendall(resp)
                except (MalformedHttp, ConnectionError, OSError):
                    return

        class Server(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

        self.server = Server((host, port), Handler)
        self.port = self.server.server_address[1]
        self.host = host
        self._thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )

    def start(self):
        self._thread.start()
        return self

    def stop(self):
        self.server.shutdown()
        self.server.server_close()


class LiveQueue:
    """Socket-backed stand-in for a VirtQueue, same transfer surface."""

    _ids = itertools.count(10_000)

    def __init__(self, sock: socket.socket):
        self.id = next(LiveQueue._ids)
        self.sock = sock
        self.file = sock.makefile("rb")
        self.lock = threading.Lock()

    def tx_deliver(self, data: bytes):
        with self.lock:
            self.sock.sendall(data)

    def rx_collect(self) -> bytes:
        with self.lock:
            return read_http_message(self.file)

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass


class LiveProxy:
    """Serves the configured listeners over real TCP."""

    def __init__(self, config: MeshConfig, listen_host: str = "127.0.0.1",
                 listen_port: int = 0):
        self.live_queues: dict[int, LiveQueue] = {}
        self._lq_lock = threading.Lock()
        self.runtime = MeshRuntime(
            config=config, synchronous=True, connector=self._connect
        )
        if not config.listeners:
            raise ValueError("live mode needs at least one listener")
        self.listener_def = config.listeners[0]
        self.listen_host = listen_host
        requested = listen_port or self.listener_def.dport
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            self._sock.bind((listen_host, requested))
        except OSError:
            if listen_port:
                raise
            self._sock.bind((listen_host, 0))
        self.port = self._sock.getsockname()[1]
        self._sock.listen(128)
        self._stop = threading.Event()
        self._threads = []
        self.delivered = 0
        self._count_lock = threading.Lock()

    # -- connection establishment toward endpoints -------------------------
    def _connect(self, endpoint, meta) -> int:
        addr = (int_to_ip4(endpoint.address.dip), endpoint.address.dport)
        sock = socket.create_connection(addr, timeout=10)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        lq = LiveQueue(sock)
        with self._lq_lock:
            self.live_queues[lq.id] = lq
        return lq.id

    # -- serving -----------------------------------------------------------
    def start(self):
        t = threading.Thread(target=self._accept_loop, daemon=True)
        t.start()
        self._threads.append(t)
        return self

    def _accept_loop(self):
        self._sock.settimeout(0.2)
        while not self._stop.is_set():
            try:
                client, peer = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            t = threading.Thread(
                target=self._serve_client, args=(client, peer), daemon=True
            )
            t.start()
            self._threads.append(t)

    def _serve_client(self, client: socket.socket, peer):
        conn_id = next_conn_id()
        flow = FlowKey(
            sip=ip4_to_int(peer[0]), sport=peer[1],
            dip=self.listener_def.dip, dport=self.listener_def.dport,
            proto=Proto.TCP,
        )
        # accepting the connection is live mode's slow-path moment: install
        # the flow in the L4 table so the chain's toe node classifies it
        from .fast_path import Framing

        self.runtime.conn_controller.publish(
            self.runtime.l4_table, add={flow: ("l7", Framing.HTTP)}
        )
        fh = client.makefile("rb")
        upstream_qid = None
        try:
            # each response is one small write; with Nagle on, a pipelined
            # client waits for the ACK of the previous one
            client.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while not self._stop.is_set():
                try:
                    data = read_http_message(fh)
                except MalformedHttp:
                    client.sendall(_error_response(400, "bad request"))
                    return
                if not data:
                    return
                unit = TrafficUnit(
                    kind=UnitKind.MESSAGE,
                    meta=Metadata(flow=flow, conn_id=conn_id),
                    payload=data,
                )
                unit, _trace = self.runtime.chain.execute(
                    unit, self.runtime.fast_path.ctx
                )
                verdict = unit.meta.verdict
                reason = unit.meta.verdict_reason or ""
                if verdict is Verdict.DELIVER:
                    upstream_qid = unit.meta.queue
                    lq = self.live_queues[upstream_qid]
                    lq.tx_deliver(unit.payload)
                    try:
                        resp = lq.rx_collect()
                    except MalformedHttp:
                        client.sendall(_error_response(502, "bad upstream response"))
                        return
                    # count before relaying so the counter is visible by the
                    # time the client has read the response
                    with self._count_lock:
                        self.delivered += 1
                    client.sendall(resp)
                elif reason.startswith(("no_listener", "no_route")):
                    client.sendall(_error_response(404, reason))
                elif reason.startswith("no_healthy_endpoint"):
                    client.sendall(_error_response(503, reason))
                elif verdict is Verdict.DROP:
                    client.sendall(_error_response(403, reason or "filtered"))
                    return
                else:
                    client.sendall(_error_response(502, reason or "unhandled"))
        except (ConnectionError, OSError):
            return
        finally:
            try:
                client.close()
            except OSError:
                pass
            self.runtime.queue_table.remove(flow)
            self.runtime.conn_controller.publish(
                self.runtime.l4_table, remove=[flow]
            )
            if upstream_qid is not None:
                with self._lq_lock:
                    lq = self.live_queues.pop(upstream_qid, None)
                if lq is not None:
                    lq.close()

    def reload(self, config: MeshConfig):
        self.runtime.distribute(config)

    def stats(self) -> dict:
        snap = self.runtime.stats_snapshot()
        snap["live_delivered"] = self.delivered
        return snap

    def stop(self):
        self._stop.set()
        try:
            self._sock.close()
        except OSError:
            pass


def _error_response(code: int, reason: str) -> bytes:
    text = {400: "Bad Request", 403: "Forbidden", 404: "Not Found",
            502: "Bad Gateway", 503: "Service Unavailable"}.get(code, "Error")
    body = reason.encode() + b"\n"
    return (
        b"HTTP/1.1 " + str(code).encode() + b" " + text.encode() + _CRLF
        + b"Content-Length: " + str(len(body)).encode() + _CRLF + _CRLF + body
    )
