"""Live proxy mode: a socket front end over the shared data path.

Each client connection is one flow, served by its own thread: its
requests, framed by `l7.frame_http`, go one at a time, in order and with
their heads, to `FastPath.message` -- the entry `FastPath.ingress` runs each reassembled
message through -- so live traffic shares the chain, counters, VQ egress
and slow path.  Accepting a connection installs nothing in the L4 table:
the requests arrive as MESSAGE units, which the toe PPM passes through
without a lookup.  A route's upstream connection is a LiveQueue in
`runtime.vqs`, with the VirtQueue tx-deliver / rx-collect surface; the
flow's record holds it until the client goes and `close_flow` runs.  One
acceptor, one thread per client connection, a single control path for
config reloads.
"""

from __future__ import annotations

import itertools
import socket
import socketserver
import threading
from http import HTTPStatus

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
from .l7 import ConnectFailure, MalformedHttp, frame_http, parse_request_bytes
from .slow_path import MeshConfig, MeshRuntime, http_status

_RECV_BYTES = 64 * 1024


class HttpReader:
    """Reads `frame_http`-framed messages off `recv(n)` (a socket's recv),
    keeping bytes past a message for the next read, so pipelining works.
    `head` is the `frame_http` head of the message `read` returned last."""

    def __init__(self, recv):
        self._recv = recv
        self._buf = b""
        self.head = None

    def read(self) -> bytes:
        """The next message; b'' on clean EOF.  Raises MalformedHttp on a
        message `frame_http` rejects or a stream that ends mid-message."""
        head = self.head = None
        while True:
            if head is None:
                head = self.head = frame_http(self._buf)
            if head is not None and len(self._buf) >= head[0]:
                data, self._buf = self._buf[:head[0]], self._buf[head[0]:]
                return data
            chunk = self._recv(_RECV_BYTES)
            if not chunk:
                if self._buf:
                    raise MalformedHttp("connection closed mid-message")
                return b""
            self._buf += chunk


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
                reader = HttpReader(self.request.recv)
                try:
                    while data := reader.read():
                        _msg, body = parse_request_bytes(data, reader.head)
                        with stub._lock:
                            stub.hits += 1
                        resp = (
                            b"HTTP/1.1 200 OK\r\n"
                            b"X-Stub: " + stub.stub_id.encode() + b"\r\n"
                            b"Content-Length: " + str(len(body)).encode()
                            + b"\r\n\r\n" + body
                        )
                        self.request.sendall(resp)
                except (MalformedHttp, OSError):
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
    """Socket-backed stand-in for a VirtQueue, same transfer surface.  One
    thread owns it: the client thread of the flow it was opened for is the
    only one that delivers to it and collects from it, so it takes no lock."""

    _ids = itertools.count(10_000)

    def __init__(self, sock: socket.socket):
        self.id = next(LiveQueue._ids)
        self.sock = sock
        self.reader = HttpReader(sock.recv)

    def tx_deliver(self, data: bytes):
        """A socket send, bounded by the socket's own timeout; it never
        raises RingFull."""
        self.sock.sendall(data)

    def rx_collect(self) -> bytes:
        return self.reader.read()

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass


class LiveProxy:
    """Serves the configured listeners over real TCP."""

    def __init__(self, config: MeshConfig, listen_host: str = "127.0.0.1",
                 listen_port: int = 0):
        self.runtime = MeshRuntime(
            config=config, connector=self._connect
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
                self._sock.close()
                raise
            self._sock.bind((listen_host, 0))
        self.port = self._sock.getsockname()[1]
        self._sock.listen(128)
        self._stop = threading.Event()
        self.delivered = 0
        self._count_lock = threading.Lock()

    # -- connection establishment toward endpoints -------------------------
    def _connect(self, endpoint, meta) -> int:
        addr = (int_to_ip4(endpoint.address.dip), endpoint.address.dport)
        try:
            sock = socket.create_connection(addr, timeout=10)
        except OSError as exc:
            raise ConnectFailure(str(exc)) from exc
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        lq = LiveQueue(sock)
        self.runtime.vqs[lq.id] = lq
        return lq.id

    # -- serving -----------------------------------------------------------
    def start(self):
        threading.Thread(target=self._accept_loop, daemon=True).start()
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
            threading.Thread(
                target=self._serve_client, args=(client, peer), daemon=True
            ).start()

    def _serve_client(self, client: socket.socket, peer):
        conn_id = next_conn_id()
        flow = FlowKey(
            sip=ip4_to_int(peer[0]), sport=peer[1],
            dip=self.listener_def.dip, dport=self.listener_def.dport,
            proto=Proto.TCP,
        )
        reader = HttpReader(client.recv)
        try:
            # each response is one small write; with Nagle on, a pipelined
            # client waits for the ACK of the previous one
            client.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while not self._stop.is_set():
                try:
                    data = reader.read()
                except MalformedHttp as exc:
                    # the stream cannot be framed past this point
                    client.sendall(_error_response(400, f"malformed_http:{exc}"))
                    return
                if not data:
                    return
                unit = self.runtime.fast_path.message(TrafficUnit(
                    kind=UnitKind.MESSAGE,
                    meta=Metadata(flow=flow, conn_id=conn_id),
                    payload=data, head=reader.head,
                ))
                verdict, reason = unit.meta.verdict, unit.meta.verdict_reason
                if verdict is not Verdict.DELIVER:
                    client.sendall(_error_response(http_status(verdict, reason),
                                                   reason or "unhandled"))
                    continue
                try:
                    resp = self.runtime.vqs[unit.meta.queue].rx_collect()
                except MalformedHttp:
                    client.sendall(_error_response(502, "bad upstream response"))
                    return
                # count before relaying so the counter is visible by the
                # time the client has read the response
                with self._count_lock:
                    self.delivered += 1
                client.sendall(resp)
        except OSError:
            return
        finally:
            self.runtime.close_flow(flow)
            client.close()

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
    body = reason.encode() + b"\n"
    return (
        b"HTTP/1.1 %d %s\r\nContent-Length: %d\r\n\r\n"
        % (code, HTTPStatus(code).phrase.encode(), len(body)) + body
    )
