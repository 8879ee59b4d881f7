"""Live proxy mode: a socket front end over the shared data path.

One thread runs the proxy: a `selectors` loop over non-blocking sockets,
namely one listening socket per configured listener, the clients they
accept and each client's upstream connection.  Each client connection is
one flow, with the `dip`/`dport` of the listener that accepted it.  Its
requests, framed by `l7.frame_http`, go in order and with their heads to
`FastPath.message` -- the entry `FastPath.ingress` runs each reassembled
message through -- so live traffic shares the chain, counters, VQ egress
and slow path, and only the loop thread ever runs them.  Accepting a
connection installs nothing in the L4 table: the requests arrive as
MESSAGE units, which the toe PPM passes through without a lookup.

A route's upstream connection is a LiveQueue in `runtime.vqs`, with the
VirtQueue tx-deliver / rx-collect surface; the flow's record holds it until
the client goes and `close_flow` runs.  A client's requests pipeline
upstream, and its replies keep a FIFO in request order, each entry either
outstanding upstream or a reply built locally (400, 403, 404, 502...), so
per-flow FIFO holds by construction.  A config reload is handed to the
loop and applied between events.  A client that closes its side is closed
at once and its flow released; replies still owed to it are dropped.
"""

from __future__ import annotations

import itertools
import logging
import selectors
import socket
import socketserver
import threading
from collections import deque
from concurrent.futures import Future
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

log = logging.getLogger(__name__)

_RECV_BYTES = 64 * 1024
_READ, _WRITE = selectors.EVENT_READ, selectors.EVENT_WRITE


class HttpReader:
    """Frames `frame_http` messages off a byte stream, keeping bytes past a
    message for the next, so pipelining works.  The loop `feed`s it what a
    socket brought in and `take`s whole messages; `read` pulls from
    `recv(n)`, a blocking socket's recv, until it has one.  `head` is the
    `frame_http` head of the message `read` returned last."""

    def __init__(self, recv=None):
        self._recv = recv
        self._buf = b""
        self._need = None  # the head of the message at the front, once framed
        self.head = None

    def feed(self, data: bytes):
        self._buf += data

    def take(self):
        """The next whole message held and its head, or None.  Raises
        MalformedHttp on a message `frame_http` rejects."""
        head = self._need
        if head is None:
            head = self._need = frame_http(self._buf)
            if head is None:
                return None
        if len(self._buf) < head[0]:
            return None
        self._need = None
        data, self._buf = self._buf[:head[0]], self._buf[head[0]:]
        return data, head

    def read(self) -> bytes:
        """The next message; b'' on clean EOF.  Raises MalformedHttp on a
        message `frame_http` rejects or a stream that ends mid-message."""
        while (msg := self.take()) is None:
            chunk = self._recv(_RECV_BYTES)
            if not chunk:
                if self._buf:
                    raise MalformedHttp("connection closed mid-message")
                return b""
            self._buf += chunk
        data, self.head = msg
        return data


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
                # each response is one write: with Nagle on, a response to
                # a pipelined request waits for the ACK of the one before
                self.request.setsockopt(socket.IPPROTO_TCP,
                                        socket.TCP_NODELAY, 1)
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
    """Socket-backed stand-in for a VirtQueue, same transfer surface, owned
    by the loop thread.  `tx_deliver` queues a request in `out` for the loop
    to write; `rx_collect` returns the next whole response the loop has
    read off the socket, or None."""

    _ids = itertools.count(10_000)

    def __init__(self, sock: socket.socket):
        self.id = next(LiveQueue._ids)
        self.sock = sock
        self.reader = HttpReader()
        self.out = bytearray()
        self.writing = False  # whether the loop waits to write `out`

    def tx_deliver(self, data: bytes):
        """Never raises RingFull: what the socket has not taken waits."""
        self.out += data

    def rx_collect(self):
        msg = self.reader.take()
        return msg and msg[0]

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass


class _Client:
    """One accepted connection, one flow.  `replies` holds its replies in
    request order -- None for a request outstanding upstream, the bytes of
    a local reply that waits for the ones before it -- and `out` the bytes
    not yet written to it."""

    def __init__(self, sock: socket.socket, flow: FlowKey):
        self.sock = sock
        self.flow = flow
        self.conn_id = next_conn_id()
        self.reader = HttpReader()
        self.replies = deque()
        self.out = bytearray()
        self.writing = False  # whether the loop waits to write `out`
        self.upstream = None  # its LiveQueue, once routed
        self.closing = False  # takes no more requests; closed once answered


class LiveProxy:
    """Serves every configured listener over real TCP, on one loop thread.
    `ports` maps each listener's name to its port, `port` is the first
    one's.  The first listener binds `listen_port` if it is given; any
    other binds its `dport`, or a free port if that one is taken.  The
    listening sockets are those of the config it starts with: a reload
    changes the rules, not the sockets."""

    def __init__(self, config: MeshConfig, listen_host: str = "127.0.0.1",
                 listen_port: int = 0):
        if not config.listeners:
            raise ValueError("live mode needs at least one listener")
        self.runtime = MeshRuntime(config=config, connector=self._connect)
        self.listen_host = listen_host
        self.delivered = 0
        self.ports = {}
        self._sel = selectors.DefaultSelector()
        self._clients: dict[FlowKey, _Client] = {}
        self._inbox = deque()  # (config, Future): reloads for the loop
        self._stopping = False
        self._thread = None
        self._listeners = []
        self._wake_r, self._wake_w = socket.socketpair()
        try:
            self._wake_r.setblocking(False)
            self._wake_w.setblocking(False)
            self._sel.register(self._wake_r, _READ, (self._woken, None))
            for i, ldef in enumerate(config.listeners):
                fixed = listen_port if i == 0 else 0
                sock = _listen(listen_host, fixed or ldef.dport, not fixed)
                self._listeners.append(sock)
                self._sel.register(sock, _READ, (self._accept, (sock, ldef)))
                self.ports[ldef.name] = sock.getsockname()[1]
        except OSError:
            self._close_all()
            raise
        self.port = self.ports[config.listeners[0].name]

    # -- connection establishment toward endpoints -------------------------
    def _connect(self, endpoint, meta) -> int:
        """A blocking connect: loopback endpoints connect or refuse at once."""
        addr = (int_to_ip4(endpoint.address.dip), endpoint.address.dport)
        try:
            sock = socket.create_connection(addr, timeout=10)
        except OSError as exc:
            raise ConnectFailure(str(exc)) from exc
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        lq = LiveQueue(sock)
        self.runtime.vqs[lq.id] = lq
        c = self._clients[meta.flow]
        c.upstream = lq
        self._sel.register(sock, _READ, (self._upstream_event, c))
        return lq.id

    # -- the loop ----------------------------------------------------------
    def start(self):
        self._thread = threading.Thread(target=self._serve, daemon=True,
                                        name="flatproxy-live")
        self._thread.start()
        return self

    def _serve(self):
        try:
            while not self._stopping:
                for key, mask in self._sel.select():
                    handler, arg = key.data
                    try:
                        handler(arg, mask)
                    except Exception:
                        # one connection's fault must not stop the others
                        log.exception("live: %s failed", handler.__name__)
                        if isinstance(arg, _Client) and arg.sock.fileno() >= 0:
                            self._close(arg)
                self._apply_inbox()
        finally:
            self._close_all()
            self._apply_inbox()

    def _accept(self, listener, _mask):
        lsock, ldef = listener
        while True:
            try:
                sock, peer = lsock.accept()
            except OSError:  # none left to accept, or the accept failed
                return
            sock.setblocking(False)
            # each response is one small write; with Nagle on, a pipelined
            # client waits for the ACK of the previous one
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            flow = FlowKey(
                sip=ip4_to_int(peer[0]), sport=peer[1],
                dip=ldef.dip, dport=ldef.dport, proto=Proto.TCP,
            )
            c = self._clients[flow] = _Client(sock, flow)
            self._sel.register(sock, _READ, (self._client_event, c))

    def _client_event(self, c: _Client, mask):
        if c.sock.fileno() < 0:  # closed earlier in this batch of events
            return
        if mask & _READ:
            data = _recv(c.sock)
            if data is None:
                return
            if not data:  # the client has gone: what it awaits is dropped
                self._close(c)
                return
            if not c.closing:
                c.reader.feed(data)
                self._requests(c)
        self._settle(c)

    def _requests(self, c: _Client):
        """Run each whole request `c` has sent through the data path, in
        order, and queue its reply."""
        while True:
            try:
                msg = c.reader.take()
            except MalformedHttp as exc:
                # the stream cannot be framed past this point
                self._reply(c, _error_response(400, f"malformed_http:{exc}"))
                c.closing = True
                return
            if msg is None:
                return
            meta = self.runtime.fast_path.message(TrafficUnit(
                kind=UnitKind.MESSAGE,
                meta=Metadata(flow=c.flow, conn_id=c.conn_id),
                payload=msg[0], head=msg[1],
            )).meta
            if meta.verdict is Verdict.DELIVER:
                c.replies.append(None)
            else:
                reason = meta.verdict_reason
                self._reply(c, _error_response(http_status(meta.verdict, reason),
                                               reason or "unhandled"))

    def _reply(self, c: _Client, data: bytes):
        if c.replies:
            c.replies.append(data)
        else:
            c.out += data

    def _upstream_event(self, c: _Client, mask):
        up = c.upstream
        if up is None or c.sock.fileno() < 0:  # gone earlier in this batch
            return
        if mask & _READ:
            data = _recv(up.sock)
            if data is None:
                return
            up.reader.feed(data)
            if not data or not self._relay(c, up):
                self._upstream_failed(c)
        self._settle(c)

    def _relay(self, c: _Client, up: LiveQueue) -> bool:
        """Answer `c`'s oldest outstanding requests with the whole responses
        `up` holds; False on one that cannot be framed or that no request
        awaits."""
        try:
            while (resp := up.rx_collect()) is not None:
                if not c.replies:
                    return False
                c.replies.popleft()
                # counted before it is written, so the count is visible by
                # the time the client has read the response
                self.delivered += 1
                c.out += resp
                while c.replies and c.replies[0] is not None:
                    c.out += c.replies.popleft()
        except MalformedHttp:
            return False
        return True

    def _upstream_failed(self, c: _Client):
        """The upstream closed or sent what cannot be relayed: each request
        still outstanding on it gets a 502, and `c` takes no more."""
        self._sel.unregister(c.upstream.sock)
        c.upstream = None
        for r in c.replies:
            c.out += _BAD_GATEWAY if r is None else r
        c.replies.clear()
        c.closing = True

    def _settle(self, c: _Client):
        """Write what `c` and its upstream take, and wait on each for what
        it needs next: a client with bytes unwritten sends no more requests
        until they are.  Close `c` once it is closing and answered."""
        up = c.upstream
        if up is not None:
            if _send(up.sock, up.out):
                self._watch(up, _READ | _WRITE, (self._upstream_event, c))
            else:
                self._upstream_failed(c)
        if not _send(c.sock, c.out) or \
                (c.closing and not c.replies and not c.out):
            self._close(c)
        else:
            self._watch(c, _WRITE, (self._client_event, c))

    def _watch(self, end, busy, data):
        """Wait on `end` (a _Client or LiveQueue) for `busy` while its `out`
        holds bytes, and to read once it holds none."""
        if bool(end.out) is not end.writing:
            end.writing = not end.writing
            self._sel.modify(end.sock, busy if end.writing else _READ, data)

    def _close(self, c: _Client):
        """Close a client and release its flow, upstream included."""
        del self._clients[c.flow]
        self._sel.unregister(c.sock)
        c.sock.close()
        if c.upstream is not None:
            self._sel.unregister(c.upstream.sock)
        self.runtime.close_flow(c.flow)

    def _close_all(self):
        for c in list(self._clients.values()):
            self._close(c)
        for sock in self._listeners + [self._wake_r, self._wake_w]:
            sock.close()
        self._sel.close()

    # -- control -----------------------------------------------------------
    def _woken(self, _arg, _mask):
        try:
            while self._wake_r.recv(4096):
                pass
        except BlockingIOError:
            pass

    def _wake(self):
        try:
            self._wake_w.send(b"\0")
        except OSError:  # full, so a wakeup is pending anyway; or closed
            pass

    def _apply_inbox(self):
        while self._inbox:
            config, done = self._inbox.popleft()
            try:
                done.set_result(self.runtime.distribute(config))
            except Exception as exc:  # raised to the caller of reload
                done.set_exception(exc)

    def reload(self, config: MeshConfig) -> dict:
        """Apply `config` on the loop thread, between events; returns the
        table epochs `distribute` returns once it is applied."""
        done = Future()
        self._inbox.append((config, done))
        if self._thread is None or self._stopping:
            # no loop, or one on its way out: once it has gone, this thread
            # is the only one that touches the runtime
            if self._thread is not None:
                self._thread.join()
            self._apply_inbox()
        else:
            self._wake()
        return done.result()

    def stats(self) -> dict:
        snap = self.runtime.stats_snapshot()
        snap["live_delivered"] = self.delivered
        return snap

    def stop(self):
        """Returns once the loop has gone and every socket it opened is
        closed."""
        self._stopping = True
        if self._thread is None:
            self._close_all()
        else:
            self._wake()
            self._thread.join()


def _listen(host: str, port: int, fallback: bool) -> socket.socket:
    """A non-blocking socket listening on `port`, or, with `fallback`, on
    a free port if that one is taken."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            sock.bind((host, port))
        except OSError:
            if not fallback:
                raise
            sock.bind((host, 0))
        sock.listen(128)
        sock.setblocking(False)
    except OSError:
        sock.close()
        raise
    return sock


def _recv(sock: socket.socket):
    """What `sock` holds now: b'' once the peer is gone, None if nothing."""
    try:
        return sock.recv(_RECV_BYTES)
    except BlockingIOError:
        return None
    except OSError:
        return b""


def _send(sock: socket.socket, out: bytearray) -> bool:
    """Write what `sock` takes of `out` now; False once the peer is gone."""
    if out:
        try:
            del out[:sock.send(out)]
        except BlockingIOError:
            pass
        except OSError:
            return False
    return True


def _error_response(code: int, reason: str) -> bytes:
    body = reason.encode() + b"\n"
    return (
        b"HTTP/1.1 %d %s\r\nContent-Length: %d\r\n\r\n"
        % (code, HTTPStatus(code).phrase.encode(), len(body)) + body
    )


_BAD_GATEWAY = _error_response(502, "upstream failed")
