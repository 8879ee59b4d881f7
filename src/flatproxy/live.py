"""Live proxy mode: a socket front end over the shared data path.

One thread runs the proxy: a `selectors` loop over non-blocking sockets,
namely one listening socket per configured listener, the clients they
accept and each client's upstream connection.  The echo stub runs on a
loop of the same kind, and every one of these sockets is read by an
`l7.HttpReader`, the reader the TOE uses.  Each client connection is one
flow, with the `dip`/`dport` of the listener that accepted it.  Its
requests go in order and with their heads to `FastPath.message` -- the
entry `FastPath.ingress` runs each reassembled message through -- so live
traffic shares the chain, counters and VQ egress, and only the loop
thread ever runs them.  Accepting a connection builds the flow's one
record, `MeshRuntime.open_flow`, which the client holds and whose reader
reads its requests; the kernel has reassembled them, so the TOE never
does: each request arrives framed, and goes in as one `core.Message` with
the record, as the TOE's messages do.

A route's upstream connection is a LiveQueue, the record's queue, kept in
`runtime.vqs`; the record holds it until the client goes and `close_flow`
runs.  A client's requests pipeline upstream, and its replies keep a FIFO
in request order, each entry either outstanding upstream or a local reply
to a dropped request, with the status `http_status` gives its reason (400,
403, 404, 502...), so per-flow FIFO holds by construction.  Each response
relayed from upstream is counted `resp_egress`, and each 502 for a request
a failed upstream left unanswered `upstream_failed`, in the fast path's
counters.  A config reload is handed to the loop and applied between
events.  A client that closes its side is closed at once and its flow
released; replies still owed to it are dropped.
"""

from __future__ import annotations

import itertools
import logging
import selectors
import socket
import threading
from collections import deque
from concurrent.futures import Future
from http import HTTPStatus

from .core import Conn, FlowKey, Message, Verdict, int_to_ip4, ip4_to_int
from .fast_path import http_status
from .l7 import ConnectFailure, HttpReader
from .slow_path import MeshConfig, MeshRuntime

log = logging.getLogger(__name__)

_RECV_BYTES = 64 * 1024
_READ, _WRITE = selectors.EVENT_READ, selectors.EVENT_WRITE
_DELIVER = Verdict.DELIVER


class _End:
    """A connected socket on the loop: the reader of what it sends, the
    bytes `out` not yet written to it, and whether the loop waits to."""

    def __init__(self, sock: socket.socket, reader: HttpReader = None):
        self.sock = sock
        self.reader = reader or HttpReader()
        self.out = bytearray()
        self.writing = False


class _Loop:
    """A `selectors` loop over non-blocking sockets on a thread of its own,
    which the proxy and the echo stub both run on.  A socket's data is
    `(handler, arg)`: each event calls `handler(arg, mask)`, and `_close(arg)`
    if that raises on an open `_End`.  `_turned` runs after each batch of
    events and once the loop has gone."""

    def __init__(self, name: str):
        self._sel = selectors.DefaultSelector()
        self._stopping = False
        self._thread = threading.Thread(target=self._serve, daemon=True,
                                        name=name)
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_w.setblocking(False)
        self._sel.register(self._wake_r, _READ, (self._woken, None))

    def start(self):
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
                        log.exception("%s failed", handler.__qualname__)
                        if isinstance(arg, _End) and arg.sock.fileno() >= 0:
                            self._close(arg)
                self._turned()
        finally:
            self._close_all()
            self._turned()

    def _turned(self):
        pass

    def _watch(self, end: _End, busy, data):
        """Wait on `end` for `busy` while its `out` holds bytes, and to read
        once it holds none."""
        if bool(end.out) is not end.writing:
            end.writing = not end.writing
            self._sel.modify(end.sock, busy if end.writing else _READ, data)

    def _close_all(self):
        """Close every socket still registered, then the loop's own."""
        for key in list(self._sel.get_map().values()):
            key.fileobj.close()
        self._wake_w.close()
        self._sel.close()

    def _woken(self, _arg, _mask):
        self._wake_r.recv(4096)

    def _wake(self):
        try:
            self._wake_w.send(b"\0")
        except OSError:  # full, so a wakeup is pending anyway; or closed
            pass

    def stop(self):
        """Returns once the loop has gone and every socket it opened is
        closed."""
        self._stopping = True
        if self._thread.ident is None:  # never started
            self._close_all()
        else:
            self._wake()
            self._thread.join()


class EchoStub(_Loop):
    """HTTP/1.1 echo server on a loop of its own; answers 200 with the
    request body and an X-Stub header naming itself.  Counts requests
    served.  A connection is not read while its answers wait unwritten."""

    def __init__(self, stub_id: str, host: str = "127.0.0.1", port: int = 0):
        lsock = _listen(host, port, False)
        super().__init__(f"flatproxy-stub-{stub_id}")
        self._sel.register(lsock, _READ, (self._accept, lsock))
        self.stub_id = stub_id
        self.hits = 0
        self.host = host
        self.port = lsock.getsockname()[1]
        self._ok = b"HTTP/1.1 200 OK\r\nX-Stub: %s\r\n" % stub_id.encode()

    def _accept(self, lsock, _mask):
        for sock, _peer in _accepted(lsock):
            self._sel.register(sock, _READ, (self._echo, _End(sock)))

    def _echo(self, end: _End, mask):
        if mask & _READ:
            data = _recv(end.sock)
            if data == b"":
                return self._close(end)
            for msg, head in end.reader.take(data or b""):
                if head is None:  # answer what came before it, then close
                    _send(end.sock, end.out)
                    return self._close(end)
                body = msg[head[1]:]  # from the head's body_at
                self.hits += 1
                end.out += b"%sContent-Length: %d\r\n\r\n%s" % (
                    self._ok, len(body), body)
        if _send(end.sock, end.out):
            self._watch(end, _WRITE, (self._echo, end))
        else:
            self._close(end)

    def _close(self, end: _End):
        self._sel.unregister(end.sock)
        end.sock.close()


class LiveQueue(_End):
    """Socket-backed stand-in for a VirtQueue, owned by the loop thread.
    `tx_deliver` queues a request in `out` for the loop to write, as
    `VirtQueue.tx_deliver` takes one; `rx_collect`, unlike the VirtQueue's,
    takes the bytes the loop has read off the socket and returns every
    whole response they complete."""

    _ids = itertools.count(10_000)

    def __init__(self, sock: socket.socket):
        super().__init__(sock)
        self.id = next(LiveQueue._ids)

    def tx_deliver(self, data: bytes):
        """Never raises RingFull: what the socket has not taken waits."""
        self.out += data

    def rx_collect(self, data: bytes):
        """Add `data`, read off the socket, and return each whole response
        held, in order, as `HttpReader.take` does."""
        return self.reader.take(data)

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass


class _Client(_End):
    """One accepted connection, one flow, and `conn`, the flow's record,
    whose reader is the client's and whose queue is its upstream LiveQueue
    once routed.  `replies` holds its replies in request order -- None for
    a request outstanding upstream, the bytes of a local reply that waits
    for the ones before it."""

    def __init__(self, sock: socket.socket, flow: FlowKey, conn: Conn):
        super().__init__(sock, conn.reader)
        self.flow = flow
        self.conn = conn
        self.replies = deque()
        self.closing = False  # takes no more requests; closed once answered

    @property
    def upstream(self):
        """The record's queue while its socket is open, else None."""
        up = self.conn.queue
        return up if up is not None and up.sock.fileno() >= 0 else None


class LiveProxy(_Loop):
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
        super().__init__("flatproxy-live")
        self.listen_host = listen_host
        self.ports = {}
        self._clients: dict[FlowKey, _Client] = {}
        self._inbox = deque()  # (config, Future): reloads for the loop
        try:
            for i, ldef in enumerate(config.listeners):
                fixed = listen_port if i == 0 else 0
                sock = _listen(listen_host, fixed or ldef.dport, not fixed)
                self._sel.register(sock, _READ, (self._accept, (sock, ldef)))
                self.ports[ldef.name] = sock.getsockname()[1]
        except OSError:
            self._close_all()
            raise
        self.port = self.ports[config.listeners[0].name]

    # -- connection establishment toward endpoints -------------------------
    def _connect(self, endpoint, msg: Message) -> LiveQueue:
        """A blocking connect: loopback endpoints connect or refuse at once."""
        ip, port = endpoint.address
        try:
            sock = socket.create_connection((int_to_ip4(ip), port), timeout=10)
        except OSError as exc:
            raise ConnectFailure(str(exc)) from exc
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        lq = LiveQueue(sock)
        self._sel.register(sock, _READ, (self._upstream_event,
                                         self._clients[msg.flow]))
        return lq

    # -- the loop ----------------------------------------------------------
    def _accept(self, listener, _mask):
        lsock, ldef = listener
        for sock, peer in _accepted(lsock):
            flow = FlowKey(sip=ip4_to_int(peer[0]), sport=peer[1],
                           dip=ldef.dip, dport=ldef.dport)
            c = self._clients[flow] = _Client(
                sock, flow, self.runtime.open_flow(flow))
            self._sel.register(sock, _READ, (self._client_event, c))

    def _client_event(self, c: _Client, mask):
        if c.sock.fileno() < 0:  # closed earlier in this batch of events
            return
        if mask & _READ:
            data = _recv(c.sock)
            if data is None:
                return
            if not data:  # the client has gone: what it awaits is dropped
                return self._close(c)
            self._requests(c, data)
        self._settle(c)

    def _requests(self, c: _Client, data: bytes):
        """Run each whole request `c` has sent, now with `data`, through
        the data path, in order, and queue its reply; none once `c` is
        closing.  A block that cannot be framed goes through alone, with no
        head, as the TOE's does, and `c` takes nothing after it."""
        if c.closing:
            return
        message = self.runtime.fast_path.message
        for raw, head in c.reader.take(data):
            msg = message(Message(c.flow, raw, head, c.conn))
            if msg.verdict is _DELIVER:
                c.replies.append(None)
            else:
                # the reason before any ':', so no input bytes reach the body
                reason = msg.verdict_reason.partition(":")[0]
                self._reply(c, _error_response(http_status(reason), reason))
            if head is None:
                c.closing = True
                return

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
            if not data or not self._relay(c, up, data):
                self._upstream_failed(c)
        self._settle(c)

    def _relay(self, c: _Client, up: LiveQueue, data: bytes) -> bool:
        """Answer `c`'s oldest outstanding requests with the whole responses
        `up` holds, now with `data`, each counted `resp_egress`; False on
        one that cannot be framed or that no request awaits."""
        ctx = self.runtime.fast_path.ctx
        for resp, head in up.rx_collect(data):
            if head is None or not c.replies:
                return False
            c.replies.popleft()
            # counted before it is written, so the count is visible by the
            # time the client has read the response
            ctx["resp_egress"] += 1
            c.out += resp
            while c.replies and c.replies[0] is not None:
                c.out += c.replies.popleft()
        return True

    def _upstream_failed(self, c: _Client):
        """The upstream closed or sent what cannot be relayed: it is closed,
        though it stays the record's queue until `close_flow`, each request
        still outstanding on it gets a 502, counted `upstream_failed`, and
        `c` takes no more."""
        up = c.upstream
        self._sel.unregister(up.sock)
        up.close()
        ctx = self.runtime.fast_path.ctx
        for r in c.replies:
            if r is None:
                ctx["upstream_failed"] += 1
                r = _BAD_GATEWAY
            c.out += r
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

    def _close(self, c: _Client):
        """Close a client and release its flow, upstream included."""
        del self._clients[c.flow]
        self._sel.unregister(c.sock)
        c.sock.close()
        up = c.upstream
        if up is not None:
            self._sel.unregister(up.sock)
        self.runtime.close_flow(c.flow)

    def _close_all(self):
        for c in list(self._clients.values()):
            self._close(c)
        super()._close_all()

    # -- control -----------------------------------------------------------
    def _turned(self):
        """Apply the reloads handed to the loop."""
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
        if self._thread.ident is None or self._stopping:
            # no loop, or one on its way out: once it has gone, this thread
            # is the only one that touches the runtime
            if self._thread.ident is not None:
                self._thread.join()
            self._turned()
        else:
            self._wake()
        return done.result()

    @property
    def delivered(self) -> int:
        """The responses relayed to clients: the `resp_egress` count."""
        return self.runtime.fast_path.ctx.get("resp_egress", 0)


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


def _accepted(lsock: socket.socket):
    """Each connection `lsock` has waiting, with its peer, non-blocking and
    with TCP_NODELAY set: each response is one small write, and with Nagle
    on a pipelining client waits for the ACK of the one before."""
    while True:
        try:
            sock, peer = lsock.accept()
        except OSError:  # none left to accept, or the accept failed
            return
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        yield sock, peer


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
