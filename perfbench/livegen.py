"""live_loopback: an open-loop HTTP/1.1 load generator against a LiveProxy
that runs in its own process (`live_proxy.py`), over the host loopback.

The generator uses two threads and two keep-alive connections, no more
than the two cores it was sized for: the caller's thread sends on a fixed
schedule, pipelining, and one receiver thread reads both connections.  Each
request is timed from when it was due, not from when it was sent, so a
stall counts against every request queued behind it (no coordinated
omission); how late the sender ran is reported separately.

TCP_NODELAY is set on the generator's own sockets only.  The proxy's
sockets keep Nagle's algorithm on, as the program sets them.
"""

from __future__ import annotations

import json
import random
import selectors
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from pathlib import Path
from time import perf_counter, perf_counter_ns


HERE = Path(__file__).resolve().parent
N_CONNS = 2
BODY_BYTES = 16
REQUEST_HEAD = (b"POST /svc/a HTTP/1.1\r\nHost: backend\r\nContent-Length: %d\r\n\r\n"
                % BODY_BYTES)
REQUEST_BYTES = len(REQUEST_HEAD) + BODY_BYTES
REF_RATE = 1000.0  # req/s, below capacity: live_p50_ms and live_p99_ms
REF_SECONDS = 1.5
LIMIT_MS = 20.0  # live_max_rps: p99 limit per ladder step
STEP_SECONDS = 0.3
STEP_GROWTH = 1.05
FIRST_RATE = 1000.0
MIN_RATE = 100.0
LADDERS_PER_PROXY = 2
START_TIMEOUT_S = 30.0


class ProxyProcess:
    """The proxy and its stubs in a child process; a context manager."""

    def __init__(self, trace: bool):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "live_proxy.py"), "1" if trace else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait(timeout=START_TIMEOUT_S)
            raise RuntimeError("proxy process exited before it was ready")
        self.port = json.loads(line)["port"]

    def stop(self) -> dict:
        out, _ = self.proc.communicate("stop\n", timeout=START_TIMEOUT_S)
        lines = out.strip().splitlines()
        return json.loads(lines[-1]) if lines else {}

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class _Conn:
    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(True)
        self.buf = bytearray()
        self.pending = deque()  # (due_ns, body), in send order
        self.stub = None
        self.closed = False


class Generator:
    def __init__(self, port: int, rng):
        self.rng = rng
        self.conns = [_Conn(port) for _ in range(N_CONNS)]
        self.latencies = []  # ns from due time, current step
        self.failed = 0
        self.wrong = 0
        self.responses = [0] * N_CONNS
        self._sel = selectors.DefaultSelector()
        for i, c in enumerate(self.conns):
            self._sel.register(c.sock, selectors.EVENT_READ, i)
        self._stop = threading.Event()
        self._idle = threading.Condition()
        self._thread = threading.Thread(target=self._receive, daemon=True)
        self._thread.start()

    # -- receiving ---------------------------------------------------------
    def _receive(self):
        while not self._stop.is_set():
            for key, _ in self._sel.select(timeout=0.05):
                i = key.data
                c = self.conns[i]
                try:
                    data = c.sock.recv(65536)
                except OSError:
                    data = b""
                now = perf_counter_ns()
                if not data:
                    self._sel.unregister(c.sock)
                    c.closed = True
                    with self._idle:
                        self.failed += len(c.pending)
                        c.pending.clear()
                        self._idle.notify_all()
                    continue
                c.buf += data
                self._parse(i, c, now)

    def _parse(self, i, c: _Conn, now: int):
        while True:
            end = c.buf.find(b"\r\n\r\n")
            if end < 0:
                return
            head = bytes(c.buf[:end]).split(b"\r\n")
            length, stub = 0, None
            for line in head[1:]:
                name, _, value = line.partition(b":")
                name = name.strip().lower()
                if name == b"content-length":
                    length = int(value)
                elif name == b"x-stub":
                    stub = value.strip()
            total = end + 4 + length
            if len(c.buf) < total:
                return
            body = bytes(c.buf[end + 4:total])
            del c.buf[:total]
            due, sent_body = c.pending.popleft()
            ok = head[0].startswith(b"HTTP/1.1 200") and body == sent_body
            if c.stub is None:
                c.stub = stub
            ok = ok and stub == c.stub
            with self._idle:
                if ok:
                    self.latencies.append(now - due)
                    self.responses[i] += 1
                else:
                    self.wrong += 1
                    self.failed += 1
                if not c.pending:
                    self._idle.notify_all()

    # -- sending -----------------------------------------------------------
    def step(self, rate: float, seconds: float) -> dict:
        """Offer `rate` req/s for `seconds`, then wait for the answers."""
        with self._idle:
            self.latencies = []
            failed0 = self.failed
        n = max(1, int(rate * seconds))
        interval = 1e9 / rate
        bodies = [self.rng.randbytes(BODY_BYTES) for _ in range(n)]
        reqs = [REQUEST_HEAD + b for b in bodies]
        lag = []
        t0 = perf_counter_ns() + 1_000_000
        i = 0
        while i < n:
            now = perf_counter_ns()
            due = t0 + int(i * interval)
            if now < due:
                time.sleep((due - now) / 1e9)
                continue
            batches = [[] for _ in self.conns]
            while i < n and t0 + int(i * interval) <= now:
                due_i = t0 + int(i * interval)
                c = self.conns[i % N_CONNS]
                c.pending.append((due_i, bodies[i]))
                batches[i % N_CONNS].append(reqs[i])
                lag.append(now - due_i)
                i += 1
            for c, batch in zip(self.conns, batches):
                if batch and not c.closed:
                    c.sock.sendall(b"".join(batch))
        deadline = perf_counter() + max(2.0, seconds)
        with self._idle:
            while any(c.pending for c in self.conns):
                left = deadline - perf_counter()
                if left <= 0:
                    break
                self._idle.wait(left)
            late = sum(len(c.pending) for c in self.conns)
            lat = sorted(self.latencies)
            failed = self.failed - failed0
        return {"sent": n, "failed": failed, "late": late, "latencies": lat,
                "lag": sorted(lag)}

    def close(self):
        for c in self.conns:
            try:
                c.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        self._stop.set()
        self._thread.join(timeout=5)
        for c in self.conns:
            c.sock.close()
        self._sel.close()
        # requests left unanswered when the generator stops count as failed
        with self._idle:
            return sum(len(c.pending) for c in self.conns)


def pct(sorted_values, p):
    """Nearest-rank percentile of sorted values; inf when there are none."""
    if not sorted_values:
        return float("inf")
    return sorted_values[min(len(sorted_values) - 1, int(p / 100 * len(sorted_values)))]


def _passes(res) -> bool:
    return (res["failed"] == 0 and res["late"] == 0
            and pct(res["latencies"], 99) <= LIMIT_MS * 1e6)


def ladder(gen: Generator, start: float, growth: float):
    """Highest offered rate whose step meets the limit, or None: steps
    down from `start` until one passes, then up by `growth` until one
    fails.  Returns (rate, step results)."""
    rate, steps = start, []
    while True:
        res = gen.step(rate, STEP_SECONDS)
        steps.append(res)
        if _passes(res):
            break
        rate /= 1.25
        if rate < MIN_RATE:
            return None, steps
    best = rate
    while True:
        rate *= growth
        res = gen.step(rate, STEP_SECONDS)
        steps.append(res)
        if not _passes(res):
            return best, steps
        best = rate


def run_live(seed: int, seconds: float, trace: bool) -> dict:
    """Proxy processes one after another.  Each serves, on fresh
    connections, a reference-rate probe (live_p50_ms, live_p99_ms), then
    rate ladders (live_max_rps)."""
    rng = random.Random(seed)
    rounds = []
    estimate = None
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(rounds) < 2:
        t0 = perf_counter()
        with ProxyProcess(trace) as proxy:
            gen = Generator(proxy.port, rng)
            setup_s = perf_counter() - t0
            ref = gen.step(REF_RATE, REF_SECONDS)
            ladders = []
            for _ in range(LADDERS_PER_PROXY):
                # the first ladder of a run searches coarsely from a low
                # rate, later ones finely from below the last result
                if estimate is None:
                    best, steps = ladder(gen, FIRST_RATE, 1.25)
                else:
                    best, steps = ladder(gen, estimate * 0.8, STEP_GROWTH)
                ladders.append({"max_rps": best, "steps": steps,
                                "coarse": estimate is None})
                estimate = best or (estimate or FIRST_RATE) / 2
            unanswered = gen.close()
            stats = proxy.stop()
        rounds.append({
            "setup_s": setup_s, "ref": ref, "ladders": ladders,
            "failed": gen.failed + unanswered, "wrong": gen.wrong,
            "responses": gen.responses, "proxy": stats,
            "stubs": [c.stub for c in gen.conns],
        })
    return {"rounds": rounds}
