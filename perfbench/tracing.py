"""Spans around calls into flatproxy's public functions, recorded from outside.

`install()` replaces module and class attributes of an imported flatproxy
with wrappers that record one span per call: name, start, end, parent span
and request id.  Self time is a span's duration minus the time its child
spans cover.  Spans are kept in memory; aggregates per span name are kept
for every call, the spans themselves only up to `keep` of them, and both
are written out when the run ends.

Install before building a MeshRuntime: the runtime binds
`handle_slow_path` and `_default_connect` when it is constructed.
"""

from __future__ import annotations

import itertools
import threading
from time import perf_counter_ns

# Spans whose time the match-action engine does not own: the L7 functions
# and connection setup called from inside a chain traversal.
_FOREIGN = ("l7.", "slow_path.connect", "live.connect")


class _Agg:
    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    def __init__(self, keep: int = 20_000):
        self.keep = keep
        self.spans = []  # (id, name, start_ns, end_ns, parent_id, req)
        self.dropped = 0
        self.agg: dict[str, _Agg] = {}
        self.counts: dict[str, int] = {}
        self.maxima: dict[str, int] = {}
        self.engine_self_ns = 0  # chain time minus foreign spans
        self.req = None  # request id set by the driving code, if any
        self._ids = itertools.count(1)
        self._reqs = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------
    def count(self, name: str, n: int = 1):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def maximum(self, name: str, value: int):
        with self._lock:
            if value > self.maxima.get(name, -1):
                self.maxima[name] = value

    def wrap(self, fn, name, after=None):
        """Wrap `fn`; `name` is a string or a function of the call's
        arguments; `after(result, args)` runs once the call returns."""
        tracer = self
        static = isinstance(name, str)

        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            span_name = name if static else name(args)
            parent = stack[-1] if stack else None
            if parent is not None:
                req = parent[3]
            else:
                req = tracer.req if tracer.req is not None else next(tracer._reqs)
            # [name, id, child_ns, req, foreign_ns]
            frame = [span_name, next(tracer._ids), 0, req, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                tracer._close(frame, parent, start, end, stack)
            if after is not None:
                after(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, frame, parent, start, end, stack):
        name, span_id, child_ns, req, foreign_ns = frame
        dur = end - start
        if parent is not None:
            parent[2] += dur
        if name.startswith(_FOREIGN):
            # charge to the nearest enclosing traversal, once
            for outer in reversed(stack):
                if outer[0].startswith(_FOREIGN):
                    break
                if outer[0] == "match_action.chain_execute":
                    outer[4] += dur
                    break
        with self._lock:
            agg = self.agg.get(name)
            if agg is None:
                agg = self.agg[name] = _Agg()
            agg.calls += 1
            agg.total_ns += dur
            agg.self_ns += dur - child_ns
            if name == "match_action.chain_execute":
                self.engine_self_ns += dur - foreign_ns
            if len(self.spans) < self.keep:
                self.spans.append(
                    (span_id, name, start, end, parent[1] if parent else None, req)
                )
            else:
                self.dropped += 1

    # -- reading -----------------------------------------------------------
    def calls(self, name: str) -> int:
        agg = self.agg.get(name)
        return agg.calls if agg else 0

    def self_us(self, name: str) -> float:
        """Mean self time per call in microseconds; 0 when never called."""
        agg = self.agg.get(name)
        return agg.self_ns / agg.calls / 1e3 if agg and agg.calls else 0.0

    def total_us(self, name: str) -> float:
        """Mean duration per call in microseconds; 0 when never called."""
        agg = self.agg.get(name)
        return agg.total_ns / agg.calls / 1e3 if agg and agg.calls else 0.0

    def merge(self, dump: dict):
        """Add the aggregates of another tracer's `dump()` to this one."""
        for n, a in dump["aggregates"].items():
            agg = self.agg.setdefault(n, _Agg())
            agg.calls += a["calls"]
            agg.total_ns += a["total_ns"]
            agg.self_ns += a["self_ns"]
        for n, v in dump["counts"].items():
            self.counts[n] = self.counts.get(n, 0) + v
        for n, v in dump["maxima"].items():
            self.maxima[n] = max(v, self.maxima.get(n, v))
        self.engine_self_ns += dump["engine_self_ns"]

    def dump(self) -> dict:
        return {
            "engine_self_ns": self.engine_self_ns,
            "aggregates": {
                n: {"calls": a.calls, "total_ns": a.total_ns, "self_ns": a.self_ns}
                for n, a in sorted(self.agg.items())
            },
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
            "spans_kept": len(self.spans),
            "spans_dropped": self.dropped,
            "span_fields": ["id", "name", "start_ns", "end_ns", "parent", "req"],
            "spans": self.spans,
        }


def _patch(owner, attr, tracer, name, after=None):
    setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, after))


def install(tracer: Tracer):
    """Wrap the data-path, control-plane and simulator entry points."""
    from flatproxy import fast_path, l7, live, match_action, sim, slow_path, vq

    def on_ingress(disposition, args):
        tracer.count(f"disp.{disposition}")

    def on_toe(messages, args):
        tracer.count("toe.deliver")
        if not messages and args[1].meta.verdict.value == "continue":
            tracer.count("toe.buffered")

    def on_publish(epoch, args):
        tracer.count("publish.entries", len(args[0].current.entries))

    def on_tx(result, args):
        tracer.maximum("vq.tx_ring_occupancy", args[0].tx_ring.occupied)

    _patch(fast_path.FastPath, "ingress", tracer, "fast_path.ingress", on_ingress)
    _patch(fast_path.ToeEngine, "deliver", tracer, "fast_path.toe_deliver", on_toe)
    _patch(match_action.ExecutableChain, "execute", tracer,
           "match_action.chain_execute")
    _patch(match_action.Ppm, "apply", tracer,
           lambda args: "match_action.ppm_apply." + args[0].id)
    _patch(match_action.MatchTable, "publish", tracer, "match_action.publish",
           on_publish)
    # the PPM closures resolve these names in fast_path's globals at call time
    for fn in ("http_parse", "filter_apply", "route", "http_deparse"):
        _patch(fast_path, fn, tracer, "l7." + fn)
    _patch(l7, "load_balance", tracer, "l7.load_balance")
    _patch(slow_path.MeshRuntime, "handle_slow_path", tracer, "slow_path.handle")
    _patch(slow_path.MeshRuntime, "_default_connect", tracer, "slow_path.connect")
    _patch(slow_path.MeshRuntime, "expire_idle", tracer, "slow_path.expire_idle")
    _patch(slow_path.MeshRuntime, "distribute", tracer, "slow_path.distribute")
    _patch(vq.VirtQueue, "tx_deliver", tracer, "vq.tx_deliver", on_tx)
    _patch(vq.VirtQueue, "stub_fetch", tracer, "vq.stub_fetch")
    _patch(live.LiveQueue, "tx_deliver", tracer, "live.upstream_tx")
    _patch(live.LiveQueue, "rx_collect", tracer, "live.upstream_rx")
    _patch(live.LiveProxy, "_connect", tracer, "live.connect")
    # compare_modes resolves run_sim in sim's globals; the sweep sets the
    # load class in tracer.tag before each call
    _patch(sim, "run_sim", tracer,
           lambda args: f"sim.run_sim.{args[0].value}.{tracer.tag}")
    tracer.tag = "unset"
