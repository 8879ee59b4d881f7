"""Extended match-action engine.

A processing module (PPM) is <parser, (match, action)*>.  PPMs wire only
to modules in the same or an adjacent network layer.  Each PPM is built
once into an immutable node tuple, `Ppm.node`:
`(ppm, id, parser or None, matcher, {action_ref: steps})`; a compiled
chain is a tuple of them.  One function, `traverse`, runs every chain
over its nodes: the compiled L7 chain, the fast path's vswitch/l3/toe
pass and a PPM applied on its own.  Rule tables are epoch-published: a
traversal takes one snapshot of every table at its start and hands it to
every matcher and action, so no traversal ever sees a half-applied update.

A chain is an ordered list of PPM ids, none repeated.  Every PPM names
its matcher, `matcher(unit, snaps) -> action_ref`, and gives each action
as a plain list of steps.  A step is a callable
`step(ppm, unit, ctx, snaps)`; only emit("self") returns True, which
re-feeds the PPM's own match stage, at most REVISIT_BUDGET times.  A
traversal stops after any step that leaves a terminal verdict.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

from .core import TrafficUnit, Verdict

DEFAULT_ACTION = "to_slow_path"
REVISIT_BUDGET = 8


class MatchActionError(Exception):
    pass


class UnknownPpm(MatchActionError):
    pass


class LayerAdjacencyViolation(MatchActionError):
    pass


class Layer(Enum):
    L2 = 2
    L3 = 3
    L4 = 4
    L7 = 7


_LAYER_RANK = {Layer.L2: 0, Layer.L3: 1, Layer.L4: 2, Layer.L7: 3}


def layers_adjacent(a: Layer, b: Layer) -> bool:
    return abs(_LAYER_RANK[a] - _LAYER_RANK[b]) <= 1


@dataclass(frozen=True)
class TableEpoch:
    """One immutable published version of a table's entries."""

    epoch: int
    entries: dict  # key tuple -> action ref (or arbitrary rule object)


class MatchTable:
    """Exact-match table with atomic versioned publication.

    Lookups read `self.current` once and keep using that snapshot; Python
    attribute assignment is atomic, so readers are wait-free with respect
    to publishes.  Publishes must come from the single owning controller.
    """

    def __init__(self, name: str, default: str = DEFAULT_ACTION):
        self.name = name
        self.default = default
        self.current = TableEpoch(epoch=0, entries={})
        self.owner: Optional[str] = None

    @property
    def epoch(self) -> int:
        return self.current.epoch

    def lookup(self, key, snap: TableEpoch = None):
        snap = snap or self.current
        return snap.entries.get(key, self.default)

    def publish(self, add: dict = None, remove=(), writer: str = None) -> int:
        """Publish a delta atomically; returns the new epoch number."""
        if self.owner is not None and writer is not None and writer != self.owner:
            raise MatchActionError(
                f"table {self.name} owned by {self.owner}, publish from {writer}"
            )
        entries = dict(self.current.entries)
        for k in remove:
            entries.pop(k, None)
        if add:
            entries.update(add)
        new_epoch = self.current.epoch + 1
        self.current = TableEpoch(epoch=new_epoch, entries=entries)
        return new_epoch


def inc_counter(name):
    return lambda ppm, unit, ctx, snaps: ctx.bump(name)


def set_verdict(verdict, reason=None):
    return lambda ppm, unit, ctx, snaps: unit.meta.set_verdict(verdict, reason)


def emit(target):
    """Targets: "self" re-feeds this PPM's match stage, "dsa" runs the
    PPM's cost-bearing pass-through transform."""
    if target == "self":
        return lambda ppm, unit, ctx, snaps: True
    if target != "dsa":
        raise ValueError(f"unknown emit target {target!r}")

    def dsa(ppm, unit, ctx, snaps):
        if ppm.dsa_transform is not None:
            unit.payload = ppm.dsa_transform(unit.payload)
        ctx.bump("dsa_invocations")

    return dsa


def proc(fn):
    """Escape hatch for L7 logic: fn(unit, ctx, snaps)."""

    def step(ppm, unit, ctx, snaps):
        fn(unit, ctx, snaps)

    return step


@dataclass
class ExecContext:
    counters: dict
    _lock: "threading.Lock" = field(default_factory=lambda: threading.Lock())

    def bump(self, name, n=1):
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n


class Ppm:
    """Protocol processing module: an optional parser, a required matcher
    `matcher(unit, snaps) -> action_ref` over the snapshots of `tables`,
    and `actions`, `{action_ref: [steps]}`.  DEFAULT_ACTION, unless given,
    sends the unit to the slow path."""

    def __init__(
        self,
        id: str,
        layer: Layer,
        parser: Callable[[TrafficUnit, ExecContext], None] = None,
        tables: list = None,
        actions: dict = None,
        matcher: Callable = None,
        dsa_transform: Callable = None,
    ):
        if matcher is None:
            raise MatchActionError(f"ppm {id} needs a matcher")
        self.id = id
        self.layer = layer
        self.tables = tables or []
        self.dsa_transform = dsa_transform  # pass-through payload transform stub
        programs = {ref: tuple(steps) for ref, steps in (actions or {}).items()}
        programs.setdefault(DEFAULT_ACTION, (set_verdict(Verdict.TO_SLOW_PATH),))
        self.node = (self, id, parser, matcher, programs)

    def apply(self, unit: TrafficUnit, ctx: ExecContext, snaps: dict = None):
        """Traverse this PPM alone, by default on a snapshot of its own
        tables.  Returns the list of ActionRefs fired, in order."""
        if snaps is None:
            snaps = {t.name: t.current for t in self.tables}
        trace = []
        traverse((self.node,), unit, ctx, snaps, trace)
        return [ref for _, ref in trace]


def traverse(nodes, unit: TrafficUnit, ctx: ExecContext, snaps: dict, trace: list):
    """Run `unit` through `nodes`, on the table snapshots `snaps`, appending
    (ppm_id, action_ref) to `trace` for every match.

    Each node runs its parser, then match/action rounds: a round whose
    steps emit("self") matches again, at most REVISIT_BUDGET times before
    the unit goes to the slow path.  The traversal stops after any step
    (or parser) that leaves a terminal verdict.
    """
    meta = unit.meta
    for ppm, pid, parser, matcher, programs in nodes:
        if parser is not None:
            parser(unit, ctx)
        if meta.verdict is not Verdict.CONTINUE:
            return
        for _ in range(REVISIT_BUDGET):
            ref = matcher(unit, snaps)
            trace.append((pid, ref))
            steps = programs.get(ref)
            if steps is None:
                raise MatchActionError(f"ppm {pid}: unknown action {ref!r}")
            again = False
            for step in steps:
                if step(ppm, unit, ctx, snaps):
                    again = True
                if meta.verdict is not Verdict.CONTINUE:
                    return
            if not again:
                break
        else:
            meta.set_verdict(Verdict.TO_SLOW_PATH, "revisit_budget")
            ctx.bump("revisit_budget_exceeded")
            return


class ExecutableChain:
    """Immutable traversal order over registered PPMs."""

    def __init__(self, order: list, registry: dict):
        self.order = list(order)
        self.nodes = tuple(registry[pid].node for pid in self.order)
        tables = {t.name: t for pid in self.order for t in registry[pid].tables}
        self._tables = tuple(tables.values())

    def execute(self, unit: TrafficUnit, ctx: ExecContext = None):
        """Traverse the chain on one snapshot of every table taken here.

        Returns (unit, trace) with trace = [(ppm_id, action_ref), ...].
        """
        trace = []
        snaps = {t.name: t.current for t in self._tables}
        traverse(self.nodes, unit, ctx or ExecContext(counters={}), snaps, trace)
        return unit, trace


def compile_chain(nodes: list, registry: dict) -> ExecutableChain:
    """Check that every id in `nodes` is registered, that none repeats and
    that each consecutive pair sits in the same or adjacent layers; return
    the executable chain in that order."""
    for pid in nodes:
        if pid not in registry:
            raise UnknownPpm(pid)
    if len(set(nodes)) != len(nodes):
        raise MatchActionError(f"chain {list(nodes)} repeats a ppm id")
    for src, dst in zip(nodes, nodes[1:]):
        a, b = registry[src].layer, registry[dst].layer
        if not layers_adjacent(a, b):
            raise LayerAdjacencyViolation(f"{src}({a.name}) -> {dst}({b.name})")
    return ExecutableChain(nodes, registry)
