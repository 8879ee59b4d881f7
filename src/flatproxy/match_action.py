"""Extended match-action engine.

A processing module (PPM) is <parser, (match, action)*>.  PPMs wire only
to modules in the same or an adjacent network layer, and compiled chains
are immutable so many workers can traverse them concurrently.  Rule
tables are epoch-published: a traversal takes one snapshot of every table
at its start and hands it to every matcher and action, so no traversal
ever sees a half-applied update.

An action is a straight-line program of steps.  A step is a callable
`step(ppm, unit, ctx, snaps)`; only emit("self") returns True, which
re-feeds the PPM's own match stage.  A program stops after any step that
leaves a terminal verdict.
"""

from __future__ import annotations

import graphlib
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


class CycleDetected(MatchActionError):
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

    def __init__(self, name: str, key_schema=(), default: str = DEFAULT_ACTION):
        self.name = name
        self.key_schema = tuple(key_schema)
        self.default = default
        self.current = TableEpoch(epoch=0, entries={})
        self.owner: Optional[str] = None

    @property
    def epoch(self) -> int:
        return self.current.epoch

    def snapshot(self) -> TableEpoch:
        return self.current

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


def emit(target="next"):
    """Targets: "next" is implicit chain order, "self" re-feeds this PPM's
    match stage, "dsa" runs the PPM's cost-bearing pass-through transform."""
    if target == "next":
        return lambda ppm, unit, ctx, snaps: None
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
class ActionProgram:
    """Straight-line program over Metadata; no internal loops.  Re-entry
    happens only via an explicit emit("self"), bounded by REVISIT_BUDGET."""

    id: str
    steps: list = field(default_factory=list)


@dataclass
class ExecContext:
    counters: dict
    _lock: "threading.Lock" = field(default_factory=lambda: threading.Lock())

    def bump(self, name, n=1):
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n


class Ppm:
    """Protocol processing module: one parser, >=1 (table, action) pairs."""

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
        self.id = id
        self.layer = layer
        self.parser = parser or (lambda unit, ctx: None)
        self.tables = tables or []
        self.actions = dict(actions or {})
        if DEFAULT_ACTION not in self.actions:
            self.actions[DEFAULT_ACTION] = ActionProgram(
                DEFAULT_ACTION, [set_verdict(Verdict.TO_SLOW_PATH)]
            )
        if not self.tables and matcher is None:
            raise MatchActionError(f"ppm {id} needs at least one (table, action) pair")
        self.matcher = matcher or self._table_match
        self.dsa_transform = dsa_transform  # pass-through payload transform stub

    def _table_match(self, unit: TrafficUnit, snaps: dict) -> str:
        table = self.tables[0]
        key = tuple(getattr(unit.meta, f) for f in table.key_schema)
        if len(key) == 1:
            key = key[0]
        return table.lookup(key, snaps.get(table.name))

    def apply(self, unit: TrafficUnit, ctx: ExecContext, snaps: dict = None):
        """Run parser then bounded match/action rounds on one unit.

        `snaps` maps table name -> TableEpoch; a PPM applied on its own
        snapshots its own tables.  Returns the list of ActionRefs fired,
        in order.
        """
        if snaps is None:
            snaps = {t.name: t.current for t in self.tables}
        fired = []
        self.parser(unit, ctx)
        if unit.meta.verdict is not Verdict.CONTINUE:
            return fired
        for _ in range(REVISIT_BUDGET):
            ref = self.matcher(unit, snaps)
            fired.append(ref)
            program = self.actions.get(ref)
            if program is None:
                raise MatchActionError(f"ppm {self.id}: unknown action {ref!r}")
            again = self._run_program(program, unit, ctx, snaps)
            if not again or unit.meta.verdict is not Verdict.CONTINUE:
                return fired
        unit.meta.set_verdict(Verdict.TO_SLOW_PATH, "revisit_budget")
        ctx.bump("revisit_budget_exceeded")
        return fired

    def _run_program(self, program: ActionProgram, unit, ctx, snaps) -> bool:
        reemit = False
        for step in program.steps:
            if step(self, unit, ctx, snaps):
                reemit = True
            if unit.meta.verdict is not Verdict.CONTINUE:
                break
        return reemit


@dataclass
class ChainSpec:
    """Node ids plus directed edges; edges default to linear order."""

    nodes: list
    edges: list = None  # list[(src, dst)]; None -> consecutive nodes

    def resolved_edges(self):
        if self.edges is not None:
            return list(self.edges)
        return list(zip(self.nodes, self.nodes[1:]))


class ExecutableChain:
    """Immutable traversal order over registered PPMs."""

    def __init__(self, order: list, registry: dict):
        self.order = list(order)
        self.nodes = tuple(registry[pid] for pid in self.order)
        tables = {}
        for node in self.nodes:
            for t in node.tables:
                tables.setdefault(t.name, t)
        self._tables = tuple(tables.values())

    def execute(self, unit: TrafficUnit, ctx: ExecContext = None):
        """Apply each node, on one snapshot of every table taken here,
        until the verdict goes terminal.

        Returns (unit, trace) with trace = [(ppm_id, action_ref), ...].
        """
        ctx = ctx or ExecContext(counters={})
        trace = []
        snaps = {t.name: t.current for t in self._tables}
        for node in self.nodes:
            fired = node.apply(unit, ctx, snaps)
            trace.extend((node.id, ref) for ref in fired)
            if unit.meta.verdict is not Verdict.CONTINUE:
                break
        return unit, trace


def compile_chain(spec: ChainSpec, registry: dict) -> ExecutableChain:
    """Validate layer adjacency and acyclicity, return the executable.

    Self-edges (a node re-feeding its own match stage) are allowed and
    ignored for ordering; any other cycle is rejected.
    """
    for pid in spec.nodes:
        if pid not in registry:
            raise UnknownPpm(pid)
    graph = {pid: set() for pid in spec.nodes}
    for src, dst in spec.resolved_edges():
        if src not in registry or dst not in registry:
            raise UnknownPpm(src if src not in registry else dst)
        if src == dst:
            continue  # self-edge: own match stage
        a, b = registry[src].layer, registry[dst].layer
        if not layers_adjacent(a, b):
            raise LayerAdjacencyViolation(f"{src}({a.name}) -> {dst}({b.name})")
        graph[dst].add(src)
    # topological order, keeping the declared node order among independents
    pos = {pid: i for i, pid in enumerate(spec.nodes)}
    ts = graphlib.TopologicalSorter(graph)
    try:
        ts.prepare()
    except graphlib.CycleError as exc:
        raise CycleDetected(str(exc)) from exc
    order = []
    while ts.is_active():
        ready = sorted(ts.get_ready(), key=pos.get)
        for pid in ready:
            order.append(pid)
            ts.done(pid)
    return ExecutableChain(order, registry)
