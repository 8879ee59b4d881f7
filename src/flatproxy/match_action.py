"""Extended match-action engine.

A processing module (PPM) is <parser, match, action>: one parser, one
match and the steps of the one action it picks.  The paper's
<parser, (match, action)*> is written as consecutive PPMs in one layer, as
filter -> router -> http_deparser are.  PPMs wire only to modules in the
same or an adjacent network layer.  Each PPM is built once into an
immutable node tuple, `Ppm.node`: `(id, parser or None, matcher,
{action_ref: steps})`; a compiled chain is a tuple of them.  One
function, `traverse`, runs every chain over its nodes: the compiled L7
chain and a PPM applied on its own.  A traversal takes one snapshot of
every table at its start and hands it to every matcher and action.  A
rule table is published whole, as a new copy of its entries, which are
frozen values (the router's balancing state lives outside the tables), so
no traversal ever sees a half-applied update; a publish of the entries it
already holds keeps its version.  A table checks every write against its
one owner.

A chain is an ordered list of PPM ids, none repeated.  Every PPM names
its matcher, `matcher(unit, snaps) -> action_ref`, and gives each action
as a plain list of steps, `step(unit, ctx, snaps)`.  A traversal records
nothing and stops after any parser or step that leaves a terminal verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from .core import TrafficUnit, Verdict

DEFAULT_ACTION = "to_slow_path"


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
    """One published version of a table: its epoch and its entries, which
    never change once published and are immutable values."""

    epoch: int
    entries: dict  # key tuple -> action ref (or arbitrary rule object)


class MatchTable:
    """An exact-match rule table: its current version, published whole and
    copy-on-write, and its single owner.

    Lookups read `self.current` once and keep using that snapshot; Python
    attribute assignment is atomic, so readers are wait-free with respect
    to writes.  A table built with an owner refuses a write that names
    any other writer, or none.
    """

    def __init__(self, name: str, default: str = DEFAULT_ACTION,
                 owner: Optional[str] = None):
        self.name = name
        self.default = default
        self.current = TableEpoch(epoch=0, entries={})
        self.owner = owner

    @property
    def epoch(self) -> int:
        return self.current.epoch

    def lookup(self, key, snap: TableEpoch = None):
        snap = snap or self.current
        return snap.entries.get(key, self.default)

    def publish(self, entries: dict, writer: str = None) -> int:
        """Publish a copy of `entries` as a new version, unless they equal
        the current ones; returns the epoch now current."""
        if self.owner is not None and writer != self.owner:
            raise MatchActionError(
                f"table {self.name} owned by {self.owner}, write from {writer}"
            )
        if entries != self.current.entries:
            self.current = TableEpoch(epoch=self.current.epoch + 1,
                                      entries=dict(entries))
        return self.current.epoch


def set_verdict(verdict, reason=None):
    return lambda unit, ctx, snaps: unit.meta.set_verdict(verdict, reason)


@dataclass
class ExecContext:
    """A path's counters.  The data plane runs on one thread -- the
    caller's in-process, the loop thread's in live mode -- so a bump is a
    plain dict increment; another thread may take a `snapshot`, which is
    copied in one step and so falls between two bumps."""

    counters: dict

    def bump(self, name, n=1):
        counters = self.counters
        counters[name] = counters.get(name, 0) + n

    def snapshot(self) -> dict:
        return dict(self.counters)


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
    ):
        if matcher is None:
            raise MatchActionError(f"ppm {id} needs a matcher")
        self.id = id
        self.layer = layer
        self.tables = tables or []
        programs = {ref: tuple(steps) for ref, steps in (actions or {}).items()}
        programs.setdefault(DEFAULT_ACTION, (set_verdict(Verdict.TO_SLOW_PATH),))
        self.node = (id, parser, matcher, programs)

    def apply(self, unit: TrafficUnit, ctx: ExecContext, snaps: dict = None):
        """Traverse this PPM alone, by default on a snapshot of its own
        tables."""
        if snaps is None:
            snaps = {t.name: t.current for t in self.tables}
        traverse((self.node,), unit, ctx, snaps)


def traverse(nodes, unit: TrafficUnit, ctx: ExecContext, snaps: dict):
    """Run `unit` through `nodes`, on the table snapshots `snaps`: each
    node's parser, then its matcher, then the steps of the action it
    picked.  The traversal stops after any parser or step that leaves a
    terminal verdict."""
    meta = unit.meta
    for pid, parser, matcher, programs in nodes:
        if parser is not None:
            parser(unit, ctx)
            if meta.verdict is not Verdict.CONTINUE:
                return
        ref = matcher(unit, snaps)
        steps = programs.get(ref)
        if steps is None:
            raise MatchActionError(f"ppm {pid}: unknown action {ref!r}")
        for step in steps:
            step(unit, ctx, snaps)
            if meta.verdict is not Verdict.CONTINUE:
                return


class ExecutableChain:
    """Immutable traversal order over registered PPMs."""

    def __init__(self, order: list, registry: dict):
        self.order = list(order)
        self.nodes = tuple(registry[pid].node for pid in self.order)
        tables = {t.name: t for pid in self.order for t in registry[pid].tables}
        self._tables = tuple(tables.values())

    def execute(self, unit: TrafficUnit, ctx: ExecContext = None):
        """Traverse the chain on one snapshot of every table taken here;
        returns the unit."""
        snaps = {t.name: t.current for t in self._tables}
        traverse(self.nodes, unit, ctx or ExecContext(counters={}), snaps)
        return unit


def check_chain(nodes: list, layers: dict):
    """Check that every id in `nodes` has a layer in `layers`
    (`{ppm id: Layer}`), that none repeats and that each consecutive pair
    sits in the same or adjacent layers."""
    for pid in nodes:
        if pid not in layers:
            raise UnknownPpm(pid)
    if len(set(nodes)) != len(nodes):
        raise MatchActionError(f"chain {list(nodes)} repeats a ppm id")
    for src, dst in zip(nodes, nodes[1:]):
        a, b = layers[src], layers[dst]
        if not layers_adjacent(a, b):
            raise LayerAdjacencyViolation(f"{src}({a.name}) -> {dst}({b.name})")


def compile_chain(nodes: list, registry: dict) -> ExecutableChain:
    """Check `nodes` against the registry's PPMs (`check_chain`); return
    the executable chain in that order."""
    check_chain(nodes, {pid: ppm.layer for pid, ppm in registry.items()})
    return ExecutableChain(nodes, registry)
