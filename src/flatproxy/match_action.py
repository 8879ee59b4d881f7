"""Extended match-action engine.

A processing module (PPM) is its steps, run in order on one
`core.Message`: its parser first, if it has one, then the steps that match
and act.  The paper's <parser, (match, action)*> is written as consecutive
PPMs, as filter -> router -> http_deparser are, and a PPM matches inside
its own step.  A step is any callable `step(msg, ctx, snaps)`; each
standard L7 PPM's one step is its `l7` function itself.  `msg` is the
message, which the step reads and sets, its verdict through the monotone
`set_verdict`; `ctx` is its path's one counter dict, a
`collections.defaultdict(int)` it counts in with `ctx[name] += 1`; and
`snaps` is the traversal's snapshot, which maps the name of each table the
chain reads to that table's published entries.  A chain is an ordered
list of PPM ids, and its compiled form is the concatenation of their
steps.  A runtime runs one chain, `fast_path.STANDARD_CHAIN`, fixed when
it is built: at run time only its tables change.
`ExecutableChain.execute` holds the one step loop -- a PPM applied on its
own runs through it as a one-PPM chain -- and stops after any step that
leaves a terminal verdict; it records nothing.

A traversal runs on one snapshot of every table its chain reads, a dict
taken at its start that nothing changes.  A rule table is published
whole, as a new copy of its entries, which are frozen values (the
router's balancing state lives outside the tables), so no traversal ever
sees a half-applied update; a publish of the entries it already holds
keeps its version.  Every publish that makes a new version moves one
module-wide count, and a chain takes its snapshot again only when that
count has moved.  A table checks every write against its one owner.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Message, Verdict

_CONTINUE = Verdict.CONTINUE

# new table versions published so far, by every table in the process: a
# chain whose snapshot was taken at this count still holds every table's
# current version.  A publish to a table the chain does not read only
# makes it take the same versions again.
_published = 0


class MatchActionError(Exception):
    pass


@dataclass(frozen=True)
class TableEpoch:
    """One published version of a table: its epoch and its entries, which
    never change once published and are immutable values."""

    epoch: int
    entries: dict  # key -> rule object


class MatchTable:
    """An exact-match rule table: its current version, published whole and
    copy-on-write, and its single owner.

    A reader takes `self.current` once and keeps using that snapshot;
    Python attribute assignment is atomic, so readers are wait-free with
    respect to writes.  A write that names any writer but the owner is
    refused.
    """

    def __init__(self, name: str, owner: str):
        self.name = name
        self.current = TableEpoch(epoch=0, entries={})
        self.owner = owner

    @property
    def epoch(self) -> int:
        return self.current.epoch

    def publish(self, entries: dict, writer: str) -> int:
        """Publish a copy of `entries` as a new version, unless they equal
        the current ones; returns the epoch now current."""
        global _published
        if writer != self.owner:
            raise MatchActionError(
                f"table {self.name} owned by {self.owner}, write from {writer}"
            )
        if entries != self.current.entries:
            self.current = TableEpoch(epoch=self.current.epoch + 1,
                                      entries=dict(entries))
            # counted once the version is current: a chain that sees the
            # count move takes a snapshot that holds it
            _published += 1
        return self.current.epoch


class Ppm:
    """Protocol processing module: its `steps`, parser first, and the
    `tables` they read.  A step that matches reads its table's entries
    through the traversal's snapshot, `snaps[table.name]`, and acts on
    what it finds in the same step."""

    def __init__(self, id: str, steps=(), tables=()):
        self.id = id
        self.steps = tuple(steps)
        self.tables = tuple(tables)

    def apply(self, msg: Message, ctx: dict):
        """Run this PPM alone, as a one-PPM chain, on a snapshot of its
        own tables."""
        ExecutableChain([self.id], {self.id: self}).execute(msg, ctx)


class ExecutableChain:
    """Immutable traversal order over registered PPMs, compiled into one
    flat tuple of steps."""

    def __init__(self, order: list, registry: dict):
        self.order = list(order)
        self.steps = tuple(
            step for pid in self.order for step in registry[pid].steps)
        tables = {t.name: t for pid in self.order for t in registry[pid].tables}
        self._tables = tuple(tables.values())
        self._snaps = None
        self._taken_at = -1  # the publish count `_snaps` was taken at

    def execute(self, msg: Message, ctx: dict):
        """Run `msg` through the chain's steps, on one snapshot of every
        table it reads -- taken again only when a table has published since
        the last one -- stopping after any step that leaves a terminal
        verdict; returns the message."""
        snaps = self._snaps
        if self._taken_at != _published:
            self._taken_at = _published
            # a new dict: a traversal still running keeps the one it began
            snaps = self._snaps = {
                t.name: t.current.entries for t in self._tables}
        for step in self.steps:
            step(msg, ctx, snaps)
            if msg.verdict is not _CONTINUE:
                break
        return msg

