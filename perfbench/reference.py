"""A fixed reference task, timed between frames, to express times at one
machine speed.

On a shared two-core Linux VM, where this benchmark was tuned, other
tenants' load makes the same Python work run up to about 2x slower, in
states that change from one second to the next and can last more than a
minute.  CPU time slows as much as wall time, so the cause is contention
for the core and its caches, not waiting.  Raw wall-clock medians of 20 s
runs spread by 15-30% between runs.

The workloads call `reference_ns()` about every `INTERVAL_NS`, between
frames and outside every timed interval.  A round's slowdown is the mean
reference time in that round over `NOMINAL_NS`, the reference time in the
host's quiet state.  Times are divided by it and rates multiplied by it, so
a figure reads as if the round had run at the quiet speed.  The task runs
no flatproxy code, so a change to the program moves the figures in full.
It does what the program's hot path does: small objects, tuple-keyed dict
inserts and lookups, bytes slicing and concatenation.  It runs twice and
only the second, warm run is timed, so its time does not depend on how
much of the cache the program's work evicted.  Sampled this often, it
follows the machine's state closely: the spread of 10-20 s medians fell
from 14-23% raw to 1-5% (perfbench/README.md, "Machine speed").  Memory and
latency at a fixed offered rate are never adjusted, and every run prints
its unadjusted figures too.
"""

from __future__ import annotations

from time import perf_counter_ns

NOMINAL_NS = 100_000
INTERVAL_NS = 10_000_000

_DATA = bytes(range(256)) * 8


class _Item:
    __slots__ = ("key", "body", "link")

    def __init__(self, key, body, link):
        self.key, self.body, self.link = key, body, link


def _task() -> int:
    table = {}
    for i in range(150):
        item = _Item(i, _DATA[i % 1500:i % 1500 + 60], (i, i + 1))
        table[(i, i & 7)] = item
        prev = table.get((i - 1, (i - 1) & 7))
        if prev is not None:
            item.link = prev.body + item.body
    return len(table)


def reference_ns() -> int:
    """Duration of the reference task run with warm caches: the first run
    only loads them, since how cold they are depends on the work before it,
    and so on the program."""
    _task()
    t = perf_counter_ns()
    _task()
    return perf_counter_ns() - t
