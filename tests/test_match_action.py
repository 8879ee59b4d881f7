import random
from collections import defaultdict

import pytest

from flatproxy.core import Message, Verdict
from flatproxy.match_action import (
    ExecutableChain,
    MatchActionError,
    MatchTable,
    Ppm,
    TableEpoch,
)
from conftest import make_flow

WRITER = "owner"


def table(name="t"):
    return MatchTable(name, owner=WRITER)


def inc_counter(name):
    """A step that counts `name` each time it runs."""

    def step(unit, ctx, snaps):
        ctx[name] += 1

    return step


def set_verdict(verdict, reason):
    return lambda unit, ctx, snaps: unit.set_verdict(verdict, reason)


def on_miss(t, step):
    """A step that matches the unit's queue id against the traversal's
    snapshot of table `t` and runs `step` when it finds no entry."""

    def match(unit, ctx, snaps):
        if unit.queue not in snaps[t.name]:
            step(unit, ctx, snaps)

    return match


def passthrough_ppm(pid):
    t = table(f"{pid}_t")
    return Ppm(pid, steps=[on_miss(t, inc_counter(pid))], tables=[t])


def make_unit():
    return Message(make_flow(), b"")


# -- table publication -------------------------------------------------------

def test_publish_bumps_epoch_atomically():
    t = table()
    assert t.epoch == 0
    snap0 = t.current
    e1 = t.publish({"a": 1, "b": 2}, WRITER)
    assert e1 == 1
    assert t.current.entries["a"] == 1
    # the old snapshot still answers with old state
    assert "a" not in snap0.entries
    assert snap0.entries == {}


def test_publish_remove_and_delta():
    """A publish replaces the entries whole: a key it leaves out is gone."""
    t = table()
    t.publish({"a": 1, "b": 2}, WRITER)
    assert t.publish({"b": 2, "c": 3}, WRITER) == 2
    assert "a" not in t.current.entries
    assert t.current.entries["b"] == 2
    assert t.current.entries["c"] == 3


def test_publish_remove_absent_key_is_noop():
    """Entries equal to the current ones keep the version; what is
    published is a copy of the caller's dict."""
    t = table()
    entries = {"a": 1}
    assert t.publish(entries, WRITER) == 1
    snap = t.current
    assert snap.entries == entries and snap.entries is not entries
    entries["b"] = 2
    assert "b" not in t.current.entries
    assert t.publish({"a": 1}, WRITER) == 1
    assert t.current is snap
    assert t.publish(entries, WRITER) == 2
    assert t.publish({}, WRITER) == 3
    assert t.current.entries == {}


def test_publish_owner_enforced():
    t = MatchTable("t", owner="alice")
    t.publish({"x": 1}, writer="alice")
    with pytest.raises(MatchActionError):
        t.publish({"y": 2}, writer="bob")
    assert "y" not in t.current.entries


def test_snapshot_is_immutable_type():
    t = table()
    t.publish({"x": 1}, WRITER)
    snap = t.current
    assert isinstance(snap, TableEpoch)
    with pytest.raises(Exception):
        snap.epoch = 99


def test_lookup_consistency_under_republish():
    """A traversal that took a snapshot never sees a mixed state, no
    matter how many publishes land mid-traversal."""
    t = table()
    t.publish({"a": "v1", "b": "v1"}, WRITER)
    snap = t.current
    for i in range(100):
        t.publish({"a": f"v{i+2}", "b": f"v{i+2}"}, WRITER)
        # the held snapshot keeps answering from one coherent version
        assert snap.entries["a"] == "v1"
        assert snap.entries["b"] == "v1"
    cur = t.current
    assert cur.entries["a"] == cur.entries["b"]


# -- PPM application ---------------------------------------------------------

def test_ppm_runs_matched_program():
    """A step matches against the traversal's snapshot of its table and
    acts on the entry it finds."""
    t = table()
    t.publish({7: "hit"}, WRITER)

    def match(unit, ctx, snaps):
        if snaps[t.name].get(unit.queue) == "hit":
            ctx["hits"] += 1

    p = Ppm("p", steps=[match], tables=[t])
    unit = make_unit()
    unit.queue = 7
    ctx = defaultdict(int)
    assert p.apply(unit, ctx) is None
    assert ctx == {"hits": 1}
    assert unit.verdict is Verdict.CONTINUE


def test_constant_action_compiles_to_its_parser_and_steps():
    """A PPM is its steps, parser first, as one tuple; applied alone it
    runs them in turn."""
    parse = inc_counter("parsed")
    steps = [inc_counter("a"), inc_counter("b")]
    p = Ppm("p", steps=[parse, *steps])
    assert p.steps == (parse, *steps)
    assert Ppm("q").steps == () and Ppm("q").tables == ()
    ctx = defaultdict(int)
    p.apply(make_unit(), ctx)
    assert ctx == {"parsed": 1, "a": 1, "b": 1}


def test_terminal_verdict_stops_program():
    t = table()
    p = Ppm("p", tables=[t], steps=[
        on_miss(t, set_verdict(Verdict.DROP, "x")), inc_counter("after"),
    ])
    unit = make_unit()
    ctx = defaultdict(int)
    p.apply(unit, ctx)
    # a PPM stops after any step that leaves a terminal verdict, so the
    # counter step after the drop never runs
    assert unit.verdict is Verdict.DROP
    assert "after" not in ctx


# -- chain compilation -------------------------------------------------------

def passthrough_registry():
    return {pid: passthrough_ppm(pid) for pid in ("l4", "l7a", "l7b", "l7c", "l7d")}


def test_compile_linear_chain_order():
    reg = passthrough_registry()
    chain = ExecutableChain(["l4", "l7a", "l7b", "l7c", "l7d"], reg)
    assert chain.order == ["l4", "l7a", "l7b", "l7c", "l7d"]


def test_same_layer_wiring_allowed():
    reg = passthrough_registry()
    chain = ExecutableChain(["l7a", "l7b"], reg)
    assert chain.order == ["l7a", "l7b"]


def test_empty_chain_is_identity():
    chain = ExecutableChain([], {})
    unit = make_unit()
    unit.payload = b"untouched"
    out = chain.execute(unit, defaultdict(int))
    assert out is unit
    assert out.payload == b"untouched"
    assert out.verdict is Verdict.CONTINUE


def test_execute_trace_and_stop_on_terminal():
    reg = passthrough_registry()
    t = table("drop_t")
    reg["l7drop"] = Ppm("l7drop", tables=[t],
                        steps=[on_miss(t, set_verdict(Verdict.DROP, "x"))])
    chain = ExecutableChain(["l7a", "l7drop", "l7b"], reg)
    ctx = defaultdict(int)
    unit = chain.execute(make_unit(), ctx)
    assert unit.verdict is Verdict.DROP
    assert unit.verdict_reason == "x"
    # l7a ran, l7b after the drop did not
    assert ctx == {"l7a": 1}


def test_chain_equals_sequential_application():
    """Chain execution is byte-for-byte the same as applying each PPM by
    hand in order, across randomized payload/metadata and a randomly
    placed terminal node; so are the counters each PPM's steps bump."""
    rng = random.Random(42)
    nodes = ["l4", "l7a", "l7b", "l7c", "l7d"]
    for _ in range(50):
        stop = rng.choice(nodes + [None])
        verdict = rng.choice([Verdict.DROP, Verdict.DELIVER])
        reg_a = passthrough_registry()
        reg_b = passthrough_registry()
        if stop is not None:
            for reg in (reg_a, reg_b):
                t = table(f"{stop}_t")
                reg[stop] = Ppm(stop, tables=[t], steps=[
                    on_miss(t, inc_counter(stop)),
                    set_verdict(verdict, "stopped"),
                ])
        chain = ExecutableChain(nodes, reg_a)
        unit_a = make_unit()
        unit_b = make_unit()
        payload = bytes(rng.randrange(256) for _ in range(rng.randrange(64)))
        unit_a.payload = unit_b.payload = payload
        ctx_a = defaultdict(int)
        ctx_b = defaultdict(int)
        chain.execute(unit_a, ctx_a)
        for pid in nodes:
            if unit_b.verdict is not Verdict.CONTINUE:
                break
            reg_b[pid].apply(unit_b, ctx_b)
        assert unit_a.payload == unit_b.payload
        assert unit_a.verdict == unit_b.verdict
        assert unit_a.verdict_reason == unit_b.verdict_reason
        assert ctx_a == ctx_b
