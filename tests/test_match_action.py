import random

import pytest

from flatproxy.core import Metadata, TrafficUnit, UnitKind, Verdict
from flatproxy.match_action import (
    ExecContext,
    Layer,
    MatchActionError,
    MatchTable,
    Ppm,
    TableEpoch,
    UnknownPpm,
    compile_chain,
    set_verdict,
)
from conftest import make_flow


def inc_counter(name):
    """A step that counts `name` each time its action runs."""
    return lambda unit, ctx, snaps: ctx.bump(name)


def lookup(table, key=lambda unit: ()):
    """A matcher that looks `key(unit)` up in the traversal's snapshot of
    `table`."""
    return lambda unit, snaps: table.lookup(key(unit), snaps.get(table.name))


def passthrough_ppm(pid, layer, counter=None):
    table = MatchTable(f"{pid}_t", default="go")
    return Ppm(
        id=pid, layer=layer, tables=[table], matcher=lookup(table),
        actions={"go": [inc_counter(counter or pid)]},
    )


def make_unit():
    return TrafficUnit(kind=UnitKind.MESSAGE, meta=Metadata(flow=make_flow()))


# -- table publication -------------------------------------------------------

def test_publish_bumps_epoch_atomically():
    t = MatchTable("t")
    assert t.epoch == 0
    snap0 = t.current
    e1 = t.publish({"a": 1, "b": 2})
    assert e1 == 1
    assert t.lookup("a") == 1
    # the old snapshot still answers with old state
    assert t.lookup("a", snap0) == t.default
    assert snap0.entries == {}


def test_publish_remove_and_delta():
    """A publish replaces the entries whole: a key it leaves out is gone."""
    t = MatchTable("t")
    t.publish({"a": 1, "b": 2})
    assert t.publish({"b": 2, "c": 3}) == 2
    assert t.lookup("a") == t.default
    assert t.lookup("b") == 2
    assert t.lookup("c") == 3


def test_publish_remove_absent_key_is_noop():
    """Entries equal to the current ones keep the version; what is
    published is a copy of the caller's dict."""
    t = MatchTable("t")
    entries = {"a": 1}
    assert t.publish(entries) == 1
    snap = t.current
    assert snap.entries == entries and snap.entries is not entries
    entries["b"] = 2
    assert t.lookup("b") == t.default
    assert t.publish({"a": 1}) == 1
    assert t.current is snap
    assert t.publish(entries) == 2
    assert t.publish({}) == 3
    assert t.current.entries == {}


def test_publish_owner_enforced():
    t = MatchTable("t", owner="alice")
    t.publish({"x": 1}, writer="alice")
    with pytest.raises(MatchActionError):
        t.publish({"y": 2}, writer="bob")
    assert "y" not in t.current.entries


def test_snapshot_is_immutable_type():
    t = MatchTable("t")
    t.publish({"x": 1})
    snap = t.current
    assert isinstance(snap, TableEpoch)
    with pytest.raises(Exception):
        snap.epoch = 99


def test_lookup_consistency_under_republish():
    """A traversal that took a snapshot never sees a mixed state, no
    matter how many publishes land mid-traversal."""
    t = MatchTable("t")
    t.publish({"a": "v1", "b": "v1"})
    snap = t.current
    for i in range(100):
        t.publish({"a": f"v{i+2}", "b": f"v{i+2}"})
        # the held snapshot keeps answering from one coherent version
        assert t.lookup("a", snap) == "v1"
        assert t.lookup("b", snap) == "v1"
    cur = t.current
    assert t.lookup("a", cur) == t.lookup("b", cur)


# -- PPM application ---------------------------------------------------------

def test_ppm_runs_matched_program():
    t = MatchTable("t")
    t.publish({7: "hit"})
    p = Ppm(
        id="p", layer=Layer.L7, tables=[t],
        matcher=lookup(t, lambda unit: unit.meta.conn_id),
        actions={"hit": [inc_counter("hits")]},
    )
    unit = make_unit()
    unit.meta.conn_id = 7
    ctx = ExecContext(counters={})
    assert p.apply(unit, ctx) is None
    assert ctx.counters == {"hits": 1}
    assert unit.meta.verdict is Verdict.CONTINUE


def test_ppm_default_action_is_slow_path():
    t = MatchTable("t")
    p = Ppm(id="p", layer=Layer.L7, tables=[t],
            matcher=lookup(t, lambda unit: unit.meta.conn_id), actions={})
    unit = make_unit()
    ctx = ExecContext(counters={})
    p.apply(unit, ctx)
    assert unit.meta.verdict is Verdict.TO_SLOW_PATH
    assert ctx.counters == {}


def test_ppm_requires_table_or_matcher():
    with pytest.raises(MatchActionError):
        Ppm(id="p", layer=Layer.L4)
    # a table is no longer enough: every PPM names its matcher
    with pytest.raises(MatchActionError):
        Ppm(id="p", layer=Layer.L4, tables=[MatchTable("t")])
    # or one constant action it has, never both
    with pytest.raises(MatchActionError):
        Ppm(id="p", layer=Layer.L4, matcher=lambda unit, snaps: "go",
            action="go", actions={"go": []})
    with pytest.raises(MatchActionError, match="unknown action"):
        Ppm(id="p", layer=Layer.L4, action="go", actions={})


def test_constant_action_compiles_to_its_parser_and_steps():
    """A constant-action PPM is its parser and its action's steps, inlined;
    a matcher PPM is its parser and one dispatch step."""
    parse = inc_counter("parsed")
    steps = [inc_counter("a"), inc_counter("b")]
    p = Ppm(id="p", layer=Layer.L7, parser=parse, action="go",
            actions={"go": steps, "other": [inc_counter("other")]})
    assert p.steps == (parse, *steps)
    assert Ppm(id="q", layer=Layer.L7, action="go", actions={"go": []}).steps == ()
    m = Ppm(id="m", layer=Layer.L7, parser=parse,
            matcher=lambda unit, snaps: "go", actions={"go": steps})
    assert len(m.steps) == 2 and m.steps[0] is parse
    ctx = ExecContext(counters={})
    m.apply(make_unit(), ctx)
    assert ctx.counters == {"parsed": 1, "a": 1, "b": 1}


def test_terminal_verdict_stops_program():
    t = MatchTable("t", default="go")
    p = Ppm(
        id="p", layer=Layer.L7, tables=[t], matcher=lookup(t),
        actions={"go": [
            set_verdict(Verdict.DROP, "x"), inc_counter("after"),
        ]},
    )
    unit = make_unit()
    ctx = ExecContext(counters={})
    p.apply(unit, ctx)
    # a program stops after any step that leaves a terminal verdict, so
    # the counter step after set_verdict never runs
    assert unit.meta.verdict is Verdict.DROP
    assert "after" not in ctx.counters


# -- chain compilation -------------------------------------------------------

def layered_registry():
    return {
        "l4": passthrough_ppm("l4", Layer.L4),
        "l7a": passthrough_ppm("l7a", Layer.L7),
        "l7b": passthrough_ppm("l7b", Layer.L7),
        "l7c": passthrough_ppm("l7c", Layer.L7),
        "l7d": passthrough_ppm("l7d", Layer.L7),
    }


def test_compile_linear_chain_order():
    reg = layered_registry()
    chain = compile_chain(["l4", "l7a", "l7b", "l7c", "l7d"], reg)
    assert chain.order == ["l4", "l7a", "l7b", "l7c", "l7d"]


def test_compile_rejects_unknown_node():
    reg = layered_registry()
    with pytest.raises(UnknownPpm):
        compile_chain(["l4", "nope"], reg)


def test_same_layer_wiring_allowed():
    reg = layered_registry()
    chain = compile_chain(["l7a", "l7b"], reg)
    assert chain.order == ["l7a", "l7b"]


def test_compile_rejects_cycle():
    """A chain is a list run once in order, so a repeated id -- the only
    way left to write a cycle -- is refused, adjacent or not."""
    reg = layered_registry()
    for nodes in (["l7a", "l7b", "l7a"], ["l4", "l4", "l7a"],
                  ["l4", "l7c", "l4"]):
        with pytest.raises(MatchActionError, match="repeats"):
            compile_chain(nodes, reg)


def test_empty_chain_is_identity():
    chain = compile_chain([], {})
    unit = make_unit()
    unit.payload = b"untouched"
    out = chain.execute(unit)
    assert out is unit
    assert out.payload == b"untouched"
    assert out.meta.verdict is Verdict.CONTINUE


def test_execute_trace_and_stop_on_terminal():
    reg = layered_registry()
    t = MatchTable("drop_t", default="kill")
    reg["l7drop"] = Ppm(
        id="l7drop", layer=Layer.L7, tables=[t], matcher=lookup(t),
        actions={"kill": [set_verdict(Verdict.DROP, "x")]},
    )
    chain = compile_chain(["l7a", "l7drop", "l7b"], reg)
    ctx = ExecContext(counters={})
    unit = chain.execute(make_unit(), ctx)
    assert unit.meta.verdict is Verdict.DROP
    assert unit.meta.verdict_reason == "x"
    # l7a ran, l7b after the drop did not
    assert ctx.counters == {"l7a": 1}


def test_chain_unknown_action_raises():
    reg = layered_registry()
    t = MatchTable("bad_t", default="missing")
    reg["bad"] = Ppm(id="bad", layer=Layer.L7, tables=[t], matcher=lookup(t))
    chain = compile_chain(["l7a", "bad"], reg)
    with pytest.raises(MatchActionError):
        chain.execute(make_unit())


def test_chain_equals_sequential_application():
    """Chain execution is byte-for-byte the same as applying each PPM by
    hand in order, across randomized payload/metadata and a randomly
    placed terminal node; so are the counters each PPM's action bumps."""
    rng = random.Random(42)
    nodes = ["l4", "l7a", "l7b", "l7c", "l7d"]
    for _ in range(50):
        stop = rng.choice(nodes + [None])
        verdict = rng.choice([Verdict.DROP, Verdict.DELIVER, Verdict.TO_SLOW_PATH])
        reg_a = layered_registry()
        reg_b = layered_registry()
        if stop is not None:
            for reg in (reg_a, reg_b):
                t = MatchTable(f"{stop}_t", default="stop")
                reg[stop] = Ppm(
                    id=stop, layer=reg[stop].layer, tables=[t], matcher=lookup(t),
                    actions={"stop": [
                        inc_counter(stop), set_verdict(verdict, "stopped")]},
                )
        chain = compile_chain(nodes, reg_a)
        unit_a = make_unit()
        unit_b = make_unit()
        payload = bytes(rng.randrange(256) for _ in range(rng.randrange(64)))
        unit_a.payload = unit_b.payload = payload
        ctx_a = ExecContext(counters={})
        ctx_b = ExecContext(counters={})
        chain.execute(unit_a, ctx_a)
        for pid in nodes:
            if unit_b.meta.verdict is not Verdict.CONTINUE:
                break
            reg_b[pid].apply(unit_b, ctx_b)
        assert unit_a.payload == unit_b.payload
        assert unit_a.meta.verdict == unit_b.meta.verdict
        assert unit_a.meta.verdict_reason == unit_b.meta.verdict_reason
        assert ctx_a.counters == ctx_b.counters
