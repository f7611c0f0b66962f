"""Stepping, traces, movement metrics, and the directedness checkers."""

from __future__ import annotations

from fractions import Fraction
from itertools import islice

import pytest

import pebblewalk.adversary as adversary_module
import pebblewalk.collective as collective_module
from pebblewalk.adversary import FirstOption, LastOption, Oscillator, ScriptedChoices, SeededRandom, search_lasso
from pebblewalk.collective import (
    Collective,
    PebbleFault,
    Quotient,
    RationalPoint,
    StepFault,
    StepRecord,
    StrategyFault,
    Trace,
    Verdict,
    advance_digest,
    apply_choice,
    at_origin,
    check_directed,
    check_uniform,
    coordinate_of,
    diameter_of,
    find_isolated,
    initial_digest,
    plan_step,
    run,
    transform_positions,
    walk,
)
from pebblewalk.lattice import X_REFLECTION, Y_REFLECTION, Vertex, vertex, x_translation
from pebblewalk.machine import (
    MOVE_TO_FREE,
    STAY,
    Automaton,
    MoveToSet,
    ObservationPattern,
    Rule,
    Stay,
    move_to_set,
    observe,
    occupants,
    pebble,
    resolve_output,
)
from pebblewalk.strategies import BUILTIN_STRATEGIES, build_free_walker, load_builtin
from pebblewalk.tracefile import make_document, parse_document, render_document
from pebblewalk.util import FrozenMap
from pebblewalk.walker14 import LOOP_HEADER, build_walker
from trace_reference import assert_one_object_per_value, reference_render, step

W = ObservationPattern(None)


def build_sitter() -> Collective:
    """A leader with no rules: every observation falls back to Stay."""
    return Collective(
        name="sitter",
        leader=Automaton(initial="idle", rules=()),
        pebbles=FrozenMap({}),
        initial_positions=FrozenMap({1: vertex(0, 0)}),
    )


def test_collective_requires_contiguous_pebble_ids():
    with pytest.raises(ValueError):
        Collective(
            name="bad",
            leader=Automaton(initial="s", rules=()),
            pebbles=FrozenMap({3: pebble("p", [])}),
            initial_positions=FrozenMap({1: vertex(0, 0), 3: vertex(0, 0)}),
        )


def test_coordinate_anchored_layout():
    # marching layout anchored one column left of the middle pebble
    col = build_walker(origin_x=-1)
    assert coordinate_of(col.initial_positions) == RationalPoint(Fraction(-1, 5), Fraction(1, 5))


@pytest.mark.parametrize("origin", [-4, 0, 9])
def test_coordinate_anchor_formula(origin):
    # mean sits one fifth short of the middle column, one fifth up
    col = build_walker(origin_x=origin)
    mid = origin + 1
    assert coordinate_of(col.initial_positions) == RationalPoint(
        Fraction(mid) - Fraction(1, 5), Fraction(1, 5)
    )


def test_coordinate_degenerate_stack():
    pos = FrozenMap({m: vertex(0, 0) for m in range(1, 6)})
    assert coordinate_of(pos) == RationalPoint(Fraction(0), Fraction(0))


def test_coordinate_after_one_loop():
    for adversary in (FirstOption(), LastOption()):
        trace = run(build_walker(origin_x=-1).initial_state(), adversary, 11)
        header = next(rec for rec in trace.records[1:] if rec.states[1] == LOOP_HEADER)
        assert header.t in (9, 11)
        assert coordinate_of(header.positions) == RationalPoint(Fraction(4, 5), Fraction(1, 5))


def test_diameter_examples():
    assert diameter_of(build_walker().initial_positions) == 2
    assert diameter_of(FrozenMap({1: vertex(0, 0), 2: vertex(0, 0)})) == 0
    assert diameter_of(FrozenMap({1: vertex(0, 0), 2: vertex(3, 1)})) == 3


def test_first_step_gathers_rear_onto_mid():
    col = build_walker()
    state, record = step(col.initial_state(), FirstOption())
    assert occupants(state.positions, vertex(1, 0)) >= {1, 2, 3}
    assert record.carried == frozenset({2})
    assert record.consulted is False


def test_push_off_step_has_two_options():
    col = build_walker()
    state = col.initial_state()
    for _ in range(2):
        state, _ = step(state, FirstOption())
    plan = plan_step(state)
    assert set(plan.options) == {vertex(3, 0), vertex(2, 1)}
    assert plan.consulted is True
    assert plan.carried == frozenset({4})


def test_adversary_choice_selects_branch():
    col = build_walker()
    state = col.initial_state()
    for _ in range(2):
        state, _ = step(state, FirstOption())
    plan = plan_step(state)
    up, _ = apply_choice(state, plan, vertex(2, 1))
    along, _ = apply_choice(state, plan, vertex(3, 0))
    assert up.positions[1] == vertex(2, 1)
    assert along.positions[1] == vertex(3, 0)


def test_apply_choice_rejects_non_options():
    col = build_walker()
    state = col.initial_state()
    plan = plan_step(state)
    with pytest.raises(ValueError):
        apply_choice(state, plan, vertex(9, 0))


def test_records_plans_and_states_are_immutable():
    state = build_walker().initial_state()
    plan = plan_step(state)
    nxt, record = apply_choice(state, plan, plan.options[0])
    for obj, field, value in (
        (record, "t", 7),
        (record, "choice", vertex(9, 0)),
        (plan, "options", ()),
        (plan, "at", vertex(9, 0)),
        (state, "positions", nxt.positions),
        (nxt, "step_index", 0),
    ):
        with pytest.raises(AttributeError):
            setattr(obj, field, value)
    assert record._replace(t=7).t == 7 and record.t == 1


def test_stay_forever_is_a_fixed_point():
    trace = run(build_sitter().initial_state(), FirstOption(), 50)
    assert len(trace) == 51
    assert all(r.positions == trace.records[0].positions for r in trace.records)


def test_run_horizon_zero():
    trace = run(build_walker().initial_state(), FirstOption(), 0)
    assert len(trace) == 1


def test_run_negative_horizon_rejected():
    with pytest.raises(ValueError):
        run(build_walker().initial_state(), FirstOption(), -1)


def test_walker_runs_fault_free():
    trace = run(build_walker().initial_state(), FirstOption(), 100)
    assert len(trace) == 101


def test_strategy_fault_carries_partial_trace():
    leader = Automaton(initial="s", rules=(Rule("s", W, move_to_set({9}), "s"),))
    col = Collective(
        name="doomed",
        leader=leader,
        pebbles=FrozenMap({}),
        initial_positions=FrozenMap({1: vertex(0, 0)}),
    )
    with pytest.raises(StrategyFault) as exc:
        run(col.initial_state(), FirstOption(), 5)
    assert exc.value.trace is not None and len(exc.value.trace) == 1


def test_pebble_fault_on_detached_mover():
    # wildcard pebble tries to move from across the gap
    leader = Automaton(initial="s", rules=())
    runaway = pebble("runaway", [(W, MOVE_TO_FREE)])
    col = Collective(
        name="detached",
        leader=leader,
        pebbles=FrozenMap({2: runaway}),
        initial_positions=FrozenMap({1: vertex(0, 0), 2: vertex(5, 0)}),
    )
    with pytest.raises(PebbleFault):
        run(col.initial_state(), FirstOption(), 1)


def step_loop(initial, adversary, horizon):
    """Reference for run: plain step() calls carrying the digest, no reuse.

    Returns the records and the fault that ended the loop, if any.
    """
    records = [StepRecord(t=0, positions=initial.positions, states=initial.states)]
    state, digest = initial, initial_digest(initial.collective)
    for _ in range(horizon):
        at = state.positions[1]
        try:
            state, record = step(state, adversary, digest)
        except (StrategyFault, PebbleFault) as fault:
            return records, fault
        records.append(record)
        digest = advance_digest(digest, at, record.options, record.choice)
    return records, None


ADVERSARIES = (FirstOption, LastOption, lambda: SeededRandom(42), lambda: SeededRandom(7), Oscillator)


@pytest.mark.parametrize("name", sorted(BUILTIN_STRATEGIES))
def test_run_equals_step_loop_reference(name):
    # The step loop's records share no maps, run's share them per class and
    # parsed records per distinct value: the codec must treat all alike.
    col = load_builtin(name)
    for make_adversary in ADVERSARIES:
        expected, fault = step_loop(col.initial_state(), make_adversary(), 3000)
        assert fault is None
        adversary = make_adversary()
        trace = run(col.initial_state(), adversary, 3000)
        assert trace.records == tuple(expected)
        text = render_document(make_document(col, adversary, 3000, trace))
        reference = make_document(col, adversary, 3000, Trace(tuple(expected)))
        assert text == reference_render(reference)
        assert render_document(reference) == text
        parsed = parse_document(text)
        assert parsed.trace == trace
        assert_one_object_per_value(parsed.records[1:])


def build_tether() -> Collective:
    """Leader that leaves its pebble and comes back until it strays too far.

    Co-located with pebble 2 it waits a step (each layout recurs in two
    states), then steps to a free neighbor; next to 2 it steps back; next
    to 3 it steps to a free neighbor, which loses sight of both and then
    asks for 2, an empty option set.
    """
    leader = Automaton(
        initial="s",
        rules=(
            Rule("s", ObservationPattern({2}), STAY, "t"),
            Rule("t", ObservationPattern({2}), MOVE_TO_FREE, "s"),
            Rule("s", ObservationPattern(None, [("has", 3), None, None]), MOVE_TO_FREE, "s"),
            Rule("s", ObservationPattern(None, [("has", 2), None, None]), move_to_set({2}), "s"),
            Rule("s", W, move_to_set({2}), "s"),
        ),
    )
    return Collective(
        name="tether",
        leader=leader,
        pebbles=FrozenMap({2: pebble("post", []), 3: pebble("marker", [])}),
        initial_positions=FrozenMap({1: vertex(0, 0), 2: vertex(0, 0), 3: vertex(2, 0)}),
    )


def test_run_fault_after_revisits_equals_step_loop_reference():
    script = [(-1, 0), (0, 1), (-1, 0), (0, 1), (1, 0)]
    col = build_tether()
    expected, fault = step_loop(col.initial_state(), ScriptedChoices(script), 50)
    assert isinstance(fault, StrategyFault) and "(step 15)" in str(fault)
    with pytest.raises(StrategyFault) as exc:
        run(col.initial_state(), ScriptedChoices(script), 50)
    assert str(exc.value) == str(fault)
    assert exc.value.trace.records == tuple(expected)
    assert len(exc.value.trace) == 16


def recorded_quotients(monkeypatch, module):
    """The Quotients that module makes from now on, in the order made."""
    tables = []

    class Recorded(Quotient):
        def __init__(self):
            super().__init__()
            tables.append(self)

    monkeypatch.setattr(module, "Quotient", Recorded)
    return tables


def test_walker_run_meets_the_search_quotient(monkeypatch):
    tables = recorded_quotients(monkeypatch, collective_module)
    run(build_walker().initial_state(), SeededRandom(42), 3000)
    (table,) = tables
    assert len(table.reps) == len(table.plans) == 16
    assert search_lasso(build_walker().initial_state(), max_depth=200).stats.nodes == 16


@pytest.mark.parametrize("name", sorted(BUILTIN_STRATEGIES))
def test_each_option_of_a_class_is_followed_once(monkeypatch, name):
    # Quotient.follow adds a Move at every call, so a second call for one
    # (node, option index) would store a duplicate edge and change the
    # search's components and its SearchStats.edges.
    pairs = []
    original = Quotient.follow

    def follow(self, node, plan, idx, anchor, nxt):
        pairs.append((self, node, idx))
        return original(self, node, plan, idx, anchor, nxt)

    monkeypatch.setattr(Quotient, "follow", follow)
    walked = recorded_quotients(monkeypatch, collective_module)
    searched = recorded_quotients(monkeypatch, adversary_module)
    initial = load_builtin(name).initial_state()
    try:
        run(initial, SeededRandom(42), 3000)
    except StepFault:
        pass
    search_lasso(initial, 200)
    for table in (*walked, *searched):
        followed = [(node, idx) for owner, node, idx in pairs if owner is table]
        assert len(followed) == len(set(followed)) == len(table.edges) > 0
    assert len(walked) == len(searched) == 1


class Counting:
    """Adversary wrapper that records the step index of each consultation."""

    def __init__(self, inner):
        self.inner = inner
        self.asked = []

    def choose(self, options, ctx):
        self.asked.append(ctx.step_index)
        return self.inner.choose(options, ctx)


@pytest.mark.parametrize("name", sorted(BUILTIN_STRATEGIES))
def test_walk_draws_what_run_collects(name):
    col = load_builtin(name)
    for make_adversary in (FirstOption, LastOption, lambda: SeededRandom(42)):
        for k in (0, 1, 9, 11, 300):
            adversary = Counting(make_adversary())
            drawn = list(islice(walk(col.initial_state(), adversary), k))
            records = [record for _, record in drawn]
            assert records == list(run(col.initial_state(), make_adversary(), k).records[1:])
            assert [(s.positions, s.states, s.step_index) for s, _ in drawn] == [
                (r.positions, r.states, r.t) for r in records
            ]
            assert adversary.asked == [r.t - 1 for r in records if r.consulted]


def assert_discovery_tree(g):
    """Every node's tree path runs src -> dst from a depth-0 root, one
    level deeper per edge."""
    for v in range(len(g.reps)):
        root, path = g.tree_path(v)
        assert g.depths[root] == 0
        node = root
        for ei in path:
            edge = g.edges[ei]
            assert edge.src == node
            assert g.depths[edge.dst] == g.depths[node] + 1
            node = edge.dst
        assert node == v


@pytest.mark.parametrize("name", sorted(BUILTIN_STRATEGIES))
def test_run_and_search_quotients_hold_their_discovery_tree(monkeypatch, name):
    run_tables = recorded_quotients(monkeypatch, collective_module)
    search_tables = recorded_quotients(monkeypatch, adversary_module)
    col = load_builtin(name)
    run(col.initial_state(), SeededRandom(42), 3000)
    assert len(run_tables) == 1
    search_lasso(col.initial_state(), max_depth=200)
    assert len(search_tables) == 1
    assert len(run_tables) == 1  # a found lasso is read off the search's table, not replayed
    for table in run_tables + search_tables:
        assert len(table.edges) > 1
        assert_discovery_tree(table)


def test_at_origin_reuses_an_anchored_map():
    anchored = FrozenMap({1: vertex(0, 1), 2: vertex(3, 0)})
    assert at_origin(anchored) == (anchored, 0)
    assert at_origin(anchored)[0] is anchored
    plain = {1: vertex(0, 1), 2: vertex(3, 0)}
    rel, anchor = at_origin(plain)
    assert anchor == 0 and rel == plain and rel is not plain
    rel, anchor = at_origin(FrozenMap({1: vertex(-2, 1), 2: vertex(1, 0)}))
    assert (rel, anchor) == (anchored, -2)


def test_trace_consistency_rederivation():
    col = build_walker()
    trace = run(col.initial_state(), SeededRandom(11), 60)
    for prev, rec in zip(trace.records, trace.records[1:]):
        for m in col.members:
            obs = observe(prev.positions, m)
            out, nxt = col.machine_for(m).act(prev.states[m], obs)
            assert rec.outputs[m] == out
            assert rec.states[m] == nxt
        # the leader went to the recorded choice; carried pebbles followed
        assert rec.choice in rec.options
        assert rec.positions[1] == rec.choice
        expected = set(resolve_output(rec.outputs[1], prev.positions[1], prev.positions))
        assert set(rec.options) == expected
        for m in col.members[1:]:
            if m in rec.carried:
                assert prev.positions[m] == prev.positions[1]
                assert rec.positions[m] == rec.choice
            else:
                assert rec.positions[m] == prev.positions[m]


def test_single_move_locality():
    trace = run(build_walker().initial_state(), SeededRandom(5), 80)
    for prev, rec in zip(trace.records, trace.records[1:]):
        for m, v in rec.positions.items():
            before = prev.positions[m]
            assert abs(v.x - before.x) + abs(v.y - before.y) <= 1


def _consulted_offsets(trace):
    offsets = []
    for prev, rec in zip(trace.records, trace.records[1:]):
        if rec.consulted:
            at = prev.positions[1]
            offsets.append((rec.choice.x - at.x, rec.choice.y - at.y))
    return offsets


@pytest.mark.parametrize(
    "sym,conjugate",
    [
        (x_translation(7), lambda dx, dy: (dx, dy)),
        (X_REFLECTION, lambda dx, dy: (-dx, dy)),
        (Y_REFLECTION, lambda dx, dy: (dx, -dy)),
    ],
)
def test_symmetry_equivariant_runs(sym, conjugate):
    col = build_walker()
    base = run(col.initial_state(), SeededRandom(2), 70)
    script = [conjugate(dx, dy) for dx, dy in _consulted_offsets(base)]
    mirrored_start = col.initial_state()._replace(positions=transform_positions(col.initial_positions, sym))
    mirrored = run(mirrored_start, ScriptedChoices(script), 70)
    for rec, mrec in zip(base.records, mirrored.records):
        assert transform_positions(rec.positions, sym) == mrec.positions
        assert rec.states == mrec.states


def test_displacement_additivity():
    trace = run(build_walker().initial_state(), SeededRandom(8), 66)
    coords = [coordinate_of(r.positions) for r in trace.records]
    for t0, t1, t2 in [(0, 10, 30), (5, 6, 50), (0, 33, 66)]:
        whole = (coords[t2].x - coords[t0].x, coords[t2].y - coords[t0].y)
        parts = (
            (coords[t2].x - coords[t1].x) + (coords[t1].x - coords[t0].x),
            (coords[t2].y - coords[t1].y) + (coords[t1].y - coords[t0].y),
        )
        assert whole == parts


def test_check_directed_constant_trace_holds():
    trace = run(build_sitter().initial_state(), FirstOption(), 30)
    assert check_directed(trace, c1=0, c2=3).holds


def test_check_directed_diameter_violation():
    trace = run(build_walker().initial_state(), FirstOption(), 10)
    verdict = check_directed(trace, c1=1, c2=4)
    assert not verdict.holds
    assert verdict.reason == "diameter" and verdict.at == 0


def test_check_directed_walker_both_deterministic():
    for adversary in (FirstOption(), LastOption()):
        trace = run(build_walker().initial_state(), adversary, 500)
        assert check_directed(trace, c1=2, c2=22).holds


def _hook_trace():
    # advance two columns then bounce vertically forever
    col = build_free_walker()
    script = [(1, 0), (1, 0)] + [(0, 1), (0, -1)] * 10
    return run(col.initial_state(), ScriptedChoices(script), 22)


def test_check_directed_rejects_stalling_after_advance():
    verdict = check_directed(_hook_trace(), c1=0, c2=4)
    assert not verdict.holds
    assert verdict.reason == "displacement" and verdict.at == 1


def test_pure_oscillation_versus_window_size():
    # alternation between two vertices: refuted only by the c2=1 window;
    # wider windows pair the zero displacements two steps apart
    col = build_free_walker()
    script = [(0, 1), (0, -1)] * 12
    trace = run(col.initial_state(), ScriptedChoices(script), 24)
    assert not check_directed(trace, c1=0, c2=1).holds
    assert check_directed(trace, c1=0, c2=2).holds


def test_check_directed_parameter_validation():
    trace = run(build_sitter().initial_state(), FirstOption(), 4)
    with pytest.raises(ValueError):
        check_directed(trace, c1=-1, c2=4)
    with pytest.raises(ValueError):
        check_directed(trace, c1=1, c2=0)
    grown = trace.records[2]._replace(positions=FrozenMap({1: vertex(0, 0), 2: vertex(0, 0)}))
    with pytest.raises(ValueError, match="member count changes mid-trace"):
        check_directed(Trace((*trace.records[:2], grown, *trace.records[3:])), c1=1, c2=1)


def test_check_uniform_constant_trace():
    trace = run(build_sitter().initial_state(), FirstOption(), 10)
    assert check_uniform(trace, c1=0, c2=1).holds


def test_check_uniform_walker_fixed_period():
    first = run(build_walker().initial_state(), FirstOption(), 400)
    assert check_uniform(first, c1=2, c2=9).holds
    last = run(build_walker().initial_state(), LastOption(), 400)
    assert check_uniform(last, c1=2, c2=11).holds


def test_check_uniform_rejects_mixed_loop_lengths():
    script = [(0, 1), (1, 0)] * 12
    trace = run(build_walker().initial_state(), ScriptedChoices(script), 200)
    assert not check_uniform(trace, c1=2, c2=9).holds


def test_find_isolated_examples():
    assert find_isolated(FrozenMap({1: vertex(0, 0), 2: vertex(5, 0)})) == [
        frozenset({1}),
        frozenset({2}),
    ]
    assert find_isolated(build_walker().initial_positions) == [frozenset({1, 2, 3, 4, 5})]
    parts = find_isolated(FrozenMap({1: vertex(0, 0), 2: vertex(2, 0), 3: vertex(3, 0)}))
    assert parts == [frozenset({1}), frozenset({2, 3})]


def test_verdict_strings():
    assert str(Verdict(True)) == "holds-on-prefix"
    assert "diameter" in str(Verdict(False, "diameter", 3))
