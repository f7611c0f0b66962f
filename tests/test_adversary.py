"""Choice strategies, the lasso search, and strategy defeat."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from pebblewalk.adversary import (
    FirstOption,
    LastOption,
    Oscillator,
    ScriptedChoices,
    ScriptError,
    SeededRandom,
    _Edge,
    _find_zero_walk,
    canonicalize,
    defeat_strategy,
    finalize_certificate,
    search_lasso,
)
from pebblewalk.collective import (
    ChoiceContext,
    Collective,
    initial_digest,
    plan_step,
    run,
    step,
)
from pebblewalk.graph import Graph
from pebblewalk.lattice import vertex, x_translation
from pebblewalk.machine import Automaton, ObservationPattern, move_to_set, pebble
from pebblewalk.strategies import (
    BUILTIN_STRATEGIES,
    build_carrier,
    build_caterpillar,
    build_free_walker,
    build_stacker,
    load_builtin,
)
from pebblewalk.util import FrozenMap
from pebblewalk.walker14 import build_walker

W = ObservationPattern(None)


def walker_at_fork():
    state = build_walker().initial_state()
    for _ in range(2):
        state, _ = step(state, FirstOption())
    return state


def fork_plan_and_context():
    state = walker_at_fork()
    plan = plan_step(state)
    ctx = ChoiceContext(
        state.step_index, plan.at, state.positions, initial_digest(state.collective)
    )
    return plan, ctx


def test_fork_options_sorted_by_offset():
    plan, _ = fork_plan_and_context()
    assert list(plan.options) == [vertex(2, 1), vertex(3, 0)]


def test_first_and_last_take_opposite_branches():
    plan, ctx = fork_plan_and_context()
    assert plan.options[FirstOption().choose(plan.options, ctx)] == vertex(2, 1)
    assert plan.options[LastOption().choose(plan.options, ctx)] == vertex(3, 0)


def test_seeded_choices_are_deterministic():
    a = run(build_walker().initial_state(), SeededRandom(3), 120)
    b = run(build_walker().initial_state(), SeededRandom(3), 120)
    assert [r.positions for r in a.records] == [r.positions for r in b.records]


def test_seeds_disagree_somewhere():
    a = run(build_walker().initial_state(), SeededRandom(0), 120)
    b = run(build_walker().initial_state(), SeededRandom(1), 120)
    assert [r.choice for r in a.records[1:]] != [r.choice for r in b.records[1:]]


def test_seeded_choice_varies_with_history():
    one = run(build_walker().initial_state(), SeededRandom(4), 300)
    branches = {
        (r.choice.x - p.positions[1].x, r.choice.y - p.positions[1].y)
        for p, r in zip(one.records, one.records[1:])
        if r.consulted
    }
    assert branches == {(0, 1), (1, 0)}


def test_scripted_choices_replay_and_exhaustion():
    plan, ctx = fork_plan_and_context()
    script = ScriptedChoices([(1, 0)])
    assert plan.options[script.choose(plan.options, ctx)] == vertex(3, 0)
    with pytest.raises(ScriptError):
        script.choose(plan.options, ctx)


def test_scripted_choices_offset_mismatch():
    plan, ctx = fork_plan_and_context()
    with pytest.raises(ScriptError):
        ScriptedChoices([(-1, 0)]).choose(plan.options, ctx)


def test_oscillator_pulls_toward_home_column():
    plan, ctx = fork_plan_and_context()
    assert plan.options[Oscillator(home_x=0).choose(plan.options, ctx)] == vertex(2, 1)
    assert plan.options[Oscillator(home_x=10).choose(plan.options, ctx)] == vertex(3, 0)


def test_canonicalize_translation_invariance():
    col = build_walker()
    base = col.initial_state()
    shifted = col.initial_state(
        FrozenMap({m: x_translation(9).apply(v) for m, v in col.initial_positions.items()})
    )
    key_a, anchor_a = canonicalize(base.positions, base.states)
    key_b, anchor_b = canonicalize(shifted.positions, shifted.states)
    assert key_a == key_b
    assert anchor_b - anchor_a == 9


def test_canonicalize_distinguishes_states():
    state = build_walker().initial_state()
    stepped, _ = step(state, FirstOption())
    assert canonicalize(state.positions, state.states) != canonicalize(
        stepped.positions, stepped.states
    )


def test_lasso_found_for_free_walker():
    outcome = search_lasso(build_free_walker().initial_state(), max_depth=40)
    assert outcome.verdict == "found"
    cert = outcome.certificate
    assert cert is not None
    assert cert.net_displacement == (Fraction(0), Fraction(0))
    assert cert.cycle_steps == 2
    assert cert.confinement_radius <= 4


def test_lasso_certificate_replays():
    initial = build_free_walker().initial_state()
    cert = search_lasso(initial, max_depth=40).certificate
    assert finalize_certificate(initial, cert) is not None


def test_lasso_for_motionless_strategy():
    leader = Automaton(initial="idle", rules=())
    col = Collective(
        name="sitter",
        leader=leader,
        pebbles=FrozenMap({}),
        initial_positions=FrozenMap({1: vertex(0, 0)}),
    )
    outcome = search_lasso(col.initial_state(), max_depth=5)
    assert outcome.verdict == "found"
    assert outcome.certificate.cycle_steps == 1
    assert outcome.certificate.confinement_radius == 0


@pytest.mark.parametrize(
    "build", [build_free_walker, build_carrier, build_stacker, build_caterpillar]
)
def test_defeat_small_collectives(build):
    col = build()
    outcome = defeat_strategy(col, max_depth=200)
    assert outcome.defeated
    cert = outcome.certificate
    assert finalize_certificate(col.initial_state(), cert) is not None


def test_search_cut_off_by_depth():
    outcome = search_lasso(build_caterpillar().initial_state(), max_depth=3)
    assert outcome.verdict == "depth-exhausted"
    assert outcome.complete is False
    assert outcome.stats.pruned == 0


def test_search_cut_off_by_diameter_bound():
    outcome = search_lasso(build_caterpillar().initial_state(), max_depth=200, diameter_bound=0)
    assert outcome.verdict == "depth-exhausted"
    assert outcome.complete is False
    assert outcome.stats.pruned > 0


def test_defeat_truncated_search_is_inconclusive():
    outcome = defeat_strategy(build_caterpillar(), max_depth=3)
    assert outcome.status == "inconclusive"
    assert not outcome.defeated
    assert outcome.certificate is None
    assert outcome.detail == "depth 3 exhausted (diameter bound 4)"
    outcome = defeat_strategy(build_caterpillar(), diameter_bound=0)
    assert outcome.detail == "depth 200 exhausted (diameter bound 0)"


def _random_graph(rng: random.Random) -> Graph:
    g = Graph()
    n = rng.randint(1, 6)
    for u in range(n):
        g.add_node(u, None, 0)
    for _ in range(rng.randint(0, 2 * n)):
        g.add_edge(_Edge(rng.randrange(n), rng.randrange(n), rng.randint(-2, 2), (0, 0), True))
    return g


def _simple_cycle_weights_by_component(g: Graph) -> dict[frozenset, set[int]]:
    """Brute force: weights of every simple cycle (as an edge sequence),
    keyed by the strongly connected component it lies in."""
    n = len(g.reps)
    reach = [[u == v for v in range(n)] for u in range(n)]
    for e in g.edges:
        reach[e.src][e.dst] = True
    for k, u, v in itertools.product(range(n), repeat=3):
        reach[u][v] = reach[u][v] or (reach[u][k] and reach[k][v])
    weights: dict[frozenset, set[int]] = {}

    def extend(start, node, visited, weight):
        for ei in g.out[node]:
            e = g.edges[ei]
            if e.dst == start:
                comp = frozenset(v for v in range(n) if reach[start][v] and reach[v][start])
                weights.setdefault(comp, set()).add(weight + e.weight)
            elif e.dst > start and e.dst not in visited:
                extend(start, e.dst, visited | {e.dst}, weight + e.weight)

    for start in range(n):
        extend(start, start, {start}, 0)
    return weights


def test_find_zero_walk_matches_simple_cycle_oracle():
    rng = random.Random(2023)
    for _ in range(3000):
        g = _random_graph(rng)
        expected = any(
            min(ws) <= 0 <= max(ws) for ws in _simple_cycle_weights_by_component(g).values()
        )
        found = _find_zero_walk(g)
        assert (found is not None) == expected
        if found is None:
            continue
        base, walk = found
        assert walk
        assert g.edges[walk[0]].src == base
        assert g.edges[walk[-1]].dst == base
        for a, b in zip(walk, walk[1:]):
            assert g.edges[a].dst == g.edges[b].src
        assert sum(g.edges[ei].weight for ei in walk) == 0


def test_defeat_rejects_four_pebbles():
    with pytest.raises(ValueError):
        defeat_strategy(build_walker())


def test_defeat_rejects_invalid_pebbles():
    leader = Automaton(initial="s", rules=())
    bad = pebble("bad", [(W, move_to_set({2}))])
    col = Collective(
        name="invalid",
        leader=leader,
        pebbles=FrozenMap({2: bad}),
        initial_positions=FrozenMap({1: vertex(0, 0), 2: vertex(0, 0)}),
    )
    with pytest.raises(ValueError):
        defeat_strategy(col)


def test_walker_admits_no_lasso():
    outcome = search_lasso(build_walker().initial_state(), max_depth=200)
    assert outcome.certificate is None
    assert outcome.complete
    assert outcome.verdict == "not-found"


def test_search_is_deterministic():
    col = build_free_walker()
    a = search_lasso(col.initial_state(), max_depth=40)
    b = search_lasso(col.initial_state(), max_depth=40)
    assert a.certificate == b.certificate


def test_builtin_catalog():
    assert set(BUILTIN_STRATEGIES) == {
        "baseline-10",
        "baseline-11",
        "baseline-12",
        "baseline-13-caterpillar",
        "walker14",
    }
    assert load_builtin("walker14").name == "walker14"
    with pytest.raises(KeyError):
        load_builtin("no-such-strategy")
