"""Choice strategies, the lasso search, and strategy defeat."""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import pytest

from pebblewalk import adversary
from pebblewalk.adversary import (
    FirstOption,
    LassoCertificate,
    LastOption,
    Oscillator,
    ScriptedChoices,
    ScriptError,
    SeededRandom,
    _find_zero_walk,
    canonicalize,
    defeat_strategy,
    finalize_certificate,
    search_lasso,
)
from pebblewalk.collective import (
    ChoiceContext,
    Collective,
    Move,
    coordinate_of,
    initial_digest,
    plan_step,
    run,
)
from pebblewalk.graph import Graph, cycle_components, cycle_means
from pebblewalk.lattice import vertex, x_translation
from pebblewalk.machine import MOVE_TO_FREE, STAY, Automaton, ObservationPattern, Rule, move_to_set, pebble
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
import lasso_reference
from test_collective import build_tether
from trace_reference import step

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
    # Home is the leader's column at the first consultation.
    plan, ctx = fork_plan_and_context()
    assert ctx.at.x == 2
    assert plan.options[Oscillator().choose(plan.options, ctx)] == vertex(2, 1)
    far_right = Oscillator()
    far_right.choose(plan.options, dataclasses.replace(ctx, at=vertex(10, 0)))
    assert plan.options[far_right.choose(plan.options, ctx)] == vertex(3, 0)


def test_canonicalize_translation_invariance():
    col = build_walker()
    base = col.initial_state()
    shifted = base._replace(
        positions=FrozenMap({m: x_translation(9).apply(v) for m, v in col.initial_positions.items()})
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
    assert finalize_certificate(initial, cert) == cert


@pytest.mark.parametrize("prefix_steps,cycle_steps", [(0, 0), (-2, 0), (0, -1)])
def test_finalize_refuses_a_lasso_without_a_cycle(prefix_steps, cycle_steps):
    # An empty cycle "returns" to any configuration, so it would certify
    # even the marching walker as confined.
    cert = LassoCertificate((), prefix_steps, (), cycle_steps, (Fraction(0), Fraction(0)), Fraction(0))
    assert finalize_certificate(build_walker().initial_state(), cert) is None


def replay(initial, cert):
    """The run finalize_certificate replays, and its unused offsets."""
    script = ScriptedChoices(list(cert.prefix) + list(cert.cycle) * 2)
    trace = run(initial, script, cert.prefix_steps + 2 * cert.cycle_steps)
    return trace, len(script.offsets) - script.cursor


# A free walker certificate that steps up once, then right and back.
FREE_WALKER_CERT = LassoCertificate(((0, 1),), 1, ((1, 0), (-1, 0)), 2, (Fraction(0), Fraction(0)), Fraction(1))


def test_finalize_refuses_a_script_with_offsets_left_at_the_horizon():
    initial = build_free_walker().initial_state()
    doubled = dataclasses.replace(FREE_WALKER_CERT, cycle=FREE_WALKER_CERT.cycle * 2, cycle_steps=4)
    assert finalize_certificate(initial, doubled) == doubled
    # Claiming two steps for the four offsets: the replay still returns at
    # steps 1, 3 and 5, but four offsets are never read.
    short = dataclasses.replace(doubled, cycle_steps=2)
    trace, unused = replay(initial, short)
    assert unused == 4
    assert {(r.positions, r.states) for r in trace.records[1::2]} == {(trace.records[1].positions, trace.records[1].states)}
    assert finalize_certificate(initial, short) is None


def test_finalize_refuses_a_replay_that_does_not_return():
    initial = build_free_walker().initial_state()
    # Right, one step each lap: the replay uses every offset and drifts.
    drifting = dataclasses.replace(FREE_WALKER_CERT, cycle=((1, 0),), cycle_steps=1)
    trace, unused = replay(initial, drifting)
    assert unused == 0
    assert [r.positions[1] for r in trace.records[1:]] == [(0, 1), (1, 1), (2, 1)]
    assert finalize_certificate(initial, drifting) is None


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
    assert outcome.stats == search_lasso(col.initial_state(), max_depth=200).stats
    cert = outcome.certificate
    replayed = finalize_certificate(col.initial_state(), cert)
    assert replayed == cert
    assert (replayed.net_displacement, replayed.confinement_radius) == fraction_measures(col.initial_state(), cert)


def fraction_measures(initial, cert):
    """Net displacement and confinement radius over the replay's Fraction
    coordinates: the reference for finalize_certificate's integer sums."""
    p, c = cert.prefix_steps, cert.cycle_steps
    trace = run(initial, ScriptedChoices(list(cert.prefix) + list(cert.cycle) * 2), p + 2 * c)
    coords = [coordinate_of(r.positions) for r in trace.records]
    base = coords[p]
    radius = max(max(abs(q.x - base.x), abs(q.y - base.y)) for q in coords[p : p + 2 * c + 1])
    return (coords[p + c].x - base.x, coords[p + c].y - base.y), radius


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
    assert outcome.stats == search_lasso(build_caterpillar().initial_state(), max_depth=3).stats
    assert not outcome.defeated
    assert outcome.certificate is None
    assert outcome.detail == "depth 3 exhausted (diameter bound 4)"
    outcome = defeat_strategy(build_caterpillar(), diameter_bound=0)
    assert outcome.detail == "depth 200 exhausted (diameter bound 0)"


def _random_graph(rng: random.Random, weights: tuple[int, int] = (-2, 2), nodes: int = 6) -> Graph:
    g = Graph()
    n = rng.randint(1, nodes)
    for u in range(n):
        g.add_node(u, None, 0)
    for _ in range(rng.randint(0, 2 * n)):
        g.add_edge(Move(rng.randrange(n), rng.randrange(n), rng.randint(*weights), (0, 0), True))
    return g


def assert_zero_lasso(g: Graph, lasso):
    """A closed walk of weight 0 inside one component, with its length."""
    length, base, walk = lasso
    assert walk
    assert g.edges[walk[0]].src == base
    assert g.edges[walk[-1]].dst == base
    for a, b in zip(walk, walk[1:]):
        assert g.edges[a].dst == g.edges[b].src
    assert sum(g.edges[ei].weight for ei in walk) == 0
    classes = lasso_reference.mutual_classes(g)
    assert all(classes[g.edges[ei].src] == classes[g.edges[ei].dst] == classes[base] for ei in walk)
    assert length == g.depths[base] + len(walk)


def test_find_zero_walk_matches_simple_cycle_oracle():
    rng = random.Random(2023)
    one_sign = {True: 0, False: 0}  # one-sign graphs with a cycle, by whether a walk was found
    for i in range(4000):
        weights = ((-2, 2), (0, 2), (-2, 0), (-7, 7))[i % 4]
        g = _random_graph(rng, weights)
        # depths ascending with the node number, as in a breadth-first quotient
        g.depths[:] = sorted(rng.randint(0, 3) for _ in g.depths)
        cycles = lasso_reference.simple_cycles_by_component(g)
        expected = any(min(w for w, _ in c) <= 0 <= max(w for w, _ in c) for c in cycles.values())
        # any first limit gives the shortest lasso
        found = _find_zero_walk(g, 1 + i % 8)
        assert (found is not None) == expected
        if i % 4 in (1, 2) and cycles:
            one_sign[expected] += 1
        if found is not None:
            assert_zero_lasso(g, found)
            # the brute force takes the lowest base, then the first walk in edge order
            assert found[1:] == lasso_reference.shortest_lasso(g)
    assert min(one_sign.values()) >= 100


@pytest.mark.parametrize("bound", [2, 4, 7])
def test_cycle_means_match_simple_cycle_oracle(bound):
    rng = random.Random(bound)
    single = loops = 0
    for _ in range(1000):
        g = _random_graph(rng, (-bound, bound), nodes=8)
        components = cycle_components(g)
        want = lasso_reference.cycle_means(g)
        assert cycle_means(g, components) == [want[frozenset(nodes)] for nodes, _ in components]
        single += sum(len(nodes) == 1 for nodes, _ in components)
        loops += any(e.src == e.dst for e in g.edges)
    assert single >= 100
    assert loops >= 100


def test_cycle_components_match_mutual_reachability():
    rng = random.Random(14)
    for _ in range(3000):
        g = _random_graph(rng)
        classes = lasso_reference.mutual_classes(g)
        want = []
        for nodes in sorted({tuple(sorted(c)) for c in classes}):
            edges = [ei for ei, e in enumerate(g.edges) if e.src in nodes and e.dst in nodes]
            if edges:
                want.append((list(nodes), edges))
        assert cycle_components(g) == want
        # cut down to a subset of the edges, given in any order
        subset = [ei for ei in range(len(g.edges)) if rng.random() < 0.5]
        h = Graph()
        for u in range(len(g.reps)):
            h.add_node(u, None, 0)
        for ei in subset:
            h.add_edge(g.edges[ei])
        rng.shuffle(subset)
        want = [(nodes, [sorted(subset)[ei] for ei in edges]) for nodes, edges in cycle_components(h)]
        assert cycle_components(g, subset) == want


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


def test_walker_search_walks_from_no_base(monkeypatch):
    # walker14's weight-0 Moves close no cycle, so no node is a base.
    calls = []
    zero_walk_at = adversary._zero_walk_at
    monkeypatch.setattr(adversary, "_zero_walk_at", lambda *args, **kw: calls.append(args) or zero_walk_at(*args, **kw))
    assert search_lasso(build_walker().initial_state(), max_depth=200).verdict == "not-found"
    assert calls == []


def test_search_is_deterministic():
    col = build_free_walker()
    a = search_lasso(col.initial_state(), max_depth=40)
    b = search_lasso(col.initial_state(), max_depth=40)
    assert a.certificate == b.certificate


@pytest.mark.parametrize("name", [*sorted(BUILTIN_STRATEGIES), "tether"])
def test_search_expands_like_the_reference(name):
    # Covers found, not-found and depth-exhausted outcomes, prunes and faults.
    col = build_tether() if name == "tether" else load_builtin(name)
    for max_depth in (1, 5, 200):
        for diameter_bound in (0, 2, 4):
            initial = col.initial_state()
            assert_like_the_reference(
                initial,
                search_lasso(initial, max_depth, diameter_bound),
                lasso_reference.search_lasso(initial, max_depth, diameter_bound),
            )


def assert_like_the_reference(initial, got, want):
    """The reference's verdict and expansion, and a certificate as long as
    the reference's brute-force shortest lasso that replays to itself."""
    assert got.verdict == want.verdict
    assert (got.complete, got.stats) == (want.complete, want.stats)
    if got.certificate is None:
        return
    assert lasso_steps(got.certificate) == lasso_steps(want.certificate)
    assert finalize_certificate(initial, got.certificate) == got.certificate
    # both take the lowest base, then the first walk in edge order
    assert got.certificate == want.certificate


def lasso_steps(cert):
    return cert.prefix_steps + cert.cycle_steps


def _random_pattern(rng: random.Random, others: list[int], beside_leader: bool = False) -> ObservationPattern:
    alpha = {m for m in others if rng.random() < 0.4}
    if beside_leader:
        alpha.add(1)
    elif rng.random() < 0.3:
        alpha = None
    if not others or rng.random() < 0.5:
        return ObservationPattern(alpha)
    entries = [
        rng.choice((None, ("has", rng.choice(others)), {m for m in others if rng.random() < 0.3}))
        for _ in range(3)
    ]
    return ObservationPattern(alpha, entries)


def _random_collective(rng: random.Random, pebbles: int) -> Collective:
    """A random legal collective: a leader of 1-3 states whose first rule in
    each state is a wildcard, and pebbles that copy a leader move while
    member 1 is co-located.  Illegal draws are drawn again."""
    ids = list(range(2, pebbles + 2))
    outputs = [STAY, MOVE_TO_FREE, *(move_to_set(rng.sample(ids, rng.randint(1, len(ids)))) for _ in ids)]
    while True:
        states = [f"s{i}" for i in range(rng.randint(1, 3))]
        rules = tuple(
            Rule(state, _random_pattern(rng, ids) if j else W, rng.choice(outputs), rng.choice(states))
            for state in states
            for j in range(rng.randint(1, 2))
        )
        moves = [rule.output for rule in rules if rule.output != STAY]
        pebbles_table = {}
        for pid in ids:
            others = [m for m in (1, *ids) if m != pid]
            rows = [
                (_random_pattern(rng, others, beside_leader=True), rng.choice(moves))
                for _ in range(rng.randint(0, 2) if moves else 0)
            ]
            pebbles_table[pid] = pebble(f"p{pid}", rows)
        positions = {1: vertex(0, rng.randint(0, 1))}
        positions.update({pid: vertex(rng.randint(0, 2), rng.randint(0, 1)) for pid in ids})
        col = Collective("random", Automaton(states[0], rules), FrozenMap(pebbles_table), FrozenMap(positions))
        if not col.validate_pebbles():
            return col


def test_read_off_certificates_replay_on_random_collectives():
    rng = random.Random(18)
    found = 0
    for i in range(240):
        col = _random_collective(rng, i % 4)
        initial = col.initial_state()
        outcome = search_lasso(initial, max_depth=200)
        assert_like_the_reference(initial, outcome, lasso_reference.search_lasso(initial, 200))
        cert = outcome.certificate
        if cert is None:
            continue
        found += 1
        assert (cert.net_displacement, cert.confinement_radius) == fraction_measures(initial, cert)
    assert found >= 100


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
