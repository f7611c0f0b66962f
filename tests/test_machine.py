"""Observation construction, output resolution, and pebble legality."""

from __future__ import annotations

import copy
import gc
import itertools
import pickle
import random

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from pebblewalk.collective import transform_positions
from pebblewalk.lattice import GENERATORS, Symmetry, Vertex, neighbors, vertex
from pebblewalk.machine import (
    MAX_MEMBER_ID,
    MOVE_TO_FREE,
    STAY,
    Automaton,
    Observation,
    ObservationPattern,
    Rule,
    consistent_observations,
    format_output,
    member_set,
    move_to_set,
    observe,
    occupants,
    pebble,
    resolve_output,
    validate_pebble,
)
from pebblewalk.util import FrozenMap
from pebblewalk.walker14 import build_walker
import observations_reference


def positions(**kwargs) -> FrozenMap:
    # keys like m1, m2 map to member ids 1, 2
    return FrozenMap({int(k[1:]): vertex(*v) for k, v in kwargs.items()})


configs = st.builds(
    lambda placed: FrozenMap(dict(enumerate(placed, start=1))),
    st.lists(st.builds(Vertex, st.integers(-20, 20), st.integers(0, 1)), min_size=1, max_size=5),
)
symmetries = st.builds(
    Symmetry,
    x_sign=st.sampled_from([1, -1]),
    x_shift=st.integers(-15, 15),
    flip_y=st.booleans(),
)


def test_observation_multiset_is_order_insensitive():
    a = Observation.make({2}, [{3}, set(), set()])
    b = Observation.make({2}, [set(), set(), {3}])
    assert a == b
    assert hash(a) == hash(b)


def test_observation_requires_three_neighbor_sets():
    with pytest.raises(ValueError):
        Observation.make(set(), [set(), set()])


def test_observation_repr_prints_member_sets():
    obs = Observation.make({1}, [set(), {3}, set()])
    assert repr(obs) == (
        "Observation(alpha=frozenset({1}), neighborhood=(frozenset(), frozenset(), frozenset({3})))"
    )


def test_observation_survives_copy_and_pickle():
    obs = Observation.make({2}, [{3, 4}, set(), {5}])
    assert copy.copy(obs) == obs
    assert pickle.loads(pickle.dumps(obs)) == obs


def test_observe_marching_layout():
    # leader rides the rear pebble; only the middle neighbor is occupied
    pos = positions(m1=(0, 0), m2=(0, 0), m3=(1, 0), m4=(2, 0), m5=(1, 1))
    obs = observe(pos, 1)
    assert obs.alpha == member_set({2})
    assert sorted(obs.neighborhood, key=lambda s: (len(s), sorted(s))) == [
        frozenset(),
        frozenset(),
        frozenset({3}),
    ]


def test_observe_alone():
    pos = positions(m1=(7, 1))
    obs = observe(pos, 1)
    assert obs.alpha == frozenset()
    assert obs.neighborhood == (frozenset(), frozenset(), frozenset())


def test_alpha_never_contains_observer():
    pos = positions(m1=(0, 0), m2=(0, 0), m3=(0, 0))
    for who in (1, 2, 3):
        assert who not in observe(pos, who).alpha


@settings(max_examples=300)
@given(configs, symmetries)
def test_observation_invariant_under_symmetry(pos, s):
    moved = transform_positions(pos, s)
    for who in pos:
        assert observe(pos, who) == observe(moved, who)


def test_observation_invariance_randomized_bulk():
    # the same property as above, pinned to a deterministic 1000-case sweep
    rng = random.Random(20240816)
    for _ in range(1000):
        members = rng.randint(1, 5)
        pos = FrozenMap(
            {m: vertex(rng.randint(-30, 30), rng.randint(0, 1)) for m in range(1, members + 1)}
        )
        s = rng.choice(GENERATORS)
        moved = transform_positions(pos, s)
        who = rng.randint(1, members)
        assert observe(pos, who) == observe(moved, who)


def test_resolve_stay_is_current_vertex():
    pos = positions(m1=(4, 0))
    assert resolve_output(STAY, vertex(4, 0), pos) == {vertex(4, 0)}


def test_resolve_move_to_free_excludes_occupied():
    # at the front vertex: one occupied neighbor behind, two free ahead/above
    pos = positions(m1=(2, 0), m2=(1, 0))
    opts = resolve_output(MOVE_TO_FREE, vertex(2, 0), pos)
    assert opts == {vertex(3, 0), vertex(2, 1)}


def test_resolve_move_to_set_subset_semantics():
    # occupant set {3, 4} qualifies for target supersets, not for others
    pos = positions(m1=(0, 0), m3=(1, 0), m4=(1, 0))
    assert resolve_output(move_to_set({3, 4, 5}), vertex(0, 0), pos) == {vertex(1, 0)}
    assert resolve_output(move_to_set({3}), vertex(0, 0), pos) == set()


def test_resolve_move_to_set_single_option():
    pos = positions(m1=(0, 0), m3=(1, 0))
    assert resolve_output(move_to_set({3}), vertex(0, 0), pos) == {vertex(1, 0)}


def test_resolve_move_to_set_empty_when_absent():
    pos = positions(m1=(0, 0), m5=(9, 0))
    assert resolve_output(move_to_set({5}), vertex(0, 0), pos) == set()


def test_resolve_rejects_free_vertices_for_sets():
    pos = positions(m1=(0, 0))
    assert resolve_output(move_to_set({2}), vertex(0, 0), pos) == set()


@given(configs)
def test_resolve_stays_within_neighborhood(pos):
    at = pos[1]
    for out in (STAY, MOVE_TO_FREE, move_to_set({2, 3, 4, 5})):
        for v in resolve_output(out, at, pos):
            assert v == at or v in neighbors(at)


def test_pattern_wildcard_matches_everything():
    pat = ObservationPattern(None)
    assert pat.matches(Observation.make(set(), [set(), set(), set()]))
    assert pat.matches(Observation.make({1, 2}, [{3}, {4}, {5}]))


def test_pattern_multiset_entry_order_irrelevant():
    obs = Observation.make({1}, [set(), {3}, {5}])
    assert ObservationPattern({1}, [{5}, {3}, set()]).matches(obs)
    assert ObservationPattern({1}, [set(), {3}, {5}]).matches(obs)
    assert not ObservationPattern({1}, [set(), set(), {5}]).matches(obs)


def test_pattern_has_entry():
    obs = Observation.make(set(), [{2, 3}, set(), set()])
    assert ObservationPattern(None, [("has", 2), None, None]).matches(obs)
    assert not ObservationPattern(None, [("has", 4), None, None]).matches(obs)


def test_pattern_alpha_exact():
    obs = Observation.make({2, 3}, [set(), set(), set()])
    assert ObservationPattern({2, 3}).matches(obs)
    assert not ObservationPattern({2}).matches(obs)


def test_unmatched_observation_falls_back_to_stay():
    machine = Automaton(
        initial="s",
        rules=(Rule("s", ObservationPattern({9}), MOVE_TO_FREE, "s"),),
    )
    out, nxt = machine.act("s", Observation.make(set(), [set(), set(), set()]))
    assert out == STAY and nxt == "s"


def test_first_matching_rule_wins():
    obs = Observation.make({2}, [set(), set(), set()])
    machine = Automaton(
        initial="s",
        rules=(
            Rule("s", ObservationPattern({2}), move_to_set({2}), "hit"),
            Rule("s", ObservationPattern(None), MOVE_TO_FREE, "miss"),
        ),
    )
    assert machine.act("s", obs) == (move_to_set({2}), "hit")


def test_consistent_observations_exclude_observer():
    for obs in consistent_observations({1, 2, 3}, observer=2):
        assert 2 not in obs.alpha
        assert all(2 not in cell for cell in obs.neighborhood)


@pytest.mark.parametrize("members", range(1, 8))
def test_consistent_observations_match_the_reference(members):
    universe = range(1, members + 1)
    for observer in (None, 1, 2, members):
        want = observations_reference.consistent_observations(universe, observer)
        assert consistent_observations(universe, observer) == want


def test_consistent_observations_leave_no_cyclic_garbage():
    # Garbage that only the cyclic collector frees makes that collector run
    # far more often, and its pauses land on arbitrary later calls.
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for observer in (None, 1):
            consistent_observations(range(1, 6), observer)
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def test_observe_matches_the_reference():
    # Two cells off the ladder: the column is shared, but neither is the
    # across neighbour lattice.neighbors names.
    window = [vertex(x, y) for x in range(3) for y in (0, 1)] + [Vertex(1, -1), Vertex(1, 2)]
    for members in range(1, 5):
        for placed in itertools.product(window, repeat=members):
            layout = FrozenMap(dict(enumerate(placed, start=1)))
            for who in layout:
                assert observe(layout, who) == observations_reference.observe(layout, who)


def test_validator_accepts_walker_pebbles():
    assert build_walker().validate_pebbles() == []


def test_validator_rejects_move_without_leader():
    # fires on alpha = {} which lacks member 1
    runaway = pebble("runaway", [(ObservationPattern(frozenset()), MOVE_TO_FREE)])
    leader = Automaton(initial="s", rules=(Rule("s", ObservationPattern(None), MOVE_TO_FREE, "s"),))
    problems = validate_pebble(runaway, leader, universe={1, 2}, observer=2)
    assert problems and any("without member 1" in p for p in problems)


def test_validator_rejects_two_state_member():
    one_state = pebble("a", [])
    assert (one_state.initial, one_state.states) == ("a", frozenset({"a"}))
    assert one_state.act("a", Observation.make(set(), [set(), set(), set()])) == (STAY, "a")
    crooked = Automaton("a", (Rule("a", ObservationPattern(None), STAY, "b"),))
    leader = Automaton(initial="s", rules=())
    problems = validate_pebble(crooked, leader, universe={1, 2}, observer=2)
    assert problems and any("'a' has 2 states" in p for p in problems)


def test_validator_rejects_output_leader_never_emits():
    # pebble wants to chase member 3; the leader only ever walks to free cells
    chaser = pebble("chaser", [(ObservationPattern({1}), move_to_set({3}))])
    leader = Automaton(initial="s", rules=(Rule("s", ObservationPattern(None), MOVE_TO_FREE, "s"),))
    problems = validate_pebble(chaser, leader, universe={1, 2, 3}, observer=2)
    assert problems and any("never emits" in p for p in problems)


def test_format_output_spellings():
    assert format_output(STAY) == "stay"
    assert format_output(MOVE_TO_FREE) == "free"
    assert format_output(move_to_set({4, 2})) == "set:2,4"


def test_occupants():
    pos = positions(m1=(0, 0), m2=(0, 0), m3=(1, 0))
    assert occupants(pos, vertex(0, 0)) == member_set({1, 2})
    assert occupants(pos, vertex(5, 1)) == frozenset()


def test_move_to_set_rejects_empty_target():
    with pytest.raises(ValueError):
        move_to_set(set())


# Oracle: the frozenset-only views of observations_reference, which never
# build an Observation, against observe, the enumeration and pattern matching.
member_ids = st.sets(st.integers(0, 40), min_size=1, max_size=5)
cells = st.builds(Vertex, st.integers(-2, 2), st.sampled_from([-1, 0, 1, 2]))


@st.composite
def observed_patterns(draw):
    ids = sorted(draw(member_ids))
    layout = FrozenMap({m: draw(cells) for m in ids})
    who = draw(st.sampled_from(ids))
    seen = observations_reference.view(layout, who)
    pool = [*ids, 41]
    member_sets = st.one_of(
        st.sampled_from([seen[0], *seen[1]]), st.frozensets(st.sampled_from(pool), max_size=3)
    )
    entry = st.one_of(st.none(), member_sets, st.tuples(st.just("has"), st.sampled_from(pool)))
    alpha = draw(st.one_of(st.none(), member_sets))
    entries = draw(st.one_of(st.none(), st.lists(entry, min_size=3, max_size=3)))
    return layout, who, alpha, entries


@settings(max_examples=500)
@given(observed_patterns())
def test_observe_and_patterns_agree_with_the_frozenset_reference(case):
    layout, who, alpha, entries = case
    obs = observe(layout, who)
    seen = observations_reference.view(layout, who)
    assert (obs.alpha, obs.neighborhood) == seen
    want = observations_reference.pattern_matches(alpha, entries, seen)
    assert ObservationPattern(alpha, entries).matches(obs) == want


@settings(max_examples=60, deadline=None)
@given(member_ids, st.data())
def test_consistent_observations_agree_with_the_frozenset_reference(ids, data):
    observer = data.draw(st.sampled_from([None, *sorted(ids)]))
    got = [(obs.alpha, obs.neighborhood) for obs in consistent_observations(ids, observer)]
    assert got == observations_reference.consistent_views(ids, observer)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Observation.make({-1}, [set(), set(), set()]),
        lambda: Observation.make(set(), [{2}, {-3}, set()]),
        lambda: observe(FrozenMap({1: vertex(0, 0), -2: vertex(1, 0)}), 1),
        lambda: consistent_observations({1, -2}, None),
        lambda: ObservationPattern({-1}),
        lambda: ObservationPattern(None, [("has", -4), None, None]),
    ],
    ids=["alpha", "neighbour", "observe", "enumeration", "pattern-set", "pattern-has"],
)
def test_negative_member_id_raises_a_clear_error(build):
    with pytest.raises(ValueError, match=rf"^member id -\d outside 0\.\.{MAX_MEMBER_ID}$"):
        build()


def test_member_ids_above_the_cap():
    big = MAX_MEMBER_ID + 1
    with pytest.raises(ValueError, match=f"member id {big} outside"):
        Observation.make({big}, [set(), set(), set()])
    for spot in ((0, 0), (1, 0)):
        with pytest.raises(ValueError, match=f"member id {big} outside"):
            observe(FrozenMap({1: vertex(0, 0), big: vertex(*spot)}), 1)
    # Parsed patterns may name any 18-digit id before the parser rejects it
    # as unknown; such an id becomes a test no observation passes.
    huge = 10**17
    obs = Observation.make({1}, [{2}, set(), set()])
    for pattern in (
        ObservationPattern({huge}),
        ObservationPattern(None, [("has", huge), None, None]),
        ObservationPattern(None, [{2, huge}, None, None]),
    ):
        assert not pattern.matches(obs)
