"""Pebble-layout schemas: enumeration, symmetry, confusability, transfers.

The enumeration counts are cross-checked against a brute-force oracle that
places labeled pebbles in a bounded window and canonicalizes by hand, with
no dependency on the module under test.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import random
import re
from collections import Counter
from itertools import product

from hypothesis import given
from hypothesis import strategies as st
import pytest

from pebblewalk.collective import at_origin, move_onto, transform_positions
from pebblewalk.lattice import X_REFLECTION, Y_REFLECTION, Vertex, neighbors, vertex
from pebblewalk.machine import observe
from pebblewalk.schemas import (
    TO_FREE,
    TO_OCCUPIED,
    ConfinementCycle,
    Schema,
    SchemaGraph,
    Witness,
    enumerate_schemas,
    find_confinement_cycle,
    graph_dot,
    schema_of,
    sorted_schemas,
    symmetry_classes,
    symmetry_indistinguishable,
    transfer_graph,
    validate_witness,
    worst_case_indistinguishable,
)
from pebblewalk.util import FrozenMap
from pebblewalk.walker14 import build_walker
import pebblewalk.schemas as schemas_module
import schemas_reference

# --- independent brute-force oracle ------------------------------------

_ORACLE_WINDOW = [(x, y) for x in range(5) for y in (0, 1)]


def _oracle_neighbors(v):
    x, y = v
    return {(x - 1, y), (x + 1, y), (x, 1 - y)}


def _oracle_connected(vertices):
    vs = set(vertices)
    frontier = {next(iter(vs))}
    seen = set()
    while frontier:
        v = frontier.pop()
        seen.add(v)
        frontier |= {w for w in _oracle_neighbors(v) if w in vs and w not in seen}
    return seen == vs


def _oracle_canonical(vertices):
    ax = min(x for x, _ in vertices)
    return frozenset((x - ax, y) for x, y in vertices)


def brute_force_layouts(pebbles):
    """Every occupied-vertex set reachable by placing labeled pebbles in a
    5x2 window without isolated members, modulo x-translation."""
    seen = set()
    for placement in product(_ORACLE_WINDOW, repeat=pebbles):
        occupied = frozenset(placement)
        if _oracle_connected(occupied):
            seen.add(_oracle_canonical(occupied))
    return seen


# --- shared fixtures ----------------------------------------------------

ROW0_TRIPLE = Schema(frozenset({(0, 0), (1, 0), (2, 0)}), 3)
ROW1_TRIPLE = Schema(frozenset({(0, 1), (1, 1), (2, 1)}), 3)
ELL_UP_LEFT = Schema(frozenset({(0, 0), (1, 0), (0, 1)}), 3)
ELL_UP_RIGHT = Schema(frozenset({(0, 0), (1, 0), (1, 1)}), 3)
ELL_DOWN_LEFT = Schema(frozenset({(0, 1), (1, 1), (0, 0)}), 3)
ELL_DOWN_RIGHT = Schema(frozenset({(0, 1), (1, 1), (1, 0)}), 3)
PAIR_ROW0 = Schema(frozenset({(0, 0), (1, 0)}), 3)
PAIR_ROW1 = Schema(frozenset({(0, 1), (1, 1)}), 3)
PAIR_COLUMN = Schema(frozenset({(0, 0), (0, 1)}), 3)
SINGLE_ROW0 = Schema(frozenset({(0, 0)}), 3)
SINGLE_ROW1 = Schema(frozenset({(0, 1)}), 3)

ELLS = (ELL_UP_LEFT, ELL_UP_RIGHT, ELL_DOWN_LEFT, ELL_DOWN_RIGHT)


# --- schema extraction --------------------------------------------------

def test_schema_of_translates_to_zero():
    positions = {1: vertex(7, 1), 2: vertex(7, 0), 3: vertex(8, 0)}
    s = schema_of(positions)
    assert s == Schema(frozenset({(0, 0), (1, 0)}), 2)
    assert s.pebbles == 2


def test_schema_of_excludes_the_automaton():
    positions = {1: vertex(-3, 0), 2: vertex(0, 0), 3: vertex(1, 0)}
    assert schema_of(positions).vertices == frozenset({Vertex(0, 0), Vertex(1, 0)})


def test_schema_of_walker_initial_layout():
    walker = build_walker()
    s = schema_of(walker.initial_positions)
    assert s.vertices == frozenset(
        {Vertex(0, 0), Vertex(1, 0), Vertex(2, 0), Vertex(1, 1)}
    )
    assert s.pebbles == 4


def test_schema_of_stacked_pebbles():
    positions = {2: vertex(4, 1), 3: vertex(4, 1), 4: vertex(4, 1)}
    assert schema_of(positions) == Schema(frozenset({(0, 1)}), 3)


def test_schema_of_requires_a_pebble():
    with pytest.raises(ValueError):
        schema_of({1: vertex(0, 0)})


def test_schema_canonicalizes_on_construction():
    assert Schema(frozenset({(7, 0), (8, 0)}), 2) == Schema(
        frozenset({(0, 0), (1, 0)}), 2
    )


def test_schema_rejects_too_few_pebbles():
    with pytest.raises(ValueError):
        Schema(frozenset({(0, 0), (1, 0)}), 1)


positions_strategy = st.dictionaries(
    st.integers(2, 5),
    st.builds(Vertex, st.integers(-8, 8), st.integers(0, 1)),
    min_size=1,
    max_size=4,
)


@given(positions_strategy, st.integers(-30, 30))
def test_schema_of_translation_invariant(positions, shift):
    moved = {m: Vertex(v.x + shift, v.y) for m, v in positions.items()}
    assert schema_of(moved) == schema_of(positions)


@given(positions_strategy, st.sampled_from([X_REFLECTION, Y_REFLECTION]))
def test_schema_of_reflection_equivariant(positions, sym):
    reflected = transform_positions(positions, sym)
    expected = Schema(
        frozenset(sym.apply(v) for v in schema_of(positions).vertices),
        len(positions),
    )
    assert schema_of(reflected) == expected


# --- enumeration --------------------------------------------------------

def test_two_pebble_count_matches_oracle():
    schemas = enumerate_schemas(2)
    assert len(schemas) == 5
    oracle = brute_force_layouts(2)
    assert {frozenset(s.vertices) for s in schemas} == oracle


def test_three_pebble_count_matches_oracle():
    schemas = enumerate_schemas(3)
    assert len(schemas) == 11
    oracle = brute_force_layouts(3)
    assert {frozenset(s.vertices) for s in schemas} == oracle


def test_three_vertex_layouts_number_six():
    assert sum(1 for s in enumerate_schemas(3) if len(s.vertices) == 3) == 6
    assert sum(1 for vs in brute_force_layouts(3) if len(vs) == 3) == 6


def test_enumeration_membership():
    threes = enumerate_schemas(3)
    for s in (ROW0_TRIPLE, PAIR_COLUMN, SINGLE_ROW1, *ELLS):
        assert s in threes


def test_unsupported_pebble_count_rejected():
    for count in (0, 1, 4):
        with pytest.raises(ValueError):
            enumerate_schemas(count)


def test_sorted_schemas_is_deterministic():
    ordered = sorted_schemas(enumerate_schemas(3))
    assert list(ordered) == sorted(ordered, key=lambda s: s.key)
    assert len(ordered) == 11


# --- symmetry indistinguishability --------------------------------------

def test_straight_rows_are_symmetric():
    assert symmetry_indistinguishable(ROW0_TRIPLE, ROW1_TRIPLE)


def test_corner_layouts_pairwise_symmetric():
    for a in ELLS:
        for b in ELLS:
            assert symmetry_indistinguishable(a, b)


def test_row_vs_corner_not_symmetric():
    assert not symmetry_indistinguishable(ROW0_TRIPLE, ELL_UP_LEFT)


def test_column_pair_is_self_paired_only():
    for other in (PAIR_ROW0, PAIR_ROW1, SINGLE_ROW0):
        assert not symmetry_indistinguishable(PAIR_COLUMN, other)
    assert symmetry_indistinguishable(PAIR_COLUMN, PAIR_COLUMN)


def test_three_pebble_class_sizes():
    classes = symmetry_classes(enumerate_schemas(3))
    assert sorted(len(c) for c in classes) == [1, 2, 2, 2, 4]


def test_two_pebble_class_sizes():
    classes = symmetry_classes(enumerate_schemas(2))
    assert sorted(len(c) for c in classes) == [1, 2, 2]


def test_symmetry_is_an_equivalence_relation():
    for count in (2, 3):
        schemas = sorted_schemas(enumerate_schemas(count))
        for a in schemas:
            assert symmetry_indistinguishable(a, a)
            for b in schemas:
                ab = symmetry_indistinguishable(a, b)
                assert ab == symmetry_indistinguishable(b, a)
                for c in schemas:
                    if ab and symmetry_indistinguishable(b, c):
                        assert symmetry_indistinguishable(a, c)


def test_symmetry_requires_equal_counts():
    with pytest.raises(ValueError):
        symmetry_indistinguishable(
            Schema(frozenset({(0, 0)}), 2), Schema(frozenset({(0, 0)}), 3)
        )


# --- transfer graph ------------------------------------------------------

def test_triple_row_stacks_into_row_pair():
    graph = transfer_graph(3)
    assert graph.targets(ROW0_TRIPLE, TO_OCCUPIED) == frozenset({PAIR_ROW0})


def test_corner_stacks_into_row_pair_or_column_pair():
    graph = transfer_graph(3)
    assert graph.targets(ELL_UP_LEFT, TO_OCCUPIED) == frozenset(
        {PAIR_ROW0, PAIR_COLUMN}
    )


def test_row_pair_unstacks_to_corners_or_row():
    graph = transfer_graph(3)
    assert graph.targets(PAIR_ROW0, TO_FREE) == frozenset(
        {ELL_UP_LEFT, ELL_UP_RIGHT, ROW0_TRIPLE}
    )


def test_column_pair_unstacks_to_every_corner():
    graph = transfer_graph(3)
    assert graph.targets(PAIR_COLUMN, TO_FREE) == frozenset(ELLS)


def test_every_edge_stays_within_the_enumeration():
    for count in (2, 3):
        schemas = enumerate_schemas(count)
        graph = transfer_graph(count)
        assert set(graph.nodes) == schemas
        for edge in graph.edges:
            assert edge.source in schemas
            assert edge.target in schemas
            assert edge.label in (TO_OCCUPIED, TO_FREE)


def test_edge_labels_constrain_vertex_counts():
    for edge in transfer_graph(3).edges:
        if edge.label == TO_OCCUPIED:
            assert len(edge.target.vertices) <= len(edge.source.vertices)
        else:
            assert len(edge.target.vertices) >= len(edge.source.vertices)


def test_two_pebble_graph_is_the_stack_unstack_fan():
    graph = transfer_graph(2)
    pair_row0 = Schema(frozenset({(0, 0), (1, 0)}), 2)
    pair_row1 = Schema(frozenset({(0, 1), (1, 1)}), 2)
    pair_col = Schema(frozenset({(0, 0), (0, 1)}), 2)
    single0 = Schema(frozenset({(0, 0)}), 2)
    single1 = Schema(frozenset({(0, 1)}), 2)
    expected = {
        (pair_row0, single0, TO_OCCUPIED),
        (pair_row1, single1, TO_OCCUPIED),
        (pair_col, single0, TO_OCCUPIED),
        (pair_col, single1, TO_OCCUPIED),
        (single0, pair_row0, TO_FREE),
        (single0, pair_col, TO_FREE),
        (single1, pair_row1, TO_FREE),
        (single1, pair_col, TO_FREE),
    }
    assert {(e.source, e.target, e.label) for e in graph.edges} == expected


def test_graph_dot_renders_both_edge_styles():
    text = graph_dot(transfer_graph(3))
    assert text.startswith("digraph")
    assert "style=solid" in text
    assert "style=dashed" in text
    assert text.count("->") == len(transfer_graph(3).edges)


# --- worst-case indistinguishability -------------------------------------

def _replay_worlds(witness: Witness):
    """Re-run both worlds locally, checking observation agreement stepwise."""
    pos_a = dict(witness.start_a)
    pos_b = dict(witness.start_b)
    assert observe(pos_a, 1) == observe(pos_b, 1)
    seen = []
    for step in witness.prefix + witness.cycle:
        for positions, offset in ((pos_a, step.offset_a), (pos_b, step.offset_b)):
            leader = positions[1]
            target = vertex(leader.x + offset[0], leader.y + offset[1])
            assert target in neighbors(leader)
            occupied = any(v == target for v in positions.values())
            assert occupied == step.to_occupied
            for member in (1, *step.carried):
                assert positions[member] == leader
                positions[member] = target
        assert observe(pos_a, 1) == observe(pos_b, 1)
        seen.append((_canON(pos_a), _canON(pos_b)))
    assert len(witness.cycle) >= 1
    assert any(step.carried for step in witness.cycle)
    before_cycle = len(witness.prefix)
    if before_cycle == 0:
        start_key = (_canON(witness.start_a), _canON(witness.start_b))
    else:
        start_key = seen[before_cycle - 1]
    assert seen[-1] == start_key


def _canON(positions):
    ax = min(v.x for v in positions.values())
    return tuple(sorted((m, v.x - ax, v.y) for m, v in positions.items()))


def test_row_class_and_corner_class_are_worst_case_confusable():
    out = worst_case_indistinguishable(ROW0_TRIPLE, ELL_UP_LEFT, depth=12)
    assert out.verdict == "witness"
    validate_witness(out.witness)
    _replay_worlds(out.witness)


def test_row_pair_and_column_pair_are_worst_case_confusable():
    out = worst_case_indistinguishable(PAIR_ROW0, PAIR_COLUMN, depth=12)
    assert out.verdict == "witness"
    validate_witness(out.witness)
    _replay_worlds(out.witness)


def test_mirrored_rows_are_worst_case_confusable():
    out = worst_case_indistinguishable(ROW0_TRIPLE, ROW1_TRIPLE, depth=12)
    assert out.verdict == "witness"
    validate_witness(out.witness)


def test_witness_validation_rejects_tampering():
    out = worst_case_indistinguishable(PAIR_ROW0, PAIR_COLUMN, depth=12)
    step = out.witness.cycle[0]
    bad_step = type(step)(
        offset_a=step.offset_a,
        offset_b=step.offset_b,
        carried=step.carried,
        to_occupied=not step.to_occupied,
    )
    bad = Witness(
        start_a=out.witness.start_a,
        start_b=out.witness.start_b,
        prefix=out.witness.prefix,
        cycle=(bad_step, *out.witness.cycle[1:]),
    )
    with pytest.raises(ValueError):
        validate_witness(bad)


def test_witness_validation_refuses_starts_off_the_two_rows():
    # A depth-first search over lattice neighbours reads {(0,0),(0,2)} as two
    # components and the column-run check as one column, so validation
    # refuses such layouts before it asks whether they are connected.
    assert not schemas_reference._connected(frozenset({Vertex(0, 0), Vertex(0, 2)}))
    w = worst_case_indistinguishable(PAIR_ROW0, PAIR_COLUMN, depth=12).witness
    x, _ = w.start_a[2]
    for start_a, start_b in (
        (w.start_a.set(2, Vertex(x, 2)), w.start_b),
        (w.start_a, w.start_b.set(2, Vertex(x, -1))),
    ):
        bad = Witness(start_a=start_a, start_b=start_b, prefix=w.prefix, cycle=w.cycle)
        with pytest.raises(ValueError, match="a starting layout leaves the two rows"):
            validate_witness(bad)


# ROW0_TRIPLE against ELL_UP_LEFT: in world a the automaton and pebble 2
# stand at (0,0) beside pebbles 3 and 4 at (1,0) and (2,0); in world b they
# stand at (0,1) above pebble 3 at (0,0), with pebble 4 at (1,0).  The cycle
# carries pebble 2 onto pebble 3 and back.
ROW_ELL = worst_case_indistinguishable(ROW0_TRIPLE, ELL_UP_LEFT, depth=12).witness
ONTO, BACK = ROW_ELL.cycle


def edit_witness(**fields):
    return lambda w: dataclasses.replace(w, **fields)


def edit_step(i, **fields):
    def edit(w):
        cycle = list(w.cycle)
        cycle[i] = dataclasses.replace(cycle[i], **fields)
        return dataclasses.replace(w, cycle=tuple(cycle))

    return edit


def edit_start(world, member, v):
    field = f"start_{world}"
    return lambda w: dataclasses.replace(w, **{field: getattr(w, field).set(member, v)})


def test_the_row_and_ell_witness_is_as_described():
    assert ROW_ELL.start_a == {1: (0, 0), 2: (0, 0), 3: (1, 0), 4: (2, 0)}
    assert ROW_ELL.start_b == {1: (0, 1), 2: (0, 1), 3: (0, 0), 4: (1, 0)}
    assert ROW_ELL.prefix == ()
    assert (ONTO.offset_a, ONTO.offset_b, ONTO.carried, ONTO.to_occupied) == ((1, 0), (0, -1), {2}, True)
    assert (BACK.offset_a, BACK.offset_b, BACK.carried, BACK.to_occupied) == ((-1, 0), (0, 1), {2}, False)
    # Entering the cycle one step late is the same realization.
    validate_witness(dataclasses.replace(ROW_ELL, prefix=(ONTO,), cycle=(BACK, ONTO)))


# Every refusal is reached by some witness: none is always caught by an
# earlier check.
@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(
            lambda w: dataclasses.replace(w, start_b=FrozenMap({(5 if m == 4 else m): v for m, v in w.start_b.items()})),
            "worlds must share one automaton and pebble ids",
            id="member-ids",
        ),
        pytest.param(edit_start("a", 4, Vertex(2, 2)), "a starting layout leaves the two rows", id="off-rows"),
        pytest.param(edit_start("b", 3, vertex(0, 1)), "starting observations differ", id="start-observations"),
        pytest.param(edit_start("a", 4, vertex(5, 0)), "a starting layout separates the collective", id="start-separated"),
        pytest.param(edit_witness(cycle=()), "the cycle is empty", id="empty-cycle"),
        pytest.param(
            lambda w: dataclasses.replace(w, cycle=tuple(dataclasses.replace(s, carried=frozenset()) for s in w.cycle)),
            "the cycle relocates no pebble",
            id="carries-nothing",
        ),
        # a reaches (0,1) and sees nothing around it, b reaches (1,1) above pebble 4
        pytest.param(edit_step(0, offset_a=(0, 1), offset_b=(1, 0), to_occupied=False), "observations diverge after step 0", id="diverging"),
        # both step left alone with pebble 2, leaving pebbles 3 and 4 a column away
        pytest.param(edit_step(0, offset_a=(-1, 0), offset_b=(-1, 0), to_occupied=False), "step 0 separates the collective", id="separating"),
        pytest.param(edit_witness(prefix=(ONTO,), cycle=(BACK,)), "the cycle does not return to its entry layout", id="no-return"),
        pytest.param(edit_step(0, offset_a=(0, -1)), "a move leaves the lattice: ", id="off-lattice"),
        pytest.param(edit_step(0, offset_a=(2, 0)), "a move target is not adjacent to the automaton", id="not-adjacent"),
        pytest.param(edit_step(0, to_occupied=False), "a step label does not match its target occupancy", id="label"),
        pytest.param(edit_step(0, carried=frozenset({3})), "carried pebble 3 is not co-located", id="carried-off-leader"),
        # back at the start, pebble 2 stays where it followed the automaton before
        pytest.param(
            edit_witness(cycle=(ONTO, BACK, dataclasses.replace(ONTO, carried=frozenset()))),
            "pebble 2 would need two reactions to one observation",
            id="two-reactions",
        ),
    ],
)
def test_witness_validation_refuses_each_broken_requirement(edit, message):
    validate_witness(ROW_ELL)
    with pytest.raises(ValueError) as exc:
        validate_witness(edit(ROW_ELL))
    assert str(exc.value).startswith(message), str(exc.value)


_WINDOW_2X5 = [vertex(x, y) for x in range(5) for y in (0, 1)]


@pytest.mark.parametrize("shift", [0, -3, -8])
def test_column_run_connectivity_agrees_with_depth_first_search(shift):
    for bits in range(1, 1 << len(_WINDOW_2X5)):
        vs = frozenset(Vertex(v.x + shift, v.y) for i, v in enumerate(_WINDOW_2X5) if bits >> i & 1)
        assert schemas_module._connected(vs) == schemas_reference._connected(vs), sorted(vs)


def test_worst_case_requires_equal_counts():
    with pytest.raises(ValueError):
        worst_case_indistinguishable(
            Schema(frozenset({(0, 0), (1, 0)}), 2), PAIR_ROW0
        )


# Each digest is the sha256 of one line per ordered pair, the repr of
# (verdict, explored, frontier_cut, witness) with the witness's start layouts
# and steps, recorded from the search that keyed its nodes by translated
# layouts.  The sums would miss a change that only reorders outcomes.
@pytest.mark.parametrize(
    "pebbles, bounds, verdicts, explored, witness_steps, digest",
    [
        (
            2,
            {"depth": 1},
            {("witness", False): 4, ("distinct", False): 12, ("depth-exhausted", True): 9},
            500,
            4,
            "28f7de4bb232b8eedfb704ea67da8200f84ef3afa17bec9471891f2c3ebf98db",
        ),
        (
            2,
            {"depth": 12, "max_nodes": 30},
            {("witness", True): 4, ("distinct", False): 12, ("depth-exhausted", True): 9},
            480,
            4,
            "33740c1b27b22fc2eebb13b7e9788c682a6d7449099e69a559b73a4a5b1c743f",
        ),
        (
            2,
            {"depth": 12},
            {("witness", False): 13, ("distinct", False): 12},
            880,
            22,
            "ff859ee7067e06fc877c4476c2e5ca32c6fad85fd1168bf75c741cc450c94918",
        ),
        (
            3,
            {"depth": 1},
            {("witness", False): 4, ("distinct", False): 72, ("depth-exhausted", True): 45},
            9668,
            4,
            "0b48276ab3a3707bc86afc505346c360aaf6808471e42d52491a73f24c982310",
        ),
        (
            3,
            {"depth": 12, "max_nodes": 30},
            {("witness", True): 13, ("distinct", False): 72, ("depth-exhausted", True): 36},
            7824,
            22,
            "df1dd2cc2dcfe33c0d37ad546fe79cdc112996f15a4a445e2a5da97cf970f98a",
        ),
        (
            3,
            {"depth": 12},
            {("witness", False): 49, ("distinct", False): 72},
            16056,
            94,
            "97b9b82afd68cbe4d9f4799d17684d6c92b3f278dffd287bba13feabe0985272",
        ),
    ],
    ids=["2-depth1", "2-depth12-max30", "2-depth12", "3-depth1", "3-depth12-max30", "3-depth12"],
)
def test_all_pairs_under_search_bounds(pebbles, bounds, verdicts, explored, witness_steps, digest):
    schemas = sorted_schemas(enumerate_schemas(pebbles))
    outs = [worst_case_indistinguishable(a, b, **bounds) for a in schemas for b in schemas]
    assert Counter((o.verdict, o.frontier_cut) for o in outs) == verdicts
    assert sum(o.explored for o in outs) == explored
    witnesses = [o.witness for o in outs if o.witness is not None]
    assert sum(len(w.prefix) + len(w.cycle) for w in witnesses) == witness_steps
    for w in witnesses:
        validate_witness(w)
    text = "".join(f"{(o.verdict, o.explored, o.frontier_cut, o.witness)!r}\n" for o in outs)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


TWO_PEBBLE_SCHEMAS = sorted_schemas(enumerate_schemas(2))
ORDER_PAIRS = [
    *((a, b) for a in TWO_PEBBLE_SCHEMAS for b in TWO_PEBBLE_SCHEMAS),
    *((ROW0_TRIPLE, b) for b in sorted_schemas(enumerate_schemas(3))),
]


def _layout(worlds, c):
    """Class c's representative as a member -> vertex map."""
    return FrozenMap(zip(worlds.members, worlds.reps[c]))


def test_search_enumerates_like_the_reference(monkeypatch):
    """World classes, move tables and observation groups change no successor
    or start, nor their order, at any node the depth-12 searches expand: the
    starts are the reference's in prioritized order, each keyed by its pair
    of classes, and a node's classes, read back as their representatives'
    layouts, have the reference's successors, translated to least x 0."""
    tabled = schemas_module._joint_successors
    expanded = []

    def checked(worlds, ca, cb, steps):
        got = list(tabled(worlds, ca, cb, steps))
        want = schemas_reference._joint_successors(_layout(worlds, ca), _layout(worlds, cb))
        assert [(step, _layout(worlds, na), _layout(worlds, nb)) for step, na, nb in got] == [
            (step, at_origin(na)[0], at_origin(nb)[0]) for step, na, nb in want
        ]
        expanded.append((ca, cb))
        return got

    monkeypatch.setattr(schemas_module, "_joint_successors", checked)
    for a, b in ORDER_PAIRS:
        worlds = schemas_module._Worlds(range(1, a.pebbles + 2))
        starts = list(schemas_module._schema_starts(worlds, a, b))
        want = schemas_reference._prioritized(schemas_reference._schema_starts(a, b))
        assert [(pos_a, pos_b) for _, pos_a, pos_b in starts] == want
        classes = len(worlds.reps)
        for key, pos_a, pos_b in starts:
            assert key == (worlds.locate(worlds.slots(pos_a)), worlds.locate(worlds.slots(pos_b)))
        assert len(worlds.reps) == classes
        worst_case_indistinguishable(a, b, depth=12)
    assert expanded


def test_starts_locate_each_placement_once_and_observe_each_class_once(monkeypatch):
    locate = schemas_module._Worlds.locate
    located = []
    observed = []

    def counted_locate(worlds, slots):
        located.append(FrozenMap(zip(worlds.members, slots)))
        return locate(worlds, slots)

    def counted_observe(positions, member):
        observed.append((FrozenMap(positions), member))
        return observe(positions, member)

    monkeypatch.setattr(schemas_module._Worlds, "locate", counted_locate)
    monkeypatch.setattr(schemas_module, "observe", counted_observe)
    paired = 0
    for a, b in ORDER_PAIRS:
        located.clear()
        observed.clear()
        worlds = schemas_module._Worlds(range(1, a.pebbles + 2))
        starts = list(schemas_module._schema_starts(worlds, a, b))
        placements = [
            ia.set(1, spot)
            for s in (a, b)
            for ia in schemas_module._interpretations(s)
            for spot in schemas_module._open_spots(s)
        ]
        paired += len(starts)
        assert sorted(located, key=repr) == sorted(placements, key=repr)
        # every placement is connected, so each class is observed, once
        reps = [(_layout(worlds, c), 1) for c in range(len(worlds.reps))]
        assert sorted(observed, key=repr) == sorted(reps, key=repr)
    assert paired


ALL_PAIRS = [
    (a, b) for pebbles in (2, 3) for a in sorted_schemas(enumerate_schemas(pebbles)) for b in sorted_schemas(enumerate_schemas(pebbles))
]


def test_move_table_targets_are_the_moved_layouts_classes(monkeypatch):
    """Each entry of every move table the 146 depth-12 searches build holds
    the class of the layout `move_onto` reaches, translated to least x 0,
    with its observation, or None exactly when that layout is disconnected.
    The entries include moves onto x = -1 and moves that empty column 0."""
    table = schemas_module._Worlds.table
    tabled: dict = {}

    def recorded(worlds, c):
        tabled.setdefault(worlds, set()).add(c)
        return table(worlds, c)

    monkeypatch.setattr(schemas_module._Worlds, "table", recorded)
    for a, b in ALL_PAIRS:
        worst_case_indistinguishable(a, b, depth=12)
    assert len(ALL_PAIRS) == 146 and tabled
    anchors = Counter()
    for worlds, classes in tabled.items():
        for c in classes:
            layout = _layout(worlds, c)
            leader = layout[1]
            carried_options, reaches = worlds.tables[c]
            assert carried_options == schemas_module._subsets(tuple(sorted(m for m, v in layout.items() if m != 1 and v == leader)))
            for w, (offset, crowd, moves) in zip(neighbors(leader), reaches, strict=True):
                assert offset == (w.x - leader.x, w.y - leader.y)
                assert crowd == sum(1 << m for m, v in layout.items() if v == w)
                for carried, move in zip(carried_options, moves, strict=True):
                    want, anchor = at_origin(move_onto(layout, carried, w))
                    anchors[anchor] += 1
                    key = tuple(want[m] for m in worlds.members)
                    if schemas_reference._connected(frozenset(want.values())):
                        assert move == (worlds.index[key], observe(want, 1))
                    else:
                        assert move is None and key in worlds.index
    assert anchors[-1] and anchors[1] and anchors[0]


def test_world_classes_ignore_map_order_and_refuse_other_members():
    worlds = schemas_module._Worlds([3, 1, 2])
    assert worlds.members == (1, 2, 3)
    first = FrozenMap({1: Vertex(2, 0), 2: Vertex(3, 0), 3: Vertex(2, 1)})
    last = FrozenMap({2: Vertex(3, 0), 3: Vertex(2, 1), 1: Vertex(2, 0)})
    assert list(first) != list(last)
    c = worlds.locate(worlds.slots(first))
    assert worlds.locate(worlds.slots(last)) == c
    assert worlds.locate(worlds.slots({3: Vertex(-4, 1), 1: Vertex(-4, 0), 2: Vertex(-3, 0)})) == c
    assert _layout(worlds, c) == at_origin(first)[0]
    swapped = worlds.locate(worlds.slots({1: Vertex(2, 0), 2: Vertex(2, 1), 3: Vertex(3, 0)}))
    assert swapped != c
    for other in ({1: Vertex(0, 0), 2: Vertex(1, 0)}, {**first, 4: Vertex(2, 0)}, {1: Vertex(0, 0), 2: Vertex(1, 0), 4: Vertex(0, 1)}):
        message = f"layout members {sorted(other)} differ from the search's members [1, 2, 3]"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            worlds.slots(other)
    assert len(worlds.reps) == 2


@pytest.mark.parametrize(
    "bounds, message",
    [
        ({"depth": 0}, "depth must be >= 1"),
        ({"depth": -3}, "depth must be >= 1"),
        ({"max_nodes": 0}, "max_nodes must be >= 1"),
        ({"depth": 12, "max_nodes": -1}, "max_nodes must be >= 1"),
    ],
)
def test_indistinguishability_refuses_bounds_below_one(bounds, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        worst_case_indistinguishable(ROW0_TRIPLE, ELL_UP_LEFT, **bounds)


def test_indistinguishability_keeps_every_root_past_max_nodes():
    out = worst_case_indistinguishable(ROW0_TRIPLE, ROW0_TRIPLE, max_nodes=1)
    assert out.explored > 1
    assert out.frontier_cut


# --- confinement cycles ---------------------------------------------------

def _replay_confinement(cycle: ConfinementCycle):
    occupancy = Counter(cycle.start)
    xs = {v.x for v in occupancy}
    for (source_schema, label), (src, dst) in zip(cycle.steps, cycle.moves):
        assert _oracle_canonical({(v.x, v.y) for v in occupancy}) == frozenset(
            (v.x, v.y) for v in source_schema.vertices
        )
        assert occupancy[src] >= 1
        assert dst in neighbors(src)
        was_occupied = occupancy[dst] >= 1
        assert (label == TO_OCCUPIED) == was_occupied
        occupancy[src] -= 1
        if occupancy[src] == 0:
            del occupancy[src]
        occupancy[dst] += 1
        xs |= {v.x for v in occupancy}
    assert occupancy == Counter(cycle.start)
    assert max(xs) - min(xs) == cycle.x_spread


def test_three_pebble_confinement_cycle():
    cycle = find_confinement_cycle(transfer_graph(3))
    assert cycle is not None
    assert len(cycle.steps) >= 2
    _replay_confinement(cycle)


def test_confinement_cycle_search_leaves_no_cyclic_garbage():
    # Whatever the search builds must be freed by reference counting alone:
    # a reference cycle would wait for the cyclic collector.
    graph = transfer_graph(3)
    find_confinement_cycle(graph)
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        assert find_confinement_cycle(graph) is not None
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def test_indistinguishability_search_leaves_no_cyclic_garbage():
    worst_case_indistinguishable(ROW0_TRIPLE, ELL_UP_LEFT, depth=12)
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        assert worst_case_indistinguishable(ROW0_TRIPLE, ELL_UP_LEFT, depth=12).verdict == "witness"
        assert worst_case_indistinguishable(ROW0_TRIPLE, PAIR_COLUMN, depth=12).verdict == "distinct"
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def test_two_pebble_confinement_cycle():
    cycle = find_confinement_cycle(transfer_graph(2))
    assert cycle is not None
    _replay_confinement(cycle)


def test_edgeless_graph_has_no_cycle():
    graph = transfer_graph(3)
    bare = SchemaGraph(pebbles=3, nodes=graph.nodes, edges=())
    assert find_confinement_cycle(bare) is None


def test_a_self_loop_closes_a_confinement_cycle():
    # Moving a pebble across the column and back stays in one schema.
    graph = transfer_graph(3)
    loop = [e for e in graph.edges if e.source == e.target == PAIR_COLUMN and e.label == TO_OCCUPIED]
    assert len(loop) == 1
    cycle = find_confinement_cycle(dataclasses.replace(graph, edges=tuple(loop)))
    assert cycle is not None
    assert len(cycle.steps) == 2 and cycle.x_spread == 0
    _replay_confinement(cycle)


def _edge_subset(graph: SchemaGraph, rng: random.Random) -> SchemaGraph:
    """A random subset of the graph's edges.  Half the subsets drop the
    self-loops and keep one direction per pair of schemas, so a closed
    walk needs three schemas or more."""
    keep = rng.choice((0.2, 0.5, 1.0))
    edges = [e for e in graph.edges if rng.random() < keep]
    if rng.random() < 0.5:
        forward = {}
        for e in edges:
            forward.setdefault(frozenset((e.source, e.target)), rng.random() < 0.5)
        edges = [
            e for e in edges
            if e.source != e.target and (e.source.key < e.target.key) == forward[frozenset((e.source, e.target))]
        ]
    return dataclasses.replace(graph, edges=tuple(edges))


@pytest.mark.parametrize("pebbles", [2, 3])
def test_confinement_cycle_search_matches_the_reference(pebbles):
    full = transfer_graph(pebbles)
    rng = random.Random(pebbles)
    lengths = Counter()
    for _ in range(150):
        graph = _edge_subset(full, rng)
        cycle = find_confinement_cycle(graph)
        want = schemas_reference.shortest_confinement_cycle(graph, 16)
        if cycle is None:
            assert want is None
        else:
            spread_out = all(len(schema.vertices) >= 2 for schema, _ in cycle.steps)
            assert (len(cycle.steps), spread_out) == want
            _replay_confinement(cycle)
        lengths[want and want[0]] += 1
    # the subsets reach both verdicts, and for 3 pebbles cycles past 2 steps
    assert lengths[None] and len(lengths) >= (2 if pebbles == 2 else 3)
