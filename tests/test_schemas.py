"""Pebble-layout schemas: enumeration, symmetry, confusability, transfers.

The enumeration counts are cross-checked against a brute-force oracle that
places labeled pebbles in a bounded window and canonicalizes by hand, with
no dependency on the module under test.
"""

from __future__ import annotations

from collections import Counter
from itertools import product

from hypothesis import given
from hypothesis import strategies as st
import pytest

from pebblewalk.collective import transform_positions
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
    worst_case_indistinguishable_configs,
)
from pebblewalk.util import FrozenMap
from pebblewalk.walker14 import build_walker

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


def pebble_map(*vertices):
    return FrozenMap({i + 2: vertex(*v) for i, v in enumerate(vertices)})


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


def test_different_center_pebbles_are_distinct():
    row_center_3 = pebble_map((0, 0), (1, 0), (2, 0))
    row_center_2 = FrozenMap(
        {3: vertex(0, 0), 2: vertex(1, 0), 4: vertex(2, 0)}
    )
    out = worst_case_indistinguishable_configs(row_center_3, row_center_2, depth=12)
    assert out.verdict == "distinct"
    assert out.witness is None


def test_identical_configs_are_confusable():
    config = pebble_map((0, 0), (1, 0), (0, 1))
    out = worst_case_indistinguishable_configs(config, config, depth=12)
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


def test_worst_case_requires_equal_counts():
    with pytest.raises(ValueError):
        worst_case_indistinguishable(
            Schema(frozenset({(0, 0), (1, 0)}), 2), PAIR_ROW0
        )


@pytest.mark.parametrize(
    "bounds, verdicts, explored, witness_steps",
    [
        (
            {"depth": 1},
            {("witness", False): 4, ("distinct", False): 12, ("depth-exhausted", True): 9},
            500,
            4,
        ),
        (
            {"depth": 12, "max_nodes": 30},
            {("witness", True): 4, ("distinct", False): 12, ("depth-exhausted", True): 9},
            480,
            4,
        ),
        ({"depth": 12}, {("witness", False): 13, ("distinct", False): 12}, 880, 22),
    ],
)
def test_two_pebble_pairs_under_search_bounds(bounds, verdicts, explored, witness_steps):
    schemas = sorted_schemas(enumerate_schemas(2))
    outs = [worst_case_indistinguishable(a, b, **bounds) for a in schemas for b in schemas]
    assert Counter((o.verdict, o.frontier_cut) for o in outs) == verdicts
    assert sum(o.explored for o in outs) == explored
    witnesses = [o.witness for o in outs if o.witness is not None]
    assert sum(len(w.prefix) + len(w.cycle) for w in witnesses) == witness_steps
    for w in witnesses:
        validate_witness(w)


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


def test_two_pebble_confinement_cycle():
    cycle = find_confinement_cycle(transfer_graph(2))
    assert cycle is not None
    _replay_confinement(cycle)


def test_edgeless_graph_has_no_cycle():
    graph = transfer_graph(3)
    bare = SchemaGraph(pebbles=3, nodes=graph.nodes, edges=())
    assert find_confinement_cycle(bare) is None
