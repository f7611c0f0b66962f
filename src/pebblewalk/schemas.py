"""Pebble-layout schemas and their transformation structure.

A schema records which vertices hold at least one pebble, translated so the
least occupied x-coordinate is zero.  Multiplicities are deliberately
dropped, so stacked layouts collapse onto the same schema and distinct
configurations can share one.  On top of that quotient the module provides:

* enumeration of the schemas a small collective can exhibit while every
  member stays in observation range of the rest,
* the reflection-symmetry equivalence on schemas,
* a bounded search for worst-case confusability: a shared realization that
  feeds the automaton identical observation streams in two different
  worlds forever.  Each search builds one move table per layout it meets
  (every single move with the automaton's observation after it) and joins
  the two worlds' tables; each schema pair observes every leader spot of
  every interpretation once, and no table outlives the call,
* the graph of single-pebble relocations between neighboring vertices,
  labeled by whether the target vertex was occupied, and
* extraction of confined cycles from that graph, certified by a concrete
  replay that returns every pebble to its starting vertex.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional

from .collective import at_origin
from .graph import Graph, bfs_path, strong_components
from .lattice import IDENTITY, X_REFLECTION, Y_REFLECTION, Symmetry, Vertex, neighbors, vertex
from .machine import MemberId, Observation, observe, occupants
from .util import FrozenMap, Memo

TO_OCCUPIED = "to-occupied"
TO_FREE = "to-free"


@dataclass(frozen=True)
class Schema:
    """Occupied-vertex set of a pebble layout, x-translated to start at 0."""

    vertices: frozenset[Vertex]
    pebbles: int

    def __post_init__(self) -> None:
        if not self.vertices:
            raise ValueError("a schema needs at least one occupied vertex")
        vs = frozenset(vertex(x, y) for x, y in self.vertices)
        least = min(v.x for v in vs)
        if least != 0:
            vs = frozenset(vertex(v.x - least, v.y) for v in vs)
        object.__setattr__(self, "vertices", vs)
        if self.pebbles < len(vs):
            raise ValueError(
                f"{self.pebbles} pebbles cannot occupy {len(vs)} vertices"
            )

    @property
    def sorted_vertices(self) -> tuple[Vertex, ...]:
        return tuple(sorted(self.vertices))

    @property
    def key(self) -> tuple:
        return (len(self.vertices), self.sorted_vertices)

    def __str__(self) -> str:
        cells = ",".join(f"({v.x},{v.y})" for v in self.sorted_vertices)
        return f"<{cells}|{self.pebbles}p>"


def schema_of(positions: Mapping[MemberId, Vertex]) -> Schema:
    """Schema of a configuration; the automaton's own position is ignored."""
    pebbles = [v for m, v in positions.items() if m != 1]
    if not pebbles:
        raise ValueError("the configuration holds no pebbles")
    return Schema(frozenset(pebbles), len(pebbles))


def _connected(vs: frozenset[Vertex]) -> bool:
    """Whether the vertices form one component under lattice adjacency.

    Members on equal or adjacent vertices see each other, so a layout is one
    observation-range component exactly when its occupied set is connected."""
    frontier = [next(iter(vs))]
    seen: set[Vertex] = set()
    while frontier:
        v = frontier.pop()
        if v in seen:
            continue
        seen.add(v)
        frontier.extend(w for w in neighbors(v) if w in vs)
    return len(seen) == len(vs)


def enumerate_schemas(pebbles: int) -> frozenset[Schema]:
    """Every schema of a layout whose occupied vertices stay connected.

    Connectedness is the weakest reading of keeping all members within
    observation range of one another; it caps occupied sets at `pebbles`
    vertices inside a window of the same width.
    """
    if pebbles not in (2, 3):
        raise ValueError(
            f"schema enumeration covers 2 or 3 pebbles, not {pebbles}"
        )
    window = [vertex(x, y) for x in range(pebbles) for y in (0, 1)]
    found = set()
    for size in range(1, pebbles + 1):
        for combo in combinations(window, size):
            vs = frozenset(combo)
            if _connected(vs):
                found.add(Schema(vs, pebbles))
    return frozenset(found)


def sorted_schemas(schemas: Iterable[Schema]) -> tuple[Schema, ...]:
    return tuple(sorted(schemas, key=lambda s: s.key))


_REFLECTIONS = (
    IDENTITY,
    X_REFLECTION,
    Y_REFLECTION,
    X_REFLECTION.then(Y_REFLECTION),
)


def _reflect_schema(s: Schema, sym: Symmetry) -> Schema:
    return Schema(frozenset(sym.apply(v) for v in s.vertices), s.pebbles)


def symmetry_indistinguishable(a: Schema, b: Schema) -> bool:
    """True when a lattice reflection carries one schema onto the other."""
    if a.pebbles != b.pebbles:
        raise ValueError("schemas with different pebble counts are incomparable")
    return any(_reflect_schema(a, sym) == b for sym in _REFLECTIONS)


def symmetry_classes(schemas: Iterable[Schema]) -> tuple[frozenset[Schema], ...]:
    """Partition of the given schemas under reflection equivalence."""
    remaining = list(sorted_schemas(schemas))
    classes = []
    while remaining:
        head = remaining[0]
        cls = frozenset(s for s in remaining if symmetry_indistinguishable(head, s))
        classes.append(cls)
        remaining = [s for s in remaining if s not in cls]
    return tuple(classes)


# --- single-pebble relocation graph --------------------------------------


@dataclass(frozen=True)
class TransferEdge:
    source: Schema
    target: Schema
    label: str


@dataclass(frozen=True)
class SchemaGraph:
    pebbles: int
    nodes: tuple[Schema, ...]
    edges: tuple[TransferEdge, ...]

    def targets(self, source: Schema, label: Optional[str] = None) -> frozenset[Schema]:
        return frozenset(
            e.target
            for e in self.edges
            if e.source == source and (label is None or e.label == label)
        )


def transfer_graph(pebbles: int) -> SchemaGraph:
    """Graph of single-pebble moves to neighboring vertices.

    A move may vacate its source vertex only when the mover can be alone
    there, and may leave it occupied only when the pebble count exceeds the
    occupied-vertex count; targets that disconnect the layout are dropped.
    """
    schemas = enumerate_schemas(pebbles)
    edges = set()
    for schema in schemas:
        vs = schema.vertices
        can_vacate = len(vs) >= 2
        can_leave_occupied = pebbles > len(vs)
        for src in vs:
            for dst in neighbors(src):
                for vacates in (True, False):
                    if vacates and not can_vacate:
                        continue
                    if not vacates and not can_leave_occupied:
                        continue
                    after = (vs - {src} if vacates else vs) | {dst}
                    if not _connected(frozenset(after)):
                        continue
                    label = TO_OCCUPIED if dst in vs else TO_FREE
                    edges.add(
                        TransferEdge(schema, Schema(frozenset(after), pebbles), label)
                    )
    ordered = tuple(
        sorted(edges, key=lambda e: (e.source.key, e.target.key, e.label))
    )
    return SchemaGraph(pebbles, sorted_schemas(schemas), ordered)


def graph_dot(graph: SchemaGraph) -> str:
    """Graph-description text with solid to-occupied and dashed to-free arrows."""
    lines = [f"digraph transfers_{graph.pebbles} {{"]
    for node in graph.nodes:
        lines.append(f'  "{node}";')
    for e in graph.edges:
        style = "solid" if e.label == TO_OCCUPIED else "dashed"
        lines.append(f'  "{e.source}" -> "{e.target}" [style={style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- worst-case confusability ---------------------------------------------


@dataclass(frozen=True)
class JointStep:
    """One shared move of the automaton, resolved separately per world.

    Offsets are relative to each world's current automaton vertex; the
    carried pebbles and the target-occupancy kind are shared because the
    automaton cannot act differently on identical observations.
    """

    offset_a: tuple[int, int]
    offset_b: tuple[int, int]
    carried: frozenset[MemberId]
    to_occupied: bool


@dataclass(frozen=True)
class Witness:
    """A repeating shared realization over two pebble layouts.

    Replaying prefix then cycle from the two starts keeps the automaton's
    observations identical at every step, and the cycle returns both worlds
    to its entry layout modulo x-translation while relocating at least one
    pebble, so the realization extends forever.
    """

    start_a: FrozenMap
    start_b: FrozenMap
    prefix: tuple[JointStep, ...]
    cycle: tuple[JointStep, ...]


@dataclass(frozen=True)
class IndistinguishabilityOutcome:
    verdict: str
    witness: Optional[Witness]
    explored: int
    frontier_cut: bool


WITNESS = "witness"
DISTINCT = "distinct"
DEPTH_EXHAUSTED = "depth-exhausted"


def _joint_key(pos_a, pos_b) -> tuple:
    return (at_origin(pos_a)[0], at_origin(pos_b)[0])


def _move_crowd(positions: FrozenMap, target: Vertex, carried: frozenset) -> FrozenMap:
    updated = dict(positions)
    for m in (1, *carried):
        updated[m] = target
    return FrozenMap(updated)


def _subsets(items: tuple) -> tuple[frozenset, ...]:
    return tuple(
        frozenset(x for i, x in enumerate(items) if bits >> i & 1)
        for bits in range(1 << len(items))
    )


class _Move(NamedTuple):
    carried: frozenset
    layout: FrozenMap
    occupied: frozenset
    seen: Observation  # the automaton's observation after the move


class _Reach(NamedTuple):
    """The automaton's moves to one neighbor, one per carried subset."""

    offset: tuple[int, int]
    crowd: frozenset
    moves: tuple[_Move, ...]


def _move_table(positions: FrozenMap) -> tuple[_Reach, ...]:
    """Every single move of the automaton, in neighbor then subset order.

    The carried subsets come from the pebbles on the automaton's own vertex,
    so two layouts with equal observations list the same subsets in the same
    order."""
    leader = positions[1]
    alpha = tuple(sorted(m for m, v in positions.items() if m != 1 and v == leader))
    carried_options = _subsets(alpha)
    table = []
    for w in neighbors(leader):
        moves = []
        for carried in carried_options:
            moved = _move_crowd(positions, w, carried)
            moves.append(_Move(carried, moved, frozenset(moved.values()), observe(moved, 1)))
        offset = (w.x - leader.x, w.y - leader.y)
        table.append(_Reach(offset, occupants(positions, w), tuple(moves)))
    return tuple(table)


def _joint_successors(pos_a: FrozenMap, pos_b: FrozenMap, tables: Memo, connected: Memo):
    """Join the two layouts' move tables on crowd and observation.

    `tables` maps a layout to its move table and `connected` an occupied set
    to its connectedness; both belong to one search."""
    table_b = tables[pos_b]
    for reach_a in tables[pos_a]:
        for reach_b in table_b:
            if reach_a.crowd != reach_b.crowd:
                continue
            for move_a, move_b in zip(reach_a.moves, reach_b.moves):
                if move_a.seen != move_b.seen:
                    continue
                if not connected[move_a.occupied] or not connected[move_b.occupied]:
                    continue
                step = JointStep(
                    offset_a=reach_a.offset,
                    offset_b=reach_b.offset,
                    carried=move_a.carried,
                    to_occupied=bool(reach_a.crowd),
                )
                yield step, move_a.layout, move_b.layout


def validate_witness(witness: Witness) -> None:
    """Replay both worlds and raise ValueError on any broken requirement."""
    pos_a, pos_b = witness.start_a, witness.start_b
    if set(pos_a) != set(pos_b) or 1 not in pos_a:
        raise ValueError("worlds must share one automaton and pebble ids")
    if observe(pos_a, 1) != observe(pos_b, 1):
        raise ValueError("starting observations differ")
    if not (_connected(frozenset(pos_a.values())) and _connected(frozenset(pos_b.values()))):
        raise ValueError("a starting layout separates the collective")
    if not witness.cycle:
        raise ValueError("the cycle is empty")
    if not any(step.carried for step in witness.cycle):
        raise ValueError("the cycle relocates no pebble")
    bindings: dict = {}
    checkpoint = _joint_key(pos_a, pos_b) if not witness.prefix else None
    for i, step in enumerate(witness.prefix + witness.cycle):
        _record_bindings(bindings, pos_a, step)
        _record_bindings(bindings, pos_b, step)
        pos_a = _apply_checked(pos_a, step.offset_a, step)
        pos_b = _apply_checked(pos_b, step.offset_b, step)
        if observe(pos_a, 1) != observe(pos_b, 1):
            raise ValueError(f"observations diverge after step {i}")
        if not (_connected(frozenset(pos_a.values())) and _connected(frozenset(pos_b.values()))):
            raise ValueError(f"step {i} separates the collective")
        if i + 1 == len(witness.prefix):
            checkpoint = _joint_key(pos_a, pos_b)
    if _joint_key(pos_a, pos_b) != checkpoint:
        raise ValueError("the cycle does not return to its entry layout")


def _apply_checked(positions: FrozenMap, offset: tuple[int, int], step: JointStep) -> FrozenMap:
    leader = positions[1]
    try:
        target = vertex(leader.x + offset[0], leader.y + offset[1])
    except ValueError as exc:
        raise ValueError(f"a move leaves the lattice: {exc}") from None
    if target not in neighbors(leader):
        raise ValueError("a move target is not adjacent to the automaton")
    if bool(occupants(positions, target)) != step.to_occupied:
        raise ValueError("a step label does not match its target occupancy")
    for m in step.carried:
        if positions.get(m) != leader:
            raise ValueError(f"carried pebble {m} is not co-located")
    return _move_crowd(positions, target, step.carried)


def _record_bindings(bindings: dict, positions: FrozenMap, step: JointStep) -> None:
    # A pebble owns one deterministic reaction per observation, so within a
    # witness the same observation can never demand both moving and staying.
    leader = positions[1]
    for m, v in positions.items():
        if m == 1 or v != leader:
            continue
        if m in step.carried:
            action = "follow-occupied" if step.to_occupied else "follow-free"
        else:
            action = "stay"
        prior = bindings.setdefault((m, observe(positions, m)), action)
        if prior != action:
            raise ValueError(
                f"pebble {m} would need two reactions to one observation"
            )


class _JointEdge(NamedTuple):
    src: int
    dst: int
    step: JointStep


def _closing_transfers(g: Graph) -> list[int]:
    """Transfer edges on some cycle: exactly those whose ends share an SCC."""
    comp = strong_components(g)
    return [ei for ei, e in enumerate(g.edges) if e.step.carried and comp[e.src] == comp[e.dst]]


def _extract_witness(g: Graph, depth: int) -> Optional[Witness]:
    candidates = sorted(
        _closing_transfers(g),
        key=lambda ei: (g.depths[g.edges[ei].dst], g.edges[ei].src, g.edges[ei].dst),
    )
    for ei in candidates:
        src, dst, step = g.edges[ei]
        if g.depths[dst] + 1 > depth:
            continue
        back = bfs_path(g, dst, src)
        if g.depths[dst] + len(back) + 1 > depth:
            continue
        root, prefix = g.tree_path(dst)
        witness = Witness(
            start_a=g.reps[root][0],
            start_b=g.reps[root][1],
            prefix=tuple(g.edges[i].step for i in prefix),
            cycle=(*(g.edges[i].step for i in back), step),
        )
        try:
            validate_witness(witness)
        except ValueError:
            continue
        return witness
    return None


def _search(starts, depth: int, max_nodes: int) -> IndistinguishabilityOutcome:
    g = Graph()
    frontier_cut = False
    tables, connected = Memo(_move_table), Memo(_connected)
    origins = Memo(lambda positions: at_origin(positions)[0])

    for pos_a, pos_b in starts:
        key = _joint_key(pos_a, pos_b)
        if key not in g.index:
            g.add_node(key, (pos_a, pos_b), 0)
    if not g.reps:
        return IndistinguishabilityOutcome(DISTINCT, None, 0, False)

    queue = deque(range(len(g.reps)))
    while queue:
        for _ in range(len(queue)):
            u = queue.popleft()
            for step, na, nb in _joint_successors(*g.reps[u], tables, connected):
                key = (origins[na], origins[nb])
                v = g.index.get(key)
                if v is None:
                    if g.depths[u] + 1 > depth or len(g.reps) >= max_nodes:
                        frontier_cut = True
                        continue
                    v = g.add_node(key, (na, nb), g.depths[u] + 1)
                    queue.append(v)
                g.add_edge(_JointEdge(u, v, step))
        witness = _extract_witness(g, depth)
        if witness is not None:
            return IndistinguishabilityOutcome(WITNESS, witness, len(g.reps), frontier_cut)
    if frontier_cut or _closing_transfers(g):
        return IndistinguishabilityOutcome(DEPTH_EXHAUSTED, None, len(g.reps), frontier_cut)
    return IndistinguishabilityOutcome(DISTINCT, None, len(g.reps), False)


def _middle_vertex(schema: Schema) -> Optional[Vertex]:
    if len(schema.vertices) != 3:
        return None
    for v in schema.vertices:
        if all(other in neighbors(v) for other in schema.vertices - {v}):
            return v
    return None


def _interpretations(schema: Schema) -> Iterator[FrozenMap]:
    ids = tuple(range(2, schema.pebbles + 2))
    for assignment in product(schema.sorted_vertices, repeat=len(ids)):
        if frozenset(assignment) == schema.vertices:
            yield FrozenMap(dict(zip(ids, assignment)))


def _leader_spots(pebbles: Mapping[MemberId, Vertex]) -> tuple[Vertex, ...]:
    spots = set(pebbles.values())
    for v in tuple(spots):
        spots.update(neighbors(v))
    return tuple(sorted(spots))


def _placements(pebbles: FrozenMap) -> tuple[tuple[FrozenMap, Observation], ...]:
    """Connected layouts with the automaton on or beside a pebble, in sorted
    spot order, each with the automaton's observation."""
    placed = []
    for spot in _leader_spots(pebbles):
        positions = pebbles.set(1, spot)
        if _connected(frozenset(positions.values())):
            placed.append((positions, observe(positions, 1)))
    return tuple(placed)


def _by_observation(placed) -> dict[Observation, list[FrozenMap]]:
    groups: dict[Observation, list[FrozenMap]] = {}
    for positions, seen in placed:
        groups.setdefault(seen, []).append(positions)
    return groups


def _config_starts(placed_a, groups_b: Mapping[Observation, list[FrozenMap]]):
    """Start pairs in a-spot order, then b-spot order, agreeing on observation."""
    for pos_a, seen in placed_a:
        for pos_b in groups_b.get(seen, ()):
            yield pos_a, pos_b


def _schema_starts(a: Schema, b: Schema):
    mid_a, mid_b = _middle_vertex(a), _middle_vertex(b)
    placed_a = [(ia, _placements(ia)) for ia in _interpretations(a)]
    groups_b = [(ib, _by_observation(_placements(ib))) for ib in _interpretations(b)]
    for ia, placed in placed_a:
        for ib, groups in groups_b:
            if mid_a is not None and mid_b is not None:
                center_a = next(m for m, v in ia.items() if v == mid_a)
                center_b = next(m for m, v in ib.items() if v == mid_b)
                if center_a != center_b:
                    continue
            yield from _config_starts(placed, groups)


def _prioritized(pairs) -> list:
    ordered = list(pairs)

    def rank(pair):
        pos_a, _ = pair
        on_pebble = any(m != 1 and v == pos_a[1] for m, v in pos_a.items())
        return 0 if on_pebble else 1

    ordered.sort(key=rank)
    return ordered


def worst_case_indistinguishable(
    a: Schema, b: Schema, depth: int = 12, max_nodes: int = 20000
) -> IndistinguishabilityOutcome:
    """Search for a shared realization over interpretations of two schemas.

    Interpretation pairs agree on the center pebble whenever both schemas
    spread three pebbles over three vertices, since an automaton can always
    tell apart layouts whose center pebbles differ.  The witness realization
    is bounded by `depth` steps; `distinct` is reported only when the joint
    search space was exhausted without a cut.

    Per call, each interpretation's leader placements are observed once and
    grouped by observation, each layout's moves and their observations are
    tabled once, each moved layout is translated to least x 0 once, and each
    occupied set is checked for connectedness once; all of it is dropped on
    return, so calls share nothing.
    """
    if a.pebbles != b.pebbles:
        raise ValueError("schemas with different pebble counts are incomparable")
    return _search(_prioritized(_schema_starts(a, b)), depth, max_nodes)


def worst_case_indistinguishable_configs(
    pebbles_a: Mapping[MemberId, Vertex],
    pebbles_b: Mapping[MemberId, Vertex],
    depth: int = 12,
    max_nodes: int = 20000,
) -> IndistinguishabilityOutcome:
    """Same search for two fixed labeled pebble layouts."""
    pa = FrozenMap({m: vertex(*v) for m, v in dict(pebbles_a).items()})
    pb = FrozenMap({m: vertex(*v) for m, v in dict(pebbles_b).items()})
    if not pa or set(pa) != set(pb):
        raise ValueError("layouts must place the same nonempty set of pebbles")
    if 1 in pa:
        raise ValueError("member 1 is the automaton, not a pebble")
    starts = _config_starts(_placements(pa), _by_observation(_placements(pb)))
    return _search(_prioritized(starts), depth, max_nodes)


# --- confined cycles -------------------------------------------------------


@dataclass(frozen=True)
class ConfinementCycle:
    """A closed schema walk certified by a concrete zero-drift replay."""

    steps: tuple[tuple[Schema, str], ...]
    start: tuple[Vertex, ...]
    moves: tuple[tuple[Vertex, Vertex], ...]
    x_spread: int


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)


def _cycles_from(adjacency, start: Schema, max_len: int):
    def rec(current, path, visited):
        if len(path) >= max_len:
            return
        for edge in adjacency.get(current, ()):
            if edge.target == start:
                yield [*path, edge]
            elif edge.target not in visited and len(path) + 1 < max_len:
                yield from rec(edge.target, [*path, edge], visited | {edge.target})

    yield from rec(start, [], {start})


def _replay_cycle(cycle_edges, pebbles: int):
    entry = cycle_edges[0].source
    cells = entry.sorted_vertices

    def rec(initial, occupancy, i, moves, xs):
        if i == len(cycle_edges):
            return (moves, xs) if occupancy == initial else None
        edge = cycle_edges[i]
        if Schema(frozenset(occupancy), pebbles) != edge.source:
            return None
        for src in sorted(occupancy):
            for dst in neighbors(src):
                if (occupancy.get(dst, 0) >= 1) != (edge.label == TO_OCCUPIED):
                    continue
                after = Counter(occupancy)
                after[src] -= 1
                if after[src] == 0:
                    del after[src]
                after[dst] += 1
                if Schema(frozenset(after), pebbles) != edge.target:
                    continue
                out = rec(initial, after, i + 1, [*moves, (src, dst)], xs | {dst.x})
                if out is not None:
                    return out
        return None

    for counts in _compositions(pebbles, len(cells)):
        initial = Counter(dict(zip(cells, counts)))
        out = rec(initial, initial, 0, [], {v.x for v in initial})
        if out is not None:
            moves, xs = out
            start = tuple(sorted(v for v, c in initial.items() for _ in range(c)))
            return start, tuple(moves), max(xs) - min(xs)
    return None


def find_confinement_cycle(graph: SchemaGraph, max_len: int = 6) -> Optional[ConfinementCycle]:
    """First closed schema walk whose replay returns every pebble home.

    Walks avoiding single-vertex schemas are preferred because collapsing
    all pebbles onto one vertex forgets the layout's orientation; stacked
    walks are still returned when nothing else closes.
    """
    adjacency: dict[Schema, list[TransferEdge]] = {}
    for edge in graph.edges:
        adjacency.setdefault(edge.source, []).append(edge)
    for edge_list in adjacency.values():
        edge_list.sort(key=lambda e: (e.target.key, e.label))
    spread_out = [s for s in sorted_schemas(graph.nodes) if len(s.vertices) >= 2]
    for pool in (spread_out, list(sorted_schemas(graph.nodes))):
        members = set(pool)
        pruned = {
            s: [e for e in adjacency.get(s, []) if e.target in members] for s in pool
        }
        for start in pool:
            for cycle_edges in _cycles_from(pruned, start, max_len):
                replay = _replay_cycle(cycle_edges, graph.pebbles)
                if replay is not None:
                    start_layout, moves, spread = replay
                    steps = tuple((e.source, e.label) for e in cycle_edges)
                    return ConfinementCycle(steps, start_layout, moves, spread)
    return None
