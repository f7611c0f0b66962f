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
  worlds forever.  Each search numbers the translation classes of the
  single-world layouts it meets, keyed by vertex tuples, from each start
  placement located once, tables each class's moves once (the next class,
  derived from the source tuple, and the automaton's observation there)
  and joins the two worlds' tables on pairs of class numbers; no table
  outlives the call,
* the graph of single-pebble relocations between neighboring vertices,
  labeled by whether the target vertex was occupied, and
* the shortest confined cycle of that graph: a zero-weight closed walk on
  the pebble layouts modulo x-translation, so its moves return every pebble
  to its starting vertex.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional

from .collective import at_origin, move_onto
from .graph import Graph, _find_zero_walk, bfs_path, cycle_components
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


def _connected(vs: Iterable[Vertex]) -> bool:
    """Whether the vertices form one component under lattice adjacency.

    Members on equal or adjacent vertices see each other, so a layout is one
    observation-range component exactly when its occupied set is connected.
    Both cells of a column are adjacent, so on the two rows a set is
    connected exactly when its columns run without a gap and each two
    neighbouring columns share a row.  Every vertex must lie on the two rows
    (`validate_witness` refuses a layout that leaves them)."""
    rows: dict[int, int] = {}
    for x, y in vs:
        rows[x] = rows.get(x, 0) | 1 << y
    lo = min(rows)
    for x in range(lo, lo + len(rows) - 1):
        if not rows.get(x, 0) & rows.get(x + 1, 0):
            return False
    return True


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


def _subsets(items: tuple) -> tuple[frozenset, ...]:
    return tuple(
        frozenset(x for i, x in enumerate(items) if bits >> i & 1)
        for bits in range(1 << len(items))
    )


class _Worlds:
    """The translation classes of the single-world layouts one search meets.

    Automata see no coordinates, so connectedness, the automaton's
    observation and its moves depend on a layout only up to x-translation.
    A class is keyed and represented by its members' vertices in `members`
    order (sorted ids), translated to least x 0; it is numbered when first
    met and keeps the automaton's observation there, or None when the
    layout is disconnected.  Its move table is built at its first
    expansion: per neighbor w of the automaton in `neighbors` order, the
    offset and the crowd there as a member mask, and per carried subset in
    `_subsets` order the next class with its observation, or None when the
    move disconnects the layout.  A target is the source tuple with the
    automaton's and the carried pebbles' slots set to w, shifted by its
    least x (-1 when w.x is -1, else 0 or 1) through a vertex memo; no map
    is built or hashed.  Classes with equal observations list the same
    carried subsets.
    """

    def __init__(self, members: Iterable[MemberId]) -> None:
        self.members = tuple(sorted(members))
        self.slot = {m: i for i, m in enumerate(self.members)}
        self.index: dict[tuple[Vertex, ...], int] = {}
        self.reps: list[tuple[Vertex, ...]] = []
        self.seen: list[Optional[Observation]] = []
        self.tables: list[Optional[tuple]] = []
        self.vertices = Memo(lambda xy: Vertex(*xy))

    def slots(self, layout: Mapping[MemberId, Vertex]) -> list[Vertex]:
        """A layout's vertices in member order."""
        if layout.keys() != self.slot.keys():
            raise ValueError(f"layout members {sorted(layout)} differ from the search's members {list(self.members)}")
        return [layout[m] for m in self.members]

    def locate(self, slots) -> int:
        """The class of the layout whose vertices `slots` lists in member order."""
        anchor = min(slots)[0]
        key = tuple([self.vertices[x - anchor, y] for x, y in slots]) if anchor else tuple(slots)
        c = self.index.get(key)
        if c is None:
            c = self.index[key] = len(self.reps)
            self.reps.append(key)
            self.seen.append(observe(dict(zip(self.members, key)), 1) if _connected(key) else None)
            self.tables.append(None)
        return c

    def table(self, c: int) -> tuple:
        """(carried subsets, per-neighbor moves) of class c."""
        table = self.tables[c]
        if table is None:
            rep, members, lead = self.reps[c], self.members, self.slot[1]
            leader = rep[lead]
            carried_options = _subsets(tuple(m for m, v in zip(members, rep) if m != 1 and v == leader))
            moved = [(lead, *(self.slot[m] for m in carried)) for carried in carried_options]
            reaches = []
            for w in neighbors(leader):
                moves = []
                for slots in moved:
                    target = list(rep)
                    for s in slots:
                        target[s] = w
                    nxt = self.locate(target)
                    moves.append(None if self.seen[nxt] is None else (nxt, self.seen[nxt]))
                crowd = sum(1 << m for m, v in zip(members, rep) if v == w)
                reaches.append(((w.x - leader.x, w.y - leader.y), crowd, moves))
            table = self.tables[c] = (carried_options, reaches)
        return table


def _joint_successors(worlds: _Worlds, ca: int, cb: int, steps: Memo):
    """Join two classes' move tables on crowd and observation, yielding
    each joint step with the classes it reaches.  `steps` holds the
    search's JointSteps by their fields."""
    carried_options, table_a = worlds.table(ca)
    table_b = worlds.table(cb)[1]
    for offset_a, crowd, moves_a in table_a:
        for offset_b, crowd_b, moves_b in table_b:
            if crowd != crowd_b:
                continue
            for carried, move_a, move_b in zip(carried_options, moves_a, moves_b):
                if move_a is None or move_b is None or move_a[1] != move_b[1]:
                    continue
                yield steps[offset_a, offset_b, carried, bool(crowd)], move_a[0], move_b[0]


def validate_witness(witness: Witness) -> None:
    """Replay both worlds and raise ValueError on any broken requirement."""
    pos_a, pos_b = witness.start_a, witness.start_b
    if set(pos_a) != set(pos_b) or 1 not in pos_a:
        raise ValueError("worlds must share one automaton and pebble ids")
    if any(y not in (0, 1) for _, y in (*pos_a.values(), *pos_b.values())):
        raise ValueError("a starting layout leaves the two rows")
    if observe(pos_a, 1) != observe(pos_b, 1):
        raise ValueError("starting observations differ")
    if not (_connected(pos_a.values()) and _connected(pos_b.values())):
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
        if not (_connected(pos_a.values()) and _connected(pos_b.values())):
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
    return move_onto(positions, step.carried, target)


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


def _extract_witness(g: Graph, roots: list, closing: list[int], depth: int) -> Optional[Witness]:
    """The first valid witness closed by a transfer edge in `closing`;
    `roots` holds each root's start layouts."""
    candidates = sorted(
        closing,
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
            start_a=roots[root][0],
            start_b=roots[root][1],
            prefix=tuple(g.edges[i].step for i in prefix),
            cycle=(*(g.edges[i].step for i in back), step),
        )
        try:
            validate_witness(witness)
        except ValueError:
            continue
        return witness
    return None


def _search(worlds: _Worlds, starts, depth: int, max_nodes: int) -> IndistinguishabilityOutcome:
    g = Graph()  # nodes keyed and represented by (class in world a, class in world b)
    steps = Memo(lambda fields: JointStep(*fields))
    roots = []
    frontier_cut = False

    for key, pos_a, pos_b in starts:
        if key not in g.index:
            g.add_node(key, key, 0)
            roots.append((pos_a, pos_b))
    if not g.reps:
        return IndistinguishabilityOutcome(DISTINCT, None, 0, False)

    queue = deque(range(len(g.reps)))
    while queue:
        for _ in range(len(queue)):
            u = queue.popleft()
            for step, na, nb in _joint_successors(worlds, *g.reps[u], steps):
                key = (na, nb)
                v = g.index.get(key)
                if v is None:
                    if g.depths[u] + 1 > depth or len(g.reps) >= max_nodes:
                        frontier_cut = True
                        continue
                    v = g.add_node(key, key, g.depths[u] + 1)
                    queue.append(v)
                g.add_edge(_JointEdge(u, v, step))
        # the transfer edges that lie on some cycle
        closing = [ei for _, edges in cycle_components(g) for ei in edges if g.edges[ei].step.carried]
        witness = _extract_witness(g, roots, closing, depth)
        if witness is not None:
            return IndistinguishabilityOutcome(WITNESS, witness, len(g.reps), frontier_cut)
    if frontier_cut or closing:
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


def _leader_spots(occupied: Iterable[Vertex]) -> tuple[Vertex, ...]:
    spots = set(occupied)
    for v in tuple(spots):
        spots.update(neighbors(v))
    return tuple(sorted(spots))


def _open_spots(schema: Schema) -> tuple[Vertex, ...]:
    """Leader spots, sorted, that keep every interpretation connected: they
    all occupy the schema's vertices."""
    return tuple(s for s in _leader_spots(schema.vertices) if _connected((*schema.vertices, s)))


def _placements(worlds: _Worlds, pebbles: FrozenMap, spots) -> tuple[tuple[int, FrozenMap], ...]:
    """The layouts with the automaton on each spot, each with its class,
    located from the interpretation's vertex tuple with the spot put in."""
    slots, lead = worlds.slots({**pebbles, 1: None}), worlds.slot[1]
    return tuple((worlds.locate((*slots[:lead], s, *slots[lead + 1:])), pebbles.set(1, s)) for s in spots)


def _schema_starts(worlds: _Worlds, a: Schema, b: Schema):
    """Start pairs agreeing on the automaton's observation, each with its
    pair of classes: first those with the automaton on one of a's vertices,
    then the rest, each part per pair of interpretations, in a-spot order,
    then b-spot order.  Open spots keep every layout connected, so a class's
    observation is its layout's own."""
    mid_a, mid_b = _middle_vertex(a), _middle_vertex(b)
    spots_a, spots_b = _open_spots(a), _open_spots(b)
    placed_a = [(ia, _placements(worlds, ia, spots_a)) for ia in _interpretations(a)]
    groups_b = []
    for ib in _interpretations(b):
        groups: dict[Observation, list[tuple[int, FrozenMap]]] = {}
        for cb, pos_b in _placements(worlds, ib, spots_b):
            groups.setdefault(worlds.seen[cb], []).append((cb, pos_b))
        groups_b.append((ib, groups))
    for on_pebble in (True, False):
        for ia, placed in placed_a:
            for ib, groups in groups_b:
                if mid_a is not None and mid_b is not None:
                    center_a = next(m for m, v in ia.items() if v == mid_a)
                    center_b = next(m for m, v in ib.items() if v == mid_b)
                    if center_a != center_b:
                        continue
                for ca, pos_a in placed:
                    if (pos_a[1] in a.vertices) == on_pebble:
                        for cb, pos_b in groups.get(worlds.seen[ca], ()):
                            yield (ca, cb), pos_a, pos_b


def worst_case_indistinguishable(
    a: Schema, b: Schema, depth: int = 12, max_nodes: int = 20000
) -> IndistinguishabilityOutcome:
    """Search for a shared realization over interpretations of two schemas.

    Interpretation pairs agree on the center pebble whenever both schemas
    spread three pebbles over three vertices, since an automaton can always
    tell apart layouts whose center pebbles differ.  The witness realization
    is bounded by `depth` steps and the joint graph by `max_nodes` nodes,
    both at least 1; the class pair of every start is kept as a root, so
    `explored` can exceed `max_nodes`.  `distinct` is reported only when the joint search
    space was exhausted without a cut.

    Per call, each schema's leader spots are checked for connectedness once,
    each interpretation's placements are located once and start pairs are
    joined on their classes' observations, and the joint search runs on
    pairs of translation classes: each class is checked for connectedness,
    observed and its moves tabled once, and each JointStep is built once.
    All of it is dropped on return, so calls share nothing.
    """
    if a.pebbles != b.pebbles:
        raise ValueError("schemas with different pebble counts are incomparable")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if max_nodes < 1:
        raise ValueError("max_nodes must be >= 1")
    worlds = _Worlds(range(1, a.pebbles + 2))
    return _search(worlds, _schema_starts(worlds, a, b), depth, max_nodes)


# --- confined cycles -------------------------------------------------------


@dataclass(frozen=True)
class ConfinementCycle:
    """A closed schema walk with the moves that realize it from `start`,
    returning every pebble to its starting vertex."""

    steps: tuple[tuple[Schema, str], ...]
    start: tuple[Vertex, ...]
    moves: tuple[tuple[Vertex, Vertex], ...]
    x_spread: int


class _Relocation(NamedTuple):
    src: int
    dst: int
    weight: int  # the least x of the moved layout: the shift of its anchor
    step: tuple[Schema, str]  # source schema and label
    move: tuple[Vertex, Vertex]


def _layout_graph(graph: SchemaGraph, pool: Iterable[Schema]) -> Graph:
    """The pebble layouts of the pool's schemas, as sorted vertex tuples at
    least x 0, with an edge per single-pebble relocation, in `neighbors`
    order, whose (source, target, label) is an edge of `graph`."""
    allowed = {(e.source, e.target, e.label) for e in graph.edges}
    g = Graph()
    for schema in pool:
        for layout in _interpretations(schema):
            key = tuple(sorted(layout.values()))
            if key not in g.index:
                g.add_node(key, key, 0)
    for u, layout in enumerate(g.reps):
        source = Schema(frozenset(layout), graph.pebbles)
        for i, src in enumerate(layout):
            if i and layout[i - 1] == src:
                continue  # stacked pebbles move alike
            for dst in neighbors(src):
                label = TO_OCCUPIED if dst in layout else TO_FREE
                after = sorted((*layout[:i], *layout[i + 1:], dst))
                if (source, Schema(frozenset(after), graph.pebbles), label) not in allowed:
                    continue
                shift = after[0].x
                v = g.index.get(tuple(Vertex(x - shift, y) for x, y in after))
                if v is not None:
                    g.add_edge(_Relocation(u, v, shift, (source, label), (src, dst)))
    return g


def find_confinement_cycle(graph: SchemaGraph) -> Optional[ConfinementCycle]:
    """A shortest closed schema walk whose moves return every pebble home.

    Such a walk is a zero-weight closed walk on the layouts modulo
    x-translation, which `_find_zero_walk` finds exactly, with no length
    cap.  Walks avoiding single-vertex schemas are preferred because
    collapsing all pebbles onto one vertex forgets the layout's
    orientation; stacked walks are still returned when nothing else
    closes.  Ties go to the first layout in schema order, then to the
    first walk in `neighbors` order.
    """
    spread_out = [s for s in sorted_schemas(graph.nodes) if len(s.vertices) >= 2]
    for pool in (spread_out, sorted_schemas(graph.nodes)):
        g = _layout_graph(graph, pool)
        found = _find_zero_walk(g, 1)
        if found is not None:
            _, base, walk = found
            anchor, xs, moves = 0, {v.x for v in g.reps[base]}, []
            for e in (g.edges[ei] for ei in walk):
                (sx, sy), (dx, dy) = e.move
                moves.append((Vertex(sx + anchor, sy), Vertex(dx + anchor, dy)))
                anchor += e.weight
                xs.update(x + anchor for x, _ in g.reps[e.dst])
            steps = tuple(g.edges[ei].step for ei in walk)
            return ConfinementCycle(steps, g.reps[base], tuple(moves), max(xs) - min(xs))
    return None
