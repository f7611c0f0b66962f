"""Reference successor and start enumeration for the indistinguishability
search: every move and every leader spot is rebuilt, observed and checked
for connectedness afresh for each pairing, with no table and no translation
class.  The search's own enumeration must yield the same items in the same
order (its starts in `_prioritized` order), and its column-run connectedness
check must agree with the depth-first one here on layouts that stay on the
two rows."""

from __future__ import annotations

from itertools import combinations_with_replacement

from pebblewalk.collective import move_onto
from pebblewalk.lattice import neighbors
from pebblewalk.machine import observe, occupants
from pebblewalk.schemas import (
    TO_FREE,
    TO_OCCUPIED,
    JointStep,
    Schema,
    _interpretations,
    _leader_spots,
    _middle_vertex,
    _subsets,
)


def _connected(vs):
    """Whether the vertices form one component under lattice adjacency."""
    frontier = [next(iter(vs))]
    seen = set()
    while frontier:
        v = frontier.pop()
        if v in seen:
            continue
        seen.add(v)
        frontier.extend(w for w in neighbors(v) if w in vs)
    return len(seen) == len(vs)


def _joint_successors(pos_a, pos_b):
    leader_a, leader_b = pos_a[1], pos_b[1]
    alpha = tuple(sorted(m for m, v in pos_a.items() if m != 1 and v == leader_a))
    carried_options = _subsets(alpha)
    for wa in neighbors(leader_a):
        crowd_a = occupants(pos_a, wa)
        for wb in neighbors(leader_b):
            crowd_b = occupants(pos_b, wb)
            if bool(crowd_a) != bool(crowd_b):
                continue
            if crowd_a and crowd_a != crowd_b:
                continue
            for carried in carried_options:
                na = move_onto(pos_a, carried, wa)
                nb = move_onto(pos_b, carried, wb)
                if observe(na, 1) != observe(nb, 1):
                    continue
                if not _connected(frozenset(na.values())) or not _connected(frozenset(nb.values())):
                    continue
                step = JointStep(
                    offset_a=(wa.x - leader_a.x, wa.y - leader_a.y),
                    offset_b=(wb.x - leader_b.x, wb.y - leader_b.y),
                    carried=carried,
                    to_occupied=bool(crowd_a),
                )
                yield step, na, nb


def _config_starts(pebbles_a, pebbles_b):
    for la in _leader_spots(pebbles_a.values()):
        pos_a = pebbles_a.set(1, la)
        if not _connected(frozenset(pos_a.values())):
            continue
        obs_a = observe(pos_a, 1)
        for lb in _leader_spots(pebbles_b.values()):
            pos_b = pebbles_b.set(1, lb)
            if observe(pos_b, 1) != obs_a:
                continue
            if not _connected(frozenset(pos_b.values())):
                continue
            yield pos_a, pos_b


def _schema_starts(a, b):
    mid_a, mid_b = _middle_vertex(a), _middle_vertex(b)
    for ia in _interpretations(a):
        for ib in _interpretations(b):
            if mid_a is not None and mid_b is not None:
                center_a = next(m for m, v in ia.items() if v == mid_a)
                center_b = next(m for m, v in ib.items() if v == mid_b)
                if center_a != center_b:
                    continue
            yield from _config_starts(ia, ib)


def _prioritized(pairs) -> list:
    ordered = list(pairs)

    def rank(pair):
        pos_a, _ = pair
        on_pebble = any(m != 1 and v == pos_a[1] for m, v in pos_a.items())
        return 0 if on_pebble else 1

    ordered.sort(key=rank)
    return ordered


def _relocations(layout, allowed, members, pebbles):
    """Every layout of a schema in `members` that one single-pebble
    relocation, whose schema edge is in `allowed`, reaches from `layout`,
    a sorted tuple of absolute vertices."""
    source = Schema(frozenset(layout), pebbles)
    for src in sorted(set(layout)):
        for dst in neighbors(src):
            label = TO_OCCUPIED if dst in layout else TO_FREE
            after = list(layout)
            after.remove(src)
            after = tuple(sorted((*after, dst)))
            target = Schema(frozenset(after), pebbles)
            if target in members and (source, target, label) in allowed:
                yield after


def _shortest_return(start, moves, limit):
    """Edges in a shortest closed walk at start of at most limit edges, or None."""
    level, seen = [start], {start}
    for length in range(1, limit + 1):
        ahead = []
        for layout in level:
            for after in moves(layout):
                if after == start:
                    return length
                if after not in seen:
                    seen.add(after)
                    ahead.append(after)
        level = ahead
    return None


def shortest_confinement_cycle(graph, cap):
    """(length, whether it avoids single-vertex schemas) of a shortest
    closed walk of relocations over absolute pebble multisets, in the
    spread-out schemas if any closes there within `cap` edges and else in
    all of them, or None.

    A walk may start at any layout of a pool schema at least x 0, since
    every closed walk can be translated there, and breadth-first search
    from each start finds its shortest return."""
    allowed = {(e.source, e.target, e.label) for e in graph.edges}
    spread_out = [s for s in graph.nodes if len(s.vertices) >= 2]
    for pool, spread in ((spread_out, True), (graph.nodes, False)):
        members = set(pool)
        moves = lambda layout: _relocations(layout, allowed, members, graph.pebbles)
        best = None
        for schema in pool:
            for start in combinations_with_replacement(schema.sorted_vertices, graph.pebbles):
                if set(start) == schema.vertices:
                    length = _shortest_return(start, moves, cap if best is None else best - 1)
                    best = length or best
        if best is not None:
            return best, spread
    return None
