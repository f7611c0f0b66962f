"""Reference observation builders: every assignment of members to cells is
enumerated and duplicates are dropped with a set, and `observe` groups the
layout into a crowd per vertex before reading the four cells.  The
restricted-growth enumeration and the one-pass `observe` in
`pebblewalk.machine` must return the same values, in the same order.  The
views below rebuild the same values and the pattern match from frozensets
alone, without `Observation`."""

from __future__ import annotations

from itertools import permutations, product
from typing import Iterable, Mapping, Optional

from pebblewalk.lattice import Vertex, neighbors
from pebblewalk.machine import MemberId, Observation


def consistent_observations(universe: Iterable[MemberId], observer: Optional[MemberId]) -> list[Observation]:
    visible = sorted(set(universe) - ({observer} if observer is not None else set()))
    seen: set[Observation] = set()
    out: list[Observation] = []
    for assignment in product(range(4), repeat=len(visible)):
        cells: tuple[set[MemberId], ...] = (set(), set(), set(), set())
        for who, cell in zip(visible, assignment):
            cells[cell].add(who)
        obs = Observation.make(cells[0], cells[1:])
        if obs not in seen:
            seen.add(obs)
            out.append(obs)
    return out


def observe(positions: Mapping[MemberId, Vertex], who: MemberId) -> Observation:
    at = positions[who]
    crowds: dict[Vertex, list[MemberId]] = {}
    for m, pos in positions.items():
        crowds.setdefault(pos, []).append(m)
    alpha = [m for m in crowds[at] if m != who]
    return Observation.make(alpha, [crowds.get(n, ()) for n in neighbors(at)])


# A third reference that never touches `Observation`: a view is the pair
# (alpha, neighbourhood), frozensets only, with the three neighbour sets
# sorted by (size, sorted ids), and patterns are matched by trying every
# permutation of the observed sets.

View = tuple[frozenset, tuple[frozenset, frozenset, frozenset]]


def _canonical(alpha: Iterable[MemberId], cells: Iterable[Iterable[MemberId]]) -> View:
    sets = sorted(map(frozenset, cells), key=lambda s: (len(s), sorted(s)))
    return frozenset(alpha), tuple(sets)


def view(positions: Mapping[MemberId, Vertex], who: MemberId) -> View:
    at = positions[who]

    def crowd(v: Vertex) -> frozenset:
        return frozenset(m for m, pos in positions.items() if pos == v)

    return _canonical(crowd(at) - {who}, map(crowd, neighbors(at)))


def consistent_views(universe: Iterable[MemberId], observer: Optional[MemberId]) -> list[View]:
    visible = sorted(set(universe) - {observer})
    out: list[View] = []
    for assignment in product(range(4), repeat=len(visible)):
        cells = [[who for who, cell in zip(visible, assignment) if cell == k] for k in range(4)]
        seen = _canonical(cells[0], cells[1:])
        if seen not in out:
            out.append(seen)
    return out


def pattern_matches(alpha, entries, seen: View) -> bool:
    """alpha None or a member set; entries None or three of: None, a member
    set, ("has", id)."""
    seen_alpha, neighbourhood = seen
    if alpha is not None and frozenset(alpha) != seen_alpha:
        return False
    if entries is None:
        return True
    return any(
        all(_entry_matches(e, o) for e, o in zip(entries, order)) for order in permutations(neighbourhood)
    )


def _entry_matches(entry, observed: frozenset) -> bool:
    if entry is None:
        return True
    if isinstance(entry, tuple):
        return entry[1] in observed
    return frozenset(entry) == observed
