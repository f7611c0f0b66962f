"""Reference observation builders: every assignment of members to cells is
enumerated and duplicates are dropped with a set, and `observe` groups the
layout into a crowd per vertex before reading the four cells.  The
restricted-growth enumeration and the one-pass `observe` in
`pebblewalk.machine` must return the same values, in the same order."""

from __future__ import annotations

from itertools import product
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
