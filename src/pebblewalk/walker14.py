"""The shipped four-pebble collective that walks one column per loop.

The leader cycles through a fixed loop: gather the rear pebble onto the
middle, push the middle onto the front, step off the front onto a free
vertex, and then — depending on which free vertex the adversary granted —
either swap the top pebble forward (9 steps) or walk back and carry the top
pebble forward the long way (11 steps).  Each loop translates the whole
formation by one column and returns every member to the same relative
arrangement, so the movement is directed with diameter 2.

Pebble tables are written against concrete observations; each fires exactly
at the loop moments where that pebble must ride with the leader.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from pebblewalk.collective import (
    Collective,
    Trace,
    check_directed,
    coordinate_of,
    diameter_of,
    run,
)
from pebblewalk.lattice import Vertex
from pebblewalk.machine import (
    MOVE_TO_FREE,
    WILDCARD,
    Automaton,
    MemberId,
    ObservationPattern,
    Rule,
    move_to_set,
    pebble,
)
from pebblewalk.schemas import Schema
from pebblewalk.util import FrozenMap

LOOP_HEADER = "gather-rear"

# Pebble ids by formation role: rear, mid and front sit on the bottom row in
# marching order, and top starts above mid.
REAR, MID, FRONT, TOP = 2, 3, 4, 5


def _leader() -> Automaton:
    r, c, d, h = REAR, MID, FRONT, TOP
    rules = (
        Rule("gather-rear", WILDCARD, move_to_set({c}), "gather-mid"),
        Rule("gather-mid", WILDCARD, move_to_set({d}), "push-front"),
        Rule("push-front", WILDCARD, MOVE_TO_FREE, "orient"),
        # branch test: is the top pebble adjacent after stepping off the front?
        Rule("orient", ObservationPattern(None, [("has", h), None, None]), move_to_set({h}), "swap-top-front"),
        Rule("orient", WILDCARD, move_to_set({c}), "walk-back-rear"),
        Rule("swap-top-front", WILDCARD, move_to_set({d}), "settle-front"),
        Rule("settle-front", WILDCARD, move_to_set({c}), "extend-front"),
        Rule("extend-front", WILDCARD, MOVE_TO_FREE, "return-mid"),
        Rule("walk-back-rear", WILDCARD, move_to_set({r}), "climb-top"),
        Rule("climb-top", WILDCARD, move_to_set({h}), "carry-top-rear"),
        Rule("carry-top-rear", WILDCARD, move_to_set({r}), "carry-top-mid"),
        Rule("carry-top-mid", WILDCARD, move_to_set({c}), "raise-top"),
        Rule("raise-top", WILDCARD, MOVE_TO_FREE, "return-mid"),
        Rule("return-mid", WILDCARD, move_to_set({c}), "return-rear"),
        Rule("return-rear", WILDCARD, move_to_set({r}), LOOP_HEADER),
    )
    return Automaton(initial=LOOP_HEADER, rules=rules)


def _pebbles():
    r, c, d, h = REAR, MID, FRONT, TOP
    P = ObservationPattern
    return {
        r: pebble(
            "rear",
            [(P({1}, [set(), set(), {c}]), move_to_set({c}))],
        ),
        c: pebble(
            "mid",
            [(P({1, r}, [set(), {d}, {h}]), move_to_set({d}))],
        ),
        d: pebble(
            "front",
            [
                (P({1, c}, [{r}, set(), set()]), MOVE_TO_FREE),
                (P({1, h}, [set(), set(), {c}]), move_to_set({c})),
                (P({1, c}, [{r}, set(), {h}]), MOVE_TO_FREE),
            ],
        ),
        h: pebble(
            "top",
            [
                (P({1}, [set(), {d}, {r}]), move_to_set({d})),
                (P({1}, [set(), set(), {r}]), move_to_set({r})),
                (P({1, r}, [set(), {c}, set()]), move_to_set({c})),
                (P({1, c}, [{r}, {d}, set()]), MOVE_TO_FREE),
            ],
        ),
    }


def build_walker(origin_x: int = 0) -> Collective:
    """Construct the collective in its marching layout.

    rear, mid, front on the bottom row at origin_x, origin_x+1, origin_x+2;
    top above mid; the leader starts on the rear pebble.
    """
    positions = {
        1: Vertex(origin_x, 0),
        REAR: Vertex(origin_x, 0),
        MID: Vertex(origin_x + 1, 0),
        FRONT: Vertex(origin_x + 2, 0),
        TOP: Vertex(origin_x + 1, 1),
    }
    return Collective(
        name="walker14",
        leader=_leader(),
        pebbles=FrozenMap(_pebbles()),
        initial_positions=FrozenMap(positions),
    )


def occupied_schema(positions) -> Schema:
    """Occupied vertex set, translated so its least x is 0."""
    return Schema(frozenset(positions.values()), len(positions))


@dataclass(frozen=True)
class IterationReport:
    """Outcome of a multi-iteration verification run."""

    ok: bool
    failures: tuple[str, ...]
    iterations: int
    total_steps: int
    steps_per_iteration: tuple[int, ...]
    displacement: tuple[Fraction, Fraction] | None
    trace: Trace


def verify_theorem2(iterations: int, adversary) -> IterationReport:
    """Run the walker and check every movement claim it is built to satisfy.

    Checks, over `iterations` full loops: diameter stays <= 2 at every step,
    every loop takes 9 or 11 steps, every loop displaces the coordinate by
    the same (+-1, 0), the occupied schema at each loop header matches the
    initial schema, and the directed-movement test holds on the whole trace
    at c1 = 2, c2 = 22.
    """
    c1, c2 = 2, 22
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    trace = run(build_walker().initial_state(), adversary, 11 * iterations)
    failures: list[str] = []

    headers = [t for t, rec in enumerate(trace.records) if rec.states[1] == LOOP_HEADER]
    boundaries = headers[: iterations + 1]
    if len(boundaries) < iterations + 1:
        failures.append(f"only {len(boundaries) - 1} of {iterations} loops closed")

    for t, rec in enumerate(trace.records):
        if diameter_of(rec.positions) > c1:
            failures.append(f"diameter exceeds {c1} at step {t}")
            break

    steps_per = tuple(b2 - b1 for b1, b2 in zip(boundaries, boundaries[1:]))
    bad_lengths = [s for s in steps_per if s not in (9, 11)]
    if bad_lengths:
        failures.append(f"loop lengths outside {{9, 11}}: {sorted(set(bad_lengths))}")

    coords = [coordinate_of(trace.records[b].positions) for b in boundaries]
    displacement = None
    if len(boundaries) >= 2:
        deltas = {(b.x - a.x, b.y - a.y) for a, b in zip(coords, coords[1:])}
        if len(deltas) > 1:
            failures.append(f"per-loop displacement not constant: {sorted(deltas)}")
        else:
            displacement = next(iter(deltas))
            if displacement not in ((Fraction(1), Fraction(0)), (Fraction(-1), Fraction(0))):
                failures.append(f"per-loop displacement is {displacement}, not (+-1, 0)")

    schema0 = occupied_schema(trace.records[0].positions)
    for b in boundaries[1:]:
        if occupied_schema(trace.records[b].positions) != schema0:
            failures.append(f"occupied schema diverged at loop header t={b}")
            break

    if iterations >= 1:
        verdict = check_directed(trace, c1, c2)
        if not verdict.holds:
            failures.append(f"directed-movement check failed: {verdict}")

    total = boundaries[-1] - boundaries[0] if len(boundaries) >= 2 else 0
    return IterationReport(
        ok=not failures,
        failures=tuple(failures),
        iterations=len(steps_per),
        total_steps=total,
        steps_per_iteration=steps_per,
        displacement=displacement,
        trace=trace,
    )
