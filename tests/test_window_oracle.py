"""`check_directed` and `check_uniform` against the pairwise scan they
replaced, `window_reference`, on seeded random traces and on walker14.

A random trace repeats a motif of layouts, shifted by a drift each period,
with some layouts redrawn, so some moments have a pair and some do not.
Rows run outside {0, 1} (records here are not checked as lattice
vertices), and a trace may break the diameter bound or change its member
count, before or after each other.
"""

from __future__ import annotations

import random

import pytest

from pebblewalk.adversary import FirstOption, LastOption, Oscillator, SeededRandom
from pebblewalk.collective import StepRecord, Trace, check_directed, check_uniform, run
from pebblewalk.lattice import Vertex
from pebblewalk.util import FrozenMap
from pebblewalk.walker14 import build_walker
from window_reference import reference_check_directed, reference_check_uniform

CHECKS = ((check_directed, reference_check_directed), (check_uniform, reference_check_uniform))
STATES = FrozenMap({1: "s"})


def outcome(check, trace, c1, c2):
    """The verdict, or the ValueError raised, as a comparable value."""
    try:
        return check(trace, c1, c2)
    except ValueError as e:
        return ("ValueError", str(e))


def layout(rng: random.Random, members: list[int], spread: int, row: int) -> dict:
    """Members within spread of (0, row) on both axes."""
    return {m: Vertex(rng.randint(0, spread), row + rng.randint(0, spread)) for m in members}


def random_case(rng: random.Random) -> tuple[Trace, int, int]:
    c1, c2 = rng.randint(0, 3), rng.randint(1, 60)
    members = list(range(1, rng.randint(1, 6) + 1))
    spread = rng.randint(0, c1) if rng.random() < 0.8 else rng.randint(0, 3)
    row = rng.randint(-3, 3)
    period, drift = rng.randint(1, 12), rng.choice((-1, 0, 1, 1, 2))
    noise = rng.choice((0.0, 0.01, 0.05, 0.3))
    motif = [layout(rng, members, spread, row) for _ in range(period)]
    positions = []
    for t in range(rng.randint(0, 2 * c2 + 40)):
        lap, phase = divmod(t, period)
        base = layout(rng, members, spread, row) if rng.random() < noise else motif[phase]
        positions.append({m: Vertex(v.x + lap * drift, v.y) for m, v in base.items()})
    if positions and rng.random() < 0.2:  # one record breaks the diameter bound
        t = rng.randrange(len(positions))
        v = positions[t][1]
        positions[t][members[-1]] = Vertex(v.x + c1 + 1, v.y)
    if positions and rng.random() < 0.2:  # one record gains or loses a member
        t = rng.randrange(len(positions))
        if len(members) > 1 and rng.random() < 0.5:
            del positions[t][members[-1]]
        else:
            positions[t][len(members) + 1] = positions[t][1]
    records = tuple(StepRecord(t, FrozenMap(p), STATES) for t, p in enumerate(positions))
    return Trace(records), c1, c2


def test_checks_match_the_pairwise_reference_on_random_traces():
    rng = random.Random(20231)
    seen = set()
    for _ in range(1500):
        trace, c1, c2 = random_case(rng)
        for check, reference in CHECKS:
            want = outcome(reference, trace, c1, c2)
            assert outcome(check, trace, c1, c2) == want, (check.__name__, c1, c2, trace)
            seen.add((check.__name__, want[0] if isinstance(want, tuple) else want.reason))
    # Every outcome occurs: holds (reason None), both violations, the ValueError.
    assert seen == {(check.__name__, kind) for check, _ in CHECKS for kind in (None, "diameter", "displacement", "ValueError")}


@pytest.mark.parametrize("changed_at", [1, 3])
def test_a_diameter_violation_wins_over_a_member_count_change_before_or_after_it(changed_at):
    # Record 2 spreads to 2 columns; the member count changes at changed_at.
    positions = [{1: Vertex(t, 0), 2: Vertex(t, 0)} for t in range(5)]
    positions[2][2] = Vertex(4, 0)
    positions[changed_at][3] = Vertex(changed_at, 0)
    trace = Trace(tuple(StepRecord(t, FrozenMap(p), STATES) for t, p in enumerate(positions)))
    for check, reference in CHECKS:
        assert str(check(trace, 1, 1)) == str(reference(trace, 1, 1)) == "violated(diameter, t=2)"
        assert outcome(check, trace, 2, 1) == outcome(reference, trace, 2, 1) == ("ValueError", "member count changes mid-trace")


@pytest.mark.parametrize("c1, c2", [(-1, 1), (0, 0)])
def test_checks_reject_bad_bounds_like_the_reference(c1, c2):
    trace = Trace((StepRecord(0, FrozenMap({1: Vertex(0, 0)}), STATES),))
    for check, reference in CHECKS:
        assert outcome(check, trace, c1, c2) == outcome(reference, trace, c1, c2) == ("ValueError", "need c1 >= 0 and c2 >= 1")


@pytest.mark.parametrize("make_adversary", [FirstOption, LastOption, Oscillator, lambda: SeededRandom(7)])
def test_checks_match_the_pairwise_reference_on_walker14(make_adversary):
    trace = run(build_walker().initial_state(), make_adversary(), 5000)
    for c1, c2 in ((2, 9), (2, 11), (2, 22), (2, 60), (1, 22)):
        for check, reference in CHECKS:
            assert check(trace, c1, c2) == reference(trace, c1, c2), (check.__name__, c1, c2)
