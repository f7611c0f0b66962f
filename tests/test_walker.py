"""The four-pebble marching strategy and its movement guarantees."""

from __future__ import annotations

from fractions import Fraction

import pytest

from pebblewalk.adversary import FirstOption, LastOption, ScriptedChoices, SeededRandom
from pebblewalk.collective import coordinate, diameter_of, run, transform_positions
from pebblewalk.lattice import X_REFLECTION, vertex
from pebblewalk.walker14 import (
    LOOP_HEADER,
    IterationReport,
    build_walker,
    iterate,
    occupied_schema,
    verify_theorem2,
)


def test_initial_layout():
    col = build_walker()
    assert dict(col.initial_positions) == {
        1: vertex(0, 0),
        2: vertex(0, 0),
        3: vertex(1, 0),
        4: vertex(2, 0),
        5: vertex(1, 1),
    }


def test_pebble_tables_pass_the_validator():
    assert build_walker().validate_pebbles() == []


def test_iteration_step_counts():
    col = build_walker()
    _, first_steps = iterate(col.initial_state(), FirstOption())
    _, last_steps = iterate(col.initial_state(), LastOption())
    assert first_steps == 9
    assert last_steps == 11


def test_iteration_is_runs_first_loop():
    # The adversary sees run's history digest, so iterate's loop is run's.
    col = build_walker()
    for seed in range(50):
        final, steps = iterate(col.initial_state(), SeededRandom(seed))
        header = next(
            rec for rec in run(col.initial_state(), SeededRandom(seed), 12).records[1:]
            if rec.states[1] == LOOP_HEADER
        )
        assert (steps, final.positions, final.states) == (header.t, header.positions, header.states)
        assert final.step_index == steps


def test_iteration_stops_consulting_at_the_header():
    # A stateful script must not lose a choice to the next loop's push-front.
    col = build_walker()
    for offset, loop in (((0, 1), 9), ((1, 0), 11)):
        script = ScriptedChoices([offset])
        final, steps = iterate(col.initial_state(), script)
        assert (steps, final.step_index, script.cursor) == (loop, loop, 1)
    script = ScriptedChoices([(0, 1), (1, 0)])
    state, first = iterate(col.initial_state(), script)
    state, second = iterate(state, script)
    assert (first, second, state.step_index, script.cursor) == (9, 11, 20, 2)


@pytest.mark.parametrize("adversary", [FirstOption(), LastOption()])
def test_iteration_translates_layout_by_one(adversary):
    col = build_walker()
    final, _ = iterate(col.initial_state(), adversary)
    assert dict(final.positions) == {
        m: vertex(v.x + 1, v.y) for m, v in col.initial_positions.items()
    }
    assert final.states[1] == LOOP_HEADER


@pytest.mark.parametrize("adversary", [FirstOption(), LastOption()])
def test_iteration_displacement(adversary):
    col = build_walker()
    state = col.initial_state()
    before = coordinate(state)
    final, _ = iterate(state, adversary)
    after = coordinate(final)
    assert (after.x - before.x, after.y - before.y) == (Fraction(1), Fraction(0))


def test_schema_recurs_at_loop_headers():
    col = build_walker()
    trace = run(col.initial_state(), SeededRandom(6), 220)
    want = occupied_schema(col.initial_positions)
    headers = [t for t, rec in enumerate(trace.records) if rec.states[1] == LOOP_HEADER]
    assert len(headers) >= 20
    for t in headers:
        assert occupied_schema(trace.records[t].positions) == want


def test_one_consultation_per_loop():
    trace = run(build_walker().initial_state(), SeededRandom(9), 220)
    headers = [t for t, rec in enumerate(trace.records) if rec.states[1] == LOOP_HEADER]
    for b1, b2 in zip(headers, headers[1:]):
        consulted = [t for t in range(b1 + 1, b2 + 1) if trace.records[t].consulted]
        assert len(consulted) == 1


def test_diameter_never_exceeds_two():
    trace = run(build_walker().initial_state(), SeededRandom(13), 300)
    assert max(diameter_of(rec.positions) for rec in trace.records) == 2


@pytest.mark.parametrize("adversary", [FirstOption(), LastOption()])
def test_verify_deterministic_hundred_loops(adversary):
    report = verify_theorem2(100, adversary)
    assert isinstance(report, IterationReport)
    assert report.ok, report.failures
    assert report.iterations == 100
    assert report.displacement == (Fraction(1), Fraction(0))
    assert set(report.steps_per_iteration) <= {9, 11}


def test_verify_zero_iterations():
    report = verify_theorem2(0, FirstOption())
    assert report.ok
    assert report.total_steps == 0


def test_verify_negative_iterations_rejected():
    with pytest.raises(ValueError):
        verify_theorem2(-1, FirstOption())


def test_verify_two_loops_scripted_mix():
    report = verify_theorem2(2, ScriptedChoices([(1, 0), (0, 1)]))
    assert report.ok, report.failures
    assert report.steps_per_iteration == (11, 9)


def test_every_moment_check_fails_under_seeded_choices():
    # the per-loop translation is exact, yet mid-loop moments of an 11-step
    # loop followed by a long run of 9-step loops admit no displacement pair
    # inside the 22-step window, so the literal every-moment check refuses
    for seed in range(8):
        report = verify_theorem2(100, SeededRandom(seed))
        assert not report.ok
        assert len(report.failures) == 1
        assert report.failures[0].startswith("directed-movement check failed")


def test_reflected_walker_marches_left():
    col = build_walker()
    mirrored = col.initial_state(transform_positions(col.initial_positions, X_REFLECTION))
    before = coordinate(mirrored)
    final, steps = iterate(mirrored, FirstOption())
    after = coordinate(final)
    assert steps in (9, 11)
    assert (after.x - before.x, after.y - before.y) == (Fraction(-1), Fraction(0))
