"""The four-pebble marching strategy and its movement guarantees."""

from __future__ import annotations

from fractions import Fraction

import pytest

from pebblewalk.adversary import FirstOption, LastOption, ScriptedChoices, SeededRandom
from pebblewalk.collective import coordinate_of, diameter_of, run, transform_positions
from pebblewalk.lattice import X_REFLECTION, vertex
from pebblewalk.walker14 import (
    LOOP_HEADER,
    IterationReport,
    build_walker,
    occupied_schema,
    verify_theorem2,
)


def first_loop(state, adversary):
    """The record at which run's first loop closes at the loop header."""
    return next(rec for rec in run(state, adversary, 12).records[1:] if rec.states[1] == LOOP_HEADER)


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
    assert first_loop(col.initial_state(), FirstOption()).t == 9
    assert first_loop(col.initial_state(), LastOption()).t == 11


def test_iteration_stops_consulting_at_the_header():
    # A run that ends at a loop header leaves the next loop's push-front
    # choice in the script.
    col = build_walker()
    for offset, loop in (((0, 1), 9), ((1, 0), 11)):
        script = ScriptedChoices([offset])
        trace = run(col.initial_state(), script, loop)
        assert (trace.records[-1].states[1], script.cursor) == (LOOP_HEADER, 1)
    script = ScriptedChoices([(0, 1), (1, 0)])
    trace = run(col.initial_state(), script, 20)
    headers = [rec.t for rec in trace.records[1:] if rec.states[1] == LOOP_HEADER]
    assert (headers, script.cursor) == ([9, 20], 2)


@pytest.mark.parametrize("adversary", [FirstOption(), LastOption()])
def test_iteration_translates_layout_by_one(adversary):
    col = build_walker()
    header = first_loop(col.initial_state(), adversary)
    assert dict(header.positions) == {
        m: vertex(v.x + 1, v.y) for m, v in col.initial_positions.items()
    }


@pytest.mark.parametrize("adversary", [FirstOption(), LastOption()])
def test_iteration_displacement(adversary):
    col = build_walker()
    before = coordinate_of(col.initial_positions)
    after = coordinate_of(first_loop(col.initial_state(), adversary).positions)
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
    mirrored = col.initial_state()._replace(positions=transform_positions(col.initial_positions, X_REFLECTION))
    header = first_loop(mirrored, FirstOption())
    before, after = coordinate_of(mirrored.positions), coordinate_of(header.positions)
    assert header.t in (9, 11)
    assert (after.x - before.x, after.y - before.y) == (Fraction(-1), Fraction(0))
