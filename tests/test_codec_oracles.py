"""The template encoder, the shape-filling parser and the once-per-layout
panels against the field-by-field references they replaced, on hand-built
traces.

Records need not follow one another here: both renderers read each record
on its own.  Records draw their states, outputs and carried objects from a
small pool, sometimes as equal copies, so the per-call memos meet shared
objects, equal unshared ones and distinct ones.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pebblewalk.collective import StepRecord, Trace
from pebblewalk.lattice import Vertex
from pebblewalk.machine import MOVE_TO_FREE, STAY, move_to_set
from pebblewalk.render import render_records
from pebblewalk.tracefile import TraceDocument, TraceError, TraceHeader, parse_document, render_document
from pebblewalk.util import FrozenMap
from trace_reference import field_render, reference_panel, reference_parse, reference_records, reference_render

# '%', 's', 'd' and '{' spell the templates' own syntax, '"' and '\\' need
# JSON escapes, and so does non-ASCII text (U+2028 and an astral one too).
NAMES = st.text(st.sampled_from('%{}"\\sd é中\u2028\U0001d11e'), max_size=6)
VERTICES = st.builds(Vertex, st.integers(-4, 4), st.sampled_from([0, 1]))


@st.composite
def traces(draw):
    """Records over member 1 and up to five ids of 2..40 (letters, spare
    letters from 6 and '?' past the alphabet), in any map order."""
    pebbles = draw(st.lists(st.integers(2, 40), unique=True, max_size=5))
    members = draw(st.permutations([1, *pebbles]))
    outputs = st.sampled_from([STAY, MOVE_TO_FREE, *(move_to_set([m]) for m in members)])
    states_pool = draw(st.lists(st.builds(FrozenMap, st.fixed_dictionaries({m: NAMES for m in members})), min_size=1, max_size=3))
    outputs_pool = draw(st.lists(st.builds(FrozenMap, st.fixed_dictionaries({m: outputs for m in members})), min_size=1, max_size=3))
    carried_pool = draw(st.lists(st.frozensets(st.sampled_from(pebbles)) if pebbles else st.just(frozenset()), min_size=1, max_size=3))

    def shared(pool, copy):
        obj = draw(st.sampled_from(pool))
        return copy(obj) if draw(st.integers(0, 3)) == 0 else obj

    records = []
    for t in range(draw(st.integers(0, 8))):
        positions = FrozenMap({m: draw(VERTICES) for m in members})
        states = shared(states_pool, lambda s: FrozenMap(dict(s)))
        if t == 0:
            records.append(StepRecord(0, positions, states))
            continue
        options = tuple(sorted(draw(st.sets(VERTICES, min_size=1, max_size=3))))
        records.append(
            StepRecord(
                t,
                positions,
                states,
                shared(outputs_pool, lambda o: FrozenMap(dict(o))),
                options,
                draw(st.sampled_from(options)),
                shared(carried_pool, lambda c: frozenset(list(c))),
            )
        )
    return records


def document(records, strategy="s%s{\"") -> TraceDocument:
    return TraceDocument(TraceHeader(strategy, "h", "first", None, len(records)), Trace(tuple(records)))


@settings(max_examples=120, deadline=None)
@given(traces(), NAMES)
def test_render_document_matches_the_field_by_field_encoder(records, strategy):
    doc = document(records, strategy)
    text = render_document(doc)
    assert text == field_render(doc) == reference_render(doc)


def repeated(records, times=3):
    """The records with their steps run `times` times, each run shifted
    right, so every record shape is seen at least `times` times."""

    def shift(v, d):
        return Vertex(v.x + d, v.y)

    steps = [
        rec._replace(
            t=1 + k * (len(records) - 1) + i,
            positions=FrozenMap({m: shift(v, 5 * k) for m, v in rec.positions.items()}),
            options=tuple(shift(v, 5 * k) for v in rec.options),
            choice=shift(rec.choice, 5 * k),
        )
        for k in range(times)
        for i, rec in enumerate(records[1:])
    ]
    return records[:1] + steps


@settings(max_examples=120, deadline=None)
@given(traces(), NAMES)
def test_parse_document_matches_the_json_only_parser(records, strategy):
    doc = document(repeated(records), strategy)
    text = render_document(doc)
    if not records:
        with pytest.raises(TraceError):
            parse_document(text)
        return
    assert parse_document(text) == reference_parse(text) == doc


@settings(max_examples=120, deadline=None)
@given(traces(), st.data())
def test_panels_match_the_per_record_reference(records, data):
    window = data.draw(st.one_of(st.none(), st.integers(1, 10)), label="window")
    assert render_records(records, window) == reference_records(records, window)
    for record in records:
        assert render_records([record], window) == reference_panel(record, window) + "\n"


def test_empty_record_list():
    assert render_records([]) == reference_records([]) == "\n"
    assert render_records([], 3) == "\n"
    doc = document([])
    assert render_document(doc) == field_render(doc) == reference_render(doc)


def test_window_below_one_is_rejected_when_a_panel_is_drawn():
    record = StepRecord(0, FrozenMap({1: Vertex(0, 0), 2: Vertex(1, 0)}), FrozenMap({1: "s", 2: "p"}))
    for window in (0, -1):
        with pytest.raises(ValueError, match="window must be at least 1"):
            render_records([record], window)
        with pytest.raises(ValueError, match="window must be at least 1"):
            reference_panel(record, window)
        # As before, an empty record list draws no panel and checks nothing.
        assert render_records([], window) == reference_records([], window) == "\n"
