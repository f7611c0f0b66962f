"""Trace document round-trips, determinism, and malformed-input errors."""

from __future__ import annotations

import json

import pytest

from pebblewalk.adversary import FirstOption, SeededRandom
from pebblewalk.collective import check_directed, run
from pebblewalk.machine import observe
from pebblewalk.strategies import load_builtin
from pebblewalk.strategy_format import strategy_hash
from pebblewalk.tracefile import (
    TraceError,
    make_document,
    parse_document,
    read_document,
    render_document,
    write_document,
)
from pebblewalk.walker14 import build_walker


def walker_document(seed=42, horizon=50):
    col = build_walker()
    adversary = SeededRandom(seed)
    trace = run(col.initial_state(), adversary, horizon)
    return make_document(col, adversary, horizon, trace)


def test_header_fields():
    doc = walker_document()
    assert doc.header.strategy == "walker14"
    assert doc.header.strategy_hash == strategy_hash(build_walker())
    assert doc.header.adversary == "seeded:42"
    assert doc.header.seed == 42
    assert doc.header.horizon == 50


def test_round_trip_equality():
    doc = walker_document()
    again = parse_document(render_document(doc))
    assert again.header == doc.header
    assert again.records == doc.records


def test_round_trip_recovers_observations():
    doc = walker_document(horizon=12)
    again = parse_document(render_document(doc))
    for rec in again.records[1:]:
        assert rec.observations is not None
    assert again.records[3].observations == doc.records[3].observations


def test_observations_follow_every_member_and_row_of_the_previous_layout():
    # Layouts 0 and 1 differ only in pebble 2's row; 2 and 3 repeat them
    # four columns to the right, so their observations are reused.
    near = {"1": [0, 0], "2": [1, 0], "3": [0, 1]}
    across = {"1": [0, 0], "2": [1, 1], "3": [0, 1]}
    layouts = [near, across]
    layouts += [{m: [x + 4, y] for m, (x, y) in lay.items()} for lay in layouts]
    layouts.append(near)
    header = render_document(walker_document()).splitlines()[0]
    rows = []
    for t, lay in enumerate(layouts):
        row = {"t": t, "positions": lay, "states": {m: "s" for m in lay}}
        if t > 0:
            row.update(
                outputs={m: "stay" for m in lay},
                options=[lay["1"]],
                choice=lay["1"],
                consulted=False,
                carried=[],
            )
        rows.append(json.dumps(row))
    doc = parse_document("\n".join([header, *rows]) + "\n")
    records = doc.records
    assert records[1].observations != records[2].observations
    for prev, rec in zip(records, records[1:]):
        assert rec.observations == {m: observe(prev.positions, m) for m in prev.positions}


def test_byte_identical_reproduction():
    a = render_document(walker_document())
    b = render_document(walker_document())
    assert a == b
    assert render_document(parse_document(a)) == a


def test_deterministic_key_order():
    line = render_document(walker_document(horizon=2)).splitlines()[2]
    keys = list(json.loads(line))
    assert keys == sorted(keys)


def test_initial_record_is_bare():
    first_step_line = render_document(walker_document(horizon=1)).splitlines()[1]
    row = json.loads(first_step_line)
    assert set(row) == {"t", "positions", "states"}
    assert row["t"] == 0


def test_write_and_read_back(tmp_path):
    doc = walker_document(horizon=20)
    path = tmp_path / "walk.trace.jsonl"
    write_document(doc, str(path))
    again = read_document(str(path))
    assert again == doc
    assert list(tmp_path.iterdir()) == [path]


def test_parsed_document_feeds_the_checkers():
    col = load_builtin("walker14")
    trace = run(col.initial_state(), FirstOption(), 200)
    doc = make_document(col, FirstOption(), 200, trace)
    again = parse_document(render_document(doc))
    assert check_directed(again.trace, c1=2, c2=22).holds


def corrupt(mutate):
    text = render_document(walker_document(horizon=5))
    lines = text.splitlines()
    mutate(lines)
    with pytest.raises(TraceError) as exc:
        parse_document("\n".join(lines) + "\n")
    return str(exc.value)


def test_rejects_missing_header():
    msg = corrupt(lambda lines: lines.pop(0))
    assert "header" in msg


def test_rejects_bad_json():
    msg = corrupt(lambda lines: lines.__setitem__(2, "{not json"))
    assert msg.startswith("line 3")


def test_rejects_step_index_gap():
    msg = corrupt(lambda lines: lines.pop(2))
    assert "expected" in msg


def test_rejects_bad_row_coordinate():
    def mutate(lines):
        row = json.loads(lines[1])
        row["positions"]["1"] = [0, 5]
        lines[1] = json.dumps(row, sort_keys=True, separators=(",", ":"))

    msg = corrupt(mutate)
    assert "row" in msg


def test_rejects_unknown_output():
    def mutate(lines):
        row = json.loads(lines[2])
        row["outputs"]["1"] = "teleport"
        lines[2] = json.dumps(row, sort_keys=True, separators=(",", ":"))

    msg = corrupt(mutate)
    assert "teleport" in msg


@pytest.mark.parametrize(
    "field, value",
    [("carried", 5), ("carried", [[2]]), ("options", 7), ("outputs", {"1": 5})],
)
def test_rejects_mistyped_record_field(field, value):
    def mutate(lines):
        row = json.loads(lines[2])
        row[field] = value
        lines[2] = json.dumps(row, sort_keys=True, separators=(",", ":"))

    msg = corrupt(mutate)
    assert msg.startswith("line 3")


def test_rejects_member_set_change():
    def mutate(lines):
        row = json.loads(lines[2])
        del row["positions"]["5"]
        del row["states"]["5"]
        lines[2] = json.dumps(row, sort_keys=True, separators=(",", ":"))

    msg = corrupt(mutate)
    assert "member set" in msg


def test_rejects_empty_document():
    with pytest.raises(TraceError):
        parse_document("")
    with pytest.raises(TraceError):
        parse_document(render_document(walker_document()).splitlines()[0] + "\n")
