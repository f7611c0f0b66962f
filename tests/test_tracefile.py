"""Trace document round-trips, determinism, and malformed-input errors."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pebblewalk.adversary import FirstOption, SeededRandom
from pebblewalk.collective import StepRecord, Trace, check_directed, run
from pebblewalk.lattice import vertex
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
from pebblewalk.util import FrozenMap
from pebblewalk.walker14 import build_walker
from trace_reference import assert_one_object_per_value, dump, reference_render


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


def test_byte_identical_reproduction():
    a = render_document(walker_document())
    b = render_document(walker_document())
    assert a == b
    assert render_document(parse_document(a)) == a


def test_records_sharing_no_maps_render_like_the_reference():
    doc = walker_document(horizon=40)
    fresh = [
        replace(
            rec,
            positions=FrozenMap(dict(rec.positions)),
            states=FrozenMap(dict(rec.states)),
            outputs=None if rec.outputs is None else FrozenMap(dict(rec.outputs)),
            carried=None if rec.carried is None else frozenset(list(rec.carried)),
        )
        for rec in doc.records
    ]
    for field in ("states", "outputs", "carried"):
        assert len({id(getattr(rec, field)) for rec in fresh[1:]}) == len(fresh) - 1
    unshared = replace(doc, trace=Trace(tuple(fresh)))
    text = render_document(unshared)
    assert text == reference_render(unshared) == render_document(doc)
    parsed = parse_document(text)
    assert parsed == doc
    assert_one_object_per_value(parsed.records[1:])


def test_members_render_in_json_key_order():
    # Member 10 sorts between 1 and 2 as a JSON key.
    positions = FrozenMap({m: vertex(m, 0) for m in range(1, 12)})
    states = FrozenMap({m: "s" for m in positions})
    doc = replace(walker_document(horizon=1), trace=Trace((StepRecord(0, positions, states),)))
    text = render_document(doc)
    assert text == reference_render(doc)
    assert parse_document(text) == doc


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
    [
        ("carried", 5),
        ("carried", [[2]]),
        ("options", 7),
        ("outputs", {"1": 5}),
        ("t", 1.0),
        ("t", True),
        ("consulted", 1),
    ],
)
def test_rejects_mistyped_record_field(field, value):
    def mutate(lines):
        row = json.loads(lines[2])
        row[field] = value
        lines[2] = json.dumps(row, sort_keys=True, separators=(",", ":"))

    msg = corrupt(mutate)
    assert msg.startswith("line 3")


def rename_member(row, new):
    for field in ("positions", "states", "outputs"):
        if field in row:
            row[field][new] = row[field].pop("2")


def set_field(*path):
    def mutate(row, value):
        for key in path[:-1]:
            row = row[key]
        row[path[-1]] = value

    return mutate


def drop_output(row, _):
    del row["outputs"]["5"]


def consulted_options(row, value):
    row["options"] = value
    row["consulted"] = True


def offer_only(row, value):
    row["options"] = [value]
    row["choice"] = value
    for m in ("1", "2"):
        row["positions"][m] = value


def respell(row, spelling):
    """Line 3 as spelling(line), where line is the row rendered with its newline."""
    return spelling(dump(row) + "\n")


def reverse_keys(row, field):
    """Line 3 with the keys of row[field], or of the row itself, in reverse order."""
    obj = row if field is None else row[field]
    items = list(obj.items())
    obj.clear()
    obj.update(reversed(items))
    return json.dumps(row, separators=(",", ":")) + "\n"


# Each value parses to something the renderer spells or lays out
# differently, or to a record no run produces; record t=1 of
# walker_document() is carried [2], choice [1,0], options [[1,0]],
# members 1..5, and with horizon 1 it is line 3, the document's last.
@pytest.mark.parametrize(
    "mutate, value, fragment",
    [
        pytest.param(set_field("positions", "3", 0), True, "coordinate", id="bool-position"),
        pytest.param(set_field("choice", 0), True, "coordinate", id="bool-choice"),
        pytest.param(set_field("options", 0, 1), False, "coordinate", id="bool-option"),
        pytest.param(set_field("carried", 0), True, "carried", id="bool-carried"),
        pytest.param(set_field("states", "2"), 7, "state must be a string", id="int-state"),
        pytest.param(rename_member, "02", "member id", id="leading-zero-member"),
        pytest.param(rename_member, "²", "member id", id="non-ascii-member"),
        pytest.param(set_field("carried"), [1], "carried", id="leader-carried"),
        pytest.param(set_field("carried"), [7], "carried", id="stranger-carried"),
        pytest.param(set_field("carried"), [2, 2], "carried", id="repeated-carried"),
        pytest.param(set_field("carried"), [3, 2], "carried", id="unsorted-carried"),
        pytest.param(set_field("choice"), [5, 0], "not among the options", id="choice-not-offered"),
        pytest.param(consulted_options, [[1, 0], [0, 1]], "sorted by offset", id="reversed-options"),
        pytest.param(consulted_options, [[1, 0], [1, 0]], "sorted by offset", id="repeated-option"),
        pytest.param(set_field("options"), [[0, 1], [1, 0]], "consulted", id="two-options-unconsulted"),
        pytest.param(set_field("consulted"), True, "consulted", id="consulted-single-option"),
        pytest.param(drop_output, None, "disagree on members", id="output-missing"),
        pytest.param(set_field("outputs", "6"), "stay", "disagree on members", id="output-stranger"),
        pytest.param(set_field("outputs", "1"), "set:²", "set:²", id="non-ascii-output"),
        pytest.param(set_field("outputs", "1"), "set:03", "set:03", id="leading-zero-output"),
        pytest.param(set_field("outputs", "1"), "set:4,3", "set:4,3", id="unsorted-output"),
        pytest.param(respell, lambda line: " \t\n", "first character", id="blank-line"),
        pytest.param(respell, lambda line: line[:-1] + "\r\n", "\\r", id="crlf"),
        pytest.param(respell, lambda line: " " + line, "first character", id="leading-space"),
        pytest.param(respell, lambda line: line[:-1], "exactly one", id="missing-final-newline"),
        pytest.param(respell, lambda line: line + "\n", "exactly one", id="extra-final-newline"),
        pytest.param(reverse_keys, None, "sorted order", id="unsorted-record-keys"),
        pytest.param(reverse_keys, "positions", "sorted order", id="unsorted-positions"),
        pytest.param(reverse_keys, "states", "sorted order", id="unsorted-states"),
        pytest.param(reverse_keys, "outputs", "sorted order", id="unsorted-outputs"),
    ],
)
def test_rejects_value_the_renderer_never_writes(mutate, value, fragment):
    header, first, line = render_document(walker_document(horizon=1)).splitlines(keepends=True)
    row = json.loads(line)
    line = mutate(row, value)
    with pytest.raises(TraceError) as exc:
        parse_document(header + first + (dump(row) + "\n" if line is None else line))
    msg = str(exc.value)
    assert msg.startswith("line 3") and fragment in msg


# Record t=1 of walker_document() follows positions 1 and 2 at (0,0),
# 3 at (1,0), 4 at (2,0) and 5 at (1,1); one row per rule of check_steps.
@pytest.mark.parametrize(
    "mutate, value, fragment",
    [
        pytest.param(offer_only, [3, 0], "or its neighbours", id="option-out-of-reach"),
        pytest.param(set_field("positions", "1"), [0, 0], "member 1 is at (0,0), not on", id="leader-off-choice"),
        pytest.param(set_field("carried"), [2, 3], "carried pebble did not stand", id="carried-from-elsewhere"),
        pytest.param(set_field("positions", "2"), [0, 0], "member 2 is at (0,0), not on", id="carried-left-behind"),
        pytest.param(set_field("positions", "4"), [7, 0], "member 4 moved from (2,0)", id="member-jumped"),
    ],
)
def test_reading_rejects_record_that_does_not_follow(tmp_path, mutate, value, fragment):
    lines = render_document(walker_document(horizon=5)).splitlines()
    row = json.loads(lines[2])
    mutate(row, value)
    lines[2] = dump(row)
    path = tmp_path / "bad.trace.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceError) as exc:
        read_document(str(path))
    assert str(exc.value).startswith("step 1:") and fragment in str(exc.value)


def test_rejects_record_without_members():
    def edit(lines):
        empty = {"positions": {}, "states": {}, "outputs": {}, "options": [[0, 0]], "choice": [0, 0]}
        lines[1:] = [
            dump({"positions": {}, "states": {}, "t": 0}),
            dump({**empty, "consulted": False, "carried": [], "t": 1}),
        ]

    assert "at least one member" in corrupt(edit)


@pytest.mark.parametrize(
    "line", ['{"t":' + "1" * 5000 + "}", '{"t":' + "[" * 100_000 + "]" * 100_000 + "}"], ids=["long-int", "deep-nesting"]
)
def test_rejects_line_json_cannot_decode(line):
    assert corrupt(lambda lines: lines.__setitem__(2, line)).startswith("line 3")


def test_rejects_header_keys_out_of_order():
    def edit(lines):
        head = json.loads(lines[0])
        lines[0] = json.dumps(dict(reversed(head.items())), separators=(",", ":"))

    assert corrupt(edit) == "line 1: keys must be in sorted order"


@pytest.mark.parametrize("version", [True, 1.0, "1"])
def test_rejects_version_the_renderer_never_writes(version):
    def edit(lines):
        head = json.loads(lines[0])
        head["version"] = version
        lines[0] = dump(head)

    assert "version" in corrupt(edit)


JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 6)
    | st.integers()
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from(["stay", "free", "set:2", "set:2,3", "set:02", "02", "²", "rear"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["1", "2", "6", "02", "²", "x"]), inner, max_size=3),
    max_leaves=6,
)
FUZZ_LINES = render_document(walker_document(horizon=4)).splitlines()


def field_paths(obj, prefix=()):
    """Every key or index path into a parsed JSON line."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from field_paths(value, prefix + (key,))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_parse_raises_only_trace_errors_and_accepted_documents_re_render(data):
    line = data.draw(st.integers(0, len(FUZZ_LINES) - 1))
    obj = json.loads(FUZZ_LINES[line])
    path = data.draw(st.sampled_from(list(field_paths(obj))))
    set_field(*path)(obj, data.draw(JSON))
    spelled = dump(obj)
    if data.draw(st.booleans()):  # the line's keys in a drawn order
        keys = data.draw(st.permutations(sorted(obj)))
        spelled = "{" + ",".join(f"{json.dumps(k)}:{dump(obj[k])}" for k in keys) + "}"
    lines = [*FUZZ_LINES[:line], spelled, *FUZZ_LINES[line + 1 :]]
    if data.draw(st.booleans()):  # plus a blank line anywhere
        lines.insert(data.draw(st.integers(0, len(lines))), data.draw(st.sampled_from(["", " ", "\t", "\r"])))
    text = "\n".join(lines) + "\n"
    try:
        doc = parse_document(text)
    except TraceError:
        return
    assert render_document(doc) == text


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
