"""Trace document round-trips, determinism, and malformed-input errors."""

from __future__ import annotations

import hashlib
import json
import sys
import time
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pebblewalk import tracefile
from pebblewalk.adversary import FirstOption, SeededRandom
from pebblewalk.cli import parse_adversary
from pebblewalk.collective import StepRecord, Trace, check_directed, run
from pebblewalk.lattice import neighbors, vertex
from pebblewalk.machine import parse_output
from pebblewalk.strategies import load_builtin
from pebblewalk.strategy_format import strategy_hash
from pebblewalk.tracefile import (
    TraceError,
    check_steps,
    make_document,
    parse_document,
    read_document,
    render_document,
    write_document,
)
from pebblewalk.util import FrozenMap
from pebblewalk.walker14 import build_walker
from trace_reference import assert_one_object_per_value, dump, follows, reference_parse, reference_render


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


# sha256 of walker14's 2,000-step documents.  The other tests here compare
# two runs of the same code; these digests catch a byte that a change to the
# core types moves in both.
PINNED_DOCUMENTS = {
    "seeded:42": "704cb42b44a54de1eb622a00c2231cb29dcb9d1635eda641182ad837a16a4e1e",
    "first": "2b67317361aae4ff94824fe793a968a97d058b327d04c8861be94495ecc76222",
    "last": "7c64fa95545f71736bc6831dd1f54599a603e294b908d728d75e034aebbfd9b3",
}


@pytest.mark.parametrize("spec", PINNED_DOCUMENTS)
def test_walker_documents_are_pinned(spec):
    col = build_walker()
    adversary = parse_adversary(spec)
    text = render_document(make_document(col, adversary, 2000, run(col.initial_state(), adversary, 2000)))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_DOCUMENTS[spec]


def test_records_sharing_no_maps_render_like_the_reference():
    doc = walker_document(horizon=40)
    fresh = [
        rec._replace(
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


def test_write_and_read_back(tmp_path, monkeypatch):
    doc = walker_document(horizon=20)
    path = tmp_path / "walk.trace.jsonl"
    write_document(doc, str(path))
    assert path.read_bytes() == render_document(doc).encode()
    again = read_document(str(path))
    assert again == doc
    assert list(tmp_path.iterdir()) == [path]

    # A shape first seen after record 30 fails to render once the temp file
    # already holds the lines before it: neither file is left behind.
    template = tracefile._template

    def failing(rec, *args):
        if rec.t > 30:
            (tmp,) = tmp_path.iterdir()
            assert tmp.suffix == ".tmp" and tmp.stat().st_size > 0
            raise RuntimeError("render failed")
        return template(rec, *args)

    monkeypatch.setattr(tracefile, "_template", failing)
    path.unlink()
    with pytest.raises(RuntimeError, match="render failed"):
        write_document(walker_document(horizon=50), str(path))
    assert list(tmp_path.iterdir()) == []


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


def ride_along(row, pid):
    """Pebble pid outputs the leader's move and is listed as carried."""
    row["outputs"][pid] = row["outputs"]["1"]
    row["carried"] = sorted([*row["carried"], int(pid)])


# Record t=1 of walker_document() follows positions 1 and 2 at (0,0),
# 3 at (1,0), 4 at (2,0) and 5 at (1,1), where outputs set:3 of members 1
# and 2 denote the one option (1,0) and carry set [2]; one row per rule of
# check_steps, and a few documents each rule alone would let through.
@pytest.mark.parametrize(
    "mutate, value, fragment",
    [
        pytest.param(offer_only, [3, 0], "options must be [(1,0)], those the leader's output denotes at (0,0)", id="option-out-of-reach"),
        pytest.param(consulted_options, [[0, 1], [1, 0]], "options must be [(1,0)]", id="forced-step-offers-two"),
        pytest.param(set_field("outputs", "1"), "free", "options must be [(-1,0), (0,1)]", id="free-onto-occupied"),
        pytest.param(set_field("positions", "1"), [0, 0], "member 1 is at (0,0), not on", id="leader-off-choice"),
        pytest.param(set_field("carried"), [2, 3], "carried must be [2], the pebbles whose output", id="carried-from-elsewhere"),
        pytest.param(set_field("outputs", "2"), "stay", "carried must be []", id="carried-while-staying"),
        pytest.param(ride_along, "3", "carried pebble did not stand on the leader's previous vertex (0,0)", id="moving-off-the-leader"),
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


def test_reading_drops_the_file_bytes_before_parsing(tmp_path):
    # Kept alive beside the decoded text, the bytes add one more copy of the
    # document to the peak: over parsing the text alone, reading it peaks
    # about 2 text lengths higher with them and 1 without, on this document.
    text = render_document(walker_document(horizon=2000))
    path = tmp_path / "walk.trace.jsonl"
    path.write_text(text)
    tracemalloc.start()
    try:
        check_steps(parse_document(text).trace)
        parse_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        read_document(str(path))
        read_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert read_peak - parse_peak < 1.5 * len(text), (read_peak - parse_peak) / len(text)


def test_reading_rejects_document_without_leader(tmp_path):
    lines = render_document(walker_document(horizon=2)).splitlines()
    for i, line in enumerate(lines[1:], start=1):
        row = json.loads(line)
        for field in ("positions", "states", "outputs"):
            if field in row:
                row[field]["6"] = row[field].pop("1")
        lines[i] = dump(row)
    path = tmp_path / "leaderless.trace.jsonl"
    path.write_text("\n".join(lines) + "\n")
    parse_document(path.read_text())
    with pytest.raises(TraceError, match="^step 0: member 1, the leader, has no position$"):
        read_document(str(path))


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


@pytest.mark.parametrize(
    "field, value",
    [
        ("horizon", 1.0),
        ("horizon", -5),
        ("horizon", True),
        ("seed", True),
        ("seed", "42"),
        ("adversary", []),
        ("strategy", {"b": 1, "a": 2}),
        ("strategy_hash", None),
    ],
)
def test_rejects_header_field_of_the_wrong_type(field, value):
    def edit(lines):
        head = json.loads(lines[0])
        head[field] = value
        lines[0] = json.dumps(head, separators=(",", ":"))

    msg = corrupt(edit)
    assert msg.startswith(f"line 1: {field} must be")


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
# Long enough for record shapes to repeat, so edited lines meet learned shapes.
FUZZ_LINES = render_document(walker_document(horizon=30)).splitlines()


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
    got = outcome(parse_document, text)
    assert got == outcome(reference_parse, text)
    if not isinstance(got, str):
        assert got[1] == text


def outcome(parse, text):
    """The parsed document and its re-render, or the TraceError text."""
    try:
        doc = parse(text)
    except TraceError as e:
        return str(e)
    return doc, render_document(doc)


ORACLE = walker_document(horizon=60)
ORACLE_LINES = render_document(ORACLE).splitlines()


def shape_of(rec):
    return rec.states, rec.outputs, rec.carried, len(rec.options)


def later_sightings():
    """Records whose shape was seen at least twice before them."""
    seen: dict = {}
    for rec in ORACLE.records[1:]:
        seen[shape_of(rec)] = seen.get(shape_of(rec), 0) + 1
        if seen[shape_of(rec)] > 2:
            yield rec


def coordinate_edits(x, y):
    return [f"-0,{y}", f"0{x},{y}", f"{x}.0,{y}", f" {x},{y}", f"{x},2", f"{'9' * 5000},{y}", f"{x + 7},{y}"]


def line_edits(rec):
    line = ORACLE_LINES[rec.t + 1]
    choice, last = rec.choice, rec.positions[5]
    state = rec.states[1]
    tail = f',"t":{rec.t}}}'
    for token in coordinate_edits(*choice):
        yield line.replace(f'"choice":[{choice.x},{choice.y}]', f'"choice":[{token}]')
    for token in coordinate_edits(*last):
        yield line.replace(f'"5":[{last.x},{last.y}]', f'"5":[{token}]')
    if len(rec.options) == 2:
        a, b = (f"[{v.x},{v.y}]" for v in rec.options)
        yield line.replace(f"{a},{b}", f"{b},{a}")
    yield line.replace(tail, f',"t":{rec.t + 1}}}')
    yield line + " "
    yield line + "\r"
    yield line.replace(f'"states":{{"1":"{state}"', f'"states":{{"1":"7{state[1:]}"')
    yield line.replace(f'"states":{{"1":"{state}"', f'"states":{{"1":"{state}[3,0]"')


def test_lines_of_learned_shapes_parse_like_the_json_only_parser():
    records = list(later_sightings())
    assert any(len(rec.options) == 2 for rec in records)
    picked = records[::6] + [rec for rec in records if len(rec.options) == 2][:2]
    for rec in picked:
        for edited in line_edits(rec):
            assert edited != ORACLE_LINES[rec.t + 1]
            lines = [*ORACLE_LINES[: rec.t + 1], edited, *ORACLE_LINES[rec.t + 2 :]]
            text = "\n".join(lines) + "\n"
            assert outcome(parse_document, text) == outcome(reference_parse, text), edited[:80]


def test_records_of_one_shape_share_its_objects():
    records = parse_document("\n".join(ORACLE_LINES) + "\n").records
    first: dict = {}
    for rec in records[1:]:
        proto = first.setdefault(shape_of(rec), rec)
        assert rec.states is proto.states and rec.outputs is proto.outputs and rec.carried is proto.carried
    assert len(first) < len(records) // 3


# The second spelling puts a coordinate pair inside a string, which a line's
# split cuts out like any other pair.
@pytest.mark.parametrize("spelling", ["{}@{}", "{}[{},0]"])
def test_document_whose_shapes_never_repeat_parses_like_the_json_only_parser(spelling):
    records = [rec._replace(states=rec.states.set(1, spelling.format(rec.states[1], rec.t))) for rec in ORACLE.records]
    doc = replace(ORACLE, trace=Trace(tuple(records)))
    text = render_document(doc)
    assert parse_document(text) == reference_parse(text) == doc


def test_document_whose_shapes_never_repeat_parses_in_the_memory_of_the_json_only_parser():
    # Each line is a new shape.  Keeping every once-seen shape's key string
    # peaked about 18 % above the JSON-only parser on this document, and a
    # list of the document's lines about 5 %; walking the text by newline
    # offsets peaks about 15 % below it.
    doc = walker_document(horizon=10_000)
    records = [rec._replace(states=rec.states.set(1, f"{rec.states[1]}@{rec.t}")) for rec in doc.records]
    text = render_document(replace(doc, trace=Trace(tuple(records))))
    del doc, records
    parsed, peaks = [], []
    for parse in (parse_document, reference_parse):
        tracemalloc.start()
        try:
            parsed.append(parse(text))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert parsed[0] == parsed[1]
    assert peaks[0] < peaks[1], peaks[0] / peaks[1]


@pytest.fixture(scope="module")
def long_document():
    doc = walker_document(horizon=5000)
    return doc, render_document(doc)


def traced_peak(call, *args) -> int:
    """The tracemalloc peak of one call, its result included."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_rendering_peaks_at_the_size_of_the_text(long_document):
    # A list of the lines and its join peaked at 3.2 text lengths; appending
    # each line in place peaks at about 1.01.
    doc, text = long_document
    peak = traced_peak(render_document, doc)
    assert peak < 1.2 * len(text), peak / len(text)


def test_rendering_stays_linear_under_a_profiler():
    # A profiler turns off CPython's in-place string append, so appending
    # line by line copied the text at every line: 20,000 steps took about
    # 15 times as long as 5,000.  Appending in batches takes about 5 times.
    docs = [walker_document(horizon=h) for h in (5000, 20_000)]
    seconds = []
    previous = sys.getprofile()
    sys.setprofile(lambda frame, event, arg: None)
    try:
        for doc in docs:
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                render_document(doc)
                best = min(best, time.perf_counter() - start)
            seconds.append(best)
    finally:
        sys.setprofile(previous)
    assert seconds[1] < 8 * seconds[0], seconds[1] / seconds[0]


def test_writing_never_holds_the_document(long_document, tmp_path):
    # Rendering the whole text first peaked at 3.2 text lengths; writing it
    # line by line peaks at about 0.02.
    doc, text = long_document
    path = tmp_path / "walk.trace.jsonl"
    peak = traced_peak(write_document, doc, str(path))
    assert peak < 0.1 * len(text), peak / len(text)


def test_parsing_holds_no_list_of_lines(long_document):
    # Both parsers keep the records; the JSON-only parser also holds every
    # line of text.split, as parse_document did when it peaked at 2.81 text
    # lengths against 2.69.  Walking the text by offsets peaks at about 1.62.
    _, text = long_document
    peak = traced_peak(parse_document, text)
    assert peak < traced_peak(reference_parse, text), peak / len(text)


STEPPED = walker_document(horizon=12).records


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_check_steps_accepts_exactly_what_the_reference_rule_derives(data):
    records = list(STEPPED)
    i = data.draw(st.integers(1, len(records) - 1), label="record")
    rec, at = records[i], records[i - 1].positions[1]
    near = sorted({at, *neighbors(at), *(w for v in neighbors(at) for w in neighbors(v))})
    members = sorted(rec.positions)
    field = data.draw(st.sampled_from(["outputs", "options", "carried", "positions", "ride"]), label="field")
    if field == "ride":  # a pebble outputs the leader's move and is carried
        m = data.draw(st.sampled_from(members[1:]))
        rec = rec._replace(outputs=rec.outputs.set(m, rec.outputs[1]), carried=rec.carried | {m})
    elif field == "outputs":
        m = data.draw(st.sampled_from(members))
        spelling = data.draw(st.sampled_from(["stay", "free", "set:2", "set:3", "set:4", "set:5", "set:3,4", "set:2,3,4,5"]))
        rec = rec._replace(outputs=rec.outputs.set(m, parse_output(spelling)))
    elif field == "options":
        options = tuple(sorted(data.draw(st.sets(st.sampled_from(near), min_size=1, max_size=3))))
        rec = rec._replace(options=options, choice=data.draw(st.sampled_from(options)))
    elif field == "carried":
        rec = rec._replace(carried=frozenset(data.draw(st.sets(st.sampled_from(members[1:])))))
    else:
        m = data.draw(st.sampled_from(members))
        rec = rec._replace(positions=rec.positions.set(m, data.draw(st.sampled_from(near))))
    records[i] = rec
    broken = [r.t for prev, r in zip(records, records[1:]) if not follows(prev, r)]
    if not broken:
        check_steps(Trace(tuple(records)))
        return
    with pytest.raises(TraceError, match=f"^step {broken[0]}: "):
        check_steps(Trace(tuple(records)))


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
