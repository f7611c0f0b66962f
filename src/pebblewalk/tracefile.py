"""Line-delimited trace documents.

One JSON object per line: a header, then one record per step.  Keys are
sorted and separators fixed, so identical runs serialize byte-identically.
Observations are not stored: they are a function of the previous record's
positions.  Reading a document file also checks that each record's
positions follow from the previous record's (`check_steps`): the leader
stands on the choice, each carried pebble rode with it from the leader's
previous vertex, and no one else moved.

A walker trace repeats a handful of record parts shifted along x, so both
directions work once per distinct part, with memos that live for one call:
rendering encodes each shared states, outputs and carried object once, and
parsing checks and converts each distinct vertex, member id, states map,
outputs map and carried list once.  Parsing accepts only the types,
spellings and line layout rendering writes: one `{...}` object per line with
its keys and member ids in sorted order, lines ended by a lone `\n`, and
exactly one after the last.  Decoding JSON erases what lies between and
inside its tokens, so whitespace between tokens, string escapes, `-0` and a
repeated key are the layout freedoms left unchecked.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from typing import Optional

from pebblewalk.collective import Collective, StepRecord, Trace
from pebblewalk.lattice import Vertex, neighbors, vertex
from pebblewalk.machine import format_output, parse_output
from pebblewalk.strategy_format import strategy_hash
from pebblewalk.util import FrozenMap, Memo

FORMAT_NAME = "pebblewalk-trace"
FORMAT_VERSION = 1


class TraceError(ValueError):
    """Malformed trace document."""


@dataclass(frozen=True)
class TraceHeader:
    strategy: str
    strategy_hash: str
    adversary: str
    seed: Optional[int]
    horizon: int
    format: str = FORMAT_NAME
    version: int = FORMAT_VERSION


@dataclass(frozen=True)
class TraceDocument:
    header: TraceHeader
    trace: Trace

    @property
    def records(self):
        return self.trace.records


def make_document(collective: Collective, adversary, horizon: int, trace: Trace) -> TraceDocument:
    header = TraceHeader(
        strategy=collective.name,
        strategy_hash=strategy_hash(collective),
        adversary=getattr(adversary, "name", str(adversary)),
        seed=getattr(adversary, "seed", None),
        horizon=horizon,
    )
    return TraceDocument(header, trace)


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def render_document(doc: TraceDocument) -> str:
    """One header line, then one line per record, keys sorted.

    Records of a translation class share their states, outputs and carried
    objects, so each shared object is encoded once per call; positions,
    options, choice and t are formatted for every record.
    """
    h = doc.header
    lines = [
        _dump(
            {
                "format": h.format,
                "version": h.version,
                "strategy": h.strategy,
                "strategy_hash": h.strategy_hash,
                "adversary": h.adversary,
                "seed": h.seed,
                "horizon": h.horizon,
            }
        )
    ]
    # id of a record's states, outputs or carried object -> its JSON, one memo per field
    states_json: dict[int, str] = {}
    outputs_json: dict[int, str] = {}
    carried_json: dict[int, str] = {}
    orders: dict[tuple, list] = {}  # member ids in map order -> the same, sorted as JSON keys

    def encode(memo: dict, obj, to_json) -> str:
        text = memo.get(id(obj))
        if text is None:
            text = memo[id(obj)] = _dump(to_json(obj))
        return text

    for rec in doc.trace.records:
        pos = rec.positions
        members = tuple(pos)
        order = orders.get(members)
        if order is None:
            order = orders[members] = sorted(members, key=str)
        positions = ",".join([f'"{m}":[{v.x},{v.y}]' for m, v in zip(order, map(pos.__getitem__, order))])
        states = encode(states_json, rec.states, _string_keys)
        if rec.t > 0:
            options = ",".join([f"[{v.x},{v.y}]" for v in rec.options])
            lines.append(
                f'{{"carried":{encode(carried_json, rec.carried, sorted)},'
                f'"choice":[{rec.choice.x},{rec.choice.y}],'
                f'"consulted":{"true" if rec.consulted else "false"},'
                f'"options":[{options}],'
                f'"outputs":{encode(outputs_json, rec.outputs, _output_spellings)},'
                f'"positions":{{{positions}}},"states":{states},"t":{rec.t}}}'
            )
        else:
            lines.append(f'{{"positions":{{{positions}}},"states":{states},"t":{rec.t}}}')
    return "\n".join(lines) + "\n"


def _string_keys(states) -> dict:
    return {str(m): s for m, s in states.items()}


def _output_spellings(outputs) -> dict:
    return {str(m): format_output(o) for m, o in outputs.items()}


class _Decoder:
    """The checks and conversions of one parse, each done once per distinct
    input.

    Memo keys are exact: a vertex is keyed by (x, y) only once both are
    ints, and a string map by its items only once every value is a str,
    since 1 == 1.0 == True hash alike.  A map's member set is checked when
    it is first seen; the member set of a document never changes.
    """

    def __init__(self):
        self.members: frozenset = frozenset()
        self.ids: dict[str, int] = {}
        self.vertices: dict[tuple[int, int], Vertex] = {}
        self.maps: dict[tuple, FrozenMap] = {}  # (what, *items) -> member map
        self.carried: dict[tuple, frozenset] = {}

    def member_id(self, key: str, line_no: int) -> int:
        m = self.ids.get(key)
        if m is None:
            # Only the spelling str(m) renders back: ASCII digits, no leading zero.
            if not (key.isascii() and key.isdigit() and (key[0] != "0" or key == "0")):
                raise TraceError(f"line {line_no}: bad member id {key!r}")
            try:
                m = self.ids[key] = int(key)
            except ValueError:  # too many digits to convert
                raise TraceError(f"line {line_no}: bad member id {key!r}") from None
        return m

    def vertex(self, pair, line_no: int) -> Vertex:
        if type(pair) is list and len(pair) == 2:
            x, y = pair
            if type(x) is int and type(y) is int:
                v = self.vertices.get((x, y))
                if v is None:
                    try:
                        v = self.vertices[x, y] = vertex(x, y)
                    except ValueError as e:
                        raise TraceError(f"line {line_no}: {e}") from None
                return v
        raise TraceError(f"line {line_no}: bad coordinate pair {pair!r}")

    def positions(self, obj, line_no: int) -> FrozenMap:
        if type(obj) is not dict:
            raise TraceError(f"line {line_no}: expected a member map, got {obj!r}")
        member_id, vertex = self.member_id, self.vertex
        out = FrozenMap({member_id(k, line_no): vertex(p, line_no) for k, p in obj.items()})
        _check_sorted(obj, line_no)
        return out

    def strings(self, obj, line_no: int, what: str, convert=None) -> FrozenMap:
        """A member map of strings, shared by every record that spells it
        alike; convert(value, line_no) runs once per distinct map."""
        if type(obj) is not dict:
            raise TraceError(f"line {line_no}: expected a member map, got {obj!r}")
        for value in obj.values():
            if type(value) is not str:
                raise TraceError(f"line {line_no}: {what} must be a string, got {value!r}")
        key = (what, *obj.items())
        out = self.maps.get(key)
        if out is None:
            out = FrozenMap(
                {
                    self.member_id(k, line_no): value if convert is None else convert(value, line_no)
                    for k, value in obj.items()
                }
            )
            if out.keys() != self.members:
                raise TraceError(f"line {line_no}: {what}s and positions disagree on members")
            _check_sorted(obj, line_no)
            self.maps[key] = out
        return out

    def carry_set(self, obj, line_no: int) -> frozenset:
        if type(obj) is list:
            for c in obj:
                if type(c) is not int:
                    break
            else:
                key = tuple(obj)
                out = self.carried.get(key)
                if out is None:
                    out = frozenset(key)
                    # Rendered sorted and without repeats; only pebbles ride along.
                    if list(key) != sorted(out) or not out <= self.members - {1}:
                        raise TraceError(f"line {line_no}: carried must list pebble ids in increasing order")
                    self.carried[key] = out
                return out
        raise TraceError(f"line {line_no}: carried must list member ids")


def _check_sorted(obj: dict, line_no: int) -> None:
    if list(obj) != sorted(obj):
        raise TraceError(f"line {line_no}: keys must be in sorted order")


def _row(raw: str, line_no: int) -> dict:
    """The JSON object on one line, which must be laid out as rendered."""
    if "\r" in raw:
        raise TraceError(f"line {line_no}: a line ends in \\n alone and holds no \\r")
    if raw[:1] != "{" or raw[-1:] != "}":
        raise TraceError(f"line {line_no}: a line holds one JSON object from its first character to its last")
    # json.loads raises ValueError on bad JSON or an int too long to convert,
    # and RecursionError on nesting too deep.
    try:
        row = json.loads(raw)
    except (ValueError, RecursionError) as e:
        raise TraceError(f"line {line_no}: {e}") from None
    _check_sorted(row, line_no)
    return row


def _output(spelling: str, line_no: int):
    try:
        out = parse_output(spelling)
    except ValueError as e:
        raise TraceError(f"line {line_no}: {e}") from None
    if format_output(out) != spelling:
        raise TraceError(f"line {line_no}: output {spelling!r} is not spelled as {format_output(out)!r}")
    return out


def parse_document(text: str) -> TraceDocument:
    """Rebuild a document, checking each record on its own.

    Every value must have the type and spelling the renderer writes, and
    every line its layout (see the module docstring).  Whether the records
    follow one another is `check_steps`'s question.  Each distinct vertex,
    member id, states map, outputs map and carried list is checked and
    converted once; records that spell a map alike share one FrozenMap.
    """
    lines = text.split("\n")
    if lines[-1] or len(lines) > 2 and not lines[-2]:
        last = text.rstrip("\n").count("\n") + 1
        raise TraceError(f"line {last}: a document ends in exactly one \\n after its last line")
    del lines[-1]
    if not lines:
        raise TraceError("empty document")
    head = _row(lines[0], 1)
    if head.get("format") != FORMAT_NAME:
        raise TraceError("line 1: missing trace header")
    version = head.get("version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise TraceError(f"line 1: unsupported version {version!r}")
    try:
        header = TraceHeader(
            strategy=head["strategy"],
            strategy_hash=head["strategy_hash"],
            adversary=head["adversary"],
            seed=head["seed"],
            horizon=head["horizon"],
        )
    except KeyError as e:
        raise TraceError(f"line 1: header missing field {e.args[0]!r}") from None

    decode = _Decoder()
    records: list[StepRecord] = []
    for line_no, raw in enumerate(lines[1:], start=2):
        row = _row(raw, line_no)
        if "t" not in row:
            raise TraceError(f"line {line_no}: not a step record")
        t = row["t"]
        if type(t) is not int or t != len(records):
            raise TraceError(f"line {line_no}: step index {t!r}, expected {len(records)}")
        positions = decode.positions(row.get("positions"), line_no)
        if t == 0:
            if not positions:
                raise TraceError(f"line {line_no}: a record needs at least one member")
            decode.members = frozenset(positions)
        elif positions.keys() != decode.members:
            raise TraceError(f"line {line_no}: member set changed mid-trace")
        states = decode.strings(row.get("states"), line_no, "state")
        if t == 0:
            records.append(StepRecord(t=0, positions=positions, states=states))
            continue
        try:
            outputs = decode.strings(row["outputs"], line_no, "output", _output)
            if type(row["options"]) is not list:
                raise TraceError(f"line {line_no}: options must list coordinate pairs")
            options = tuple([decode.vertex(p, line_no) for p in row["options"]])
            choice = decode.vertex(row["choice"], line_no)
            consulted = row["consulted"]
            carried = decode.carry_set(row["carried"], line_no)
        except KeyError as e:
            raise TraceError(f"line {line_no}: record missing field {e.args[0]!r}") from None
        if choice not in options:
            raise TraceError(f"line {line_no}: choice {choice} is not among the options")
        # Offsets from one leader vertex order like the vertices themselves.
        if len(options) > 1 and any(a >= b for a, b in zip(options, options[1:])):
            raise TraceError(f"line {line_no}: options must be distinct and sorted by offset")
        if type(consulted) is not bool:
            raise TraceError(f"line {line_no}: consulted must be a boolean")
        if consulted != (len(options) >= 2):
            raise TraceError(f"line {line_no}: consulted must be true exactly when there are two or more options")
        records.append(
            StepRecord(
                t=t,
                positions=positions,
                states=states,
                outputs=outputs,
                options=options,
                choice=choice,
                consulted=consulted,
                carried=carried,
            )
        )
    if not records:
        raise TraceError("document has a header but no records")
    return TraceDocument(header, Trace(tuple(records)))


def check_steps(trace: Trace) -> None:
    """Raise TraceError unless each record of a parsed trace follows from
    the one before.

    Measured against the previous record's positions: every option is the
    leader's previous vertex or a neighbour of it, the leader and every
    carried pebble stand on the choice, every carried pebble stood on the
    leader's previous vertex, and every other member stands where it stood.
    Whole maps are compared at once; a failure is then narrowed to a member.
    """
    near = Memo(lambda v: frozenset((v, *neighbors(v))))  # vertex -> it and its neighbours
    for prev, rec in zip(trace.records, trace.records[1:]):
        before, at, choice = prev.positions, prev.positions[1], rec.choice
        if not near[at].issuperset(rec.options):
            raise TraceError(f"step {rec.t}: options must be the leader's previous vertex {at} or its neighbours")
        if not dict.fromkeys(rec.carried, at).items() <= before.items():
            raise TraceError(f"step {rec.t}: a carried pebble did not stand on the leader's previous vertex {at}")
        expected = {**before, **dict.fromkeys((1, *rec.carried), choice)}
        if rec.positions.items() != expected.items():
            m = min(m for m in expected if rec.positions[m] != expected[m])
            if m == 1 or m in rec.carried:
                raise TraceError(f"step {rec.t}: member {m} is at {rec.positions[m]}, not on the choice {choice}")
            raise TraceError(f"step {rec.t}: member {m} moved from {before[m]} without the leader")


def write_document(doc: TraceDocument, path: str) -> None:
    """Atomic write: render to a sibling temp file, then rename over."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(render_document(doc))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_document(path: str) -> TraceDocument:
    """Parse a document file and check that its records follow one another."""
    with open(path) as fh:
        doc = parse_document(fh.read())
    check_steps(doc.trace)
    return doc
