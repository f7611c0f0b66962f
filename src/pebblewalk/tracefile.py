"""Line-delimited trace documents.

One JSON object per line: a header, then one record per step.  Keys are
sorted and separators fixed, so identical runs serialize byte-identically.
Observations are not stored: they are a function of the previous record's
positions.  Reading a document file also checks that each record follows
from the previous one by the step rule of `collective` (`check_steps`): its
outputs denote its options and carry set at the previous positions, each
carried pebble rode with the leader from the leader's previous vertex onto
the choice, and no one else moved.

No direction holds the document twice.  Rendering yields it line by line
(`_lines`): `write_document` writes the lines into its temp file, and
`render_document` appends them, in batches, to one string that CPython
grows in place.
Parsing walks the text by newline offsets and holds the text and its
records, not a list of lines.

A walker trace repeats a handful of record shapes shifted along x, so each
direction works once per shape, with memos that live for one call.
Rendering makes one `%` template per shape (its states, outputs and carried
objects, option count and member order) and fills in coordinates and t.
Parsing splits each line after record 0, up to its `,"t":` tail, at the
coordinate pairs spelled as rendering spells them (`_PAIR`); the literal
pieces between the pairs are the line's shape.  At a shape's second
sighting, the record the JSON path decoded and checked becomes the shape's,
if its line is byte for byte the renderer's and its pairs are exactly its
choice, options and positions in line order.  A later line of that shape
with tail `,"t":<expected t>}` is the same template filled with other pairs,
so its record is built from the pair tokens, shares the shape's states,
outputs and carried objects, and needs only the checks that depend on
coordinates (options distinct and sorted, choice among them).  Every other
line, or one failing those checks, goes through the JSON path, the one
checker, which raises every `TraceError` and converts each distinct vertex,
member id, states map, outputs map and carried list once.  `check_steps`
derives the options and carry set once per outputs map and layout relative
to the leader.  Parsing accepts only the types, spellings and line layout
rendering writes: one `{...}` object per line with its keys and member ids
in sorted order, lines ended by a lone `\n`, and exactly one after the
last.  Decoding JSON erases what lies between and inside its tokens, so
whitespace between tokens, string escapes, `-0` and a repeated key are the
layout freedoms left unchecked.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from dataclasses import dataclass
from itertools import chain, islice
from typing import Optional

from pebblewalk.collective import Collective, StepRecord, Trace, move_onto, step_options
from pebblewalk.lattice import Vertex, vertex
from pebblewalk.machine import format_output, parse_output
from pebblewalk.strategy_format import strategy_hash
from pebblewalk.util import FrozenMap, Memo

FORMAT_NAME = "pebblewalk-trace"
FORMAT_VERSION = 1
# A coordinate pair as the renderer spells it; the group is its "x,y" token.
_PAIR = re.compile(r"\[((?:0|-?[1-9][0-9]*),[01])\]")


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

    The lines of `_lines` are joined 128 at a time and each batch is
    appended to one string, which CPython grows in place while `text` holds
    the only reference to it, so rendering peaks at about the text's own
    size.  Only the specialised `+=` instruction grows a string in place,
    and a profiler or tracer (`sys.setprofile`, `sys.settrace`) turns it
    off: then each append copies the text, and batching makes that one copy
    per batch rather than one per line.
    """
    text = ""
    lines = _lines(doc)
    # No walrus loop: its condition, repeated after the append, keeps
    # CPython 3.11 from specialising `+=` to grow in place.
    while True:
        batch = "".join(islice(lines, 128))
        if not batch:
            return text
        text += batch


def _lines(doc: TraceDocument):
    """Each line of doc's document, with its `\\n`.

    Records of a translation class share their states, outputs and carried
    objects, so each record is written through a `%` template made once per
    call for its shape: those three objects, its option count and its
    member order.  Only coordinates and t are filled in per record.
    """
    h = doc.header
    header = {
        "format": h.format,
        "version": h.version,
        "strategy": h.strategy,
        "strategy_hash": h.strategy_hash,
        "adversary": h.adversary,
        "seed": h.seed,
        "horizon": h.horizon,
    }
    yield _dump(header) + "\n"
    # (member order, ids of states, outputs and carried, option count) -> (template ending in \n, order)
    shapes: dict[tuple, tuple[str, Optional[list[int]]]] = {}
    flat = chain.from_iterable
    for rec in doc.trace.records:
        pos = rec.positions
        members = tuple(pos)
        stepped = rec.t > 0
        key = (members, id(rec.states), id(rec.outputs), id(rec.carried), len(rec.options) if stepped else -1)
        shape = shapes.get(key)
        if shape is None:
            template, order = _template(rec, members, stepped)
            shape = shapes[key] = template + "\n", order
        template, order = shape
        vertices = pos.values() if order is None else [pos[m] for m in order]
        if stepped:
            yield template % (*rec.choice, *flat(rec.options), *flat(vertices), rec.t)
        else:
            yield template % (*flat(vertices), rec.t)


def _template(rec: StepRecord, members: tuple, stepped: bool) -> tuple[str, Optional[list[int]]]:
    """The `%` template of rec's line, with `%s` for each coordinate and t,
    and the member order its positions fill it in (None: the map's own)."""
    order = sorted(members, key=str)
    positions = ",".join([f'"{_escape(str(m))}":[%s,%s]' for m in order])
    states = _escape(_dump(_string_keys(rec.states)))
    tail = f'"positions":{{{positions}}},"states":{states},"t":%s}}'
    order = None if order == list(members) else order
    if not stepped:
        return "{" + tail, order
    carried = _escape(_dump(sorted(rec.carried)))
    consulted = "true" if rec.consulted else "false"
    options = ",".join(["[%s,%s]"] * len(rec.options))
    outputs = _escape(_dump(_output_spellings(rec.outputs)))
    head = f'{{"carried":{carried},"choice":[%s,%s],"consulted":{consulted},"options":[{options}],"outputs":{outputs},'
    return head + tail, order


def _escape(text: str) -> str:
    return text.replace("%", "%%")


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
    it is first seen; the member set of a document never changes.  In a
    document whose shapes never repeat every line comes here, and shared
    vertices keep the live objects, and so the garbage collector's work, down.
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
        member_id = self.member_id
        out = FrozenMap({member_id(k, line_no): self.vertex(p, line_no) for k, p in obj.items()})
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

    def record(self, raw: str, line_no: int, t: int) -> StepRecord:
        """The record on one line, decoded as JSON and checked; t is the
        expected step index."""
        row = _row(raw, line_no)
        if "t" not in row:
            raise TraceError(f"line {line_no}: not a step record")
        if type(row["t"]) is not int or row["t"] != t:
            raise TraceError(f"line {line_no}: step index {row['t']!r}, expected {t}")
        positions = self.positions(row.get("positions"), line_no)
        if t == 0:
            if not positions:
                raise TraceError(f"line {line_no}: a record needs at least one member")
            self.members = frozenset(positions)
        elif positions.keys() != self.members:
            raise TraceError(f"line {line_no}: member set changed mid-trace")
        states = self.strings(row.get("states"), line_no, "state")
        if t == 0:
            return StepRecord(t=0, positions=positions, states=states)
        try:
            outputs = self.strings(row["outputs"], line_no, "output", _output)
            if type(row["options"]) is not list:
                raise TraceError(f"line {line_no}: options must list coordinate pairs")
            options = tuple([self.vertex(p, line_no) for p in row["options"]])
            choice = self.vertex(row["choice"], line_no)
            consulted = row["consulted"]
            carried = self.carry_set(row["carried"], line_no)
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
        return StepRecord(t, positions, states, outputs, options, choice, carried)


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


def _learn(rec: StepRecord, raw: str, parts: list[str]) -> Optional[tuple]:
    """rec's shape, if raw is exactly the renderer's line for rec and its
    pair tokens are rec's choice, options and positions in line order."""
    members = tuple(rec.positions)
    template, order = _template(rec, members, True)
    coords = (rec.choice, *rec.options, *rec.positions.values())
    if order is None and parts[1::2] == [f"{x},{y}" for x, y in coords]:
        if template % (*chain.from_iterable(coords), rec.t) == raw:
            return rec, members, len(rec.options)
    return None


def _fill(shape: tuple, tokens: list[str], t: int, vertices: Memo) -> Optional[StepRecord]:
    """The record of a line in a learned shape, sharing the shape's states,
    outputs and carried objects; None if a coordinate check fails."""
    proto, members, n = shape
    try:
        vs = list(map(vertices.__getitem__, tokens))
    except ValueError:  # a token too long for int()
        return None
    choice, options = vs[0], tuple(vs[1 : n + 1])
    if choice not in options or n > 1 and any(a >= b for a, b in zip(options, options[1:])):
        return None
    return StepRecord(t, FrozenMap(zip(members, vs[n + 1 :])), proto.states, proto.outputs, options, choice, proto.carried)


def parse_document(text: str) -> TraceDocument:
    """Rebuild a document, checking each record on its own.

    Every value must have the type and spelling the renderer writes, and
    every line its layout (see the module docstring).  Whether the records
    follow one another is `check_steps`'s question.  A line of a learned
    shape is built from its coordinate tokens; any other line is decoded as
    JSON and checked by `_Decoder.record`, and records that spell a map alike
    share one FrozenMap.
    """
    if not text:
        raise TraceError("empty document")
    if text[-1] != "\n" or text.endswith("\n\n"):
        last = text.rstrip("\n").count("\n") + 1
        raise TraceError(f"line {last}: a document ends in exactly one \\n after its last line")
    lines = _split(text)
    head = _row(next(lines), 1)
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
    for field in ("strategy", "strategy_hash", "adversary"):
        if type(head[field]) is not str:
            raise TraceError(f"line 1: {field} must be a string, got {head[field]!r}")
    if header.seed is not None and type(header.seed) is not int:
        raise TraceError(f"line 1: seed must be null or an integer, got {header.seed!r}")
    if type(header.horizon) is not int or header.horizon < 0:
        raise TraceError(f"line 1: horizon must be a nonnegative integer, got {header.horizon!r}")

    decode = _Decoder()
    vertices = Memo(lambda token: Vertex(*map(int, token.split(","))))  # pair token -> Vertex
    # literal pieces between a line's pairs, joined by "\n" (which no line
    # holds) -> the learned (record, member order, option count), or None if
    # not learnable.  A key seen once is kept as its hash alone, so a document
    # of ever new shapes does not hold each one's key: a collision only moves
    # a learning attempt earlier, and `_learn` checks what it learns.
    shapes: dict[str, Optional[tuple]] = {}
    once: set[int] = set()
    records: list[StepRecord] = []
    for line_no, raw in enumerate(lines, start=2):
        t = len(records)
        tail = f',"t":{t}}}'
        seen = None
        if t and raw.endswith(tail):
            parts = _PAIR.split(raw[: -len(tail)])
            key = "\n".join(parts[::2])
            seen = shapes.get(key, 0)
            if type(seen) is tuple:
                rec = _fill(seen, parts[1::2], t, vertices)
                if rec is not None:
                    records.append(rec)
                    continue
        rec = decode.record(raw, line_no, t)
        records.append(rec)
        if seen == 0:
            if hash(key) in once:
                shapes[key] = _learn(rec, raw, parts)
            else:
                once.add(hash(key))
    if not records:
        raise TraceError("document has a header but no records")
    return TraceDocument(header, Trace(tuple(records)))


def _split(text: str):
    """The lines of a text that ends in `\\n`, one slice at a time, so that
    no list of them is held beside the text."""
    start, end = 0, len(text)
    while start < end:
        stop = text.find("\n", start)
        yield text[start:stop]
        start = stop + 1


def check_steps(trace: Trace) -> None:
    """Raise TraceError unless each record of a parsed trace follows from
    the one before by the step rule.

    At the previous record's positions, the recorded outputs must denote
    exactly the recorded options and carry set (`collective.step_options`),
    every carried pebble must have stood on the leader's previous vertex,
    and the positions must be the previous ones after the leader and the
    carry set moved onto the choice (`collective.move_onto`).  Whole maps
    are compared at once; a position failure is then narrowed to a member.
    The step rule is invariant under x-translation, so the denoted option
    offsets and carry set are derived once per outputs map and previous
    layout relative to the leader, in a memo local to the call.
    """
    if 1 not in trace.records[0].positions:
        raise TraceError("step 0: member 1, the leader, has no position")
    # (outputs, previous positions relative to the leader) -> (option offsets, carry set)
    denoted: dict[tuple, tuple[tuple[tuple[int, int], ...], frozenset]] = {}
    for prev, rec in zip(trace.records, trace.records[1:]):
        before, at, choice = prev.positions, prev.positions[1], rec.choice
        ax, ay = at
        key = (rec.outputs, tuple([(m, x - ax, y) for m, (x, y) in before.items()]))
        found = denoted.get(key)
        if found is None:
            options, carried = step_options(rec.outputs, before)
            found = denoted[key] = tuple([(x - ax, y) for x, y in options]), carried
        offsets, carried = found
        options = tuple([Vertex(ax + dx, y) for dx, y in offsets])
        if rec.options != options:
            raise TraceError(f"step {rec.t}: options must be {list(options)}, those the leader's output denotes at {at}")
        if rec.carried != carried:
            raise TraceError(f"step {rec.t}: carried must be {sorted(carried)}, the pebbles whose output is a move")
        if not dict.fromkeys(carried, at).items() <= before.items():
            raise TraceError(f"step {rec.t}: a carried pebble did not stand on the leader's previous vertex {at}")
        expected = move_onto(before, carried, choice)
        if rec.positions != expected:
            m = min(m for m in expected if rec.positions[m] != expected[m])
            if m == 1 or m in carried:
                raise TraceError(f"step {rec.t}: member {m} is at {rec.positions[m]}, not on the choice {choice}")
            raise TraceError(f"step {rec.t}: member {m} moved from {before[m]} without the leader")


def write_document(doc: TraceDocument, path: str) -> None:
    """Atomic write: render line by line into a sibling temp file, then
    rename it over the target; the document is never held whole."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(_lines(doc))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_document(path: str) -> TraceDocument:
    """Parse a UTF-8 document file and check that its records follow one another."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        raise TraceError(f"line {line}: byte 0x{data[e.start]:02x} is not UTF-8 ({e.reason})") from None
    del data  # the bytes would otherwise stay alive beside the text through the parse
    doc = parse_document(text)
    check_steps(doc.trace)
    return doc
