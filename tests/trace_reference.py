"""References for the trace codec, the panels and the step rule.

- `reference_render`: one plain dict and one `json.dumps` per row, with no
  sharing.  `render_document` must match it byte for byte.
- `field_render`: the field-by-field encoder `render_document` replaced,
  which formats each record's fields with f-strings and encodes each shared
  states, outputs and carried object once.
- `reference_panel` and `reference_records`: the per-record panel drawing
  `render.render_records` replaced, which lays out every record's grid.
- `follows`: the step rule as docs/formats.md states it, derived from the
  output spellings without `collective`, a reference for `check_steps`.
- `step`: one step planned afresh from its configuration, with no quotient
  and no reuse; `collective.run` must match a loop of it.
- `reference_parse`: the JSON-only parser `parse_document` replaced, which
  decodes every line with `json.loads` and checks it field by field.
  `parse_document` must return equal records or raise the same message.
"""

from __future__ import annotations

import json

from pebblewalk.collective import ChoiceContext, StepRecord, Trace, apply_choice, initial_digest, plan_step
from pebblewalk.lattice import Vertex, neighbors, vertex
from pebblewalk.machine import MoveToFree, Stay, format_output, parse_output
from pebblewalk.render import member_letter
from pebblewalk.tracefile import FORMAT_NAME, FORMAT_VERSION, TraceDocument, TraceError, TraceHeader
from pebblewalk.util import FrozenMap


def dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _pair(v) -> list:
    return [v.x, v.y]


def reference_render(doc) -> str:
    h = doc.header
    lines = [
        dump(
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
    for rec in doc.trace.records:
        row = {
            "t": rec.t,
            "positions": {str(m): _pair(v) for m, v in rec.positions.items()},
            "states": {str(m): s for m, s in rec.states.items()},
        }
        if rec.t > 0:
            row["outputs"] = {str(m): format_output(o) for m, o in rec.outputs.items()}
            row["options"] = [_pair(v) for v in rec.options]
            row["choice"] = _pair(rec.choice)
            row["consulted"] = rec.consulted
            row["carried"] = sorted(rec.carried)
        lines.append(dump(row))
    return "\n".join(lines) + "\n"


def field_render(doc) -> str:
    h = doc.header
    lines = [
        dump(
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
    states_json: dict = {}
    outputs_json: dict = {}
    carried_json: dict = {}
    orders: dict = {}  # member ids in map order -> the same, sorted as JSON keys

    def encode(memo: dict, obj, to_json) -> str:
        text = memo.get(id(obj))
        if text is None:
            text = memo[id(obj)] = dump(to_json(obj))
        return text

    for rec in doc.trace.records:
        pos = rec.positions
        members = tuple(pos)
        order = orders.get(members)
        if order is None:
            order = orders[members] = sorted(members, key=str)
        positions = ",".join([f'"{m}":[{v.x},{v.y}]' for m, v in zip(order, map(pos.__getitem__, order))])
        states = encode(states_json, rec.states, lambda s: {str(m): v for m, v in s.items()})
        if rec.t > 0:
            options = ",".join([f"[{v.x},{v.y}]" for v in rec.options])
            outputs = encode(outputs_json, rec.outputs, lambda o: {str(m): format_output(v) for m, v in o.items()})
            lines.append(
                f'{{"carried":{encode(carried_json, rec.carried, sorted)},'
                f'"choice":[{rec.choice.x},{rec.choice.y}],'
                f'"consulted":{"true" if rec.consulted else "false"},'
                f'"options":[{options}],'
                f'"outputs":{outputs},'
                f'"positions":{{{positions}}},"states":{states},"t":{rec.t}}}'
            )
        else:
            lines.append(f'{{"positions":{{{positions}}},"states":{states},"t":{rec.t}}}')
    return "\n".join(lines) + "\n"


def reference_panel(record, window=None) -> str:
    positions = record.positions
    leader = positions[1]
    lo = min(v.x for v in positions.values())
    hi = max(v.x for v in positions.values())
    if window is not None:
        if window < 1:
            raise ValueError("window must be at least 1")
        hi = min(hi, lo + window - 1)

    cells: dict = {}
    for m in sorted(positions):
        if m == 1:
            continue
        v = positions[m]
        if lo <= v.x <= hi:
            cells[(v.x, v.y)] = cells.get((v.x, v.y), "") + member_letter(m)
    width = max([len(s) for s in cells.values()] + [1])

    header = f"t={record.t} A1=({leader.x},{leader.y}) state={record.states[1]}"
    if record.choice is not None:
        header += f" choice=({record.choice.x},{record.choice.y})"

    def row(y: int) -> str:
        body = " ".join(cells.get((x, y), "").ljust(width) for x in range(lo, hi + 1))
        return f" {y} | {body}".rstrip()

    lines = [header, row(1), row(0)]
    if lo <= leader.x <= hi:
        offset = 5 + (leader.x - lo) * (width + 1)
        lines.append(" " * offset + "^")
    return "\n".join(lines)


def reference_records(records, window=None) -> str:
    return "\n\n".join(reference_panel(r, window) for r in records) + "\n"


def assert_one_object_per_value(records) -> None:
    """Records whose states, outputs or carried sets are equal share one object."""
    for field in ("states", "outputs", "carried"):
        values = [getattr(rec, field) for rec in records]
        assert len({id(v) for v in values}) == len(set(values)), field


def follows(prev, rec) -> bool:
    """Whether record rec follows record prev under the step rule."""
    before, at = prev.positions, prev.positions[1]

    def crowd(v):
        return {m for m, p in before.items() if p == v}

    out = rec.outputs[1]
    if isinstance(out, Stay):
        options = [at]
    elif isinstance(out, MoveToFree):
        options = [n for n in neighbors(at) if not crowd(n)]
    else:
        options = [n for n in neighbors(at) if crowd(n) and crowd(n) <= out.target]
    movers = {m for m, o in rec.outputs.items() if m != 1 and not isinstance(o, Stay)}
    return (
        rec.options == tuple(sorted(options))
        and rec.carried == movers
        and all(before[m] == at for m in movers)
        and all(rec.positions[m] == (rec.choice if m == 1 or m in movers else v) for m, v in before.items())
    )


def step(state, adversary, digest=None):
    """Advance one synchronous step under the adversary, which sees the
    history digest (the initial one when none is given)."""
    if digest is None:
        digest = initial_digest(state.collective)
    plan = plan_step(state)
    idx = 0
    if plan.consulted:
        idx = adversary.choose(plan.options, ChoiceContext(state.step_index, plan.at, state.positions, digest))
    return apply_choice(state, plan, plan.options[idx])


class _Decoder:
    """The checks and conversions of one parse, each done once per distinct
    input.

    Memo keys are exact: a vertex is keyed by (x, y) only once both are
    ints, and a string map by its items only once every value is a str,
    since 1 == 1.0 == True hash alike.  A map's member set is checked when
    it is first seen; the member set of a document never changes.  A
    positions key order is checked (member ids, sorted) the first time it
    is seen; later positions maps in that order only convert their vertices.
    """

    def __init__(self):
        self.members: frozenset = frozenset()
        self.ids: dict[str, int] = {}
        self.orders: dict[tuple[str, ...], tuple[int, ...]] = {}  # positions key order -> member ids
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
        vertex = self.vertex
        keys = tuple(obj)
        members = self.orders.get(keys)
        if members is not None:  # member ids and order already checked
            return FrozenMap(zip(members, [vertex(p, line_no) for p in obj.values()]))
        member_id = self.member_id
        out = FrozenMap({member_id(k, line_no): vertex(p, line_no) for k, p in obj.items()})
        _check_sorted(obj, line_no)
        self.orders[keys] = tuple(out)
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


def reference_parse(text: str) -> TraceDocument:
    """Rebuild a document, checking each record on its own.

    Every value must have the type and spelling the renderer writes, and
    every line its layout (see the module docstring).  Whether the records
    follow one another is `check_steps`'s question.  Each distinct vertex,
    member id, positions key order, states map, outputs map and carried list
    is checked and converted once; records that spell a map alike share one
    FrozenMap.
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
    for field in ("strategy", "strategy_hash", "adversary"):
        if type(head[field]) is not str:
            raise TraceError(f"line 1: {field} must be a string, got {head[field]!r}")
    if header.seed is not None and type(header.seed) is not int:
        raise TraceError(f"line 1: seed must be null or an integer, got {header.seed!r}")
    if type(header.horizon) is not int or header.horizon < 0:
        raise TraceError(f"line 1: horizon must be a nonnegative integer, got {header.horizon!r}")

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
                carried=carried,
            )
        )
    if not records:
        raise TraceError("document has a header but no records")
    return TraceDocument(header, Trace(tuple(records)))
