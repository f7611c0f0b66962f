"""Line-delimited trace documents.

One JSON object per line: a header, then one record per step.  Keys are
sorted and separators fixed, so identical runs serialize byte-identically.
Observations are not stored; parsing recomputes them from the previous
record's positions, which keeps documents small and makes tampering with
positions visible as inconsistent observations downstream.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from typing import Optional

from pebblewalk.collective import Collective, StepRecord, Trace
from pebblewalk.lattice import Vertex, vertex
from pebblewalk.machine import format_output, observe, parse_output
from pebblewalk.strategy_format import strategy_hash
from pebblewalk.util import FrozenMap

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


def _vertex_pair(v: Vertex) -> list[int]:
    return [v.x, v.y]


def render_document(doc: TraceDocument) -> str:
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
    for rec in doc.trace.records:
        row = {
            "t": rec.t,
            "positions": {str(m): _vertex_pair(v) for m, v in rec.positions.items()},
            "states": {str(m): s for m, s in rec.states.items()},
        }
        if rec.t > 0:
            row["outputs"] = {str(m): format_output(o) for m, o in rec.outputs.items()}
            row["options"] = [_vertex_pair(v) for v in rec.options]
            row["choice"] = _vertex_pair(rec.choice)
            row["consulted"] = rec.consulted
            row["carried"] = sorted(rec.carried)
        lines.append(_dump(row))
    return "\n".join(lines) + "\n"


def _parsed_vertex(pair, line_no: int) -> Vertex:
    if (
        not isinstance(pair, list)
        or len(pair) != 2
        or not all(isinstance(c, int) for c in pair)
    ):
        raise TraceError(f"line {line_no}: bad coordinate pair {pair!r}")
    try:
        return vertex(pair[0], pair[1])
    except ValueError as e:
        raise TraceError(f"line {line_no}: {e}") from None


def _member_map(obj, line_no: int, convert):
    if not isinstance(obj, dict):
        raise TraceError(f"line {line_no}: expected a member map, got {obj!r}")
    out = {}
    for key, value in obj.items():
        if not key.isdigit():
            raise TraceError(f"line {line_no}: bad member id {key!r}")
        out[int(key)] = convert(value)
    return FrozenMap(out)


def parse_document(text: str) -> TraceDocument:
    """Rebuild a document; observations are recomputed, never trusted."""
    lines = text.splitlines()
    if not lines:
        raise TraceError("empty document")
    try:
        head = json.loads(lines[0])
    except json.JSONDecodeError as e:
        raise TraceError(f"line 1: {e}") from None
    if not isinstance(head, dict) or head.get("format") != FORMAT_NAME:
        raise TraceError("line 1: missing trace header")
    if head.get("version") != FORMAT_VERSION:
        raise TraceError(f"line 1: unsupported version {head.get('version')!r}")
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

    records: list[StepRecord] = []
    for line_no, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        try:
            row = json.loads(raw)
        except json.JSONDecodeError as e:
            raise TraceError(f"line {line_no}: {e}") from None
        if not isinstance(row, dict) or "t" not in row:
            raise TraceError(f"line {line_no}: not a step record")
        t = row["t"]
        if t != len(records):
            raise TraceError(f"line {line_no}: step index {t}, expected {len(records)}")
        positions = _member_map(
            row.get("positions"), line_no, lambda p: _parsed_vertex(p, line_no)
        )
        states = _member_map(row.get("states"), line_no, str)
        if set(states) != set(positions):
            raise TraceError(f"line {line_no}: states and positions disagree on members")
        if t == 0:
            records.append(StepRecord(t=0, positions=positions, states=states))
            continue
        prev = records[-1]
        if set(positions) != set(prev.positions):
            raise TraceError(f"line {line_no}: member set changed mid-trace")
        try:
            outputs = _member_map(
                row["outputs"], line_no, lambda s: _parse_output_checked(s, line_no)
            )
            if not isinstance(row["options"], list):
                raise TraceError(f"line {line_no}: options must list coordinate pairs")
            options = tuple(_parsed_vertex(p, line_no) for p in row["options"])
            choice = _parsed_vertex(row["choice"], line_no)
            consulted = row["consulted"]
            carried = row["carried"]
        except KeyError as e:
            raise TraceError(f"line {line_no}: record missing field {e.args[0]!r}") from None
        if not isinstance(consulted, bool):
            raise TraceError(f"line {line_no}: consulted must be a boolean")
        if not isinstance(carried, list) or not all(isinstance(c, int) for c in carried):
            raise TraceError(f"line {line_no}: carried must list member ids")
        observations = FrozenMap({m: observe(prev.positions, m) for m in positions})
        records.append(
            StepRecord(
                t=t,
                positions=positions,
                states=states,
                observations=observations,
                outputs=outputs,
                options=options,
                choice=choice,
                consulted=consulted,
                carried=frozenset(carried),
            )
        )
    if not records:
        raise TraceError("document has a header but no records")
    return TraceDocument(header, Trace(tuple(records)))


def _parse_output_checked(s, line_no: int):
    if not isinstance(s, str):
        raise TraceError(f"line {line_no}: output must be a string, got {s!r}")
    try:
        return parse_output(s)
    except ValueError as e:
        raise TraceError(f"line {line_no}: {e}") from None


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
    with open(path) as fh:
        return parse_document(fh.read())
