"""Reference encoder for trace documents: one plain dict and one `json.dumps`
per row, with no sharing.  `render_document` must match it byte for byte.
Also a reference for `check_steps`: the step rule as docs/formats.md states
it, derived from the output spellings without `collective`."""

from __future__ import annotations

import json

from pebblewalk.lattice import neighbors
from pebblewalk.machine import MoveToFree, Stay, format_output


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
