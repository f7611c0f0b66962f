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
"""

from __future__ import annotations

import json

from pebblewalk.collective import ChoiceContext, apply_choice, initial_digest, plan_step
from pebblewalk.lattice import neighbors
from pebblewalk.machine import MoveToFree, Stay, format_output
from pebblewalk.render import member_letter


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
