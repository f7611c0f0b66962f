"""ASCII panels: one two-row picture of the formation per trace record.

The leader is not drawn in the grid; its cell is marked by a caret under the
bottom row and its position and state appear in the panel header, so the
grid shows the pebble formation the way the figures draw it.  Pebbles 2..5
print as B, C, D, H; later ids continue through the remaining alphabet.
Co-located pebbles stack into one cell, and every cell of a panel is padded
to the widest stack so columns stay aligned.

A grid depends only on the layout up to x-translation, and a walker trace
repeats a handful of layouts, so `render_records` draws each layout's grid
(row 1, row 0 and the caret line) once per call, keyed by every member's
(id, x - least x, y); only the header line is formatted for every record.

A panel spans every column from the least to the greatest x, or the first
`window` of them, and one wider than MAX_WIDTH columns is refused rather
than drawn.
"""

from __future__ import annotations

from typing import Iterable, Optional

from pebblewalk.collective import StepRecord

_FIXED = {2: "B", 3: "C", 4: "D", 5: "H"}
_SPARE = [c for c in "EFGIJKLMNOPQRSTUVWXYZ"]
MAX_WIDTH = 1000  # columns a panel may span


def member_letter(member: int) -> str:
    if member in _FIXED:
        return _FIXED[member]
    index = member - 6
    if 0 <= index < len(_SPARE):
        return _SPARE[index]
    return "?"


def render_records(records: Iterable[StepRecord], window: Optional[int] = None) -> str:
    """Panels for every record, separated by blank lines.  A panel is a
    header line, the row-1 line, the row-0 line and the caret line."""
    grids: dict[tuple, str] = {}  # layout -> its grid lines and a final newline, for this call only
    panels = []
    for record in records:
        header = _header(record)
        layout = _layout(record.positions)
        grid = grids.get(layout)
        if grid is None:
            grid = grids[layout] = _draw(layout, window) + "\n"
        panels.append(header + grid)
    # Each panel ends in a newline, so joining on one more leaves a blank line.
    return "\n".join(panels) or "\n"


def _header(record: StepRecord) -> str:
    x, y = record.positions[1]
    header = f"t={record.t} A1=({x},{y}) state={record.states[1]}"
    if record.choice is not None:
        header += f" choice=({record.choice.x},{record.choice.y})"
    return header


def _layout(positions) -> tuple[tuple[int, int, int], ...]:
    """Every member as (id, x - least x, y), in the mapping's order."""
    lo = min([v.x for v in positions.values()])
    return tuple([(m, x - lo, y) for m, (x, y) in positions.items()])


def _draw(layout: tuple[tuple[int, int, int], ...], window: Optional[int]) -> str:
    """The grid lines of a layout at least x 0, each after a newline."""
    hi = max(x for _, x, _ in layout)
    if window is not None:
        if window < 1:
            raise ValueError("window must be at least 1")
        hi = min(hi, window - 1)
    if hi >= MAX_WIDTH:
        hint = "pass --window" if window is None else f"pass --window {MAX_WIDTH} or less"
        raise ValueError(f"a panel would span {hi + 1} columns, more than {MAX_WIDTH}; {hint}")

    cells: dict[tuple[int, int], str] = {}
    leader = None
    for m, x, y in sorted(layout):
        if m == 1:
            leader = x
        elif x <= hi:
            cells[(x, y)] = cells.get((x, y), "") + member_letter(m)
    width = max([len(s) for s in cells.values()] + [1])

    def row(y: int) -> str:
        body = " ".join(cells.get((x, y), "").ljust(width) for x in range(hi + 1))
        return f" {y} | {body}".rstrip()

    lines = ["", row(1), row(0)]
    if leader <= hi:
        lines.append(" " * (5 + leader * (width + 1)) + "^")
    return "\n".join(lines)
