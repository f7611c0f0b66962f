"""Reference for the window checks: the pairwise scan `check_directed` and
`check_uniform` replaced.  It applies the diameter bound to every record,
then takes the position sums as (x, y) pairs and, at each moment, tries
every pair of offsets in turn.  Both checks must return the same verdict or
raise the same ValueError."""

from __future__ import annotations

from pebblewalk.collective import HOLDS, Trace, Verdict, diameter_of, position_sums


def reference_check_directed(trace: Trace, c1: int, c2: int) -> Verdict:
    return _check_windows(trace, c1, c2, _has_equal_displacement_pair)


def reference_check_uniform(trace: Trace, c1: int, c2: int) -> Verdict:
    return _check_windows(trace, c1, c2, _has_uniform_pair)


def _check_windows(trace: Trace, c1: int, c2: int, has_pair) -> Verdict:
    """The diameter bound, then has_pair(coords, t, c2) at each moment t, in
    order, whose window t+2*c2 fits in the trace."""
    if c1 < 0 or c2 < 1:
        raise ValueError("need c1 >= 0 and c2 >= 1")
    for t, rec in enumerate(trace.records):
        if diameter_of(rec.positions) > c1:
            return Verdict(False, "diameter", t)
    coords = position_sums(trace.records)
    for t in range(len(coords) - 2 * c2):
        if not has_pair(coords, t, c2):
            return Verdict(False, "displacement", t)
    return HOLDS


def _has_equal_displacement_pair(coords: list[tuple], t: int, c2: int) -> bool:
    bx, by = coords[t]
    for t1 in range(1, c2 + 1):
        ax, ay = coords[t + t1]
        dx = ax - bx
        dy = ay - by
        for t2 in range(1, c2 + 1):
            cx, cy = coords[t + t1 + t2]
            if cx - ax == dx and cy - ay == dy:
                return True
    return False


def _has_uniform_pair(coords: list[tuple], t: int, c2: int) -> bool:
    (ax, ay), (bx, by), (cx, cy) = coords[t + c2], coords[t], coords[t + 2 * c2]
    return (ax - bx, ay - by) == (cx - ax, cy - ay)
