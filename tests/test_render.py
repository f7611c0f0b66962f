"""ASCII panel layout: figure-matching formations, stacks, and windows."""

from __future__ import annotations

import pytest

from pebblewalk.adversary import FirstOption
from pebblewalk.collective import run
from pebblewalk.render import member_letter, render_records
from pebblewalk.strategies import build_free_walker
from pebblewalk.walker14 import build_walker


def walker_trace(horizon):
    return run(build_walker().initial_state(), FirstOption(), horizon)


def test_member_letters():
    assert [member_letter(m) for m in (2, 3, 4, 5, 6, 7)] == ["B", "C", "D", "H", "E", "F"]


def test_initial_panel_matches_marching_figure():
    panel = render_records([walker_trace(0).records[0]])
    assert panel.splitlines() == [
        "t=0 A1=(0,0) state=gather-rear",
        " 1 |   H",
        " 0 | B C D",
        "     ^",
    ]


def test_row_one_prints_above_row_zero():
    lines = render_records([walker_trace(0).records[0]]).splitlines()
    assert lines[1].startswith(" 1 |")
    assert lines[2].startswith(" 0 |")


def test_stacked_pebbles_share_a_cell():
    panel = render_records([walker_trace(1).records[1]])
    assert panel.splitlines() == [
        "t=1 A1=(1,0) state=gather-mid choice=(1,0)",
        " 1 | H",
        " 0 | BC D",
        "     ^",
    ]


def test_advanced_formation_matches_climb_figure():
    # after the 9-step branch's pebble handoff the original formation has
    # moved one column right: B C D in the row, H above the middle
    record = walker_trace(7).records[7]
    lines = render_records([record]).splitlines()
    assert lines[1] == " 1 |   H"
    assert lines[2] == " 0 | B C D"


def test_caret_tracks_the_leader():
    for rec in walker_trace(3).records:
        lines = render_records([rec]).splitlines()
        assert lines[3].endswith("^")
        assert lines[3].index("^") >= 5


def test_caret_column_alignment():
    # leader at x=2 in a width-1 panel anchored at 1: caret lands in col 7
    record = walker_trace(7).records[7]
    lines = render_records([record]).splitlines()
    caret = lines[3].index("^")
    leader_x = record.positions[1].x
    lo = min(v.x for v in record.positions.values())
    assert caret == 5 + (leader_x - lo) * 2


def test_window_clamps_columns():
    panel = render_records([walker_trace(0).records[0]], window=1)
    assert panel.splitlines() == [
        "t=0 A1=(0,0) state=gather-rear",
        " 1 |",
        " 0 | B",
        "     ^",
    ]


def test_window_must_be_positive():
    with pytest.raises(ValueError):
        render_records([walker_trace(0).records[0]], window=0)


def test_leaderless_grid_for_pebble_free_strategy():
    trace = run(build_free_walker().initial_state(), FirstOption(), 0)
    lines = render_records([trace.records[0]]).splitlines()
    assert lines[1] == " 1 |"
    assert lines[2] == " 0 |"
    assert lines[3] == "     ^"


def test_constant_trace_renders_identical_grids():
    from pebblewalk.machine import Automaton
    from pebblewalk.collective import Collective
    from pebblewalk.util import FrozenMap
    from pebblewalk.lattice import vertex

    sitter = Collective(
        name="sitter",
        leader=Automaton(initial="idle", rules=()),
        pebbles=FrozenMap({}),
        initial_positions=FrozenMap({1: vertex(0, 0)}),
    )
    trace = run(sitter.initial_state(), FirstOption(), 5)
    grids = {tuple(render_records([r]).splitlines()[1:]) for r in trace.records}
    assert len(grids) == 1


def test_render_records_joins_with_blank_lines():
    text = render_records(walker_trace(2).records)
    panels = text.split("\n\n")
    assert len(panels) == 3
    assert text.endswith("\n")
