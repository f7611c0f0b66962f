"""End-to-end command-line behavior and the exit-code contract."""

from __future__ import annotations

import json
import re

import pytest

from pebblewalk.adversary import Oscillator, ScriptedChoices
from pebblewalk.cli import main, parse_adversary
from pebblewalk.collective import run
from pebblewalk.strategies import build_free_walker
from pebblewalk.strategy_format import emit_strategy
from pebblewalk.tracefile import make_document, read_document, render_document, write_document
from pebblewalk.walker14 import build_walker

TWO_STATE_PEBBLE = """\
format: pebblewalk-strategy 1
strategy twostep
members 2
leader initial s
rule s: * | * -> stay then s
pebble 2 flip when {1} | * -> stay then flop
place 1 (0,0)
place 2 (0,0)
"""


def simulate(tmp_path, *extra, strategy="walker14", horizon=50):
    out = tmp_path / "out.trace.jsonl"
    code = main(
        ["simulate", strategy, "--horizon", str(horizon), "--output", str(out), *extra]
    )
    return code, out


def test_simulate_writes_full_trace(tmp_path, capsys):
    code, out = simulate(tmp_path, "--adversary", "seeded:42", horizon=1000)
    assert code == 0
    doc = read_document(str(out))
    assert len(doc.records) == 1001
    assert doc.header.adversary == "seeded:42"
    assert "1001 records" in capsys.readouterr().out


def test_simulate_horizon_zero(tmp_path):
    code, out = simulate(tmp_path, horizon=0)
    assert code == 0
    assert len(read_document(str(out)).records) == 1


def test_simulate_reproducible_bytes(tmp_path):
    _, a = simulate(tmp_path, "--adversary", "seeded:5")
    first = a.read_bytes()
    _, b = simulate(tmp_path, "--adversary", "seeded:5")
    assert b.read_bytes() == first


def test_simulate_reports_rate_on_stderr_only(tmp_path, capsys):
    code, out = simulate(tmp_path, "--adversary", "seeded:5", horizon=300)
    assert code == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    match = re.fullmatch(r"simulate: 300 steps, (\d+) steps/s, (\d+) consulted", err[0])
    assert match is not None
    col, adversary = build_walker(), parse_adversary("seeded:5")
    trace = run(col.initial_state(), adversary, 300)
    assert int(match.group(2)) == sum(r.consulted for r in trace.records[1:]) > 0
    assert out.read_text() == render_document(make_document(col, adversary, 300, trace))


def test_simulate_rejects_negative_horizon(tmp_path, capsys):
    code, out = simulate(tmp_path, horizon=-1)
    assert code == 2
    assert "simulate: horizon must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_strategy_file(tmp_path):
    path = tmp_path / "walker.pw"
    path.write_text(emit_strategy(build_walker()))
    code, out = simulate(tmp_path, strategy=str(path), horizon=9)
    assert code == 0
    assert read_document(str(out)).header.strategy == "walker14"


def test_simulate_rejects_two_state_pebble(tmp_path, capsys):
    path = tmp_path / "twostep.pw"
    path.write_text(TWO_STATE_PEBBLE)
    code, _ = simulate(tmp_path, strategy=str(path))
    assert code == 2
    assert "states" in capsys.readouterr().err


def test_simulate_rejects_unknown_strategy(tmp_path, capsys):
    code, _ = simulate(tmp_path, strategy="no-such-thing")
    assert code == 2
    assert "neither a builtin" in capsys.readouterr().err


# Seeds are an optional minus and 1-18 ASCII digits, like strategy numbers.
BAD_SEEDED = ("seeded:", "seeded:٣", "seeded:²", "seeded:--5", "seeded:" + "1" * 19, "seeded:" + "1" * 5000)


def test_simulate_rejects_bad_adversary(tmp_path, capsys):
    for spec in ("psychic", *BAD_SEEDED):
        code, _ = simulate(tmp_path, "--adversary", spec)
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown adversary" in err and "use first, last, oscillator, or seeded:<n>" in err


def test_simulate_runtime_fault_exits_three(tmp_path, capsys):
    bad = """\
format: pebblewalk-strategy 1
strategy boxed
members 1
leader initial s
rule s: * | * -> set:1 then s
place 1 (0,0)
"""
    path = tmp_path / "boxed.pw"
    path.write_text(bad)
    code, out = simulate(tmp_path, strategy=str(path))
    assert code == 3
    err = capsys.readouterr().err
    assert "partial trace" in err
    assert len(read_document(str(out)).records) >= 1


def test_simulate_default_output_honors_env(tmp_path, monkeypatch):
    monkeypatch.setenv("PEBBLEWALK_OUT", str(tmp_path))
    code = main(["simulate", "walker14", "--horizon", "3", "--adversary", "last"])
    assert code == 0
    written = list(tmp_path.glob("walker14-last-3.trace.jsonl"))
    assert len(written) == 1


def test_parse_adversary_specs():
    assert parse_adversary("first").name == "first"
    assert parse_adversary("last").name == "last"
    assert parse_adversary("seeded:7").seed == 7
    assert parse_adversary("oscillator").name == "oscillator"
    assert parse_adversary("seeded:42").name == "seeded:42"
    assert parse_adversary("seeded:-7").seed == -7
    assert parse_adversary("seeded:" + "9" * 18).seed == 10**18 - 1
    for spec in BAD_SEEDED:
        with pytest.raises(ValueError, match="unknown adversary"):
            parse_adversary(spec)


def test_check_walker_holds(tmp_path, capsys):
    _, out = simulate(tmp_path, horizon=500)
    assert main(["check", str(out), "--c1", "2", "--c2", "22"]) == 0
    assert "holds-on-prefix" in capsys.readouterr().out


def test_check_diameter_violation_at_step_zero(tmp_path, capsys):
    _, out = simulate(tmp_path, horizon=10)
    assert main(["check", str(out), "--c1", "1", "--c2", "22"]) == 1
    text = capsys.readouterr().out
    assert "violated" in text and "diameter" in text and "t=0" in text


def test_check_stall_after_advance_violated(tmp_path, capsys):
    # two columns of progress then a vertical bounce: no window recovers it
    col = build_free_walker()
    script = [(1, 0), (1, 0)] + [(0, 1), (0, -1)] * 10
    trace = run(col.initial_state(), ScriptedChoices(script), 22)
    path = tmp_path / "stall.trace.jsonl"
    write_document(make_document(col, ScriptedChoices([]), 22, trace), str(path))
    assert main(["check", str(path), "--c1", "1", "--c2", "4"]) == 1
    assert "displacement" in capsys.readouterr().out


def test_check_pure_oscillation_window_boundary(tmp_path):
    col = build_free_walker()
    trace = run(col.initial_state(), Oscillator(), 24)
    path = tmp_path / "bounce.trace.jsonl"
    write_document(make_document(col, Oscillator(), 24, trace), str(path))
    assert main(["check", str(path), "--c1", "1", "--c2", "1"]) == 1
    assert main(["check", str(path), "--c1", "1", "--c2", "2"]) == 0


def test_check_uniform_flag(tmp_path):
    _, out = simulate(tmp_path, "--adversary", "first", horizon=400)
    assert main(["check", str(out), "--c1", "2", "--c2", "9", "--uniform"]) == 0
    _, out2 = simulate(tmp_path, "--adversary", "seeded:0", horizon=400)
    assert main(["check", str(out2), "--c1", "2", "--c2", "9", "--uniform"]) == 1


def test_check_rejects_malformed_trace(tmp_path, capsys):
    path = tmp_path / "garbage.trace.jsonl"
    path.write_text("not json\n")
    assert main(["check", str(path), "--c1", "1", "--c2", "1"]) == 2


def test_check_and_render_reject_mistyped_record(tmp_path):
    _, out = simulate(tmp_path, horizon=3)
    lines = out.read_text().splitlines()
    row = json.loads(lines[2])
    row["carried"] = 5
    lines[2] = json.dumps(row)
    out.write_text("\n".join(lines) + "\n")
    assert main(["check", str(out), "--c1", "2", "--c2", "1"]) == 2
    assert main(["render", str(out)]) == 2


def test_check_rejects_options_out_of_order(tmp_path, capsys):
    _, out = simulate(tmp_path, horizon=3)
    lines = out.read_text().splitlines()
    row = json.loads(lines[2])
    row["options"] = [row["choice"], [0, 1]]
    row["consulted"] = True
    lines[2] = json.dumps(row)
    out.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["check", str(out), "--c1", "2", "--c2", "1"]) == 2
    assert "sorted by offset" in capsys.readouterr().err


def test_check_and_render_reject_non_ascii_member_id(tmp_path, capsys):
    _, out = simulate(tmp_path, horizon=3)
    out.write_text(out.read_text().replace('"2":', '"\\u00b2":'))
    capsys.readouterr()
    assert main(["check", str(out), "--c1", "2", "--c2", "1"]) == 2
    assert main(["render", str(out)]) == 2
    assert "bad member id '²'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "old, new",
    [("members 2", "members ²"), ("then s\n", "then s priority ²\n")],
    ids=["members", "priority"],
)
def test_defeat_rejects_non_ascii_digits(tmp_path, capsys, old, new):
    path = tmp_path / "twostep.strategy"
    path.write_text(TWO_STATE_PEBBLE.replace(old, new, 1))
    assert main(["defeat", str(path)]) == 2
    assert "²" in capsys.readouterr().err


def test_defeat_rejects_overlong_member_count(tmp_path, capsys):
    path = tmp_path / "twostep.strategy"
    path.write_text(TWO_STATE_PEBBLE.replace("members 2", "members " + "9" * 5000, 1))
    assert main(["defeat", str(path)]) == 2
    assert "member count has more than 18 digits" in capsys.readouterr().err


def test_check_rejects_bad_window(tmp_path):
    _, out = simulate(tmp_path, horizon=5)
    assert main(["check", str(out), "--c1", "2", "--c2", "0"]) == 2


def check_leader_off_choice(tmp_path):
    _, out = simulate(tmp_path, horizon=3)
    lines = out.read_text().splitlines()
    row = json.loads(lines[2])
    row["positions"]["1"] = json.loads(lines[1])["positions"]["1"]
    lines[2] = json.dumps(row, sort_keys=True, separators=(",", ":"))
    out.write_text("\n".join(lines) + "\n")
    return ["check", str(out), "--c1", "2", "--c2", "1"]


def defeat_depth_zero(tmp_path):
    return ["defeat", "baseline-10", "--max-depth", "0"]


def render_window_zero(tmp_path):
    return ["render", str(simulate(tmp_path, horizon=2)[1]), "--window", "0"]


@pytest.mark.parametrize(
    "argv, fragment",
    [
        pytest.param(check_leader_off_choice, "not on the choice", id="check-leader-off-choice"),
        pytest.param(defeat_depth_zero, "max_depth must be >= 1", id="defeat-depth-0"),
        pytest.param(render_window_zero, "window must be at least 1", id="render-window-0"),
    ],
)
def test_bad_input_exits_two(tmp_path, capsys, argv, fragment):
    argv = argv(tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    assert fragment in capsys.readouterr().err


def test_schemas_list_counts(capsys):
    assert main(["schemas", "2", "--emit", "list"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 5
    assert main(["schemas", "3", "--emit", "list"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 11


def test_schemas_classes_sizes(capsys):
    assert main(["schemas", "3", "--emit", "classes"]) == 0
    lines = capsys.readouterr().out.splitlines()
    sizes = sorted(int(line.split(":")[0].removeprefix("size=")) for line in lines)
    assert sizes == [1, 2, 2, 2, 4]


def test_schemas_graph_has_solid_transfer_edge(capsys):
    assert main(["schemas", "3", "--emit", "graph"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    solid = [line for line in out.splitlines() if "style=solid" in line]
    assert any(line.count("(") >= 5 for line in solid)


def test_schemas_rejects_unsupported_count(capsys):
    assert main(["schemas", "4", "--emit", "list"]) == 2


def test_defeat_baseline_eleven(capsys):
    assert main(["defeat", "baseline-11"]) == 0
    out = capsys.readouterr().out
    assert "defeated baseline-11" in out
    assert "cycle" in out


# The full defeat stdout of each baseline, as the engine prints it: a change
# to stepping or to the lasso search must leave these bytes alone.
DEFEAT_STDOUT = {
    "baseline-10": (
        "defeated baseline-10: lasso with 1-step prefix, 2-step cycle, net displacement (0,0), confinement radius 1\n"
        "prefix choices: [(0, 1)]\n"
        "cycle choices:  [(1, 0), (-1, 0)]\n"
    ),
    "baseline-11": (
        "defeated baseline-11: lasso with 1-step prefix, 2-step cycle, net displacement (0,0), confinement radius 1\n"
        "prefix choices: [(0, 1)]\n"
        "cycle choices:  [(1, 0), (-1, 0)]\n"
    ),
    "baseline-12": (
        "defeated baseline-12: lasso with 2-step prefix, 2-step cycle, net displacement (0,0), confinement radius 1\n"
        "prefix choices: [(0, 1)]\n"
        "cycle choices:  [(1, 0), (-1, 0)]\n"
    ),
    "baseline-13-caterpillar": (
        "defeated baseline-13-caterpillar: lasso with 12-step prefix, 30-step cycle, net displacement (0,0),"
        " confinement radius 5/4\n"
        "prefix choices: [(0, 1), (1, 0)]\n"
        "cycle choices:  [(1, 0), (0, -1), (-1, 0), (-1, 0), (0, 1), (1, 0)]\n"
    ),
}


@pytest.mark.parametrize("name", sorted(DEFEAT_STDOUT))
def test_defeat_baseline_stdout_is_pinned(capsys, name):
    assert main(["defeat", name]) == 0
    assert capsys.readouterr().out == DEFEAT_STDOUT[name]


def test_defeat_truncated_search_is_inconclusive(capsys):
    assert main(["defeat", "baseline-13-caterpillar", "--max-depth", "1"]) == 1
    assert capsys.readouterr().out == "inconclusive: depth 1 exhausted (diameter bound 4)\n"


def test_defeat_walker_out_of_scope(capsys):
    assert main(["defeat", "walker14"]) == 2
    assert "pebbles" in capsys.readouterr().err


def test_render_initial_panel(tmp_path, capsys):
    _, out = simulate(tmp_path, horizon=2)
    capsys.readouterr()
    assert main(["render", str(out)]) == 0
    text = capsys.readouterr().out
    panels = text.split("\n\n")
    assert len(panels) == 3
    assert panels[0].splitlines()[1:] == [" 1 |   H", " 0 | B C D", "     ^"]


def test_render_window_flag(tmp_path, capsys):
    _, out = simulate(tmp_path, horizon=0)
    assert main(["render", str(out), "--window", "1"]) == 0
    assert " 0 | B" in capsys.readouterr().out


def test_render_rejects_malformed(tmp_path):
    path = tmp_path / "nope.trace.jsonl"
    path.write_text(json.dumps({"format": "other"}) + "\n")
    assert main(["render", str(path)]) == 2


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "pebblewalk", "schemas", "2", "--emit", "list"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert len(proc.stdout.splitlines()) == 5
