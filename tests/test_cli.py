"""End-to-end command-line behavior and the exit-code contract."""

from __future__ import annotations

import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import time

import pytest

import pebblewalk
import pebblewalk.cli as cli
from pebblewalk.adversary import Oscillator, ScriptedChoices
from pebblewalk.cli import main, parse_adversary
from pebblewalk.collective import run
from pebblewalk.strategies import build_free_walker
from pebblewalk.strategy_format import MAX_MEMBERS, emit_strategy
from pebblewalk.tracefile import make_document, read_document, render_document, write_document
from pebblewalk.walker14 import build_walker
from test_strategy_format import crowd

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


@pytest.mark.parametrize("spelling", ["--output", "PEBBLEWALK_OUT", "directory"])
def test_simulate_refuses_an_unwritable_trace_path_before_running(tmp_path, monkeypatch, capsys, spelling):
    where = tmp_path / "where"
    argv = ["simulate", "walker14", "--horizon", "5"]
    reason = f"{re.escape(str(where))} is not a writable directory"
    if spelling == "--output":
        argv += ["--output", str(where / "out.trace.jsonl")]
    elif spelling == "PEBBLEWALK_OUT":
        monkeypatch.setenv("PEBBLEWALK_OUT", str(where))
    else:
        where.mkdir()
        argv += ["--output", str(where)]
        reason = "it is a directory"
    assert main(argv) == 2
    captured = capsys.readouterr()
    # One line and no "simulate: N steps" line: the run never started.
    assert captured.out == ""
    assert re.fullmatch(rf"simulate: cannot write \S+: {reason}\n", captured.err)
    # no directory made, no .tmp left
    assert list(tmp_path.rglob("*")) == ([where] if spelling == "directory" else [])


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


def test_defeat_rejects_too_many_members(tmp_path, capsys):
    path = tmp_path / "crowd.strategy"
    path.write_text(crowd(16))
    assert main(["defeat", str(path)]) == 2
    assert f"line 3, col 1: members must be at most {MAX_MEMBERS}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["defeat", "simulate"])
def test_strategy_file_that_is_not_utf8_exits_two(tmp_path, capsys, command):
    path = tmp_path / "twostep.strategy"
    path.write_bytes(TWO_STATE_PEBBLE.encode().replace(b"twostep", "twö".encode() + b"\xffstep"))
    extra = ["--horizon", "1", "--output", str(tmp_path / "out.trace.jsonl")] if command == "simulate" else []
    assert main([command, str(path), *extra]) == 2
    assert capsys.readouterr().err == f"{command}: line 2, col 13: byte 0xff is not UTF-8 (invalid start byte)\n"


@pytest.mark.parametrize("command", ["check", "render"])
def test_trace_that_is_not_utf8_exits_two(tmp_path, capsys, command):
    _, out = simulate(tmp_path, horizon=3)
    header, first, rest = out.read_bytes().split(b"\n", 2)
    out.write_bytes(header + b"\n" + first + b"\n\xfe" + rest)
    capsys.readouterr()
    extra = ["--c1", "2", "--c2", "1"] if command == "check" else []
    assert main([command, str(out), *extra]) == 2
    assert capsys.readouterr().err == f"{command}: line 3: byte 0xfe is not UTF-8 (invalid start byte)\n"


def test_check_and_render_refuse_trace_lines_that_end_in_crlf(tmp_path, capsys):
    _, out = simulate(tmp_path, horizon=3)
    out.write_bytes(out.read_bytes().replace(b"\n", b"\r\n"))
    capsys.readouterr()
    assert main(["check", str(out), "--c1", "2", "--c2", "1"]) == 2
    assert main(["render", str(out)]) == 2
    reason = "line 1: a line ends in \\n alone and holds no \\r\n"
    assert capsys.readouterr().err == "check: " + reason + "render: " + reason


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


def carried_while_staying(tmp_path) -> str:
    """A document whose pebble 2 rides along on step 1 while its output is stay."""
    _, out = simulate(tmp_path, horizon=3)
    lines = out.read_text().splitlines()
    row = json.loads(lines[2])
    row["outputs"]["2"] = "stay"
    lines[2] = json.dumps(row, sort_keys=True, separators=(",", ":"))
    out.write_text("\n".join(lines) + "\n")
    return str(out)


def check_carried_while_staying(tmp_path):
    return ["check", carried_while_staying(tmp_path), "--c1", "2", "--c2", "1"]


def render_carried_while_staying(tmp_path):
    return ["render", carried_while_staying(tmp_path)]


def defeat_depth_zero(tmp_path):
    return ["defeat", "baseline-10", "--max-depth", "0"]


def render_window_zero(tmp_path):
    return ["render", str(simulate(tmp_path, horizon=2)[1]), "--window", "0"]


@pytest.mark.parametrize(
    "argv, fragment",
    [
        pytest.param(check_leader_off_choice, "not on the choice", id="check-leader-off-choice"),
        pytest.param(check_carried_while_staying, "step 1: carried must be []", id="check-carried-while-staying"),
        pytest.param(render_carried_while_staying, "step 1: carried must be []", id="render-carried-while-staying"),
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


# The full defeat stdout of each baseline, as the engine prints it: the
# search's shortest lasso, so a change to stepping or to the search that
# keeps the lasso lengths must leave these bytes alone.
DEFEAT_STDOUT = {
    "baseline-10": (
        "defeated baseline-10: lasso with 0-step prefix, 2-step cycle, net displacement (0,0), confinement radius 1\n"
        "prefix choices: []\n"
        "cycle choices:  [(-1, 0), (1, 0)]\n"
    ),
    "baseline-11": (
        "defeated baseline-11: lasso with 0-step prefix, 2-step cycle, net displacement (0,0), confinement radius 1\n"
        "prefix choices: []\n"
        "cycle choices:  [(-1, 0), (1, 0)]\n"
    ),
    "baseline-12": (
        "defeated baseline-12: lasso with 1-step prefix, 2-step cycle, net displacement (0,0), confinement radius 1\n"
        "prefix choices: []\n"
        "cycle choices:  [(-1, 0), (1, 0)]\n"
    ),
    "baseline-13-caterpillar": (
        "defeated baseline-13-caterpillar: lasso with 1-step prefix, 20-step cycle, net displacement (0,0),"
        " confinement radius 1\n"
        "prefix choices: []\n"
        "cycle choices:  [(0, 1), (-1, 0), (0, -1), (1, 0)]\n"
    ),
}


# The lasso search's size, which `defeat` reports on stderr.
DEFEAT_STDERR = {
    "baseline-10": "defeat: 2 classes, 6 moves, 0 faults, 0 pruned\n",
    "baseline-11": "defeat: 2 classes, 6 moves, 0 faults, 0 pruned\n",
    "baseline-12": "defeat: 3 classes, 7 moves, 0 faults, 0 pruned\n",
    "baseline-13-caterpillar": "defeat: 48 classes, 54 moves, 0 faults, 0 pruned\n",
}


@pytest.mark.parametrize("name", sorted(DEFEAT_STDOUT))
def test_defeat_baseline_stdout_is_pinned(capsys, name):
    assert main(["defeat", name]) == 0
    captured = capsys.readouterr()
    assert captured.out == DEFEAT_STDOUT[name]
    assert captured.err == DEFEAT_STDERR[name]


def test_defeat_truncated_search_is_inconclusive(capsys):
    assert main(["defeat", "baseline-13-caterpillar", "--max-depth", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "inconclusive: depth 1 exhausted (diameter bound 4)\n"
    assert captured.err == "defeat: 2 classes, 1 moves, 0 faults, 0 pruned\n"


def test_defeat_refuses_a_certificate_its_replay_does_not_measure(monkeypatch, capsys):
    real = cli.defeat_strategy

    def misreported(collective, max_depth):
        outcome = real(collective, max_depth=max_depth)
        cert = dataclasses.replace(outcome.certificate, confinement_radius=outcome.certificate.confinement_radius + 1)
        return dataclasses.replace(outcome, certificate=cert)

    monkeypatch.setattr(cli, "defeat_strategy", misreported)
    assert main(["defeat", "baseline-10"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("defeat: certificate failed replay validation\n")


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


FAR_PEBBLE = """\
format: pebblewalk-strategy 1
strategy far
members 2
leader initial s
rule s: * | * -> free then s
pebble 2 idler
place 1 (0,0)
place 2 (5000000,0)
"""


def test_render_refuses_a_far_pebble_without_a_window(tmp_path, capsys):
    strategy = tmp_path / "far.strategy"
    strategy.write_text(FAR_PEBBLE)
    code, out = simulate(tmp_path, strategy=str(strategy), horizon=1)
    assert code == 0
    assert len(read_document(str(out)).records) == 2
    capsys.readouterr()
    assert main(["render", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "5000001 columns, more than 1000; pass --window" in captured.err
    assert main(["render", str(out), "--window", "3"]) == 0
    assert len(capsys.readouterr().out) < 200


def test_render_refuses_a_window_wider_than_the_cap(tmp_path, capsys):
    strategy = tmp_path / "far.strategy"
    strategy.write_text(FAR_PEBBLE)
    _, out = simulate(tmp_path, strategy=str(strategy), horizon=1)
    capsys.readouterr()
    started = time.perf_counter()
    assert main(["render", str(out), "--window", "1000000000000"]) == 2
    assert time.perf_counter() - started < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "5000001 columns, more than 1000; pass --window 1000 or less" in captured.err
    assert main(["render", str(out), "--window", "1000"]) == 0


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


@pytest.mark.parametrize("closed", ["descriptor", "stream"])
def test_a_closed_stdout_is_an_input_error(monkeypatch, capsys, closed):
    # With descriptor 1 closed at start-up, Python sets sys.stdout to None.
    stream = None if closed == "descriptor" else io.StringIO()
    if stream is not None:
        stream.close()
    monkeypatch.setattr(sys, "stdout", stream)
    assert main(["schemas", "2"]) == 2
    message = "stdout is closed" if stream is None else "I/O operation on closed file"
    assert capsys.readouterr().err == f"schemas: {message}\n"


# Bad input per command, as `python -m pebblewalk` arguments: {missing} is a
# path that does not exist, {dir} a directory, {latin1} a file that is not
# UTF-8, and {trace} a valid trace.  An unwritable stdout is a read-only one.
CHECK, WINDOW = ["--c1", "2", "--c2", "22"], ["--window", "12"]
BAD_PROCESS_INPUT = {
    "simulate": {
        "missing-file": ["{missing}", "--horizon", "5"],
        "directory": ["{dir}", "--horizon", "5"],
        "not-utf8": ["{latin1}", "--horizon", "5"],
        "bad-number": ["walker14", "--horizon", "-1"],
        "not-a-number": ["walker14", "--horizon", "abc"],
        "unwritable-output": ["walker14", "--horizon", "5", "--output", "{missing}/out.trace.jsonl"],
        "unwritable-stdout": ["walker14", "--horizon", "5", "--output", "{dir}/out.trace.jsonl"],
    },
    "check": {
        "missing-file": ["{missing}", *CHECK],
        "directory": ["{dir}", *CHECK],
        "not-utf8": ["{latin1}", *CHECK],
        "bad-number": ["{trace}", "--c1", "2", "--c2", "0"],
        "unwritable-stdout": ["{trace}", *CHECK],
        "no-arguments": [],
    },
    "schemas": {
        "bad-number": ["7"],
        "unwritable-stdout": ["3", "--emit", "graph"],
    },
    "defeat": {
        "missing-file": ["{missing}"],
        "directory": ["{dir}"],
        "not-utf8": ["{latin1}"],
        "bad-number": ["baseline-10", "--max-depth", "0"],
        "unwritable-stdout": ["baseline-10"],
    },
    "render": {
        "missing-file": ["{missing}"],
        "directory": ["{dir}"],
        "not-utf8": ["{latin1}"],
        "bad-number": ["{trace}", "--window", "0"],
        "unwritable-stdout": ["{trace}", *WINDOW],
    },
    # Not a command: the one line names the program instead.
    "frobnicate": {
        "unknown-command": [],
    },
}


def test_help_still_prints_usage_and_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit:
        main(["check", "--help"])
    assert exit.value.code == 0
    assert capsys.readouterr().out.startswith("usage: pebblewalk check")


@pytest.mark.parametrize(
    "command, case",
    [pytest.param(command, case, id=f"{command}-{case}") for command, cases in BAD_PROCESS_INPUT.items() for case in cases],
)
def test_process_exits_two_with_one_line_on_bad_input(tmp_path, command, case):
    _, trace = simulate(tmp_path, horizon=20)
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes("caf\u00e9\n".encode("latin-1"))
    paths = {"missing": tmp_path / "missing", "dir": tmp_path, "latin1": latin1, "trace": trace}
    argv = [arg.format(**paths) for arg in BAD_PROCESS_INPUT[command][case]]
    src = os.path.dirname(os.path.dirname(pebblewalk.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    with open(os.devnull, "rb") as read_only:
        proc = subprocess.run(
            [sys.executable, "-m", "pebblewalk", command, *argv],
            stdout=read_only if case == "unwritable-stdout" else subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr and "usage:" not in proc.stderr
    name = "pebblewalk" if case == "unknown-command" else command
    assert proc.stderr.endswith("\n") and proc.stderr.splitlines()[-1].startswith(f"{name}: "), proc.stderr
    if case != "unwritable-stdout":  # there simulate and defeat report their run first
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
