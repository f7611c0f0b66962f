"""The scripts under scripts/ run as documented."""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pebblewalk.strategies import load_builtin
from pebblewalk.strategy_format import emit_strategy

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_reproduce_results_runs_from_any_directory(tmp_path):
    # Without PYTHONPATH the script must find the package itself.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "reproduce_results.py")],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("all values reproduced\n")


STUB = """\
import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
seed, trace = int(args["--seed"]), args["--trace"] == "1"
if trace:
    metrics = {"pin.machine.validate_pebble.calls": {"value": 7, "unit": "count"},
               "pin.machine.validate_pebble.self_s": {"value": 0.5, "unit": "s"}}
else:
    metrics = {f"{w}.{m}": {"value": seed + i, "unit": "?"}
               for w in ("march", "pin") for i, m in enumerate(("setup_s", "ops_per_s", "op_tail_s", "peak_rss_mb"))}
print("a line the bench ignores")
print(json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}))
"""


def load_bench():
    spec = importlib.util.spec_from_file_location("bench", SCRIPTS / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_bench_writes_one_file_and_never_overwrites_it(tmp_path, capsys, monkeypatch):
    bench = load_bench()
    monkeypatch.setattr(bench, "PAIRS", 2)
    stub = tmp_path / "stub.py"
    stub.write_text(STUB)
    parent = tmp_path / "parent"
    parent.mkdir()
    change = tmp_path / "change"
    change.mkdir()
    calls = []

    def command(checkout):
        calls.append(checkout.name)
        return [sys.executable, str(stub)]

    def commands(out_dir):
        # The stub fails unless it runs in the checkout with its src on PYTHONPATH.
        where = "import os, sys; sys.exit(os.environ['PYTHONPATH'] != os.path.join(os.getcwd(), 'src'))"
        return {"ok": [sys.executable, "-c", where], "fails": [sys.executable, "-c", "raise SystemExit(4)"]}

    argv = ["3", "--parent", str(parent), "--first-seed", "5"]
    assert bench.main(argv, command=command, root=change, commands=commands) == 0
    # Alternating pairs, then one traced run per side.
    assert calls == ["parent", "change", "change", "parent", "parent", "change"]
    report = json.loads((change / "BENCH_3.json").read_text())
    assert list(report) == ["n", "python", "nproc", "machine", "run_seconds", "seeds", "trace_seed", "sides"]
    assert report["seeds"] == [5, 6]
    assert list(report["sides"]) == ["parent", "change"]
    side = report["sides"]["change"]
    assert list(side) == ["sha", "dirty", "failed", "attempted", "end_to_end", "runs", "trace_failed", "trace_counts", "timed"]
    assert list(side["end_to_end"]) == ["march", "pin"]
    ops = side["end_to_end"]["pin"]["ops_per_s"]
    assert ops == {"unit": "1/s", "median": 6.5, "q1": 5.75, "q3": 7.25, "values": [6, 7]}
    assert list(side["end_to_end"]["pin"]) == ["setup_s", "ops_per_s", "op_tail_s", "peak_rss_mb"]
    assert side["runs"] == [
        {"seed": 5, "first": False, "failed": 0, "attempted": 3},
        {"seed": 6, "first": True, "failed": 0, "attempted": 3},
    ]
    assert side["trace_counts"] == {"pin.machine.validate_pebble.calls": 7}
    for side in report["sides"].values():
        assert list(side["timed"]) == ["ok", "fails"]
        assert [side["timed"][name]["exit"] for name in side["timed"]] == [0, 4]
        assert all(run["wall_s"] > 0 and run["cpu_s"] >= 0 and run["peak_rss_mb"] > 0 for run in side["timed"].values())
    baselines = ["baseline-10", "baseline-11", "baseline-12", "baseline-13-caterpillar"]
    timed = bench.timed_commands(tmp_path)
    defeats = [f"defeat_{name}" for name in baselines]
    reads = ["check_50000", "render_50000"]
    first = ["simulate_50000_first", "check_50000_first"]
    assert list(timed) == ["reproduce_results", "simulate_10000", "simulate_50000", *reads, *first, *defeats, "tests"]
    document = str(tmp_path / "walker14-50000.trace.jsonl")
    assert timed["simulate_50000"][-1] == document
    assert timed["check_50000"][-6:] == ["check", document, "--c1", "2", "--c2", "22"]
    assert timed["render_50000"][-4:] == ["render", document, "--window", "12"]
    first_document = str(tmp_path / "walker14-first-50000.trace.jsonl")
    assert timed["simulate_50000_first"][-7:] == ["walker14", "--adversary", "first", "--horizon", "50000", "--output", first_document]
    assert timed["check_50000_first"][-6:] == ["check", first_document, "--c1", "2", "--c2", "22"]
    for name in baselines:
        path = tmp_path / f"{name}.strategy"
        assert timed[f"defeat_{name}"][-2:] == ["defeat", str(path)]
        assert path.read_text() == emit_strategy(load_builtin(name))

    before = (change / "BENCH_3.json").read_text()
    calls.clear()
    assert bench.main(argv, command=command, root=change, commands=commands) == 2
    assert calls == []
    assert (change / "BENCH_3.json").read_text() == before
    assert "never overwritten" in capsys.readouterr().err


def test_bench_reads_each_commands_own_peak_rss(tmp_path):
    probe = f"""
import importlib.util, json, sys
from pathlib import Path
spec = importlib.util.spec_from_file_location("bench", {str(SCRIPTS / "bench.py")!r})
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)
big = bench.timed([sys.executable, "-c", "b = b'x' * (48 << 20)"], Path.cwd())
small = bench.timed([sys.executable, "-c", "pass"], Path.cwd())
print(json.dumps([big, small]))
"""
    proc = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, capture_output=True, text=True, check=True)
    big, small = json.loads(proc.stdout)
    assert big["exit"] == small["exit"] == 0
    # run after the big one, the small one still reads its own peak
    assert big["peak_rss_mb"] > small["peak_rss_mb"] + 30


def test_bench_peak_rss_does_not_start_at_the_bench_process(tmp_path):
    # A command spawned straight from a process holding 80 MB would start
    # on those pages and read at least 80 MB.
    probe = f"""
import importlib.util, json, sys
from pathlib import Path
held = b"x" * (80 << 20)
spec = importlib.util.spec_from_file_location("bench", {str(SCRIPTS / "bench.py")!r})
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)
print(json.dumps(bench.timed([sys.executable, "-c", "pass"], Path.cwd())))
"""
    proc = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, capture_output=True, text=True, check=True)
    small = json.loads(proc.stdout)
    assert small["exit"] == 0
    assert small["peak_rss_mb"] < 40


def test_bench_names_the_checkout_and_seed_when_the_summary_is_not_json(tmp_path):
    bench = load_bench()
    stub = tmp_path / "crash.py"
    stub.write_text("print('started')\nraise SystemExit(3)\n")
    (tmp_path / "parent").mkdir()

    def command(checkout):
        return [sys.executable, str(stub)]

    with pytest.raises(SystemExit) as exit:
        bench.main(["4", "--parent", str(tmp_path / "parent")], command=command, root=tmp_path)
    assert str(exit.value) == f"bench: no JSON summary from the benchmark in {tmp_path / 'parent'} at seed 1 (exit 3)"
    assert not (tmp_path / "BENCH_4.json").exists()
