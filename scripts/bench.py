#!/usr/bin/env python3
"""Record one benchmark trajectory point as BENCH_<n>.json.

    python3 scripts/bench.py 10 --parent ../parent-checkout --first-seed 11

Runs the benchmark that BENCHMARK.json declares (`perfbench/run.py`,
unchanged) with `--workload all` on this checkout and on the parent's
checkout in 10 alternating pairs: pair i runs at seed first-seed + i,
parent first when i is even.  Each checkout then gets one `--trace 1` run at
seed 1, and then runs once each of the end-to-end commands the benchmark
does not cover: `scripts/reproduce_results.py`, `pebblewalk simulate
walker14 --adversary seeded:42` at horizons 10000 and 50000, `pebblewalk
check --c1 2 --c2 22` and `pebblewalk render --window 12` on the 50000-step
document, `simulate` at 50000 with `--adversary first` and `check --c1 2
--c2 22` on that document, which holds and so scans every window,
`pebblewalk defeat <file>` on each baseline written out as a
strategy file, and the test suite (`python -m pytest -q`), with the
checkout's `src` on PYTHONPATH.
The file holds each checkout's git SHA, the Python version, every run's
four end-to-end metrics per workload with their median and quartiles,
failed and attempted op counts, the count-valued per-layer metrics of the
traced run, and each timed command's exit code, wall time, CPU time and
peak RSS.
It measures only: nothing is compared or gated.  An existing
BENCH_<n>.json is never overwritten.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pebblewalk.strategies import BUILTIN_STRATEGIES, load_builtin
from pebblewalk.strategy_format import emit_strategy

PAIRS = 10
TRACE_SEED = 1
COUNT_UNITS = ("count", "bytes")
# Runs argv[1:] with its output discarded and prints its exit code, wall
# time, CPU time and peak RSS in KiB, from os.wait4.
LAUNCHER = """\
import os, sys, time
start = time.perf_counter()
pid = os.fork()
if pid == 0:
    try:
        null = os.open(os.devnull, os.O_RDWR)
        for fd in (0, 1, 2):
            os.dup2(null, fd)
        os.execvp(sys.argv[1], sys.argv[1:])
    finally:
        os._exit(127)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), time.perf_counter() - start, usage.ru_utime + usage.ru_stime, usage.ru_maxrss)
"""


def benchmark_command(checkout: Path) -> list[str]:
    """BENCHMARK.json's command, run by this interpreter from the checkout."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    return [sys.executable, *declared[1:]]


def timed_commands(out_dir: Path) -> dict[str, list[str]]:
    """End-to-end commands the benchmark does not time, run from a checkout.
    Writes each baseline's strategy file into out_dir for `defeat` to read."""
    cli = [sys.executable, "-m", "pebblewalk"]
    simulate = [*cli, "simulate", "walker14", "--adversary", "seeded:42"]
    defeat = {}
    for name in sorted(n for n in BUILTIN_STRATEGIES if n.startswith("baseline")):
        path = out_dir / f"{name}.strategy"
        path.write_text(emit_strategy(load_builtin(name)))
        defeat[f"defeat_{name}"] = [*cli, "defeat", str(path)]
    document = str(out_dir / "walker14-50000.trace.jsonl")
    first = str(out_dir / "walker14-first-50000.trace.jsonl")
    return {
        "reproduce_results": [sys.executable, "scripts/reproduce_results.py"],
        **{
            f"simulate_{h}": [*simulate, "--horizon", str(h), "--output", str(out_dir / f"walker14-{h}.trace.jsonl")]
            for h in (10000, 50000)
        },
        # These read the document simulate_50000 wrote; check exits 1 there
        # (the seeded:42 trace violates the every-moment window check).
        "check_50000": [*cli, "check", document, "--c1", "2", "--c2", "22"],
        "render_50000": [*cli, "render", document, "--window", "12"],
        # The first-option trace holds at (2, 22), so this check exits 0
        # after judging every moment.
        "simulate_50000_first": [*cli, "simulate", "walker14", "--adversary", "first", "--horizon", "50000", "--output", first],
        "check_50000_first": [*cli, "check", first, "--c1", "2", "--c2", "22"],
        **defeat,
        "tests": [sys.executable, "-m", "pytest", "-q"],
    }


def timed(argv: list[str], checkout: Path) -> dict:
    """Exit code, wall time, CPU time (user + system) and peak RSS of one run.

    The command runs under LAUNCHER, a bare interpreter (no site, no
    imports beyond os, sys and time) that forks it, so its CPU time and
    peak RSS are its own from os.wait4 and count the processes it waited
    for.  A child starts on its parent's pages until it execs, so had this
    script spawned the command itself, no peak would read below this
    script's resident size (about 22 MB on CPython 3.11).
    """
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    launcher = [sys.executable, "-I", "-S", "-c", LAUNCHER, *argv]
    proc = subprocess.run(launcher, cwd=checkout, env=env, stdout=subprocess.PIPE, text=True, check=True)
    code, wall, cpu, rss = proc.stdout.split()
    return {
        "exit": int(code),
        "wall_s": round(float(wall), 3),
        "cpu_s": round(float(cpu), 3),
        "peak_rss_mb": round(int(rss) / 1024, 2),  # ru_maxrss is in KiB on Linux
    }


def git(checkout: Path, *args: str) -> str | None:
    proc = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def summary(command, checkout: Path, seed: int, seconds: float, trace: int) -> dict:
    """The JSON line the benchmark prints last."""
    args = ["--workload", "all", "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run([*command(checkout), *args], cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit(f"bench: no JSON summary from the benchmark in {checkout} at seed {seed} (exit {proc.returncode})")


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "values": values}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def main(argv=None, command=benchmark_command, root: Path = ROOT, commands=timed_commands) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("n", type=int, help="number of the BENCH_<n>.json to write")
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    out = root / f"BENCH_{args.n}.json"
    if out.exists():
        print(f"bench: {out} exists; BENCH files are never overwritten", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    metrics = [m["name"] for m in benchmark["end_to_end"]]
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    sides = {"parent": args.parent.resolve(), "change": root}

    runs: dict = {side: [] for side in sides}
    seeds = [args.first_seed + i for i in range(PAIRS)]
    for i, seed in enumerate(seeds):
        order = list(sides) if i % 2 == 0 else list(reversed(sides))
        for side in order:
            got = summary(command, sides[side], seed, seconds, trace=0)
            runs[side].append({"seed": seed, "first": side == order[0], **got})
            print(f"pair {i} seed {seed} {side}: failed {got['failed']} of {got['attempted']}", file=sys.stderr)

    report = {
        "n": args.n,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "run_seconds": seconds,
        "seeds": seeds,
        "trace_seed": TRACE_SEED,
        "sides": {},
    }
    for side, checkout in sides.items():
        workloads = sorted({name.split(".")[0] for r in runs[side] for name in r["metrics"]})
        traced = summary(command, checkout, TRACE_SEED, seconds, trace=1)
        with tempfile.TemporaryDirectory() as out_dir:
            times = {name: timed(argv, checkout) for name, argv in commands(Path(out_dir)).items()}
        report["sides"][side] = {
            "sha": git(checkout, "rev-parse", "HEAD"),
            "dirty": bool(git(checkout, "status", "--porcelain", "--untracked-files=no")),
            "failed": sum(r["failed"] for r in runs[side]),
            "attempted": sum(r["attempted"] for r in runs[side]),
            "end_to_end": {
                w: {
                    m: {"unit": units[m], **quartiles([r["metrics"][f"{w}.{m}"]["value"] for r in runs[side]])}
                    for m in metrics
                }
                for w in workloads
            },
            "runs": [
                {"seed": r["seed"], "first": r["first"], "failed": r["failed"], "attempted": r["attempted"]}
                for r in runs[side]
            ],
            "trace_failed": traced["failed"],
            "trace_counts": {
                name: m["value"] for name, m in traced["metrics"].items() if m["unit"] in COUNT_UNITS
            },
            "timed": times,
        }
    with open(out, "x") as fh:
        fh.write(json.dumps(report, indent=2) + "\n")
    print(f"bench: wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
