#!/usr/bin/env python3
"""pebblewalk benchmark: three closed-loop workloads with checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload march --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload march --seed 1 --seconds 35 --trace 1

One caller runs one op after another in one thread (a closed loop).  With
`--trace 0` the run sets up the workload five times (each a fresh import of
pebblewalk plus input generation) and then times ops, pass after pass, until
`--seconds` have passed.  It prints every end-to-end metric with its unit,
then one JSON line with the metrics BENCHMARK.json lists.  `--workload all`
runs the three workloads one after another, each in its own process.

The shared host's speed drifts by up to a half over minutes, as other tenants
load it, and a plain Python loop drifts with it.  So the run also times a
fixed pure-Python reference loop, about once every quarter second between
ops and before each set-up, and reports every timing at reference speed:
scaled by the loop's mean time in the run over `REF_S`.  The unscaled values
and the factor are printed beside them.

With `--trace 1` the run measures fixed batches instead of a time window,
so counts repeat exactly for a seed: two `march` ops, one `pin` pass and one
`indist` pass, each untraced and then traced.  It reports every per-layer
metric, prefixed by the workload it is measured on, and writes the spans and
a cProfile top-10 of one `march` op under `.perfbench/`.

Any output mismatch makes the run exit with status 1.
"""

from __future__ import annotations

import argparse
import cProfile
import importlib
import io
import json
import pstats
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("march", "pin", "indist")
SETUP_REPEATS = 5
# The reference loop runs about this often between ops (about 2 % of a run).
REF_EVERY_S = 0.25
REF_SIZE = 20_000
# Reference-loop time that counts as speed factor 1: about its time on an
# Intel Xeon with 2 vCPUs under Python 3.11.7 while the host is quiet.
REF_S = 0.0035
MODULES = (
    "adversary",
    "collective",
    "lattice",
    "machine",
    "render",
    "schemas",
    "strategies",
    "strategy_format",
    "tracefile",
    "util",
    "walker14",
)

sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402  (sibling module of this script)
import workloads  # noqa: E402

CLASSES = {"march": workloads.March, "pin": workloads.Pin, "indist": workloads.Indist}
# Printed for every workload but left out of the JSON metrics.  The indist
# latencies have a gap at their median (44-52 % of ops fall below ~60 ms,
# depending on machine state), so the median jumps between ~48 and ~75 ms
# from run to run; the speed factor describes the machine, not the program.
PRINTED_ONLY = ("op_p50_s", "speed_factor")


def fresh_library() -> types.SimpleNamespace:
    """Import pebblewalk from scratch and return its modules by short name."""
    for name in [n for n in sys.modules if n == "pebblewalk" or n.startswith("pebblewalk.")]:
        del sys.modules[name]
    importlib.import_module("pebblewalk")
    return types.SimpleNamespace(**{m: importlib.import_module(f"pebblewalk.{m}") for m in MODULES})


def set_up(name: str, seed: int, repeats: int = SETUP_REPEATS, speed: Speed | None = None, **size):
    """Median set-up time over `repeats` fresh set-ups, and the last workload."""
    times = []
    for _ in range(repeats):
        if speed is not None:
            speed.sample()
        start = time.perf_counter()
        workload = CLASSES[name](fresh_library(), seed, **size)
        times.append(time.perf_counter() - start)
    return workload, statistics.median(times)


def reference_loop(n: int = REF_SIZE) -> int:
    """Fixed interpreter work of about REF_S: integer arithmetic and dict
    updates.  It creates no object the garbage collector tracks, so its time
    does not depend on how many objects the workload keeps alive."""
    table: dict = {}
    for i in range(n):
        key = i * 7919 % 4093
        table[key] = table.get(key, 0) + 1
    return max(table.values())


class Speed:
    """Machine speed over one run, from reference-loop times."""

    def __init__(self):
        self.samples: list[float] = []
        self.due: float | None = None

    def sample(self) -> float:
        """Time the reference loop once; return the time it took."""
        start = time.perf_counter()
        reference_loop()
        took = time.perf_counter() - start
        self.samples.append(took)
        return took

    def catch_up(self) -> float:
        """Run the loop once per REF_EVERY_S passed since the last call, so
        samples spread evenly over time whatever the op length; return the
        time they took."""
        took = 0.0
        if self.due is None:
            self.due = time.perf_counter()
        while self.due <= time.perf_counter():
            took += self.sample()
            self.due += REF_EVERY_S
        return took

    def factor(self) -> float:
        """How much slower than reference speed the machine ran (1 = REF_S)."""
        return statistics.fmean(self.samples) / REF_S


class Tally:
    """Op latencies and failures of one measured stretch."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failed = 0
        self.problems: list[str] = []
        self.wall = 0.0

    def record(self, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.problems = (self.problems + problems)[:5]


def run_op(workload, item) -> list[str]:
    try:
        return workload.run_op(item)
    except Exception as e:  # an op that raises is a failed op, not a crash
        return [f"{type(e).__name__}: {e}"]


def run_passes(workload, tally: Tally, passes: int | None = None, seconds: float | None = None,
               speed: Speed | None = None) -> None:
    """Run ops pass after pass: `passes` whole passes, or until `seconds` have
    passed.  With `speed`, sample the reference loop between ops; its time
    counts toward `seconds` but not toward the tally's wall time."""
    clock = time.perf_counter
    start = clock()
    paused = 0.0
    k = 0
    while passes is None or k < passes:
        for item in workload.pass_items(k):
            if speed is not None:
                paused += speed.catch_up()
            if seconds is not None and clock() - start >= seconds:
                tally.wall += clock() - start - paused
                return
            t0 = clock()
            problems = run_op(workload, item)
            tally.latencies.append(clock() - t0)
            tally.record(problems)
        tally.record(workload.end_pass())
        k += 1
    tally.wall += clock() - start - paused


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile that
    leaves at least ten samples beyond it; never below the median."""
    ordered = sorted(latencies)
    n = len(ordered)
    idx = n - 11
    if idx < (n - 1) / 2:
        return statistics.median(ordered), 50.0, n // 2
    return ordered[idx], 100.0 * (idx + 1) / n, n - idx - 1


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(setup_s: float, repeats: int, tally: Tally, speed: Speed) -> tuple[dict, dict]:
    """Metrics (name -> (value, unit)) and the notes printed beside them."""
    n = len(tally.latencies)
    tail_s, pct, beyond = tail(tally.latencies)
    p50_s = statistics.median(tally.latencies)
    factor = speed.factor()
    metrics = {
        "setup_s": (setup_s / factor, "s"),
        "ops_per_s": (n / tally.wall * factor, "1/s"),
        "op_p50_s": (p50_s / factor, "s"),
        "op_tail_s": (tail_s / factor, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "speed_factor": (factor, "ratio"),
    }
    notes = {
        "setup_s": f"median of {repeats} set-ups; {setup_s:.4g} s unscaled",
        "ops_per_s": f"{n} ops in {tally.wall:.2f} s; {n / tally.wall:.4g}/s unscaled",
        "op_p50_s": f"{n} ops; {p50_s:.4g} s unscaled",
        "op_tail_s": f"p{pct:.1f} of {n} ops, {beyond} beyond; {tail_s:.4g} s unscaled",
        "speed_factor": f"mean of {len(speed.samples)} reference loops over REF_S; above 1 is slower",
    }
    return metrics, notes


def measure(name: str, seed: int, seconds: float, repeats: int = SETUP_REPEATS, **size) -> dict:
    speed = Speed()
    workload, setup_s = set_up(name, seed, repeats, speed, **size)
    tally = Tally()
    run_passes(workload, tally, seconds=seconds, speed=speed)
    metrics, notes = end_to_end(setup_s, repeats, tally, speed)
    return result(name, metrics, notes, len(tally.latencies), tally)


def result(label: str, metrics: dict, notes: dict, attempted: int, tally: Tally) -> dict:
    lines = [
        f"{label:8s} {name:44s} {value:>16.6g} {unit}" + (f"  ({notes[name]})" if name in notes else "")
        for name, (value, unit) in metrics.items()
    ]
    failed_ratio = tally.failed / attempted
    lines.append(f"{label:8s} {'failed_ratio':44s} {failed_ratio:>16.6g} ratio  ({tally.failed} of {attempted} failed)")
    lines += [f"{label:8s} MISMATCH {p}" for p in tally.problems]
    return {
        "lines": lines,
        "summary": {
            "correct": tally.failed == 0,
            "attempted": attempted,
            "failed": tally.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
                if name not in PRINTED_ONLY
            },
        },
    }


# -- traced run ---------------------------------------------------------------


def layer_metrics(part: str, stats: dict, counts: dict, workload) -> dict:
    """Per-layer metrics of one workload's traced batch, name -> (value, unit)."""
    metrics = {}

    def add(name, value, unit):
        metrics[f"{part}.{name}"] = (value, unit)

    def get(layer, key):
        return stats.get(layer, {}).get(key, 0)

    def calls_and_self(*layers):
        for layer in layers:
            add(f"{layer}.calls", get(layer, "calls"), "count")
            add(f"{layer}.self_s", get(layer, "self_s"), "s")

    if part == "march":
        run_steps = counts["collective.run", "steps"]
        parsed_steps = counts["tracefile.parse_document", "steps"]
        calls_and_self("machine.observe")
        add("machine.observe.calls_per_step", get("machine.observe", "calls") / (run_steps + parsed_steps), "calls/step")
        calls_and_self("machine.act", "machine.resolve_output", "collective.run")
        add("collective.run.steps_per_s", run_steps / get("collective.run", "total_s"), "steps/s")
        calls_and_self("collective.plan_step", "collective.apply_choice", "collective.advance_digest")
        add("collective.check_directed.self_s", get("collective.check_directed", "self_s"), "s")
        add("collective.consulted_ratio", counts["collective.run", "consulted"] / run_steps, "ratio")
        calls_and_self("adversary.choose")
        add("tracefile.render_document.self_s", get("tracefile.render_document", "self_s"), "s")
        add("tracefile.render_document.bytes", counts["tracefile.render_document", "bytes"], "bytes")
        add("tracefile.parse_document.self_s", get("tracefile.parse_document", "self_s"), "s")
        add("tracefile.parse_document.records", counts["tracefile.parse_document", "records"], "count")
        add("render.render_records.self_s", get("render.render_records", "self_s"), "s")
    elif part == "pin":
        calls_and_self("machine.validate_pebble", "adversary.search_lasso")
        for key in ("nodes", "edges", "faults"):
            add(f"adversary.search_lasso.{key}", counts["adversary.search_lasso", key], "count")
        calls_and_self("adversary.canonicalize", "adversary.finalize_certificate")
        finalized = get("adversary.finalize_certificate", "calls")
        add("adversary.finalize_certificate.accepted_ratio",
            counts["adversary.finalize_certificate", "accepted"] / finalized, "ratio")
        add("adversary.defeated_ratio", workload.defeated / workload.attempted, "ratio")
        calls_and_self("strategy_format.parse_strategy", "strategy_format.emit_strategy")
    else:
        calls_and_self("machine.observe", "collective.find_isolated", "schemas.worst_case_indistinguishable")
        add("schemas.worst_case_indistinguishable.explored",
            counts["schemas.worst_case_indistinguishable", "explored"], "count")
        add("schemas.witness_verdicts", workload.witnesses, "count")
        calls_and_self("schemas.validate_witness")
        add("schemas.witness_accept_ratio",
            get("schemas.validate_witness", "returned") / get("schemas.validate_witness", "calls"), "ratio")
    return metrics


def observe_share_of_plan_step(profile: cProfile.Profile) -> float:
    """Share of plan_step's cumulative time spent in observe and its callees.

    plan_step is the only caller of observe in collective.py; depending on
    the Python version the call sits in plan_step or in its comprehension.
    """
    entries = pstats.Stats(profile).stats  # (file, line, function) -> (cc, nc, tt, ct, callers)

    def find(file, function):
        return next(k for k in entries if Path(k[0]).name == file and k[2] == function)

    callers = entries[find("machine.py", "observe")][4]
    in_plan_step = sum(ct for k, (_, _, _, ct) in callers.items() if Path(k[0]).name == "collective.py")
    return in_plan_step / entries[find("collective.py", "plan_step")][3]


def profile_march_op(workload, path: Path) -> float:
    profile = cProfile.Profile()
    profile.runcall(workload.run_op, 0)
    text = io.StringIO()
    pstats.Stats(profile, stream=text).sort_stats("tottime").print_stats(10)
    path.write_text(text.getvalue())
    return observe_share_of_plan_step(profile)


def traced(seed: int, label: str, out_dir: Path, sizes: dict | None = None) -> dict:
    """Untraced then traced fixed batches of every workload."""
    metrics: dict = {}
    notes: dict = {}
    total = Tally()
    attempted = 0
    out_dir.mkdir(exist_ok=True)
    spans_file = out_dir / f"spans-{label}.tsv"
    spans_file.write_text("")
    for part in WORKLOADS:
        size = (sizes or {}).get(part, {})
        workload, _ = set_up(part, seed, 1, **size)
        plain = Tally()
        run_passes(workload, plain, passes=workload.trace_passes)
        # Rebuild so the traced batch starts from the same workload state.
        workload, _ = set_up(part, seed, 1, **size)
        spans = tracer.Tracer()
        tally = Tally()
        spans.patch()
        try:
            run_passes(workload, tally, passes=workload.trace_passes)
        finally:
            spans.unpatch()
        metrics.update(layer_metrics(part, spans.layers(), spans.counts, workload))
        metrics[f"{part}.trace_overhead_ratio"] = (tally.wall / plain.wall, "ratio")
        notes[f"{part}.trace_overhead_ratio"] = f"traced {tally.wall:.2f} s over untraced {plain.wall:.2f} s"
        if part == "march":
            profile_file = out_dir / "profile-march.txt"
            metrics["march.profile.observe_share_of_plan_step"] = (profile_march_op(workload, profile_file), "ratio")
            notes["march.profile.observe_share_of_plan_step"] = f"cProfile of one op, top-10 in {profile_file}"
        spans.write(str(spans_file), part)
        for t in (plain, tally):
            attempted += len(t.latencies)
            total.failed += t.failed
            total.problems = (total.problems + t.problems)[:5]
    return result(label, metrics, notes, attempted, total)


# -- command line ---------------------------------------------------------------


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is its own."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        if not lines:
            return child.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        status = status or child.returncode
        part = json.loads(lines[-1])
        summary["correct"] &= part["correct"]
        summary["attempted"] += part["attempted"]
        summary["failed"] += part["failed"]
        summary["metrics"].update({f"{name}.{k}": v for k, v in part["metrics"].items()})
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pebblewalk" / "__init__.py").is_file():
        print(f"no pebblewalk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.trace:
        out = traced(args.seed, args.workload, OUT_DIR)
    elif args.workload == "all":
        return run_all(args)
    else:
        out = measure(args.workload, args.seed, args.seconds)
    print("\n".join(out["lines"]))
    print(json.dumps(out["summary"]), flush=True)
    return 0 if out["summary"]["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
