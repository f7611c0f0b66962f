"""Small-size self-test of the benchmark harness.

Run from the repository root with `python3 -m pytest perfbench`.  Inputs are
shrunk (short walks, few generated strategies, 2-pebble schemas only) so the
whole file runs in well under a minute.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SMALL = {"march": {"steps": 600}, "pin": {"per_size": 3}, "indist": {"pebble_counts": (2,)}}


def printed_units(lines: list[str]) -> dict:
    """metric name -> unit, as printed: label, name, value, unit, note."""
    return {fields[1]: fields[3] for fields in (line.split() for line in lines) if fields[1] != "MISMATCH"}


def assert_reported(out: dict, declared: list[dict]) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    summary = out["summary"]
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in summary["metrics"].values())
    printed = printed_units(out["lines"])
    assert {k: printed[k] for k in want} == want
    assert printed["failed_ratio"] == "ratio"


def test_end_to_end_metrics_print_with_units():
    for name in run.WORKLOADS:
        out = run.measure(name, 7, 1, repeats=2, **SMALL[name])
        assert out["summary"]["correct"], out["lines"]
        assert_reported(out, BENCHMARK["end_to_end"])
        assert printed_units(out["lines"])["op_p50_s"] == "s"


def test_throughput_and_setup_are_scaled_to_reference_speed():
    speed = run.Speed()
    speed.samples = [run.REF_S * 2]  # the machine ran at half reference speed
    tally = run.Tally()
    tally.latencies = [0.5] * 10
    tally.wall = 5.0
    metrics, notes = run.end_to_end(1.0, 1, tally, speed)
    assert metrics["ops_per_s"][0] == pytest.approx(4.0)
    assert metrics["setup_s"][0] == pytest.approx(0.5)
    assert metrics["op_tail_s"][0] == pytest.approx(0.25)
    assert metrics["speed_factor"][0] == pytest.approx(2.0)
    assert "2/s unscaled" in notes["ops_per_s"]


def test_traced_run_reports_every_layer_metric_and_repeats_counts(tmp_path):
    first = run.traced(11, "selftest", tmp_path, SMALL)
    assert first["summary"]["correct"], first["lines"]
    assert_reported(first, BENCHMARK["per_layer"])
    assert (tmp_path / "spans-selftest.tsv").stat().st_size > 0
    assert (tmp_path / "profile-march.txt").read_text().count("function calls")

    second = run.traced(11, "selftest", tmp_path, SMALL)
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    exact = [n for n, u in units.items() if u in ("count", "bytes", "calls/step") or n.endswith("_ratio")]
    exact = [n for n in exact if not n.endswith("trace_overhead_ratio") and ".profile." not in n]
    for name in exact:
        assert first["summary"]["metrics"][name] == second["summary"]["metrics"][name], name


def tamper_position(text: str, line_no: int) -> str:
    lines = text.splitlines()
    row = json.loads(lines[line_no])
    row["positions"]["2"][0] += 1
    lines[line_no] = json.dumps(row, sort_keys=True, separators=(",", ":"))
    return "\n".join(lines) + "\n"


def test_tampered_trace_counts_as_a_failure():
    march, _ = run.set_up("march", 3, 1, **SMALL["march"])
    adversary, trace, text = march.simulate(0)
    assert march.verify(adversary, trace, text) == []
    tampered = tamper_position(text, 40)
    assert march.verify(adversary, trace, tampered)

    march.simulate = lambda k: (adversary, trace, tampered)
    tally = run.Tally()
    run.run_passes(march, tally, passes=1)
    assert tally.failed == 1
    assert not run.result("march", {}, {}, len(tally.latencies), tally)["summary"]["correct"]


def test_tampered_certificate_counts_as_a_failure():
    lib = run.fresh_library()
    for name in workloads.BASELINES:
        collective = lib.strategies.load_builtin(name)
        initial = collective.initial_state()
        cert = lib.adversary.defeat_strategy(collective, max_depth=workloads.MAX_DEPTH).certificate
        assert workloads.certificate_problems(lib, initial, cert) == []
        longer = dataclasses.replace(cert, cycle_steps=cert.cycle_steps + 1)
        assert workloads.certificate_problems(lib, initial, longer), name
