#!/usr/bin/env python3
"""Recompute the headline numbers and print them side by side.

Runs the marching collective under three adversaries, re-counts the pebble
schemas and their symmetry classes, rebuilds the transfer graph with its
confinement cycle, searches every ordered schema pair for worst-case
indistinguishability, and defeats each small builtin strategy, checking the
size of each lasso search's quotient graph.  Exits nonzero if any
recomputed value is off.
"""

from __future__ import annotations

import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pebblewalk.adversary import (
    FirstOption,
    LastOption,
    SearchStats,
    SeededRandom,
    defeat_strategy,
    finalize_certificate,
    search_lasso,
)
from pebblewalk.collective import coordinate_of
from pebblewalk.schemas import (
    DISTINCT,
    WITNESS,
    enumerate_schemas,
    find_confinement_cycle,
    sorted_schemas,
    symmetry_classes,
    transfer_graph,
    validate_witness,
    worst_case_indistinguishable,
)
from pebblewalk.strategies import load_builtin
from pebblewalk.walker14 import build_walker, verify_theorem2

ITERATIONS = 100
failures = 0


def check(label: str, got, want) -> None:
    global failures
    mark = "ok" if got == want else "MISMATCH"
    if got != want:
        failures += 1
    print(f"  {label}: {got} (expected {want}) [{mark}]")


def section(title: str) -> None:
    print(f"\n== {title} ==")


section("directed marching, 100 iterations per adversary")
for adversary in (FirstOption(), LastOption(), SeededRandom(42)):
    report = verify_theorem2(ITERATIONS, adversary)
    lengths = sorted(set(report.steps_per_iteration))
    print(f"adversary={adversary.name}")
    check("loops closed", report.iterations, ITERATIONS)
    check("loop lengths", lengths, [9] if adversary.name == "first" else ([11] if adversary.name == "last" else [9, 11]))
    check("total steps", report.total_steps, sum(report.steps_per_iteration))
    directed_failures = [f for f in report.failures if "directed" in f]
    other_failures = [f for f in report.failures if "directed" not in f]
    check("structural failures", other_failures, [])
    if adversary.name.startswith("seeded"):
        print(f"  every-moment window check: {'refused' if directed_failures else 'held'}"
              " (known limit for mixed loop lengths; loops still displace (1,0))")
    else:
        check("every-moment window check", directed_failures, [])

section("coordinate anchor")
state = build_walker(origin_x=0).initial_state()
point = coordinate_of(state.positions)
check("initial coordinate", (point.x, point.y), (Fraction(4, 5), Fraction(1, 5)))

section("schema enumeration")
for k, want in ((2, 5), (3, 11)):
    check(f"{k}-pebble schemas", len(enumerate_schemas(k)), want)
sizes = sorted(len(c) for c in symmetry_classes(enumerate_schemas(3)))
check("3-pebble class sizes", sizes, [1, 2, 2, 2, 4])
for s in sorted_schemas(enumerate_schemas(3)):
    print(f"    {s}")

section("transfer graph and confinement cycle")
graph = transfer_graph(3)
check("edge count", len(graph.edges) > 0, True)
cycle = find_confinement_cycle(graph)
check("confinement cycle found", cycle is not None, True)
if cycle is not None:
    print(f"  cycle length {len(cycle.steps)}, x-spread {cycle.x_spread}")

section("worst-case indistinguishability, every ordered schema pair, depth 12")
for k, witnesses, distinct in ((2, 13, 12), (3, 49, 72)):
    schemas = sorted_schemas(enumerate_schemas(k))
    outcomes = [worst_case_indistinguishable(a, b) for a in schemas for b in schemas]
    verdicts = Counter(o.verdict for o in outcomes)
    check(f"{k}-pebble verdicts", dict(verdicts), {WITNESS: witnesses, DISTINCT: distinct})
    rejected = 0
    for o in outcomes:
        if o.witness is not None:
            try:
                validate_witness(o.witness)
            except ValueError:
                rejected += 1
    check(f"{k}-pebble witnesses rejected on replay", rejected, 0)

section("defeats for the small builtins")
# Quotient size of each search at depth 200: nodes, edges, faults, pruned.
QUOTIENT_SIZES = {
    "baseline-10": SearchStats(2, 6, 0, 0),
    "baseline-11": SearchStats(2, 6, 0, 0),
    "baseline-12": SearchStats(3, 7, 0, 0),
    "baseline-13-caterpillar": SearchStats(48, 54, 0, 0),
    "walker14": SearchStats(16, 17, 0, 0),
}
for name in ("baseline-10", "baseline-11", "baseline-12", "baseline-13-caterpillar"):
    col = load_builtin(name)
    outcome = defeat_strategy(col, max_depth=200)
    check(f"{name} quotient size", outcome.stats, QUOTIENT_SIZES[name])
    check(f"{name} defeated", outcome.defeated, True)
    if outcome.defeated:
        cert = outcome.certificate
        replays = finalize_certificate(col.initial_state(), cert) == cert
        check(f"{name} certificate replays", replays, True)
        if replays:
            print(
                f"    prefix {cert.prefix_steps} steps, cycle {cert.cycle_steps} steps,"
                f" net {cert.net_displacement}, radius {cert.confinement_radius}"
            )

section("negative control")
outcome = search_lasso(build_walker().initial_state(), max_depth=200)
check("walker lasso certificate", outcome.certificate, None)
check("walker search complete", outcome.complete, True)
check("walker quotient size", outcome.stats, QUOTIENT_SIZES["walker14"])

print(f"\n{'all values reproduced' if failures == 0 else f'{failures} mismatches'}")
sys.exit(0 if failures == 0 else 1)
