"""Command-line front end.

Exit codes are a contract: 0 success or property holds, 1 property violated
or search inconclusive, 2 input error (bad arguments, unparseable files,
out-of-scope requests), 3 runtime fault during simulation.  The env var
PEBBLEWALK_OUT names the default directory for written traces.
"""

from __future__ import annotations

import argparse
import os
import sys

from pebblewalk.adversary import (
    FirstOption,
    LastOption,
    Oscillator,
    SeededRandom,
    defeat_strategy,
    finalize_certificate,
)
from pebblewalk.collective import (
    Collective,
    PebbleFault,
    StrategyFault,
    check_directed,
    check_uniform,
    run,
)
from pebblewalk.schemas import (
    enumerate_schemas,
    find_confinement_cycle,
    graph_dot,
    sorted_schemas,
    symmetry_classes,
    transfer_graph,
)
from pebblewalk.strategies import BUILTIN_STRATEGIES, load_builtin
from pebblewalk.strategy_format import ParseError, parse_strategy
from pebblewalk.render import render_records
from pebblewalk.tracefile import (
    TraceError,
    make_document,
    read_document,
    write_document,
)

OK = 0
VIOLATED = 1
INPUT_ERROR = 2
RUNTIME_FAULT = 3


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


def load_strategy(spec: str) -> Collective:
    """A builtin name, or a path to a strategy file."""
    if spec in BUILTIN_STRATEGIES:
        return load_builtin(spec)
    if os.path.exists(spec):
        with open(spec) as fh:
            return parse_strategy(fh.read()).collective
    raise ParseError(1, 1, f"{spec!r} is neither a builtin strategy nor a file")


def parse_adversary(spec: str):
    if spec == "first":
        return FirstOption()
    if spec == "last":
        return LastOption()
    if spec == "oscillator":
        return Oscillator()
    if spec.startswith("seeded:") and spec[7:].lstrip("-").isdigit():
        return SeededRandom(int(spec[7:]))
    raise ValueError(
        f"unknown adversary {spec!r}; use first, last, oscillator, or seeded:<n>"
    )


def _default_output(strategy: str, adversary: str, horizon: int) -> str:
    directory = os.environ.get("PEBBLEWALK_OUT", ".")
    name = f"{strategy}-{adversary.replace(':', '')}-{horizon}.trace.jsonl"
    return os.path.join(directory, name)


def cmd_simulate(args) -> int:
    try:
        collective = load_strategy(args.strategy)
        adversary = parse_adversary(args.adversary)
        if args.horizon < 0:
            raise ValueError("horizon must be >= 0")
    except (ParseError, ValueError, OSError) as e:
        return _fail(INPUT_ERROR, f"simulate: {e}")
    out = args.output or _default_output(collective.name, adversary.name, args.horizon)
    try:
        trace = run(collective.initial_state(), adversary, args.horizon)
    except (StrategyFault, PebbleFault) as fault:
        if fault.trace is not None:
            write_document(make_document(collective, adversary, args.horizon, fault.trace), out)
            print(f"wrote partial trace to {out}", file=sys.stderr)
        return _fail(RUNTIME_FAULT, f"simulate: {fault}")
    write_document(make_document(collective, adversary, args.horizon, trace), out)
    print(f"wrote {out} ({len(trace.records)} records)")
    return OK


def cmd_check(args) -> int:
    try:
        doc = read_document(args.trace)
    except (TraceError, OSError) as e:
        return _fail(INPUT_ERROR, f"check: {e}")
    checker = check_uniform if args.uniform else check_directed
    try:
        verdict = checker(doc.trace, c1=args.c1, c2=args.c2)
    except ValueError as e:
        return _fail(INPUT_ERROR, f"check: {e}")
    print(verdict)
    return OK if verdict.holds else VIOLATED


def cmd_schemas(args) -> int:
    try:
        schemas = sorted_schemas(enumerate_schemas(args.pebbles))
    except ValueError as e:
        return _fail(INPUT_ERROR, f"schemas: {e}")
    if args.emit == "list":
        for s in schemas:
            print(s)
    elif args.emit == "classes":
        for cls in symmetry_classes(schemas):
            members = ", ".join(str(s) for s in sorted_schemas(cls))
            print(f"size={len(cls)}: {members}")
    else:
        graph = transfer_graph(args.pebbles)
        print(graph_dot(graph), end="")
        cycle = find_confinement_cycle(graph)
        if cycle is not None:
            print(f"// confinement cycle of length {len(cycle.steps)} found", file=sys.stderr)
    return OK


def cmd_defeat(args) -> int:
    try:
        collective = load_strategy(args.strategy)
    except (ParseError, OSError) as e:
        return _fail(INPUT_ERROR, f"defeat: {e}")
    try:
        outcome = defeat_strategy(collective, max_depth=args.max_depth)
    except ValueError as e:
        return _fail(INPUT_ERROR, f"defeat: {e}")
    if not outcome.defeated:
        print(f"inconclusive: {outcome.detail}")
        return VIOLATED
    cert = outcome.certificate
    replayed = finalize_certificate(collective.initial_state(), cert)
    if replayed is None:
        return _fail(RUNTIME_FAULT, "defeat: certificate failed replay validation")
    print(
        f"defeated {collective.name}: lasso with {cert.prefix_steps}-step prefix,"
        f" {cert.cycle_steps}-step cycle, net displacement (0,0),"
        f" confinement radius {cert.confinement_radius}"
    )
    print(f"prefix choices: {list(cert.prefix)}")
    print(f"cycle choices:  {list(cert.cycle)}")
    return OK


def cmd_render(args) -> int:
    try:
        doc = read_document(args.trace)
    except (TraceError, OSError) as e:
        return _fail(INPUT_ERROR, f"render: {e}")
    try:
        sys.stdout.write(render_records(doc.records, args.window))
    except ValueError as e:
        return _fail(INPUT_ERROR, f"render: {e}")
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pebblewalk",
        description="Simulate and analyze pebble collectives on the width-2 lattice.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a strategy and write a trace document")
    p.add_argument("strategy", help="builtin name or strategy file path")
    p.add_argument("--adversary", default="first", help="first|last|oscillator|seeded:<n>")
    p.add_argument("--horizon", type=int, required=True, help="number of steps")
    p.add_argument("--output", help="trace path (default: into $PEBBLEWALK_OUT)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("check", help="test a trace for directed movement")
    p.add_argument("trace", help="trace document path")
    p.add_argument("--c1", type=int, required=True, help="diameter bound")
    p.add_argument("--c2", type=int, required=True, help="window bound")
    p.add_argument("--uniform", action="store_true", help="use the fixed-window variant")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("schemas", help="enumerate pebble schemas and their structure")
    p.add_argument("pebbles", type=int, help="number of pebbles (2 or 3)")
    p.add_argument("--emit", choices=("list", "classes", "graph"), default="list")
    p.set_defaults(func=cmd_schemas)

    p = sub.add_parser("defeat", help="search for a confining adversary")
    p.add_argument("strategy", help="builtin name or strategy file path")
    p.add_argument("--max-depth", type=int, default=200)
    p.set_defaults(func=cmd_defeat)

    p = sub.add_parser("render", help="print ASCII panels of a trace")
    p.add_argument("trace", help="trace document path")
    p.add_argument("--window", type=int, default=None, help="max columns per panel")
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)
