"""Command-line front end.

Exit codes are a contract: 0 success or property holds, 1 property violated
or search inconclusive, 2 input error: any ValueError or OSError, so also
a refused command line, unreadable input and unwritable output, which
`main` alone turns into one `<command>: <message>` line (`pebblewalk:` when
no command was read); 3 a step fault (its partial trace is written)
or a certificate whose replay measures differently.  The env var
PEBBLEWALK_OUT names the default directory for written traces.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time

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
    StepFault,
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
from pebblewalk.strategy_format import MAX_DIGITS, ParseError, parse_strategy
from pebblewalk.render import render_records
from pebblewalk.tracefile import make_document, read_document, write_document

OK = 0
VIOLATED = 1
INPUT_ERROR = 2
RUNTIME_FAULT = 3


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


def load_strategy(spec: str) -> Collective:
    """A builtin name, or a path to a UTF-8 strategy file."""
    if spec in BUILTIN_STRATEGIES:
        return load_builtin(spec)
    if os.path.exists(spec):
        with open(spec, "rb") as fh:
            data = fh.read()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as e:
            # Lines as parse_strategy cuts them; the last one ends at the bad byte.
            before = (data[: e.start].decode("utf-8") + ".").splitlines()
            message = f"byte 0x{data[e.start]:02x} is not UTF-8 ({e.reason})"
            raise ParseError(len(before), len(before[-1]), message) from None
        return parse_strategy(text).collective
    raise ParseError(1, 1, f"{spec!r} is neither a builtin strategy nor a file")


# ASCII digits only: int() would also take "٣" or "²".
_SEEDED = re.compile(rf"seeded:(-?[0-9]{{1,{MAX_DIGITS}}})")


def parse_adversary(spec: str):
    if spec == "first":
        return FirstOption()
    if spec == "last":
        return LastOption()
    if spec == "oscillator":
        return Oscillator()
    seeded = _SEEDED.fullmatch(spec)
    if seeded:
        return SeededRandom(int(seeded[1]))
    raise ValueError(
        f"unknown adversary {spec!r}; use first, last, oscillator, or seeded:<n>"
    )


def _default_output(strategy: str, adversary: str, horizon: int) -> str:
    directory = os.environ.get("PEBBLEWALK_OUT", ".")
    name = f"{strategy}-{adversary.replace(':', '')}-{horizon}.trace.jsonl"
    return os.path.join(directory, name)


def cmd_simulate(args) -> int:
    collective = load_strategy(args.strategy)
    adversary = parse_adversary(args.adversary)
    out = args.output or _default_output(collective.name, adversary.name, args.horizon)
    # The trace is written after the run, so its path is asked about before.
    if os.path.isdir(out):
        raise OSError(f"cannot write {out}: it is a directory")
    directory = os.path.dirname(os.path.abspath(out))
    if not (os.path.isdir(directory) and os.access(directory, os.W_OK | os.X_OK)):
        raise OSError(f"cannot write {out}: {directory} is not a writable directory")
    started = time.perf_counter()
    try:
        trace = run(collective.initial_state(), adversary, args.horizon)
    except StepFault as fault:
        if fault.trace is not None:
            write_document(make_document(collective, adversary, args.horizon, fault.trace), out)
            print(f"wrote partial trace to {out}", file=sys.stderr)
        return _fail(RUNTIME_FAULT, f"simulate: {fault}")
    elapsed = time.perf_counter() - started
    steps = len(trace.records) - 1
    consulted = sum(r.consulted for r in trace.records[1:])
    rate = steps / elapsed if elapsed > 0 else 0.0
    print(f"simulate: {steps} steps, {rate:.0f} steps/s, {consulted} consulted", file=sys.stderr)
    write_document(make_document(collective, adversary, args.horizon, trace), out)
    print(f"wrote {out} ({len(trace.records)} records)")
    return OK


def cmd_check(args) -> int:
    checker = check_uniform if args.uniform else check_directed
    verdict = checker(read_document(args.trace).trace, c1=args.c1, c2=args.c2)
    print(verdict)
    return OK if verdict.holds else VIOLATED


def cmd_schemas(args) -> int:
    schemas = sorted_schemas(enumerate_schemas(args.pebbles))
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
    collective = load_strategy(args.strategy)
    outcome = defeat_strategy(collective, max_depth=args.max_depth)
    stats = outcome.stats
    print(
        f"defeat: {stats.nodes} classes, {stats.edges} moves, {stats.faults} faults, {stats.pruned} pruned",
        file=sys.stderr,
    )
    if not outcome.defeated:
        print(f"inconclusive: {outcome.detail}")
        return VIOLATED
    cert = outcome.certificate
    if finalize_certificate(collective.initial_state(), cert) != cert:
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
    sys.stdout.write(render_records(read_document(args.trace).records, args.window))
    return OK


class UsageError(ValueError):
    """A command line the parser refuses; `command` names the (sub)parser
    that refused it, `pebblewalk` when no command was read."""

    def __init__(self, command: str, message: str):
        super().__init__(message)
        self.command = command


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises UsageError where argparse would print
    usage and exit, so that `main` reports it like any other input error.
    Subparsers are made of the same class."""

    def error(self, message: str):
        raise UsageError(self.prog.rsplit(" ", 1)[-1], message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    command = "pebblewalk"
    try:
        args = build_parser().parse_args(argv)
        command = args.command
        if sys.stdout is None:  # started with descriptor 1 closed
            raise OSError("stdout is closed")
        code = args.func(args)
        sys.stdout.flush()  # so that an unwritable stdout fails in here
        return code
    except UsageError as e:
        return _fail(INPUT_ERROR, f"{e.command}: {e}")
    except (ValueError, OSError) as e:
        return _fail(INPUT_ERROR, f"{command}: {e}")
