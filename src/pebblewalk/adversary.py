"""Adversaries, the canonical-state lasso search, and strategy defeat.

The adversary resolves every real choice the leader's output leaves open.
Directed movement must survive every adversary, so refuting a strategy means
exhibiting one infinite realization whose coordinate stays put.  The witness
format is a lasso: a finite choice prefix followed by a choice cycle that
returns the collective to the exact same configuration and internal states,
hence replays forever with zero net displacement.  The search expands a
`collective.Quotient`, the graph `walk` steps through, and reads each
certificate off it; `finalize_certificate` replays one as the check.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Optional, Sequence

from pebblewalk.collective import (
    ChoiceContext,
    Collective,
    CollectiveState,
    Quotient,
    StepFault,
    at_origin,
    diameter_of,
    move_onto,
    position_sums,
    run,
)
from pebblewalk.graph import Graph, _bases, _find_zero_walk, _shortest_zero_walk
from pebblewalk.lattice import Vertex
from pebblewalk.util import FrozenMap

Offset = tuple[int, int]


class ScriptError(RuntimeError):
    """A scripted adversary was consulted beyond or against its script."""


class FirstOption:
    """Always the least option under the fixed relative-offset order."""

    name = "first"

    def choose(self, options: Sequence[Vertex], ctx: ChoiceContext) -> int:
        return 0


class LastOption:
    """Always the greatest option under the fixed relative-offset order."""

    name = "last"

    def choose(self, options: Sequence[Vertex], ctx: ChoiceContext) -> int:
        return len(options) - 1


class SeededRandom:
    """Deterministic pseudo-random choices keyed by seed and run history.

    The pick hashes the seed, the history digest carried in the context, and
    the option offsets, so identical runs repeat exactly while different
    histories decorrelate.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.name = f"seeded:{seed}"

    def choose(self, options: Sequence[Vertex], ctx: ChoiceContext) -> int:
        h = hashlib.blake2b(digest_size=8)
        h.update(str(self.seed).encode())
        h.update(ctx.digest)
        for o in options:
            h.update(f"({o.x - ctx.at.x},{o.y - ctx.at.y})".encode())
        return int.from_bytes(h.digest(), "big") % len(options)


class ScriptedChoices:
    """Replay a recorded list of relative offsets, one per consultation."""

    def __init__(self, offsets: Sequence[Offset]):
        self.offsets = list(offsets)
        self.cursor = 0
        self.name = "scripted"

    def choose(self, options: Sequence[Vertex], ctx: ChoiceContext) -> int:
        if self.cursor >= len(self.offsets):
            raise ScriptError(f"script exhausted after {self.cursor} choices")
        dx, dy = self.offsets[self.cursor]
        want = Vertex(ctx.at.x + dx, ctx.at.y + dy)
        for i, o in enumerate(options):
            if o == want:
                self.cursor += 1
                return i
        raise ScriptError(
            f"scripted offset ({dx},{dy}) not among options at step {ctx.step_index}"
        )


class Oscillator:
    """Heuristic adversary that pulls the leader back toward a home column:
    the leader's column at the first consultation."""

    def __init__(self):
        self.home_x = None
        self.name = "oscillator"

    def choose(self, options: Sequence[Vertex], ctx: ChoiceContext) -> int:
        if self.home_x is None:
            self.home_x = ctx.at.x
        best = min(range(len(options)), key=lambda i: (abs(options[i].x - self.home_x), i))
        return best


def canonicalize(positions: FrozenMap, states: FrozenMap) -> tuple[tuple, int]:
    """Translate the configuration so its least x is 0; return key and shift."""
    rel, anchor = at_origin(positions)
    return (tuple(sorted(states.items())), rel), anchor


@dataclass(frozen=True)
class LassoCertificate:
    """Choice script whose cycle part repeats a configuration exactly.

    prefix/cycle hold relative offsets, one per consulted step; the step
    counts include forced steps.  net_displacement is the coordinate change
    over one cycle (always (0, 0) for a certificate that replays), and
    confinement_radius bounds how far the coordinate strays from the cycle
    start while the cycle runs.  The cycle starts at the configuration
    the prefix reaches, which the replay checks it returns to.
    """

    prefix: tuple[Offset, ...]
    prefix_steps: int
    cycle: tuple[Offset, ...]
    cycle_steps: int
    net_displacement: tuple[Fraction, Fraction]
    confinement_radius: Fraction


@dataclass(frozen=True)
class SearchStats:
    """The part of the quotient a lasso search expanded: classes located,
    Moves added, classes whose plan faulted, and options cut by the
    diameter bound.  A search that stops at a lasso counts only what it
    expanded before the stop; one that finds none counts the whole quotient
    within its cuts."""

    nodes: int
    edges: int
    faults: int
    pruned: int


@dataclass(frozen=True)
class SearchOutcome:
    """certificate set: a shortest lasso was found.  `complete` says whether
    the whole quotient graph was expanded with no cut by depth or the
    diameter bound; without a certificate that makes the verdict not-found,
    and otherwise depth-exhausted.  A search that stopped at a lasso before
    expanding every class is not complete."""

    certificate: Optional[LassoCertificate]
    complete: bool
    stats: SearchStats

    @property
    def verdict(self) -> str:
        if self.certificate is not None:
            return "found"
        return "not-found" if self.complete else "depth-exhausted"


def search_lasso(
    initial: CollectiveState,
    max_depth: int,
    diameter_bound: int = 4,
) -> SearchOutcome:
    """Breadth-first expand the choice graph modulo x-translation and return
    its shortest lasso: a closed walk with zero net anchor shift, reached
    along the discovery tree.

    The graph is a Quotient local to the call: nodes are its classes, each
    planned at its representative and expanded in node order, which is
    breadth-first order, and edges are its Moves.  A successor is followed
    only when it passes the diameter bound.  Move weights are the per-step
    shift of the leftmost occupied column; a closed walk of total weight
    zero revisits an absolute configuration exactly, so it extends to an
    infinite realization whose coordinate is confined.  The lasso's prefix
    is the discovery-tree path to the walk's base, a shortest path from the
    initial class, and its length is the prefix's steps plus the walk's.
    The certificate is read off the quotient, not replayed.

    The search looks for lassos of length at most D once every class
    shallower than D is planned, for D = 1, 2, 4, 8, ...: each class on the
    cycle of such a lasso is shallower than D, so every such lasso is in the
    graph by then, and the shortest of them is a shortest lasso of all.  The
    search stops at the first look that finds one.  While every Move but
    the ones that discovered a class is missing, the graph is a tree and the
    look is skipped.  A search that no look stops expands the whole quotient
    and then decides exactly, by cycle means.  Ties go as
    `graph._shortest_zero_walk` says, so the certificate does not depend on
    where the search stopped.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    g = Quotient()
    g.locate(initial)
    faults = 0
    pruned = 0
    truncated = False
    look_at = 1
    found = None

    # A list iterator also yields what is appended while it runs, so this
    # loop reaches every class that following adds, in breadth-first order.
    for u, rep in enumerate(g.reps):
        if g.depths[u] >= look_at:
            if len(g.edges) >= len(g.reps):
                found = _shortest_zero_walk(_bases(g)[0], look_at)
                if found is not None:
                    truncated = True  # the classes from u on are left unexpanded
                    break
            look_at *= 2
        if g.depths[u] >= max_depth:
            truncated = True
            continue
        try:
            plan = g.plan(u, rep, 0)  # a representative lies at anchor 0
        except StepFault:
            faults += 1
            continue
        for idx, opt in enumerate(plan.options):
            positions = move_onto(rep.positions, plan.carried, opt)
            if diameter_of(positions) > diameter_bound:
                pruned += 1
                truncated = True
                continue
            g.follow(u, plan, idx, 0, CollectiveState(rep.collective, positions, plan.next_states))
    else:
        if len(g.edges) >= len(g.reps):
            found = _find_zero_walk(g, look_at)

    stats = SearchStats(len(g.reps), len(g.edges), faults, pruned)
    if found is None:
        return SearchOutcome(None, not truncated, stats)
    _, base, cycle_edges = found
    _, prefix_edges = g.tree_path(base)
    return SearchOutcome(_certificate_from_edges(g, prefix_edges, cycle_edges), not truncated, stats)


def _certificate_from_edges(g: Graph, prefix_edges: list[int], cycle_edges: list[int]) -> LassoCertificate:
    """The lasso along the edges, measured as `finalize_certificate` measures
    a replay, over the cycle walked twice: a class at anchor a has position
    sums (sum of x over its representative + members * a, sum of y)."""
    cycle = [g.edges[ei] for ei in cycle_edges]
    reps = [g.reps[cycle[0].src], *(g.reps[move.dst] for move in cycle * 2)]
    anchors = accumulate((move.weight for move in cycle * 2), initial=0)
    members = len(reps[0].positions)
    sums = [(x + members * a, y) for (x, y), a in zip(position_sums(reps), anchors)]
    base_x, base_y = sums[0]
    spread = max(max(abs(x - base_x), abs(y - base_y)) for x, y in sums)
    end_x, end_y = sums[len(cycle)]
    return LassoCertificate(
        prefix=tuple(g.edges[ei].offset for ei in prefix_edges if g.edges[ei].consulted),
        prefix_steps=len(prefix_edges),
        cycle=tuple(move.offset for move in cycle if move.consulted),
        cycle_steps=len(cycle),
        net_displacement=(Fraction(end_x - base_x, members), Fraction(end_y - base_y, members)),
        confinement_radius=Fraction(spread, members),
    )


def finalize_certificate(initial: CollectiveState, cert: LassoCertificate) -> Optional[LassoCertificate]:
    """Replay-validate; fill in the measured confinement radius.

    Returns None when the step counts do not make a lasso (a prefix of at
    least 0 steps and a cycle of at least 1) or the replay does not
    reproduce the exact configuration and internal states at both cycle
    boundaries.  The displacement and radius come from integer position
    sums, divided by the member count once.
    """
    if cert.prefix_steps < 0 or cert.cycle_steps < 1:
        return None
    script = ScriptedChoices(list(cert.prefix) + list(cert.cycle) * 2)
    horizon = cert.prefix_steps + 2 * cert.cycle_steps
    try:
        trace = run(initial, script, horizon)
    except (StepFault, ScriptError):
        return None
    if script.cursor != len(script.offsets):
        return None
    p, c = cert.prefix_steps, cert.cycle_steps
    snap = lambda t: (trace.records[t].positions, trace.records[t].states)
    if not (snap(p) == snap(p + c) == snap(p + 2 * c)):
        return None
    members = len(initial.positions)
    sums = position_sums(trace.records[p : p + 2 * c + 1])
    base_x, base_y = sums[0]
    spread = max(max(abs(x - base_x), abs(y - base_y)) for x, y in sums)
    end_x, end_y = sums[c]
    return LassoCertificate(
        prefix=cert.prefix,
        prefix_steps=cert.prefix_steps,
        cycle=cert.cycle,
        cycle_steps=cert.cycle_steps,
        net_displacement=(Fraction(end_x - base_x, members), Fraction(end_y - base_y, members)),
        confinement_radius=Fraction(spread, members),
    )


@dataclass(frozen=True)
class DefeatOutcome:
    status: str  # "defeated" | "inconclusive"
    certificate: Optional[LassoCertificate] = None
    detail: str = ""
    stats: Optional[SearchStats] = None  # the lasso search's graph size

    @property
    def defeated(self) -> bool:
        return self.status == "defeated"


def defeat_strategy(
    collective: Collective,
    max_depth: int = 200,
    diameter_bound: int = 4,
) -> DefeatOutcome:
    """Find a confinement witness for a collective with at most 3 pebbles.

    Runs the lasso search once and keeps its stats.  A found lasso is
    returned as the search's certificate; otherwise the outcome is
    inconclusive, and its detail says whether the whole quotient graph was
    expanded or the search was cut off by `max_depth` or the diameter bound.
    """
    if len(collective.pebbles) > 3:
        raise ValueError("defeat_strategy handles collectives with at most 3 pebbles")
    problems = collective.validate_pebbles()
    if problems:
        raise ValueError("invalid pebbles: " + "; ".join(problems))
    outcome = search_lasso(collective.initial_state(), max_depth, diameter_bound)
    if outcome.certificate is not None:
        return DefeatOutcome("defeated", outcome.certificate, stats=outcome.stats)
    if outcome.complete:
        detail = "choice graph fully expanded without a zero-displacement lasso"
    else:
        detail = f"depth {max_depth} exhausted (diameter bound {diameter_bound})"
    return DefeatOutcome("inconclusive", detail=detail, stats=outcome.stats)
