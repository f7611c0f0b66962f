"""Adversaries, the canonical-state lasso search, and strategy defeat.

The adversary resolves every real choice the leader's output leaves open.
Directed movement must survive every adversary, so refuting a strategy means
exhibiting one infinite realization whose coordinate stays put.  The witness
format is a lasso: a finite choice prefix followed by a choice cycle that
returns the collective to the exact same configuration and internal states,
hence replays forever with zero net displacement.  The search expands a
`collective.Quotient`, the graph `walk` steps through, and reads its lasso
prefix off the quotient's discovery tree.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from pebblewalk.collective import (
    ChoiceContext,
    Collective,
    CollectiveState,
    Move as _Edge,  # noqa: F401  (tests build graphs of Moves under this name)
    PebbleFault,
    Quotient,
    StrategyFault,
    apply_choice,
    at_origin,
    diameter_of,
    run,
)
from pebblewalk.graph import Graph, bfs_path, strong_components
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
    """Heuristic adversary that pulls the leader back toward a home column."""

    def __init__(self, home_x: Optional[int] = None):
        self.home_x = home_x
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
    nodes: int
    edges: int
    faults: int
    pruned: int


@dataclass(frozen=True)
class SearchOutcome:
    """certificate set: lasso found.  Otherwise `complete` says whether the
    whole quotient graph was expanded (NotFound) or the search was truncated
    by depth or the diameter bound (DepthExhausted)."""

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
    """Breadth-first expand the choice graph modulo x-translation and look
    for a closed walk with zero net anchor shift.

    The graph is a Quotient local to the call: nodes are its classes, each
    planned at its representative and expanded in node order, which is
    breadth-first order, and edges are its Moves.  A successor is followed
    only when it passes the diameter bound.  Move weights are the per-step
    shift of the leftmost occupied column; a closed walk of total weight
    zero revisits an absolute configuration exactly, so it extends to an
    infinite realization whose coordinate is confined.  The lasso's prefix
    is the discovery-tree path to the walk's base, a shortest path from the
    initial class.  Certificates are replay-validated before being returned.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    g = Quotient()
    g.locate(initial)
    faults = 0
    pruned = 0
    truncated = False

    # A list iterator also yields what is appended while it runs, so this
    # loop reaches every class that following adds, in breadth-first order.
    for u, rep in enumerate(g.reps):
        if g.depths[u] >= max_depth:
            truncated = True
            continue
        try:
            plan = g.plan(u, rep, 0)
        except (StrategyFault, PebbleFault):
            faults += 1
            continue
        for idx, opt in enumerate(plan.options):
            nxt, _ = apply_choice(rep, plan, opt)
            if diameter_of(nxt.positions) > diameter_bound:
                pruned += 1
                truncated = True
                continue
            g.follow(u, plan, idx, 0, nxt)

    found = _find_zero_walk(g)
    stats = SearchStats(len(g.reps), len(g.edges), faults, pruned)
    if found is None:
        return SearchOutcome(None, not truncated, stats)
    base, cycle_edges = found
    _, prefix_edges = g.tree_path(base)
    cert = _certificate_from_edges(initial, g, prefix_edges, cycle_edges)
    return SearchOutcome(cert, not truncated, stats)


def _negative_cycle(nodes: list[int], edges: list[int], g: Graph, weight: Callable[[int], int]) -> Optional[list[int]]:
    """Edge list of a simple cycle that is negative under weight(edge weight), else None."""
    pos = {u: i for i, u in enumerate(nodes)}
    n = len(nodes)
    arcs = []
    for ei in edges:
        e = g.edges[ei]
        arcs.append((pos[e.src], pos[e.dst], weight(e.weight), ei))
    dist = [0] * n
    pred_edge: list[Optional[int]] = [None] * n
    for _ in range(n):
        updated_node = None
        for u, v, w, ei in arcs:
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                pred_edge[v] = ei
                updated_node = v
        if updated_node is None:
            return None
    # follow predecessors until a node repeats: that node lies on a cycle of
    # the predecessor graph, which is a negative cycle
    seen: dict[int, int] = {}
    v = updated_node
    while v not in seen:
        seen[v] = len(seen)
        ei = pred_edge[v]
        if ei is None:
            return None
        v = pos[g.edges[ei].src]
    cycle_edges = []
    cur = v
    while True:
        ei = pred_edge[cur]
        assert ei is not None
        cycle_edges.append(ei)
        cur = pos[g.edges[ei].src]
        if cur == v:
            break
    cycle_edges.reverse()
    if sum(weight(g.edges[ei].weight) for ei in cycle_edges) >= 0:
        return None
    return cycle_edges


def _find_zero_walk(g: Graph) -> Optional[tuple[int, list[int]]]:
    """Find (base node, edge list) of a zero-net-weight closed walk, if any.

    A strongly connected component holds a zero-weight closed walk exactly
    when it holds a simple cycle of weight <= 0 and one of weight >= 0: a
    zero walk splits into simple cycles summing to zero, and cycles of both
    signs compose into a zero walk.  A simple cycle of length L <= n (n the
    component's node count) and weight W has weight n*W - L under n*w - 1,
    which is negative exactly when W <= 0; likewise -n*W - L is negative
    exactly when W >= 0.  So one negative-cycle search per sign decides it.
    """
    comp = strong_components(g)
    by_comp: dict[int, list[int]] = {}
    for u in range(len(g.reps)):
        by_comp.setdefault(comp[u], []).append(u)
    comp_edges: dict[int, list[int]] = {}
    for ei, e in enumerate(g.edges):
        if comp[e.src] == comp[e.dst]:
            comp_edges.setdefault(comp[e.src], []).append(ei)
    # deterministic order: by least node index
    for cid in sorted(comp_edges, key=lambda c: min(by_comp[c])):
        nodes = by_comp[cid]
        edges = comp_edges[cid]
        n = len(nodes)
        at_most_zero = _negative_cycle(nodes, edges, g, lambda w: n * w - 1)
        if at_most_zero is None:
            continue
        at_least_zero = _negative_cycle(nodes, edges, g, lambda w: -n * w - 1)
        if at_least_zero is None:
            continue
        for cycle in (at_most_zero, at_least_zero):
            if _edge_walk_weight(g, cycle) == 0:
                # based at its earliest-discovered node, for the shortest prefix
                first = min(range(len(cycle)), key=lambda i: g.edges[cycle[i]].src)
                return g.edges[cycle[first]].src, cycle[first:] + cycle[:first]
        return _compose_zero_walk(g, set(nodes), at_least_zero, at_most_zero)
    return None


def _edge_walk_weight(g: Graph, edge_list: list[int]) -> int:
    return sum(g.edges[ei].weight for ei in edge_list)


def _compose_zero_walk(g: Graph, node_set: set[int], pos_cycle: list[int], neg_cycle: list[int]) -> tuple[int, list[int]]:
    """Stitch a positive and a negative cycle into one zero-weight closed walk."""
    a = g.edges[pos_cycle[0]].src
    b = g.edges[neg_cycle[0]].src
    p = _edge_walk_weight(g, pos_cycle)
    n = _edge_walk_weight(g, neg_cycle)
    assert p > 0 and n < 0
    to_b = bfs_path(g, a, b, node_set)
    to_a = bfs_path(g, b, a, node_set)
    s = _edge_walk_weight(g, to_b) + _edge_walk_weight(g, to_a)
    # W2 = to_b + neg_cycle^k2 + to_a is a closed walk at `a` of weight s + k2*n < 0
    k2 = max(1, s // (-n) + 1)
    w2 = to_b + neg_cycle * k2 + to_a
    w2_weight = s + k2 * n
    assert w2_weight < 0
    # |w2_weight| copies of the positive cycle + p copies of W2: total weight 0
    walk = pos_cycle * (-w2_weight) + w2 * p
    assert _edge_walk_weight(g, walk) == 0
    return a, walk


def _certificate_from_edges(
    initial: CollectiveState,
    g: Graph,
    prefix_edges: list[int],
    cycle_edges: list[int],
) -> Optional[LassoCertificate]:
    prefix = tuple(g.edges[ei].offset for ei in prefix_edges if g.edges[ei].consulted)
    cycle = tuple(g.edges[ei].offset for ei in cycle_edges if g.edges[ei].consulted)
    cert = LassoCertificate(
        prefix=prefix,
        prefix_steps=len(prefix_edges),
        cycle=cycle,
        cycle_steps=len(cycle_edges),
        net_displacement=(Fraction(0), Fraction(0)),
        confinement_radius=Fraction(0),
    )
    return finalize_certificate(initial, cert)


def finalize_certificate(initial: CollectiveState, cert: LassoCertificate) -> Optional[LassoCertificate]:
    """Replay-validate; fill in the measured confinement radius.

    Returns None when the replay does not reproduce the exact configuration
    and internal states at both cycle boundaries.
    """
    script = ScriptedChoices(list(cert.prefix) + list(cert.cycle) * 2)
    horizon = cert.prefix_steps + 2 * cert.cycle_steps
    try:
        trace = run(initial, script, horizon)
    except (StrategyFault, PebbleFault, ScriptError):
        return None
    if script.cursor != len(script.offsets):
        return None
    p, c = cert.prefix_steps, cert.cycle_steps
    snap = lambda t: (trace.records[t].positions, trace.records[t].states)
    if not (snap(p) == snap(p + c) == snap(p + 2 * c)):
        return None
    coords = trace.coordinates()
    base_coord = coords[p]
    radius = max(
        max(abs(coords[t].x - base_coord.x), abs(coords[t].y - base_coord.y))
        for t in range(p, p + 2 * c + 1)
    ) if c else Fraction(0)
    return LassoCertificate(
        prefix=cert.prefix,
        prefix_steps=cert.prefix_steps,
        cycle=cert.cycle,
        cycle_steps=cert.cycle_steps,
        net_displacement=(coords[p + c].x - coords[p].x, coords[p + c].y - coords[p].y),
        confinement_radius=radius,
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
    returned as a replayed certificate; otherwise the outcome is
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
