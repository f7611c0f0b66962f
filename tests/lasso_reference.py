"""Reference for the lasso search: a full expansion, a brute-force decider
and a brute-force shortest lasso.

Every representative is planned and stepped afresh through plan_step and
apply_choice, and every successor is keyed by canonicalize, with no
quotient table.  The whole graph is always expanded.  Whether it holds a
zero-weight closed walk is decided from the weights of every simple cycle,
its least and greatest cycle means from their weights and lengths, and the
lasso is one of least prefix plus cycle length, found by walking
every base forward with no bound on partial weights.  A found lasso is
measured by replaying it through finalize_certificate, not read off the
graph, and its stats count the part of the graph the search expands
before it stops.  The search must reach the same outcome."""

from __future__ import annotations

import itertools
from collections import deque
from fractions import Fraction
from typing import Optional

from pebblewalk.adversary import (
    LassoCertificate,
    SearchOutcome,
    SearchStats,
    canonicalize,
    finalize_certificate,
)
from pebblewalk.collective import (
    CollectiveState,
    Move,
    PebbleFault,
    StrategyFault,
    apply_choice,
    diameter_of,
    plan_step,
)
from pebblewalk.graph import Graph, bfs_path


def _successors(state: CollectiveState):
    """Yield (offset, consulted, next_state) per option; None on faults."""
    try:
        plan = plan_step(state)
    except (StrategyFault, PebbleFault):
        return None
    result = []
    for opt in plan.options:
        nxt, _ = apply_choice(state, plan, opt)
        result.append(((opt.x - plan.at.x, opt.y - plan.at.y), plan.consulted, nxt))
    return result


def search_lasso(
    initial: CollectiveState,
    max_depth: int,
    diameter_bound: int = 4,
) -> SearchOutcome:
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    g = Graph()
    key0, _ = canonicalize(initial.positions, initial.states)
    g.add_node(key0, CollectiveState(initial.collective, key0[1], initial.states), 0)
    queue = deque([0])
    faults: list[int] = []  # the depth of each faulting class
    pruned: list[int] = []  # the depth of each option's class the diameter bound cut
    truncated = False

    while queue:
        u = queue.popleft()
        if g.depths[u] >= max_depth:
            truncated = True
            continue
        succs = _successors(g.reps[u])
        if succs is None:
            faults.append(g.depths[u])
            continue
        for offset, consulted, nxt in succs:
            if diameter_of(nxt.positions) > diameter_bound:
                pruned.append(g.depths[u])
                truncated = True
                continue
            key, anchor = canonicalize(nxt.positions, nxt.states)
            if key in g.index:
                v = g.index[key]
            else:
                v = g.add_node(key, CollectiveState(nxt.collective, key[1], nxt.states), g.depths[u] + 1)
                queue.append(v)
            g.add_edge(Move(u, v, anchor, offset, consulted))

    lasso = shortest_lasso(g)
    stop = len(g.reps) + 1  # no class is this deep
    if lasso is not None:
        # The search looks at D = 1, 2, 4, ... when it meets the first class
        # of depth D, and stops at the first D at least the lasso's length.
        stop = 1
        while stop < g.depths[lasso[0]] + len(lasso[1]):
            stop *= 2
        truncated = truncated or max(g.depths) >= stop
    stats = SearchStats(
        sum(d <= stop for d in g.depths),
        sum(g.depths[e.src] < stop for e in g.edges),
        sum(d < stop for d in faults),
        sum(d < stop for d in pruned),
    )
    if lasso is None:
        return SearchOutcome(None, not truncated, stats)
    base, cycle_edges = lasso
    prefix_edges = bfs_path(g, 0, base)
    cert = replayed_certificate(initial, g, prefix_edges, cycle_edges)
    return SearchOutcome(cert, not truncated, stats)


def replayed_certificate(
    initial: CollectiveState,
    g: Graph,
    prefix_edges: list[int],
    cycle_edges: list[int],
) -> Optional[LassoCertificate]:
    """The lasso along the edges with zeroed measures, which
    finalize_certificate replays from initial and fills in."""
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


def mutual_classes(g: Graph) -> list[frozenset]:
    """Node -> the nodes it reaches and is reached from."""
    n = len(g.reps)
    reach = [[u == v for v in range(n)] for u in range(n)]
    for e in g.edges:
        reach[e.src][e.dst] = True
    for k, u, v in itertools.product(range(n), repeat=3):
        reach[u][v] = reach[u][v] or (reach[u][k] and reach[k][v])
    return [frozenset(v for v in range(n) if reach[u][v] and reach[v][u]) for u in range(n)]


def simple_cycles_by_component(g: Graph) -> dict[frozenset, set[tuple[int, int]]]:
    """(weight, length) of every simple cycle (as an edge sequence), keyed by
    the strongly connected component it lies in."""
    n = len(g.reps)
    classes = mutual_classes(g)
    cycles: dict[frozenset, set[tuple[int, int]]] = {}

    def extend(start, node, visited, weight):
        for ei in g.out[node]:
            e = g.edges[ei]
            if e.dst == start:
                cycles.setdefault(classes[start], set()).add((weight + e.weight, len(visited)))
            elif e.dst > start and e.dst not in visited:
                extend(start, e.dst, visited | {e.dst}, weight + e.weight)

    for start in range(n):
        extend(start, start, {start}, 0)
    return cycles


def holds_zero_walk(g: Graph) -> bool:
    """A zero-weight closed walk splits into simple cycles of one component
    summing to 0, and cycles of both signs in one component compose into one."""
    return any(min(w for w, _ in c) <= 0 <= max(w for w, _ in c) for c in simple_cycles_by_component(g).values())


def cycle_means(g: Graph) -> dict[frozenset, tuple[Fraction, Fraction]]:
    """The least and greatest mean weight over each component's simple
    cycles, which are its least and greatest closed-walk means: a closed
    walk splits into simple cycles, and its mean is a weighted average of
    theirs."""
    means = {}
    for component, cycles in simple_cycles_by_component(g).items():
        ratios = [Fraction(w, length) for w, length in cycles]
        means[component] = min(ratios), max(ratios)
    return means


def shortest_lasso(g: Graph) -> Optional[tuple[int, list[int]]]:
    """(base, edge list) of a zero-weight closed walk of least base depth
    plus length, or None.  Length by length, every base's set of (node,
    partial weight) reachable in exactly that many steps grows by one step,
    with no bound on the partial weight."""
    if not holds_zero_walk(g):
        return None
    n = len(g.reps)
    # per base, one dict per length: (node, weight) -> (previous state, edge)
    layers: list[list[dict]] = [[{(b, 0): None}] for b in range(n)]
    total = 0
    while True:
        total += 1
        for b in sorted(range(n), key=lambda b: (g.depths[b], b)):
            if total - g.depths[b] < 1:
                continue
            layer = {}
            for here in layers[b][-1]:
                u, s = here
                for ei in g.out[u]:
                    layer.setdefault((g.edges[ei].dst, s + g.edges[ei].weight), (here, ei))
            layers[b].append(layer)
            if (b, 0) in layer:
                walk = []
                state = (b, 0)
                for level in reversed(layers[b][1:]):
                    state, ei = level[state]
                    walk.append(ei)
                return b, walk[::-1]
