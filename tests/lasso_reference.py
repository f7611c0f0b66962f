"""Reference expansion for the lasso search: every representative is
planned and stepped afresh through plan_step and apply_choice, and every
successor is keyed by canonicalize, with no quotient table.  The search's
own expansion must reach the same outcome."""

from __future__ import annotations

from collections import deque

from pebblewalk.adversary import (
    SearchOutcome,
    SearchStats,
    _certificate_from_edges,
    _Edge,
    _find_zero_walk,
    canonicalize,
)
from pebblewalk.collective import (
    CollectiveState,
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
    faults = 0
    pruned = 0
    truncated = False

    while queue:
        u = queue.popleft()
        if g.depths[u] >= max_depth:
            truncated = True
            continue
        succs = _successors(g.reps[u])
        if succs is None:
            faults += 1
            continue
        for offset, consulted, nxt in succs:
            if diameter_of(nxt.positions) > diameter_bound:
                pruned += 1
                truncated = True
                continue
            key, anchor = canonicalize(nxt.positions, nxt.states)
            if key in g.index:
                v = g.index[key]
            else:
                v = g.add_node(key, CollectiveState(nxt.collective, key[1], nxt.states), g.depths[u] + 1)
                queue.append(v)
            g.add_edge(_Edge(u, v, anchor, offset, consulted))

    walk = _find_zero_walk(g)
    stats = SearchStats(len(g.reps), len(g.edges), faults, pruned)
    if walk is None:
        return SearchOutcome(None, not truncated, stats)
    base, cycle_edges = walk
    prefix_edges = bfs_path(g, 0, base)
    cert = _certificate_from_edges(initial, g, prefix_edges, cycle_edges)
    return SearchOutcome(cert, not truncated, stats)
