"""The quotient graph the searches grow, and the cycle questions they ask of it.

Nodes are translation classes indexed by canonical key; each keeps one
representative, its depth and the edge that discovered it.  Edges are any
objects with integer `src` and `dst` fields plus the payload their search
needs.  The joint schema search wants a transfer edge on a cycle, which
`cycle_components` gives: the components that hold an edge.  The lasso
search and the confinement-cycle search want a shortest zero-weight closed
walk, over edges with an integer `weight`; the one engine for it is
`_find_zero_walk`, with `_shortest_zero_walk` for a look of bounded length,
and it decides a walk's existence by `cycle_means`, the least and greatest
mean weight of a component's cycles.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from typing import Any, Hashable, Optional


class Graph:
    """Canonical-quotient choice graph grown from depth-0 roots.

    A node added at depth > 0 is discovered by the first edge into it, which
    its search adds right after the node, at the node's depth less one; those
    edges form the discovery tree that `tree_path` reads.
    """

    def __init__(self) -> None:
        self.index: dict[Hashable, int] = {}
        self.reps: list[Any] = []
        self.depths: list[int] = []
        self.edges: list[Any] = []
        self.out: list[list[int]] = []
        self.tree: list[Optional[int]] = []  # node -> index of the edge that discovered it

    def add_node(self, key: Hashable, rep: Any, depth: int) -> int:
        idx = len(self.reps)
        self.index[key] = idx
        self.reps.append(rep)
        self.depths.append(depth)
        self.out.append([])
        self.tree.append(None)
        return idx

    def add_edge(self, e: Any) -> None:
        if self.depths[e.dst] and self.tree[e.dst] is None:
            self.tree[e.dst] = len(self.edges)
        self.out[e.src].append(len(self.edges))
        self.edges.append(e)

    def tree_path(self, v: int) -> tuple[int, list[int]]:
        """The root v descends from, and the discovery edges from it to v."""
        path = []
        while self.tree[v] is not None:
            path.append(self.tree[v])
            v = self.edges[path[-1]].src
        return v, path[::-1]


def bfs_path(g: Graph, src: int, dst: int) -> list[int]:
    """Shortest edge path src -> dst (list of edge indices); [] if src == dst.

    When src and dst share a component, every node on the path does too.
    """
    if src == dst:
        return []
    seen = {src}
    back: dict[int, int] = {}
    q = deque([src])
    while q:
        u = q.popleft()
        for ei in g.out[u]:
            v = g.edges[ei].dst
            if v in seen:
                continue
            seen.add(v)
            back[v] = ei
            if v == dst:
                path = []
                while v != src:
                    path.append(back[v])
                    v = g.edges[back[v]].src
                return path[::-1]
            q.append(v)
    raise RuntimeError("no path inside the expanded graph")


def cycle_components(g: Graph, edges: Optional[list[int]] = None) -> list[tuple[list[int], list[int]]]:
    """Every strongly connected component holding an edge, as (nodes, inner
    edges), of g or, given a list of edge indices, of g with only those edges.

    An edge lies on a cycle exactly when it is some component's inner edge.
    Nodes and edges ascend, and components are ordered by least node.
    Kosaraju's two passes: a depth-first finish order, then searches of the
    reversed graph in reverse finish order, each of which collects one
    component, labelled by the node it starts from.
    """
    n = len(g.reps)
    if edges is None:
        edges, out = range(len(g.edges)), g.out
    else:
        edges = sorted(edges)
        out = [[] for _ in range(n)]
        for ei in edges:
            out[g.edges[ei].src].append(ei)
    finished: list[int] = []
    seen = [False] * n
    for root in range(n):
        if not seen[root]:
            seen[root] = True
            work = [(root, iter(out[root]))]
            while work:
                for ei in work[-1][1]:
                    v = g.edges[ei].dst
                    if not seen[v]:
                        seen[v] = True
                        work.append((v, iter(out[v])))
                        break
                else:
                    finished.append(work.pop()[0])
    into: list[list[int]] = [[] for _ in range(n)]
    for ei in edges:
        e = g.edges[ei]
        into[e.dst].append(e.src)
    comp = [-1] * n
    for root in reversed(finished):
        if comp[root] == -1:
            comp[root] = root
            stack = [root]
            while stack:
                for w in into[stack.pop()]:
                    if comp[w] == -1:
                        comp[w] = root
                        stack.append(w)
    found: dict[int, tuple[list[int], list[int]]] = {}
    for ei in edges:
        e = g.edges[ei]
        if comp[e.src] == comp[e.dst]:
            found.setdefault(comp[e.src], ([], []))[1].append(ei)
    for u, c in enumerate(comp):
        if c in found:
            found[c][0].append(u)
    # the node lists are disjoint, so they sort by their least node
    return sorted(found.values())


def cycle_means(g: Graph, components: list[tuple[list[int], list[int]]]) -> list[tuple[Fraction, Fraction]]:
    """The least and greatest mean weight of a closed walk in each component,
    given as cycle_components gives it; edges carry an integer `weight`.

    Karp (1978): with d_k(v) the least weight of a k-edge walk to v from one
    fixed node, over a component of n nodes the least mean is the least over
    v of the greatest over k < n of (d_n(v) - d_k(v)) / (n - k).  The
    greatest mean is the least one of the negated weights, negated.  The
    ratios are compared as integers scaled by lcm(1, ..., n), which every
    n - k divides, and one Fraction is made per component and sign.
    """
    means = []
    for nodes, edges in components:
        n = len(nodes)
        scale = math.lcm(*range(1, n + 1))
        pos = {u: i for i, u in enumerate(nodes)}
        arcs = [(pos[g.edges[ei].src], pos[g.edges[ei].dst], g.edges[ei].weight) for ei in edges]
        least = _least_mean(arcs, n, scale)
        greatest = -_least_mean([(u, v, -w) for u, v, w in arcs], n, scale)
        means.append((Fraction(least, scale), Fraction(greatest, scale)))
    return means


def _least_mean(arcs: list[tuple[int, int, int]], n: int, scale: int) -> int:
    """Karp's least cycle mean of a strongly connected n-node graph, times scale."""
    walks = [[math.inf] * n for _ in range(n + 1)]  # walks[k][v] = d_k(v) from node 0
    walks[0][0] = 0
    for here, ahead in zip(walks, walks[1:]):
        for u, v, w in arcs:
            if here[u] + w < ahead[v]:
                ahead[v] = here[u] + w
    return min(
        max((walks[n][v] - walks[k][v]) * (scale // (n - k)) for k in range(n) if walks[k][v] < math.inf)
        for v in range(n)
        if walks[n][v] < math.inf
    )


_Lasso = tuple[int, int, list[int]]  # (length, base node, cycle edge list)
_Component = tuple[list[int], list[int]]  # (nodes, inner edges), as cycle_components gives it
_Out = dict[int, list[tuple[int, int, int]]]  # node -> (edge, dst, weight) for each edge out of it
_Base = tuple[int, int, _Out, int]  # (depth, node, out edges, step)


def _bases(g: Graph) -> tuple[list[_Base], list[_Component]]:
    """Every node a zero-weight closed walk could start from, in (depth,
    node) order, with the edges such a walk can follow out of each node of
    its component and their largest |weight| (step); and the components of
    mixed sign.

    A component whose weights all have one sign holds a zero walk exactly
    when its weight-0 edges close a cycle, and only the weight-0 edges on
    such a cycle can lie on one, so only their nodes are bases, with step
    0, and a walk there follows only them.  Every node of a component of
    mixed sign is a base.
    """
    bases = []
    mixed = []
    zero = []
    for nodes, edges in cycle_components(g):
        weights = [g.edges[ei].weight for ei in edges]
        if min(weights) >= 0 or max(weights) <= 0:
            zero += [ei for ei, w in zip(edges, weights) if w == 0]
        else:
            mixed.append((nodes, edges))
            bases += _component_bases(g, edges, max(map(abs, weights)))
    for nodes, edges in cycle_components(g, zero) if zero else ():
        bases += _component_bases(g, edges, 0)
    bases.sort(key=lambda b: b[:2])
    return bases, mixed


def _component_bases(g: Graph, edges: list[int], step: int) -> list[_Base]:
    out: _Out = {}
    for ei in edges:
        e = g.edges[ei]
        out.setdefault(e.src, []).append((ei, e.dst, e.weight))
    return [(g.depths[u], u, out, step) for u in out]


def _shortest_zero_walk(bases: list[_Base], limit: int) -> Optional[_Lasso]:
    """The shortest lasso from bases of length at most limit, or None.

    A lasso's length is its base's depth plus its walk's length.  Bases are
    searched exactly, in (depth, node) order, each cut at the best length
    found so far, so a tie goes to the lowest base, then to the first walk
    in edge order.
    """
    best = None
    for depth, base, out, step in bases:
        budget = limit - depth if best is None else best[0] - depth - 1
        if budget < 1:
            break
        walk = _zero_walk_at(base, out, step, budget)
        if walk is not None:
            best = depth + len(walk), base, walk
    return best


def _find_zero_walk(g: Graph, limit: int) -> Optional[_Lasso]:
    """The shortest lasso in g, or None when g holds no zero-weight closed walk.

    Looks at lengths limit, 2 * limit, ... find it: each look is exact up to
    its length, so the first lasso found is a shortest one.  When the first
    look finds none, the cycles decide whether any exists.  A base of step
    0 lies on a weight-0 cycle.  A component of mixed sign holds a zero walk
    exactly when its least cycle mean is at most 0 and its greatest at
    least 0: a zero walk splits into cycles of the component whose weights
    sum to 0, and a cycle of weight p > 0 and one of weight -q < 0 in one
    component, repeated and joined by the paths between them, close a walk
    of weight 0.
    """
    bases, mixed = _bases(g)
    found = _shortest_zero_walk(bases, limit)
    if found is None and all(step for *_, step in bases) and not any(lo <= 0 <= hi for lo, hi in cycle_means(g, mixed)):
        return None
    while found is None:
        limit *= 2
        found = _shortest_zero_walk(bases, limit)
    return found


def _zero_walk_at(base: int, out: _Out, step: int, budget: int) -> Optional[list[int]]:
    """Edge list of a shortest zero-weight closed walk at base of at most
    budget edges along the edges in out, whose weights are at most step in
    size, or None.

    Breadth-first over (node, partial weight), edges in list order, so the
    walk is the first of the shortest in that order.  A partial weight is
    dropped only when the edges left cannot bring it back to 0, so the
    search is exact.
    """
    start = (base, 0)
    back: dict[tuple[int, int], Optional[tuple[tuple[int, int], int]]] = {start: None}
    level = [start]
    length = 0
    while level and length < budget:
        length += 1
        cap = (budget - length) * step
        ahead = []
        for here in level:
            u, s = here
            for ei, v, w in out.get(u, ()):
                t = s + w
                if t == 0 and v == base:
                    walk = [ei]
                    while back[here] is not None:
                        here, ei = back[here]
                        walk.append(ei)
                    return walk[::-1]
                if -cap <= t <= cap and (v, t) not in back:
                    back[v, t] = here, ei
                    ahead.append((v, t))
        level = ahead
    return None
