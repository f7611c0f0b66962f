"""The quotient graph both searches grow, and the two questions they ask of it.

Nodes are translation classes indexed by canonical key; each keeps one
representative, its depth and the edge that discovered it.  Edges are any
objects with integer `src` and `dst` fields plus the payload their search
needs.  Both searches ask cycle questions: the lasso search wants a
zero-weight closed walk, the joint schema search a transfer edge on a
cycle.  `cycle_components` gives each the components that hold an edge,
and `cycle_means` the least and greatest mean weight of a component's
cycles.
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
