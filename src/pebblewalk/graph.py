"""The quotient graph both searches grow, with its path and SCC routines.

Nodes are translation classes indexed by canonical key; each keeps one
representative, its depth and the edge that discovered it.  Edges are any
objects with integer `src` and `dst` fields plus the payload their search
needs.
"""

from __future__ import annotations

from collections import deque
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


def bfs_path(g: Graph, src: int, dst: int, within: Optional[set[int]] = None) -> list[int]:
    """Shortest edge path src -> dst (list of edge indices); [] if src == dst.

    With `within`, the path visits only those nodes.
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
            if v in seen or (within is not None and v not in within):
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


def strong_components(g: Graph) -> list[int]:
    """Node -> component id, components in deterministic order."""
    n = len(g.reps)
    comp = [-1] * n
    low = [0] * n
    num = [-1] * n
    counter = 0
    comp_count = 0
    stack: list[int] = []
    on_stack = [False] * n
    for start in range(n):
        if num[start] != -1:
            continue
        work = [(start, 0)]
        while work:
            node, pi = work[-1]
            if pi == 0:
                num[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            while pi < len(g.out[node]):
                ei = g.out[node][pi]
                pi += 1
                w = g.edges[ei].dst
                if num[w] == -1:
                    work[-1] = (node, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[node] = min(low[node], num[w])
            if advanced:
                continue
            work.pop()
            if low[node] == num[node]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = comp_count
                    if w == node:
                        break
                comp_count += 1
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return comp
