"""Earlier, independent implementations kept as references for the tests.

Each function here is the library's previous hand-rolled search, before the
library moved to the shared ``vedom.graph.traverse`` helper.  They are
slower (the forbidden-path search builds every leaf's path to every vertex,
the canonical sequence recurses once per tree level) but simple, so the
differential tests compare the library against them.
"""

from __future__ import annotations

from vedom.graph import Graph, is_tree
from vedom.recognizer import UnitPartition


def find_forbidden_configuration(t: Graph) -> tuple[str, tuple[int, ...]] | None:
    """Lowest-rank forbidden leaf-to-leaf path, ties broken by the path."""
    if not is_tree(t):
        raise ValueError("forbidden-configuration search requires a tree")
    deg = [t.degree(v) for v in range(t.n)]
    leaves = [v for v in range(t.n) if deg[v] == 1]
    hits: list[tuple[int, tuple[int, ...]]] = []
    for a in leaves:
        paths = _paths_from(t, a)
        for b in leaves:
            if b == a:
                continue
            p = paths[b]
            k = len(p)
            if k == 4 and deg[p[1]] == 2:
                hits.append((0, tuple(p)))
            elif k == 5 and deg[p[1]] == 2:
                hits.append((1, tuple(p)))
            elif k == 7 and deg[p[1]] == deg[p[3]] == deg[p[5]] == 2:
                hits.append((2, tuple(p)))
    if not hits:
        return None
    rank, path = min(hits)
    return ("i", "ii", "iii")[rank], path


def _paths_from(t: Graph, root: int) -> list[list[int]]:
    """Unique tree path from root to every vertex."""
    parent = [-1] * t.n
    seen = [False] * t.n
    seen[root] = True
    stack = [root]
    while stack:
        v = stack.pop()
        for u in t.adj[v]:
            if not seen[u]:
                seen[u] = True
                parent[u] = v
                stack.append(u)
    paths: list[list[int]] = []
    for v in range(t.n):
        p = [v]
        while p[-1] != root:
            p.append(parent[p[-1]])
        paths.append(p[::-1])
    return paths


def centroids(g: Graph) -> list[int]:
    """The one or two vertices minimizing the largest component of g - v."""
    n = g.n
    if n == 1:
        return [0]
    size = [1] * n
    order: list[int] = []
    parent = [-1] * n
    stack = [0]
    seen = [False] * n
    seen[0] = True
    while stack:
        v = stack.pop()
        order.append(v)
        for u in g.adj[v]:
            if not seen[u]:
                seen[u] = True
                parent[u] = v
                stack.append(u)
    for v in reversed(order):
        if parent[v] >= 0:
            size[parent[v]] += size[v]
    best = n + 1
    out: list[int] = []
    for v in range(n):
        heaviest = n - size[v]
        for u in g.adj[v]:
            if parent[u] == v:
                heaviest = max(heaviest, size[u])
        if heaviest < best:
            best = heaviest
            out = [v]
        elif heaviest == best:
            out.append(v)
    return sorted(out)


def canonical_rooted_sequence(g: Graph, root: int) -> tuple[int, ...]:
    """Lexicographically largest preorder level sequence of (g, root), by
    recursion over the subtrees (depth limited by the recursion limit)."""

    def sub(v: int, parent: int, depth: int) -> tuple[int, ...]:
        kids = sorted(
            (sub(u, v, depth + 1) for u in g.adj[v] if u != parent),
            reverse=True,
        )
        out = (depth,)
        for k in kids:
            out += k
        return out

    return sub(root, -1, 1)


def canonical_form(g: Graph) -> tuple[int, ...]:
    return max(canonical_rooted_sequence(g, c) for c in centroids(g))


def build_certificate(t: Graph, p: UnitPartition) -> int:
    """Support of every unit whose backbone vertex shares the colour of the
    minimum backbone vertex, leaf of every other unit."""
    backbone = sorted(u[2] for u in p.units)
    color = {backbone[0]: 0}
    stack = [backbone[0]]
    allowed = set(backbone)
    while stack:
        v = stack.pop()
        for u in t.adj[v]:
            if u in allowed and u not in color:
                color[u] = color[v] ^ 1
                stack.append(u)
    cert = 0
    for leaf, s, w in p.units:
        cert |= 1 << (s if color[w] == 0 else leaf)
    return cert
