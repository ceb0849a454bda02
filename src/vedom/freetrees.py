"""Enumeration of non-isomorphic free trees.

Rooted trees are generated as canonical level sequences by the classic
successor rule (start from the path sequence 1,2,...,n; repeatedly chop the
last entry above 2 and tile the tail).  A rooted tree is kept exactly when
its sequence equals the canonical sequence of the same tree re-rooted at its
centroid, which picks one representative per free isomorphism class without
storing anything.  Most candidates are decided on the sequence alone: the
sizes of the root's child subtrees are the gaps between successive level-2
entries, so the root is a centroid exactly when no gap exceeds n/2.

The canonical sequence doubles as a canonical form: two trees are isomorphic
iff their centroid-rooted canonical sequences are equal.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .graph import Graph, is_tree, traverse

MAX_ENUMERATION_ORDER = 18

# number of free trees on 1..18 vertices; used as a cross-check, with the
# small orders independently reproducible from labeled trees (the tests
# enumerate them by Pruefer decoding)
FREE_TREE_COUNTS = (
    1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741,
    19320, 48629, 123867,
)


def rooted_level_sequences(n: int) -> Iterator[tuple[int, ...]]:
    """Canonical level sequences of all rooted trees on n vertices,
    in decreasing lexicographic order (path first, star last)."""
    if n < 1:
        raise ValueError("order must be at least 1")
    seq = list(range(1, n + 1))
    while True:
        yield tuple(seq)
        p = -1
        for i in range(n - 1, -1, -1):
            if seq[i] > 2:
                p = i
                break
        if p < 0:
            return
        q = p - 1
        while seq[q] != seq[p] - 1:
            q -= 1
        block = seq[q:p]
        for i in range(p, n):
            seq[i] = block[(i - p) % len(block)]


def level_sequence_to_graph(seq: Iterable[int]) -> Graph:
    """Tree from a level sequence: each vertex attaches to the most recent
    earlier vertex one level up."""
    levels = list(seq)
    n = len(levels)
    edges = []
    last_at_level: dict[int, int] = {}
    for v, lvl in enumerate(levels):
        if v > 0:
            edges.append((last_at_level[lvl - 1], v))
        last_at_level[lvl] = v
    return Graph.from_edges(n, edges)


def centroids(g: Graph) -> list[int]:
    """The one or two vertices minimizing the largest component of g - v."""
    if not is_tree(g):
        raise ValueError("centroids are defined here for trees only")
    n = g.n
    if n == 1:
        return [0]
    size = [1] * n
    order, parent = traverse(g, 0)
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
    """Lexicographically largest preorder level sequence of (g, root):
    child subtrees are emitted in decreasing canonical order.

    Built bottom-up, children before parents, so deep trees need no
    recursion."""
    order, parent = traverse(g, root)
    depth = [1] * g.n
    for v in order[1:]:
        depth[v] = depth[parent[v]] + 1
    kids: dict[int, list[tuple[int, ...]]] = {}
    for v in reversed(order):
        out = (depth[v],)
        for k in sorted(kids.pop(v, ()), reverse=True):
            out += k
        kids.setdefault(parent[v], []).append(out)
    return out  # root comes last in reversed(order)


def canonical_form(g: Graph) -> tuple[int, ...]:
    """Isomorphism-invariant canonical sequence of a free tree: the best
    canonical rooted sequence over its centroid(s)."""
    return max(canonical_rooted_sequence(g, c) for c in centroids(g))


def trees_isomorphic(a: Graph, b: Graph) -> bool:
    if a.n != b.n or len(a.edges) != len(b.edges):
        return False
    return canonical_form(a) == canonical_form(b)


def enumerate_free_trees(n: int) -> Iterator[Graph]:
    """Every isomorphism class of trees on n vertices exactly once,
    in the deterministic level-sequence order.

    With big the largest child subtree of the root (the largest gap between
    successive level-2 entries): if 2*big < n the root is the only centroid
    and the sequence is already canonical, so it is kept; if 2*big > n the
    root is no centroid, and no automorphism maps it onto one, so it is
    dropped.  Only with two centroids (2*big == n) is the graph built and
    its canonical form compared."""
    if not 1 <= n <= MAX_ENUMERATION_ORDER:
        raise ValueError(f"order must be in 1..{MAX_ENUMERATION_ORDER}")
    for seq in rooted_level_sequences(n):
        starts = [i for i, lvl in enumerate(seq) if lvl == 2] + [n]
        big = max((b - a for a, b in zip(starts, starts[1:])), default=0)
        if 2 * big < n:
            yield level_sequence_to_graph(seq)
        elif 2 * big == n:
            g = level_sequence_to_graph(seq)
            if canonical_form(g) == seq:
                yield g


def pruefer_to_tree(n: int, seq: list[int]) -> Graph:
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    ptr = 0
    leaf = -1
    for v in seq:
        if leaf < 0:
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
        if degree[v] == 1 and v < ptr:
            leaf = v
        else:
            leaf = -1
    last = [v for v in range(n) if degree[v] == 1]
    edges.append((last[0], last[1]))
    return Graph.from_edges(n, edges)
