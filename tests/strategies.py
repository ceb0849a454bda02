"""Hypothesis strategies, the relabelling helper, the star graph and the
Pruefer decoder shared by the test modules; paths come from
``vedom.constructions.path_graph``."""

from __future__ import annotations

from hypothesis import strategies as st

from vedom.graph import Graph, _tree


@st.composite
def graphs(draw, min_n: int = 0, max_n: int = 8) -> Graph:
    """Arbitrary simple graphs via random edge subsets."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if not pairs:
        return Graph.from_edges(n, [])
    edges = draw(st.sets(st.sampled_from(pairs)))
    return Graph.from_edges(n, sorted(edges))


@st.composite
def trees(draw, min_n: int = 1, max_n: int = 10) -> Graph:
    """Random labeled trees via Pruefer sequences."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    if n == 1:
        return Graph.from_edges(1, [])
    if n == 2:
        return Graph.from_edges(2, [(0, 1)])
    seq = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    return pruefer_to_tree(n, seq)


@st.composite
def permutations_of(draw, n: int) -> list[int]:
    return draw(st.permutations(list(range(n))))


def star(k: int) -> Graph:
    """The star K_{1,k}: center 0, leaves 1..k."""
    return Graph.from_edges(k + 1, [(0, i) for i in range(1, k + 1)])


def relabeled(g: Graph, perm: list[int]) -> Graph:
    """Copy of g with vertex i renamed perm[i]; perm must be a permutation."""
    if sorted(perm) != list(range(g.n)):
        raise ValueError("not a permutation of the vertex range")
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def pruefer_to_tree(n: int, seq: list[int]) -> Graph:
    """The tree on n >= 2 vertices with Pruefer sequence seq, built from its
    (min, max) pairs unchecked, since decoding gives a tree, and so recorded."""
    if len(seq) != n - 2 or not all(0 <= v < n for v in seq):
        raise ValueError(f"not a Pruefer sequence of a tree on {n} vertices")
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
        edges.append((leaf, v) if leaf < v else (v, leaf))
        degree[leaf] -= 1
        degree[v] -= 1
        if degree[v] == 1 and v < ptr:
            leaf = v
        else:
            leaf = -1
    last = [v for v in range(n) if degree[v] == 1]
    edges.append((last[0], last[1]))
    return _tree(Graph._build(n, edges))
