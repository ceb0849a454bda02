"""Hypothesis strategies, the relabelling helper and the star graph shared by
the test modules; paths come from ``vedom.constructions.path_graph``."""

from __future__ import annotations

from hypothesis import strategies as st

from vedom.freetrees import pruefer_to_tree
from vedom.graph import Graph


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
