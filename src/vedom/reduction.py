"""Collapsing vertices with identical open neighborhoods.

Two vertices with the same open neighborhood dominate exactly the same
edges, so keeping one representative per class preserves the
well-ve-dominated verdict.  The canonical tree case is several leaves
hanging off one support: they all see exactly the support, and only the
open-neighborhood convention collapses them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, _induced, _tree


@dataclass(frozen=True)
class ReductionMap:
    """Result of collapsing neighborhood classes to one representative each."""

    representatives: tuple[int, ...]   # class index -> chosen original vertex
    reduced_graph: Graph
    to_reduced: tuple[int, ...]        # original vertex -> reduced index = class index


def neighborhood_classes(g: Graph) -> list[list[int]]:
    """Equivalence classes under equality of open neighborhoods,
    ordered by minimum member (each class enters the dict at it)."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for v, nbrs in enumerate(g.adj):
        groups.setdefault(nbrs, []).append(v)
    return list(groups.values())


def is_reduced(g: Graph) -> bool:
    return len(set(g.adj)) == g.n  # equal neighbourhoods are equal sorted tuples


def reduce_graph(g: Graph) -> ReductionMap:
    """One collapse pass; the result is itself reduced.

    The representative of each class is its minimum-index member, so the
    reduced graph is deterministic and verdicts transport by index map.
    Representatives increase with their class index, which is their reduced
    index; when no class collapses the reduced graph is g itself.
    """
    first: dict[tuple[int, ...], int] = {}  # open neighbourhood -> minimum member
    rep = list(map(first.setdefault, g.adj, range(g.n)))
    reps = list(first.values())
    # with no collapse rep is the identity, which renames nothing
    reduced, new = (g, rep) if len(reps) == g.n else _induced(g, reps)
    return ReductionMap(
        representatives=tuple(reps),
        reduced_graph=_tree(reduced, like=g),  # a tree's twins are leaves on one support
        to_reduced=tuple(map(new.__getitem__, rep)),
    )
