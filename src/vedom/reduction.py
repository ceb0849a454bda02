"""Collapsing vertices with identical open neighborhoods.

Two vertices with the same open neighborhood dominate exactly the same
edges, so keeping one representative per class preserves the
well-ve-dominated verdict.  The canonical tree case is several leaves
hanging off one support: they all see exactly the support, and only the
open-neighborhood convention collapses them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, _renamed


@dataclass(frozen=True)
class ReductionMap:
    """Result of collapsing neighborhood classes to one representative each."""

    class_of: tuple[int, ...]          # vertex -> class index
    representatives: tuple[int, ...]   # class index -> chosen original vertex
    reduced_graph: Graph
    to_reduced: tuple[int, ...]        # original vertex -> reduced index


def neighborhood_classes(g: Graph) -> list[list[int]]:
    """Equivalence classes under equality of open neighborhoods,
    ordered by minimum member (each class enters the dict at it)."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for v, nbrs in enumerate(g.adj):
        groups.setdefault(nbrs, []).append(v)
    return list(groups.values())


def is_reduced(g: Graph) -> bool:
    return all(len(c) == 1 for c in neighborhood_classes(g))


def reduce_graph(g: Graph) -> ReductionMap:
    """One collapse pass; the result is itself reduced.

    The representative of each class is its minimum-index member, so the
    reduced graph is deterministic and verdicts transport by index map.
    Representatives increase with their class index, which is their reduced
    index; when no class collapses the reduced graph is g itself.
    """
    classes = neighborhood_classes(g)
    class_of = [0] * g.n
    for idx, members in enumerate(classes):
        for v in members:
            class_of[v] = idx
    reps = [members[0] for members in classes]
    to_reduced = tuple(class_of)
    return ReductionMap(
        class_of=to_reduced,
        representatives=tuple(reps),
        reduced_graph=g if len(reps) == g.n else _renamed(g, reps),
        to_reduced=to_reduced,
    )
