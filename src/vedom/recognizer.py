"""Recognition of well-ve-dominated trees.

A reduced tree of order >= 6 is well-ve-dominated exactly when its vertices
split into equal thirds: leaves L, their degree-2 supports S, and a backbone
W inducing a subtree, with every unit (leaf, support, backbone vertex)
hanging off one backbone vertex.  Recognition classifies vertices by degree,
then turns the partition into a checkable certificate: an independent set
I inside L union S that ve-dominates every edge exactly once.  Failures come
back as a concrete refutation (a forbidden induced path where one exists,
otherwise the structural check that broke).
"""

from __future__ import annotations

from dataclasses import dataclass

from .domination import dominated_edge_masks
from .graph import Graph, bit_list, good_pendant_edges, is_tree, iter_bits, mask_from, traverse
from .reduction import is_reduced, reduce_graph

LABEL_LEAF = "L"
LABEL_SUPPORT = "S"
LABEL_BACKBONE = "W"


class InvalidPartitionError(ValueError):
    """Raised when a unit partition does not describe the given tree."""


@dataclass(frozen=True)
class UnitPartition:
    """The L/S/W labelling of a recognized tree.

    units are (leaf, support, backbone) triples ordered by leaf index;
    label[v] is one of "L", "S", "W"; backbone_edges are the edges of the
    subtree induced by the W vertices, in canonical edge order.
    """

    units: tuple[tuple[int, int, int], ...]
    label: tuple[str, ...]
    backbone_edges: tuple[tuple[int, int], ...]

    def leaf_set(self) -> int:
        return mask_from(u[0] for u in self.units)

    def support_set(self) -> int:
        return mask_from(u[1] for u in self.units)

    def backbone_set(self) -> int:
        return mask_from(u[2] for u in self.units)


@dataclass(frozen=True)
class Refutation:
    """Why a tree is not well-ve-dominated (or fails the structural shape)."""

    reason: str
    witness: tuple[int, ...] = ()


@dataclass(frozen=True)
class CertificateCheck:
    """Per-edge dominator counts for a candidate certificate set."""

    counts: tuple[int, ...]
    independent: bool
    within_leaf_support: bool
    exactly_once: bool

    @property
    def passed(self) -> bool:
        return self.independent and self.within_leaf_support and self.exactly_once


@dataclass(frozen=True)
class RecognitionResult:
    verdict: bool
    case: str  # "T1" | "T2" | "rejected"
    reduced_tree: Graph
    to_reduced: tuple[int, ...]
    partition: UnitPartition | None
    certificate: int | None  # vertex mask over the reduced tree
    refutation: Refutation | None


def find_forbidden_configuration(t: Graph) -> tuple[str, tuple[int, ...]] | None:
    """First forbidden leaf-to-leaf path, or None.

    Three patterns refute well-ve-domination (a witness is sound, absence
    proves nothing):

      i    p0 p1 p2 p3        with d(p0)=d(p3)=1 and d(p1)=2
      ii   p0 .. p4           with d(p0)=d(p4)=1 and d(p1)=2
      iii  p0 .. p6           with d(p0)=d(p6)=1 and d(p1)=d(p3)=d(p5)=2

    Configurations are searched in that order; ties within one break by
    vertex order.  Paths in a tree are always induced, so leaf pairs at the
    right distance are the only candidates; no pattern spans more than seven
    vertices, so each leaf-to-leaf path is followed at most that far.
    """
    if not is_tree(t):
        raise ValueError("forbidden-configuration search requires a tree")
    deg = [t.degree(v) for v in range(t.n)]
    leaves = [v for v in range(t.n) if deg[v] == 1]
    hits: list[tuple[int, tuple[int, ...]]] = []
    for a in leaves:
        _, parent = traverse(t, a)
        for b in leaves:
            if b == a:
                continue
            p = [b]
            while p[-1] != a and len(p) < 7:
                p.append(parent[p[-1]])
            if p[-1] != a:
                continue
            p.reverse()
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


def unit_partition(t: Graph) -> UnitPartition | Refutation:
    """Degree classification of a reduced tree of order >= 6 into units.

    Returns the partition, or a refutation naming the first check that
    fails (leaf checks by leaf index, then backbone checks by vertex index,
    then backbone connectivity).
    """
    if not is_tree(t):
        raise ValueError("unit partition requires a tree")
    if not is_reduced(t):
        raise ValueError("unit partition requires a reduced tree")
    if t.n < 6:
        raise ValueError("unit partition requires order at least 6")

    leaves = [v for v in range(t.n) if t.degree(v) == 1]
    support_of: dict[int, int] = {}
    for leaf in leaves:
        support = t.adj[leaf][0]
        if t.degree(support) != 2:
            return Refutation("bad-leaf", (leaf, support))
        support_of[leaf] = support

    support_set = set(support_of.values())
    leaf_set = set(leaves)
    units: list[tuple[int, int, int]] = []
    for leaf in leaves:
        s = support_of[leaf]
        w = next(u for u in t.adj[s] if u != leaf)
        if w in leaf_set or w in support_set:
            return Refutation("bad-support-degree", (leaf, s, w))
        units.append((leaf, s, w))

    backbone = [v for v in range(t.n) if v not in leaf_set and v not in support_set]
    backbone_set = set(backbone)
    for w in backbone:
        s_neighbors = [u for u in t.adj[w] if u in support_set]
        if len(s_neighbors) != 1:
            return Refutation("w-multiplicity", (w, *s_neighbors))

    assert len(leaves) == len(support_set) == len(backbone) == t.n // 3

    backbone_edges = tuple(
        (u, v) for u, v in t.edges if u in backbone_set and v in backbone_set
    )
    if not _connected_within(t, backbone_set):
        return Refutation("backbone-disconnected", tuple(sorted(backbone_set)))

    label = [LABEL_BACKBONE] * t.n
    for leaf, s, _ in units:
        label[leaf] = LABEL_LEAF
        label[s] = LABEL_SUPPORT
    return UnitPartition(tuple(units), tuple(label), backbone_edges)


def _connected_within(t: Graph, vertices: set[int]) -> bool:
    if not vertices:
        return False
    order, _ = traverse(t, next(iter(vertices)), vertices)
    return len(order) == len(vertices)


def validate_unit_partition(t: Graph, p: UnitPartition) -> None:
    """Raise InvalidPartitionError unless p is a correct partition of t."""
    if not is_tree(t):
        raise InvalidPartitionError("underlying graph is not a tree")
    if len(p.label) != t.n or len(p.units) * 3 != t.n:
        raise InvalidPartitionError("label or unit count does not match the order")
    seen: set[int] = set()
    for leaf, s, w in p.units:
        if t.degree(leaf) != 1 or not t.has_edge(leaf, s):
            raise InvalidPartitionError(f"({leaf}, {s}, {w}) lacks a pendant edge")
        if t.degree(s) != 2 or not t.has_edge(s, w):
            raise InvalidPartitionError(f"({leaf}, {s}, {w}) is not a unit body")
        if p.label[leaf] != LABEL_LEAF or p.label[s] != LABEL_SUPPORT or p.label[w] != LABEL_BACKBONE:
            raise InvalidPartitionError(f"labels disagree with unit ({leaf}, {s}, {w})")
        seen.update((leaf, s, w))
    if len(seen) != t.n:
        raise InvalidPartitionError("units do not partition the vertex set")
    backbone = {u[2] for u in p.units}
    expected = tuple((u, v) for u, v in t.edges if u in backbone and v in backbone)
    if expected != p.backbone_edges:
        raise InvalidPartitionError("backbone edges do not match the W set")
    if not _connected_within(t, backbone):
        raise InvalidPartitionError("backbone is not connected")


def build_certificate(t: Graph, p: UnitPartition, invert: bool = False) -> int:
    """Independent exactly-once dominating set from a backbone 2-coloring.

    Color the backbone subtree; take the class X holding the minimum-index
    backbone vertex (the other class with invert=True) and pick the support
    of every X unit and the leaf of every other unit.  Either color class
    gives a valid certificate.
    """
    backbone = {u[2] for u in p.units}
    order, parent = traverse(t, min(backbone), backbone)
    color = {order[0]: 0}
    for v in order[1:]:
        color[v] = color[parent[v]] ^ 1
    pick = 1 if invert else 0
    cert = 0
    for leaf, s, w in p.units:
        cert |= 1 << (s if color[w] == pick else leaf)
    return cert


def verify_certificate(t: Graph, certificate: int) -> CertificateCheck:
    """Count, per edge, how many certificate members ve-dominate it.

    Passes when the set is independent, stays inside the leaves and supports
    of good pendant edges, and every count is exactly 1.
    """
    masks = dominated_edge_masks(t)
    counts = [0] * len(t.edges)
    for v in iter_bits(certificate):
        for e in iter_bits(masks[v]):
            counts[e] += 1
    members = bit_list(certificate)
    independent = all(
        not t.has_edge(u, v) for i, u in enumerate(members) for v in members[i + 1:]
    )
    allowed = set()
    for leaf, support in good_pendant_edges(t):
        allowed.add(leaf)
        allowed.add(support)
    within = all(v in allowed for v in members)
    return CertificateCheck(
        counts=tuple(counts),
        independent=independent,
        within_leaf_support=within,
        exactly_once=all(c == 1 for c in counts),
    )


def recognize(t: Graph) -> RecognitionResult:
    """Decide whether a tree is well-ve-dominated, with evidence.

    The tree is reduced first, so unreduced input is fine.  Order <= 2 after
    reduction is the small accepting case; otherwise the order must be a
    multiple of three and at least six, the unit partition must exist, and
    the derived certificate must verify.  Rejections carry a forbidden-path
    witness when one exists, else the failed structural check.
    """
    if not is_tree(t):
        raise ValueError("recognition requires a tree")
    red = reduce_graph(t)
    t2 = red.reduced_graph

    def rejected(structural: Refutation) -> RecognitionResult:
        found = find_forbidden_configuration(t2)
        refutation = (
            Refutation(f"forbidden-path({found[0]})", found[1]) if found else structural
        )
        return RecognitionResult(
            verdict=False,
            case="rejected",
            reduced_tree=t2,
            to_reduced=red.to_reduced,
            partition=None,
            certificate=None,
            refutation=refutation,
        )

    if t2.n <= 2:
        return RecognitionResult(
            verdict=True,
            case="T1",
            reduced_tree=t2,
            to_reduced=red.to_reduced,
            partition=None,
            certificate=None,
            refutation=None,
        )
    if t2.n < 6 or t2.n % 3 != 0:
        return rejected(Refutation("order-not-3n", (t2.n,)))
    part = unit_partition(t2)
    if isinstance(part, Refutation):
        return rejected(part)
    cert = build_certificate(t2, part)
    if not verify_certificate(t2, cert).passed:
        # unreachable for a valid partition; kept as a safety net
        return rejected(Refutation("certificate", tuple(bit_list(cert))))
    return RecognitionResult(
        verdict=True,
        case="T2",
        reduced_tree=t2,
        to_reduced=red.to_reduced,
        partition=part,
        certificate=cert,
        refutation=None,
    )
