"""Recognition of well-ve-dominated trees.

A reduced tree of order >= 6 is well-ve-dominated exactly when its vertices
split into equal thirds: leaves L, their degree-2 supports S, and a backbone
W inducing a subtree, with every unit (leaf, support, backbone vertex)
hanging off one backbone vertex.  Recognition classifies vertices by degree,
then turns the partition into a checkable certificate: an independent set
I inside L union S that ve-dominates every edge exactly once.  Failures come
back as a concrete refutation (a forbidden induced path where one exists,
otherwise the structural check that broke).

Recognition runs in linear time.  The certificate is checked edge by edge
from per-vertex member counts, never from per-vertex edge masks, and the
forbidden paths are built outward from each leaf, so no step looks at every
pair of vertices or of leaves.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, bit_list, check_vertex_set, is_tree, require_tree, traverse
from .reduction import is_reduced, reduce_graph

RECOGNITION = "recognition"  # the task a non-tree input error names

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
    vertex order.  Paths in a tree are always induced, and every pattern
    starts at a leaf p0 whose support p1 has degree 2, so p1 and p2 are
    fixed by p0.  Per-vertex tables give the later vertices of patterns i
    and iii in constant time; pattern ii's p3 is the first x != p1 of the
    sorted adj[p2] with a leaf neighbour.  A scan that finds none shows that
    p1 is p2's only such neighbour, so no other p0 reaches that p2: each p2
    is scanned in vain at most once, and the search is linear.
    """
    require_tree(t, "forbidden-configuration search")
    n, adj = t.n, t.adj
    deg = [len(a) for a in adj]
    # leaf[v]: smallest leaf adjacent to v (the p3 of pattern i, the p4 of ii)
    leaf = [-1] * n
    for v in range(n):
        if deg[v] == 1 and leaf[adj[v][0]] < 0:
            leaf[adj[v][0]] = v
    # pendant[v]: smallest neighbour of v that is a degree-2 support of a leaf (p5 of iii)
    pendant = [-1] * n
    for u in range(n):
        if deg[u] == 2 and leaf[u] >= 0:
            for v in adj[u]:
                if pendant[v] < 0:
                    pendant[v] = u
    # stem[x]: smallest degree-2 neighbour u of x whose other neighbour y has
    # a degree-2 support neighbour other than u (p3 of iii, seen from p2)
    stem = [-1] * n
    for u in range(n):
        if deg[u] == 2:
            x, y = adj[u]
            if stem[x] < 0 and pendant[y] not in (-1, u):
                stem[x] = u
            if stem[y] < 0 and pendant[x] not in (-1, u):
                stem[y] = u
    best_ii: tuple[int, ...] | None = None
    best_iii: tuple[int, ...] | None = None
    for p0 in range(n):
        if deg[p0] != 1:
            continue
        p1 = adj[p0][0]
        if deg[p1] != 2:
            continue
        p2 = _other(adj[p1], p0)
        if leaf[p2] >= 0:
            return "i", (p0, p1, p2, leaf[p2])
        if best_ii is None:
            for p3 in adj[p2]:  # sorted, so the first hit is the smallest
                if p3 != p1 and leaf[p3] >= 0:
                    best_ii = (p0, p1, p2, p3, leaf[p3])
                    break
        if best_iii is None and stem[p2] >= 0:
            p3 = stem[p2]
            p4 = _other(adj[p3], p2)
            p5 = pendant[p4]
            best_iii = (p0, p1, p2, p3, p4, p5, _other(adj[p5], p4))
    if best_ii is not None:
        return "ii", best_ii
    if best_iii is not None:
        return "iii", best_iii
    return None


def _other(pair: tuple[int, ...], v: int) -> int:
    """The neighbour of a degree-2 vertex that is not v."""
    return pair[1] if pair[0] == v else pair[0]


def unit_partition(t: Graph) -> UnitPartition | Refutation:
    """Degree classification of a reduced tree of order >= 6 into units.

    Returns the partition, or a refutation naming the first check that
    fails: leaf checks by leaf index, then backbone checks by vertex index.
    No other check can fail.  Once every leaf's support has degree 2, the
    support's other neighbour is neither a leaf nor a support (else the tree
    is P_3 or P_4).  Once every backbone vertex also sees one support, the
    units are pendant paths w-s-leaf that split the tree into equal thirds,
    and removing pendant paths leaves the backbone a subtree.
    """
    require_tree(t, "unit partition")
    if not is_reduced(t):
        raise ValueError("unit partition requires a reduced tree")
    if t.n < 6:
        raise ValueError("unit partition requires order at least 6")

    adj = t.adj
    label = [LABEL_BACKBONE] * t.n
    units: list[tuple[int, int, int]] = []
    support_count = [0] * t.n  # per vertex, the supports adjacent to it
    for leaf in [v for v, a in enumerate(adj) if len(a) == 1]:
        s = adj[leaf][0]
        if len(adj[s]) != 2:
            return Refutation("bad-leaf", (leaf, s))
        w = _other(adj[s], leaf)
        label[leaf] = LABEL_LEAF
        label[s] = LABEL_SUPPORT
        units.append((leaf, s, w))
        support_count[w] += 1

    for w, lab in enumerate(label):
        if lab == LABEL_BACKBONE and support_count[w] != 1:
            s_neighbors = [u for u in adj[w] if label[u] == LABEL_SUPPORT]
            return Refutation("w-multiplicity", (w, *s_neighbors))

    backbone_edges = tuple(
        (u, v) for u, v in t.edges if label[u] == label[v] == LABEL_BACKBONE
    )
    return UnitPartition(tuple(units), tuple(label), backbone_edges)


def validate_unit_partition(t: Graph, p: UnitPartition) -> None:
    """Raise InvalidPartitionError unless p is a correct partition of t.  Units
    that are pendant paths covering t leave a connected backbone."""
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
    expected = tuple((u, v) for u, v in t.edges if p.label[u] == p.label[v] == LABEL_BACKBONE)
    if expected != p.backbone_edges:
        raise InvalidPartitionError("backbone edges do not match the W set")


def build_certificate(t: Graph, p: UnitPartition) -> int:
    """Independent exactly-once dominating set from a backbone 2-coloring.

    Color the backbone subtree; take the class X holding the minimum-index
    backbone vertex and pick the support of every X unit and the leaf of
    every other unit.  Either color class gives a valid certificate.  The
    path between two backbone vertices stays inside the backbone, so their
    colors are the parities of their depths in a walk of the whole tree
    from that minimum vertex.
    """
    order, parent = traverse(t, min(u[2] for u in p.units))
    odd = [False] * t.n
    for v in order[1:]:
        odd[v] = not odd[parent[v]]
    digits = bytearray(b"0" * t.n)  # bit v of the mask is digits[v]
    for leaf, s, w in p.units:
        digits[leaf if odd[w] else s] = ord("1")
    return int(digits[::-1], 2)


def verify_certificate(t: Graph, certificate: int) -> CertificateCheck:
    """Count, per edge, how many certificate members ve-dominate it.

    Passes when the set is independent, stays inside the leaves and supports
    of good pendant edges, and every count is exactly 1.

    A member ve-dominates edge ab when it lies in N[a] or N[b], so with
    near[v] the number of members in N[v] the count of ab is near[a] +
    near[b] minus the members in N[a] & N[b].  That intersection is a, b and
    their common neighbours; a common member other than a and b is possible
    only when both ends see a member besides a and b, and only then is the
    smaller adjacency list scanned.  Over the edges of a tree the smaller
    lists add up to at most 2n, so on trees the check takes linear time.
    """
    check_vertex_set(t, certificate)
    members = bit_list(certificate)
    adj = t.adj
    inside = [0] * t.n
    near = [0] * t.n
    for v in members:
        inside[v] = 1
        near[v] += 1
        for u in adj[v]:
            near[u] += 1
    counts = []
    independent = True
    edge_set: set[tuple[int, int]] | None = None
    for a, b in t.edges:
        ends = inside[a] + inside[b]
        if ends == 2:
            independent = False
        count = near[a] + near[b] - ends
        if near[a] > ends and near[b] > ends:
            if edge_set is None:
                edge_set = set(t.edges)
            small, large = (a, b) if len(adj[a]) <= len(adj[b]) else (b, a)
            count -= sum(
                1 for c in adj[small] if inside[c] and (min(c, large), max(c, large)) in edge_set
            )
        counts.append(count)
    deg = list(map(len, adj))  # good pendant edge: a leaf and its degree-2 support
    within = all(
        deg[v] == 1 and deg[adj[v][0]] == 2 or deg[v] == 2 and 1 in (deg[adj[v][0]], deg[adj[v][1]])
        for v in members
    )
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
    require_tree(t, RECOGNITION)
    red = reduce_graph(t)
    t2 = red.reduced_graph
    case, partition, certificate, refutation = "rejected", None, None, None
    if t2.n <= 2:
        case = "T1"
    elif t2.n < 6 or t2.n % 3 != 0:
        refutation = Refutation("order-not-3n", (t2.n,))
    elif isinstance(part := unit_partition(t2), Refutation):
        refutation = part
    elif not verify_certificate(t2, cert := build_certificate(t2, part)).passed:
        # unreachable for a valid partition; kept as a safety net
        refutation = Refutation("certificate", tuple(bit_list(cert)))
    else:
        case, partition, certificate = "T2", part, cert
    if refutation is not None and (found := find_forbidden_configuration(t2)):
        refutation = Refutation(f"forbidden-path({found[0]})", found[1])
    return RecognitionResult(
        refutation is None, case, t2, red.to_reduced, partition, certificate, refutation
    )
