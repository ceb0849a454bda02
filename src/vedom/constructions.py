"""Generators and transformers for the hardness gadget and the tree family.

Contents:

  * a reduction from 3-CNF formulas to graphs in which an independent
    ve-dominating set of size 2n exists exactly when the formula is
    satisfiable (without the independence requirement the 2n literal
    vertices always dominate, so independence is what carries the signal).
    So the gadget shows that 3-SAT reduces to asking whether i_ve <= 2n;
    the tests check i_ve == 2n against truth tables on seeded formulas.
    It says nothing about well-ve-domination: the 2n literal vertices and
    a clause vertex with every x and w vertex are minimal sets of sizes 2n
    and 2n + 1, so no gadget is well-ve-dominated.  vedom does not
    reproduce the paper's co-NP-completeness result for recognizing
    well-ve-dominated graphs;
  * backbone expansion, turning any tree R of order >= 2 into a
    well-ve-dominated tree on 3|V(R)| vertices whose backbone is R;
  * unit-cut decomposition and extension, splitting and joining
    well-ve-dominated trees along backbone edges with additive gamma_ve;
  * the path family and its classification.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .domination import SIZE_BOUNDED_VERTEX_GUARD, InstanceTooLargeError, dominated_edge_masks
from .graph import Graph, _induced, _reach, _tree, check_order, require_tree
from .recognizer import (
    LABEL_BACKBONE,
    LABEL_LEAF,
    LABEL_SUPPORT,
    UnitPartition,
    validate_unit_partition,
)

BACKBONE_EXPANSION = "backbone expansion"  # the task a non-tree input error names


class CnfFormatError(ValueError):
    """Raised for malformed CNF input (text or instance level)."""


@dataclass(frozen=True)
class CnfInstance:
    """A 3-CNF formula over variables 1..variable_count.

    Clauses are DIMACS-style literal triples: k stands for variable k,
    -k for its negation.  Every clause has exactly three literals over three
    distinct variables, and there must be at least one clause.
    """

    variable_count: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        if self.variable_count < 1:
            raise CnfFormatError("at least one variable is required")
        if not self.clauses:
            raise CnfFormatError("at least one clause is required")
        for clause in self.clauses:
            if len(clause) != 3:
                raise CnfFormatError(f"clause {clause} does not have exactly 3 literals")
            variables = set()
            for lit in clause:
                if lit == 0 or abs(lit) > self.variable_count:
                    raise CnfFormatError(f"literal {lit} out of range in clause {clause}")
                if abs(lit) in variables:
                    if -lit in clause:
                        raise CnfFormatError(
                            f"clause {clause} contains a variable and its negation"
                        )
                    raise CnfFormatError(f"clause {clause} repeats a variable")
                variables.add(abs(lit))


def parse_dimacs_cnf(text: str) -> CnfInstance:
    """DIMACS CNF: 'c' comments, a 'p cnf <vars> <clauses>' header, then
    0-terminated clauses (clauses may span lines).  CnfInstance checks the
    clauses themselves: their arity, literal range and repeated variables."""
    header: tuple[int, int] | None = None
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        if stripped.startswith("p"):
            if header is not None:
                raise CnfFormatError(f"line {lineno}: duplicate header")
            parts = stripped.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise CnfFormatError(f"line {lineno}: malformed header {stripped!r}")
            try:
                header = (int(parts[2]), int(parts[3]))
            except ValueError:
                raise CnfFormatError(f"line {lineno}: malformed header {stripped!r}") from None
            continue
        if header is None:
            raise CnfFormatError(f"line {lineno}: clause before header")
        try:
            literals = [int(tok) for tok in stripped.split()]
        except ValueError:
            raise CnfFormatError(f"line {lineno}: non-integer token") from None
        for lit in literals:
            if lit:
                current.append(lit)
            elif current:
                clauses.append(tuple(current))
                current = []
    if header is None:
        raise CnfFormatError("missing 'p cnf' header")
    if current:
        raise CnfFormatError("last clause is not 0-terminated")
    if len(clauses) != header[1]:
        raise CnfFormatError(f"header declares {header[1]} clauses but {len(clauses)} were read")
    return CnfInstance(variable_count=header[0], clauses=tuple(clauses))


@dataclass(frozen=True)
class SatReductionMap:
    """The gadget graph plus the vertex ids of every named gadget part.

    Per variable i (0-based) the six path vertices x-y-u-u'-w-z get the ids
    6i..6i+5; clause j is 6n+j; the apex is 6n+m.
    """

    graph: Graph
    x: tuple[int, ...]
    y: tuple[int, ...]
    u: tuple[int, ...]
    u_neg: tuple[int, ...]
    w: tuple[int, ...]
    z: tuple[int, ...]
    clause_vertices: tuple[int, ...]
    apex: int


def sat_to_graph(f: CnfInstance) -> SatReductionMap:
    """Build the gadget: one 6-path per variable, one vertex per clause wired
    to its three literal vertices (u for positive, u' for negated), clause
    vertices forming a clique, and an apex adjacent to every clause vertex.

    The output has 6n + m + 1 vertices and 5n + 3m + m(m-1)/2 + m edges and
    is deterministic in the instance.  Either count is checked against
    graph.MAX_VERTICES before the gadget is built.  Every pair is a distinct
    (min, max) pair by construction, so the graph is built unchecked.
    """
    n, m = f.variable_count, len(f.clauses)
    check_order(6 * n + m + 1)
    check_order(5 * n + 4 * m + m * (m - 1) // 2, "gadget edges")
    x = tuple(6 * i for i in range(n))
    y = tuple(6 * i + 1 for i in range(n))
    u = tuple(6 * i + 2 for i in range(n))
    u_neg = tuple(6 * i + 3 for i in range(n))
    w = tuple(6 * i + 4 for i in range(n))
    z = tuple(6 * i + 5 for i in range(n))
    clause_vertices = tuple(6 * n + j for j in range(m))
    apex = 6 * n + m

    edges: list[tuple[int, int]] = []
    for i in range(n):
        edges += [(x[i], y[i]), (y[i], u[i]), (u[i], u_neg[i]), (u_neg[i], w[i]), (w[i], z[i])]
    for j, clause in enumerate(f.clauses):
        for lit in clause:
            var = abs(lit) - 1
            edges.append((u[var] if lit > 0 else u_neg[var], clause_vertices[j]))
    for a, b in itertools.combinations(clause_vertices, 2):
        edges.append((a, b))
    for c in clause_vertices:
        edges.append((c, apex))
    return SatReductionMap(
        graph=Graph._build(6 * n + m + 1, edges),
        x=x, y=y, u=u, u_neg=u_neg, w=w, z=z,
        clause_vertices=clause_vertices,
        apex=apex,
    )


def _check_gadget_guard(f: CnfInstance | SatReductionMap) -> None:
    """Raise unless the gadget of f, a formula or a gadget sat_to_graph
    built, fits the bounded search; a formula's gadget need not be built."""
    if isinstance(f, SatReductionMap):
        order = f.graph.n
    else:
        order = 6 * f.variable_count + len(f.clauses) + 1
    if order > SIZE_BOUNDED_VERTEX_GUARD:
        raise InstanceTooLargeError(
            f"gadget has {order} vertices, above the bounded-search guard "
            f"of {SIZE_BOUNDED_VERTEX_GUARD}"
        )


def sat_decide_via_graph(f: CnfInstance | SatReductionMap) -> bool:
    """True iff the gadget admits an independent ve-dominating set of
    size 2n, which holds iff the formula is satisfiable.  f is the formula,
    whose guard is checked before its gadget is built, or the gadget
    sat_to_graph built from it.

    Any ve-dominating set needs one vertex from each disjoint triple
    {x, y, u} and {u', w, z} (those alone dominate the two pendant path
    edges), so a size-2n set takes exactly one per triple and never touches
    clause vertices or the apex; the search space is the per-variable pair
    choices.  Independence rules out exactly the adjacent pair (u, u'),
    taking both literals of one variable, which is what keeps the selected
    literals consistent as a truth assignment.  Dropping independence loses
    the signal: the 2n literal vertices dominate every gadget.
    """
    _check_gadget_guard(f)
    gadget = f if isinstance(f, SatReductionMap) else sat_to_graph(f)
    g = gadget.graph
    masks = dominated_edge_masks(g)
    full = (1 << len(g.edges)) - 1
    n = len(gadget.x)
    choice_masks = [
        [
            masks[a] | masks[b]
            for a in (gadget.x[i], gadget.y[i], gadget.u[i])
            for b in (gadget.u_neg[i], gadget.w[i], gadget.z[i])
            if not (a == gadget.u[i] and b == gadget.u_neg[i])
        ]
        for i in range(n)
    ]

    def search(i: int, covered: int) -> bool:
        if i == n:
            return covered == full
        return any(search(i + 1, covered | mask) for mask in choice_masks[i])

    try:
        return search(0, 0)
    finally:
        del search  # search refers to itself through its closure cell: break that cycle


def expand_backbone(r: Graph) -> tuple[Graph, UnitPartition]:
    """Attach a pendant path of length two to every vertex of the tree r.

    The result keeps r's vertex ids as its backbone 0..k-1, adds supports
    k..2k-1 and leaves 2k..3k-1 (support of backbone vertex w is k+w, its
    leaf 2k+w), and is well-ve-dominated with gamma_ve = |V(r)|.
    """
    require_tree(r, BACKBONE_EXPANSION)
    if r.n < 2:
        raise ValueError("backbone expansion requires order at least 2")
    k = r.n
    check_order(3 * k)  # before the edge list is built
    edges = list(r.edges)
    for v in range(k):
        edges.append((v, k + v))
        edges.append((k + v, 2 * k + v))
    t = _tree(Graph._build(3 * k, edges))  # tree and partition are valid by construction
    units = tuple((2 * k + v, k + v, v) for v in range(k))
    label = tuple(
        LABEL_BACKBONE if v < k else LABEL_SUPPORT if v < 2 * k else LABEL_LEAF
        for v in range(3 * k)
    )
    return t, UnitPartition(units=units, label=label, backbone_edges=r.edges)


def unit_cut_decompose(
    t: Graph, p: UnitPartition, edge: tuple[int, int] | None = None
) -> list[Graph]:
    """Cut the tree along backbone edges, keeping all endpoints.

    With edge=None every backbone edge is deleted and the components are the
    unit bodies, one P_3 per unit in unit order.  With a specific backbone
    edge only that edge is deleted and the two components come back as
    graphs (the one holding the lower endpoint first).
    """
    validate_unit_partition(t, p)
    if edge is None:
        body = path_graph(3)
        return [body for _ in p.units]
    e = (min(edge), max(edge))
    if e not in p.backbone_edges:
        raise ValueError(f"{edge} is not a backbone edge")
    seen = [False] * t.n
    seen[e[1]] = True  # each walk stays on its side of e: the first marks its side for the second
    return [_tree(_induced(t, sorted(_reach(t, v, seen)))[0]) for v in e]


def unit_cut_extend(
    t1: Graph, p1: UnitPartition, u: int, t2: Graph, p2: UnitPartition, v: int
) -> Graph:
    """Join two well-ve-dominated trees by one edge between backbone vertices.

    t2's vertices are shifted up by |V(t1)|.  Both inputs must recognize as
    the order >= 6 case and u, v must be backbone vertices of their trees;
    the result is again well-ve-dominated with additive gamma_ve.
    """
    validate_unit_partition(t1, p1)
    validate_unit_partition(t2, p2)
    for t, p, vertex, name in ((t1, p1, u, "u"), (t2, p2, v, "v")):
        if not (0 <= vertex < t.n) or p.label[vertex] != LABEL_BACKBONE:
            raise ValueError(f"endpoint {name}={vertex} is not a backbone vertex")
        # a valid partition with two or more units is the order >= 6 case;
        # the one-unit P_3 reduces to P_2, which is case T1
        if len(p.units) < 2:
            raise ValueError("both inputs must be recognized order >= 6 trees")
    offset = t1.n
    edges = list(t1.edges)
    edges += [(a + offset, b + offset) for a, b in t2.edges]
    edges.append((u, v + offset))
    return _tree(Graph._build(t1.n + t2.n, edges))


def path_graph(n: int) -> Graph:
    """The path on n vertices, 0 through n-1 in order."""
    if n < 1:
        raise ValueError("paths need at least one vertex")
    return _tree(Graph._build(n, [(i, i + 1) for i in range(n - 1)]))


def is_wvd_path(n: int) -> bool:
    """Whether every minimal ve-dominating set of the n-path has equal size.

    True exactly for n in {1, 2, 3, 6}.  Note that the 3-path qualifies even
    though it is not reduced (both leaves share the middle vertex, so it
    collapses to the 2-path); exhaustive search confirms all its minimal
    sets are singletons.
    """
    if n < 1:
        raise ValueError("paths need at least one vertex")
    return n in (1, 2, 3, 6)
