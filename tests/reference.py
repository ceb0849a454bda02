"""Slow, independent implementations kept as references for the tests.

Some are the library's earlier searches: the hand-rolled graph searches
from before the shared ``vedom.graph.traverse`` helper (the forbidden-path
search builds every leaf's path to every vertex, the canonical sequence
recurses once per tree level), the free-tree generator that builds a graph
through ``Graph.from_edges`` for every rooted sequence of its own copy of
the successor rule, the two-centroid step that re-rooted a sequence block
by block to compare it with the other centroid's, the per-vertex
dominated-edge and adjacency masks built edge by edge and neighbour by
neighbour, the oracle search that
generated every cover before filtering for minimality, the oracle report
that sorted the minimal sets and tested each for independence afterwards,
and the certificate check that counts dominators through per-vertex edge
masks and tests independence pair by pair, the reduction that deleted every
non-representative and rebuilt the rest through ``Graph.from_edges``, the
unit-cut split that walked each side into a mask and deleted the rest, the
walk filtered through a set of allowed vertices, the lemma suite's
components of a cut tree found as masks and deleted out, the two-pass
edge-list parser, the two-pass DIMACS reader that checked each clause's
arity itself, the reducedness test that grouped every
neighbourhood class, the unit partition built on vertex sets with a
traversal for backbone connectivity, the recognizer that built its result
in three places from the library's own stages, and the lemma suite's
qualifying cut edges and vertices, each spelling out the length-2 path
rule.  The others are
definitional oracles: the 2^n subset sweep, minimality by single-vertex
removal, the truth-table satisfiability check, textbook Pruefer decoding
and a tree's automorphism count from its centroid-rooted subtree codes.
They are slow but simple, so the tests compare the library against them.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import groupby
from typing import Iterator

from vedom.constructions import CnfFormatError, CnfInstance
from vedom.domination import DominationReport, InstanceTooLargeError, is_ve_dominating
from vedom.graph import (
    Graph,
    GraphFormatError,
    bit_list,
    good_pendant_edges,
    is_tree,
    mask_from,
    require_tree,
)
from vedom.recognizer import (
    LABEL_BACKBONE,
    LABEL_LEAF,
    LABEL_SUPPORT,
    CertificateCheck,
    InvalidPartitionError,
    Refutation,
    UnitPartition,
)
from vedom import recognizer, reduction
from vedom.reduction import ReductionMap


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit indices of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def dominated_edge_masks(g: Graph) -> list[int]:
    """The library's earlier mask rule, kept so that the references do not
    share the library's masks: each edge contributes its bit to both
    endpoints and all their neighbors."""
    masks = [0] * g.n
    for idx, (a, b) in enumerate(g.edges):
        bit = 1 << idx
        for end in (a, b):
            masks[end] |= bit
            for u in g.adj[end]:
                masks[u] |= bit
    return masks


def adjacency_masks(g: Graph) -> list[int]:
    """Open-neighborhood bitmask per vertex, read off the adjacency lists."""
    out = [0] * g.n
    for v in range(g.n):
        for u in g.adj[v]:
            out[v] |= 1 << u
    return out


def _all_members_have_private(masks: list[int], s: int) -> bool:
    """The library's earlier minimality filter: for each member, union the
    masks of all the others and look for an edge outside that union."""
    members = bit_list(s)
    for v in members:
        others = 0
        for u in members:
            if u != v:
                others |= masks[u]
        if not masks[v] & ~others:
            return False
    return True


def minimal_sets_by_covers(g: Graph, size_bound: int | None = None) -> list[int]:
    """The oracle's earlier search: generate every ve-dominating cover by
    branching on the lowest-index uncovered edge, then keep the covers in
    which every member has a private edge.  Same output and order as
    ``enumerate_minimal_ve_dominating_sets``."""
    m = len(g.edges)
    full = (1 << m) - 1
    if full == 0:
        return [0]
    masks = dominated_edge_masks(g)
    edge_dominators: list[list[int]] = [[] for _ in range(m)]
    for v in range(g.n):
        for e in iter_bits(masks[v]):
            edge_dominators[e].append(v)
    bound = g.n if size_bound is None else min(size_bound, g.n)

    covers: list[int] = []

    def search(chosen: int, covered: int, banned: int, count: int) -> None:
        if covered == full:
            covers.append(chosen)
            return
        if count == bound:
            return
        rem = ~covered & full
        e = (rem & -rem).bit_length() - 1
        b = banned
        for v in edge_dominators[e]:
            if not (b >> v) & 1:
                search(chosen | (1 << v), covered | masks[v], b, count + 1)
                b |= 1 << v

    search(0, 0, 0, 0)
    minimal = [s for s in covers if _all_members_have_private(masks, s)]
    minimal.sort(key=lambda s: (s.bit_count(), bit_list(s)))
    return minimal


def oracle_report(g: Graph, size_bound: int | None = None) -> DominationReport:
    """The library's earlier report: sort the minimal sets, then read the
    sizes, the independent sizes and the first set of each extreme size off
    the sorted list.  No vertex guard."""
    sets = minimal_sets_by_covers(g, size_bound)
    if not sets:
        raise ValueError(f"no minimal ve-dominating set of size <= {size_bound}")
    adj = adjacency_masks(g)
    sizes = [s.bit_count() for s in sets]
    gamma, big_gamma = min(sizes), max(sizes)
    ind_sizes = [s.bit_count() for s in sets if all(adj[v] & s == 0 for v in iter_bits(s))]
    i_ve = min(ind_sizes, default=None)
    beta_ve = max(ind_sizes, default=None)
    return DominationReport(
        gamma_ve=gamma,
        big_gamma_ve=big_gamma,
        minimal_size_multiset=dict(sorted(Counter(sizes).items())),
        witness_min=next(s for s in sets if s.bit_count() == gamma),
        witness_max=next(s for s in sets if s.bit_count() == big_gamma),
        i_ve=i_ve,
        beta_ve=beta_ve,
        is_well_ve_dominated=gamma == big_gamma,
        is_well_ve_covered=i_ve == beta_ve if ind_sizes else None,
        enumeration_mode="full" if size_bound is None else f"size-bounded({size_bound})",
    )


def minimal_sets_by_exhaustion(g: Graph) -> list[int]:
    """Brute-force sweep over all 2^n subsets; the independent test oracle.

    Deliberately definitional (coverage table over every subset, minimality
    by single-vertex removal), only suitable for very small graphs.
    """
    if g.n > 16:
        raise InstanceTooLargeError("exhaustive sweep is capped at 16 vertices")
    m = len(g.edges)
    full = (1 << m) - 1
    masks = dominated_edge_masks(g)
    size = 1 << g.n
    covered = [0] * size
    for s in range(1, size):
        low = s & -s
        covered[s] = covered[s ^ low] | masks[low.bit_length() - 1]
    out = []
    for s in range(size):
        if covered[s] != full:
            continue
        if all(covered[s ^ (1 << v)] != full for v in iter_bits(s)):
            out.append(s)
    out.sort(key=lambda s: (s.bit_count(), bit_list(s)))
    return out


def is_minimal_by_removal(g: Graph, s: int) -> bool:
    """Definitional route: s dominates and no single-vertex removal does.

    The independent cross-check of the library's private-edge test; for a
    dominating s the two must agree on every input.
    """
    if not is_ve_dominating(g, s):
        return False
    full = (1 << len(g.edges)) - 1
    masks = dominated_edge_masks(g)
    for v in iter_bits(s):
        covered = 0
        for u in iter_bits(s & ~(1 << v)):
            covered |= masks[u]
        if covered == full:
            return False
    return True


def sat_decide_by_truth_table(f: CnfInstance) -> bool:
    """Exhaustive assignment sweep; the independent check for the gadget route."""
    n = f.variable_count
    for bits in range(1 << n):
        assignment = {i + 1: bool((bits >> i) & 1) for i in range(n)}
        if all(any(assignment[abs(lit)] == (lit > 0) for lit in clause) for clause in f.clauses):
            return True
    return False


def pruefer_to_tree(n: int, seq: list[int]) -> Graph:
    """Textbook Pruefer decoding, n >= 2: join the smallest leaf to each
    entry in turn, then join the last two leaves.  Decoding always gives a
    tree on distinct (min, max) pairs, so the unchecked ``Graph._build``
    builds it."""
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    pairs = []
    for v in seq:
        leaf = degree.index(1)
        pairs.append((leaf, v) if leaf < v else (v, leaf))
        degree[leaf] -= 1
        degree[v] -= 1
    pairs.append(tuple(v for v in range(n) if degree[v] == 1))
    return Graph._build(n, pairs)


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


def automorphism_count(g: Graph) -> int:
    """|Aut(g)| of a tree, from subtree codes rooted at its centroids: at
    each vertex, m children with equal codes permute in m! ways, times the
    children's own counts.  Two centroids split the tree at the edge between
    them, which every automorphism keeps, swapping the halves when equal."""

    def rooted(v: int, parent: int) -> tuple[tuple, int]:
        codes, count = [], 1
        for u in g.adj[v]:
            if u != parent:
                code, k = rooted(u, v)
                codes.append(code)
                count *= k
        codes.sort()
        for _, same in groupby(codes):
            count *= math.factorial(len(list(same)))
        return tuple(codes), count

    cs = centroids(g)
    if len(cs) == 1:
        return rooted(cs[0], -1)[1]
    (a, x), (b, y) = rooted(cs[0], cs[1]), rooted(cs[1], cs[0])
    return x * y * (2 if a == b else 1)


def rooted_level_sequences(n: int) -> Iterator[tuple[int, ...]]:
    """The successor rule as the library first had it: find the last entry
    above 2 by a scan from the end, and tile the tail entry by entry."""
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


def level_sequence_to_graph(seq: tuple[int, ...]) -> Graph:
    """Each vertex joined to the most recent earlier vertex one level up,
    built and validated through ``Graph.from_edges``."""
    edges = []
    last_at_level: dict[int, int] = {}
    for v, lvl in enumerate(seq):
        if v > 0:
            edges.append((last_at_level[lvl - 1], v))
        last_at_level[lvl] = v
    return Graph.from_edges(len(seq), edges)


def enumerate_free_trees(n: int) -> Iterator[Graph]:
    """The library's earlier free-tree filter: build the tree of every
    rooted level sequence and keep it when its centroid canonical form is
    that sequence."""
    for seq in rooted_level_sequences(n):
        g = level_sequence_to_graph(seq)
        if canonical_form(g) == seq:
            yield g


def rerooted(seq: list[int]) -> list[int]:
    """The library's earlier two-centroid step: the canonical sequence of
    seq's tree rooted at the root's child c whose subtree has n/2 vertices,
    c's own child blocks one level up and the rest of the tree, itself
    canonical, as one block one level down, in decreasing order."""
    n = len(seq)
    starts = [i for i, lvl in enumerate(seq) if lvl == 2]
    a = next(a for a, b in zip(starts, starts[1:] + [n]) if 2 * (b - a) == n)
    b = a + n // 2
    cuts = [i for i in range(a + 1, b) if seq[i] == 3] + [b]
    blocks = [[lvl - 1 for lvl in seq[i:j]] for i, j in zip(cuts, cuts[1:])]
    blocks.append([lvl + 1 for lvl in seq[:a] + seq[b:]])
    blocks.sort(reverse=True)
    return [1] + [lvl for block in blocks for lvl in block]


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


def verify_certificate(t: Graph, certificate: int) -> CertificateCheck:
    """Dominator count of every edge summed over the members' dominated-edge
    masks; independence tested on every pair of members."""
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


def induced_delete(g: Graph, removed: int) -> tuple[Graph, dict[int, int]]:
    """The library's earlier induced subgraph: survivors renamed through a
    dict, the graph rebuilt through the checked ``Graph.from_edges``."""
    keep = [v for v, digit in enumerate(f"{removed:0{g.n}b}"[::-1][:g.n]) if digit == "0"]
    remap = {old: new for new, old in enumerate(keep)}
    edges = [
        (remap[u], remap[v])
        for u, v in g.edges
        if u in remap and v in remap
    ]
    return Graph.from_edges(len(keep), edges), remap


def unit_cut_sides(t: Graph, e: tuple[int, int]) -> list[Graph]:
    """``unit_cut_decompose``'s earlier split at the backbone edge e, lower
    endpoint first: each side walked with the other endpoint barred, turned
    into a mask, and cut out of t by deleting every vertex outside it."""
    everything = (1 << t.n) - 1
    sides = []
    for start, other in (e, e[::-1]):
        side = filtered_walk(t, start, set(range(t.n)) - {other})
        sides.append(induced_delete(t, everything & ~mask_from(side))[0])
    return sides


def filtered_walk(g: Graph, root: int, allowed: set[int]) -> list[int]:
    """The library's earlier filtered walk: the breadth-first order from
    root, moving only through members of ``allowed`` (root itself is always
    listed)."""
    seen = [False] * g.n
    seen[root] = True
    order = [root]
    for v in order:
        for u in g.adj[v]:
            if not seen[u] and u in allowed:
                seen[u] = True
                order.append(u)
    return order


def components_without(t: Graph, removed: int) -> list[Graph]:
    """The lemma suite's earlier components of t minus the ``removed`` mask:
    the rest cut out by deleting the mask, its components found as masks by
    smallest member, and each cut out of the rest by deleting every vertex
    outside it."""
    rest, _ = induced_delete(t, removed)
    everything = (1 << rest.n) - 1
    unseen = set(range(rest.n))
    out = []
    while unseen:
        comp = filtered_walk(rest, min(unseen), unseen)
        unseen.difference_update(comp)
        out.append(induced_delete(rest, everything & ~mask_from(comp))[0])
    return out


def qualifying_cut_edges(t: Graph) -> list[tuple[int, int]]:
    """The harness's earlier list of tree edges whose endpoints both start a
    length-2 path avoiding the edge."""
    out = []
    for u, v in t.edges:
        u_ok = any(x != v and t.degree(x) >= 2 for x in t.adj[u])
        v_ok = any(x != u and t.degree(x) >= 2 for x in t.adj[v])
        if u_ok and v_ok:
            out.append((u, v))
    return out


def qualifying_cut_vertices(t: Graph) -> list[int]:
    """The harness's earlier list of cut vertices c with two neighbors that
    each start a length-2 path avoiding c."""
    out = []
    for c in range(t.n):
        if t.degree(c) < 2:
            continue
        good = 0
        for v in t.adj[c]:
            if any(x != c and t.degree(x) >= 2 for x in t.adj[v]):
                good += 1
        if good >= 2:
            out.append(c)
    return out


def reduce_graph(g: Graph) -> ReductionMap:
    """The library's earlier collapse pass: classes sorted by minimum member,
    every non-representative deleted through ``induced_delete``, and each
    vertex mapped through the returned dict."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for v in range(g.n):
        groups.setdefault(g.adj[v], []).append(v)
    classes = sorted(groups.values(), key=lambda c: c[0])
    class_of = [0] * g.n
    reps = []
    for idx, members in enumerate(classes):
        reps.append(members[0])
        for v in members:
            class_of[v] = idx
    removed = mask_from(v for v in range(g.n) if v != reps[class_of[v]])
    reduced, remap = induced_delete(g, removed)
    to_reduced = tuple(remap[reps[class_of[v]]] for v in range(g.n))
    return ReductionMap(
        representatives=tuple(reps),
        reduced_graph=reduced,
        to_reduced=to_reduced,
    )


def parse_edge_list(text: str) -> tuple[int, list[tuple[int, int]]]:
    """The library's earlier two-pass parser: the first pass checks the
    format and keeps a (lineno, u, v) triple per edge, the second checks
    ranges against the final count and duplicates against a set."""
    declared: int | None = None
    raw_edges: list[tuple[int, int, int]] = []
    saw_edge = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if parts[0] == "n":
            if declared is not None or saw_edge:
                raise GraphFormatError(
                    f"line {lineno}: directive 'n' must be the first non-comment line"
                )
            if len(parts) != 2:
                raise GraphFormatError(f"line {lineno}: malformed directive {stripped!r}")
            try:
                declared = int(parts[1])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: malformed vertex count {parts[1]!r}") from None
            if declared < 0:
                raise GraphFormatError(f"line {lineno}: negative vertex count")
            continue
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: malformed edge line {stripped!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: malformed edge line {stripped!r}") from None
        if u < 0 or v < 0:
            raise GraphFormatError(f"line {lineno}: negative vertex index")
        if u == v:
            raise GraphFormatError(f"line {lineno}: self-loop at vertex {u}")
        saw_edge = True
        raw_edges.append((lineno, u, v))

    n = declared if declared is not None else (1 + max((max(u, v) for _, u, v in raw_edges), default=-1))
    seen: set[tuple[int, int]] = set()
    edges: list[tuple[int, int]] = []
    for lineno, u, v in raw_edges:
        if u >= n or v >= n:
            raise GraphFormatError(
                f"line {lineno}: vertex index {max(u, v)} exceeds declared count {n}"
            )
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise GraphFormatError(f"line {lineno}: duplicate edge ({e[0]}, {e[1]})")
        seen.add(e)
        edges.append(e)
    return n, edges


def parse_dimacs_cnf(text: str) -> CnfInstance:
    """The library's earlier two-pass DIMACS reader: the first pass checks
    the lines and collects every literal, the second splits them into
    clauses and checks each clause's arity before the instance is built."""
    header: tuple[int, int] | None = None
    tokens: list[int] = []
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
            tokens.extend(int(tok) for tok in stripped.split())
        except ValueError:
            raise CnfFormatError(f"line {lineno}: non-integer token") from None
    if header is None:
        raise CnfFormatError("missing 'p cnf' header")
    clauses: list[tuple[int, int, int]] = []
    current: list[int] = []
    for tok in tokens:
        if tok == 0:
            if current:
                if len(current) != 3:
                    raise CnfFormatError(f"clause {current} does not have exactly 3 literals")
                clauses.append((current[0], current[1], current[2]))
                current = []
        else:
            current.append(tok)
    if current:
        raise CnfFormatError("last clause is not 0-terminated")
    if len(clauses) != header[1]:
        raise CnfFormatError(
            f"header declares {header[1]} clauses but {len(clauses)} were read"
        )
    return CnfInstance(variable_count=header[0], clauses=tuple(clauses))


def is_reduced(g: Graph) -> bool:
    """The library's earlier test: group the vertices by open neighbourhood
    and require every group to be a singleton."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for v, nbrs in enumerate(g.adj):
        groups.setdefault(nbrs, []).append(v)
    return all(len(c) == 1 for c in groups.values())


def unit_partition(t: Graph) -> UnitPartition | Refutation:
    """The library's earlier unit partition: leaf, support and backbone
    sets, degree calls, and a traversal for backbone connectivity."""
    require_tree(t, "unit partition")
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

    if not len(leaves) == len(support_set) == len(backbone) == t.n // 3:
        raise InvalidPartitionError("unit counts are not equal thirds of the order")

    backbone_edges = tuple(
        (u, v) for u, v in t.edges if u in backbone_set and v in backbone_set
    )
    if len(filtered_walk(t, backbone[0], backbone_set)) != len(backbone_set):
        return Refutation("backbone-disconnected", tuple(sorted(backbone_set)))

    label = [LABEL_BACKBONE] * t.n
    for leaf, s, _ in units:
        label[leaf] = LABEL_LEAF
        label[s] = LABEL_SUPPORT
    return UnitPartition(tuple(units), tuple(label), backbone_edges)


def recognize(t: Graph) -> recognizer.RecognitionResult:
    """The library's earlier ``recognize``: a closure builds each rejection,
    and each verdict returns its own result, from the library's stages."""
    require_tree(t, recognizer.RECOGNITION)
    red = reduction.reduce_graph(t)
    t2 = red.reduced_graph

    def rejected(structural: Refutation) -> recognizer.RecognitionResult:
        found = recognizer.find_forbidden_configuration(t2)
        refutation = (
            Refutation(f"forbidden-path({found[0]})", found[1]) if found else structural
        )
        return recognizer.RecognitionResult(
            verdict=False,
            case="rejected",
            reduced_tree=t2,
            to_reduced=red.to_reduced,
            partition=None,
            certificate=None,
            refutation=refutation,
        )

    if t2.n <= 2:
        return recognizer.RecognitionResult(
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
    part = recognizer.unit_partition(t2)
    if isinstance(part, Refutation):
        return rejected(part)
    cert = recognizer.build_certificate(t2, part)
    if not recognizer.verify_certificate(t2, cert).passed:
        return rejected(Refutation("certificate", tuple(bit_list(cert))))
    return recognizer.RecognitionResult(
        verdict=True,
        case="T2",
        reduced_tree=t2,
        to_reduced=red.to_reduced,
        partition=part,
        certificate=cert,
        refutation=None,
    )
