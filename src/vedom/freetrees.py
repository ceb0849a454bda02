"""Enumeration of non-isomorphic free trees.

Rooted trees are generated as canonical level sequences by the classic
successor rule (start from the path sequence 1,2,...,n; repeatedly chop the
last entry above 2 and tile the tail).  A rooted tree is kept exactly when
its sequence equals the canonical sequence of the same tree re-rooted at its
centroid, which picks one representative per free isomorphism class without
storing anything.  Every candidate is decided on its sequence, as in Wright,
Richmond, Odlyzko & McKay, "Constant time generation of free trees", SIAM J.
Comput. 15(2) (1986): the sizes of the root's child subtrees are the gaps
between successive level-2 entries, so the root is a centroid exactly when
no gap exceeds n/2, and a gap of exactly n/2 gives the other centroid; then
the tree is kept when its half at the root is at most its other half.  Most
candidates fail on their first gap, and those come in runs sharing a prefix,
so the generator jumps past each such run in one successor step (at order 18
it yields 180,324 of the 1,721,159 rooted sequences).

The canonical sequence doubles as a canonical form: two trees are isomorphic
iff their centroid-rooted canonical sequences are equal.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .graph import Graph, _tree, has_tree_size, traverse

MAX_ENUMERATION_ORDER = 20

# number of free trees on 1..20 vertices; used as a cross-check (the tests
# prove orders 1..14 complete by counting each tree's labelings)
FREE_TREE_COUNTS = (
    1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741,
    19320, 48629, 123867, 317955, 823065,
)


def _sequences(n: int) -> Iterator[tuple[list[int], int]]:
    """The successor rule on one list, rewritten in place after each yield,
    as (seq, big): big is the largest of the root's child subtrees, which
    begin at the level-2 indices, starts.  A step rewrites only seq[p:],
    where a level-2 entry can only begin a copy of the block, so the starts
    before p and their running maxima (lead) carry over.

    No sequence whose first child subtree has more than n/2 vertices is
    yielded.  With m = n // 2 + 1, that subtree holds all of seq[1..m], and
    so does every sequence sharing the prefix seq[:m+1]; in decreasing order
    these form one run, ending in the sequence whose tail seq[m+1:] is all
    2s.  That sequence's successor step chops seq[m] and keeps only the
    start at 1, so the jump past the run is that step, taken at p = m
    without yielding.  The step into a run tiles a block with no level-2
    entry, so the first sequence met in each run, the path included, is one
    whose root has a single child, and that is where it jumps."""
    seq = list(range(1, n + 1))
    starts, lead = [1], [0]
    m = n // 2 + 1
    while True:
        if len(starts) == 1 and m < n:
            p = m  # the step after the run's last sequence
        else:
            yield seq, max(lead[-1], n - starts[-1])
            p = n - 1
            while p and seq[p] <= 2:
                p -= 1
            if p == 0:
                return
        q = p - 1
        while seq[q] != seq[p] - 1:
            q -= 1
        while starts[-1] > p:
            starts.pop()
            lead.pop()
        if seq[q] == 2:
            for s in range(p, n, p - q):
                lead.append(max(lead[-1], s - starts[-1]))
                starts.append(s)
        seq[p:] = (seq[q:p] * ((n - p) // (p - q) + 1))[: n - p]


def level_sequence_to_graph(seq: Iterable[int]) -> Graph:
    """Tree from a level sequence: each vertex after the first attaches to
    the most recent earlier vertex one level up (ValueError names a vertex
    with none).  Parents come before children, so the (parent, child) pairs
    are valid (min, max) pairs, and a non-empty sequence gives a tree, which
    is recorded for is_tree."""
    levels = list(seq)
    pairs = []
    last_at_level: dict[int, int] = {}
    try:
        for v, lvl in enumerate(levels):
            if v > 0:
                pairs.append((last_at_level[lvl - 1], v))
            last_at_level[lvl] = v
    except KeyError:
        raise ValueError(f"vertex {v} has no earlier vertex at level {lvl - 1}") from None
    g = Graph._build(len(levels), pairs)
    return _tree(g) if levels else g


def centroids(g: Graph) -> list[int]:
    """The one or two vertices minimizing the largest component of g - v.
    One walk checks that g is a tree (n - 1 edges, every vertex reached)
    and, children before parents, gives each subtree's size."""
    n = g.n
    order, parent = traverse(g, 0) if has_tree_size(n, len(g.edges)) else ([], [])
    if not 0 < len(order) == n:
        raise ValueError("centroids are defined here for trees only")
    size, heavy = [1] * n, [0] * n
    for v in reversed(order[1:]):
        u = parent[v]
        size[u] += size[v]
        if size[v] > heavy[u]:
            heavy[u] = size[v]
    worst = [max(n - s, h) for s, h in zip(size, heavy)]
    best = min(worst)
    return [v for v, w in enumerate(worst) if w == best]


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
    in the deterministic level-sequence order, each tree decided on its
    level sequence and built from it.

    The generator skips, in runs, every sequence whose first child subtree
    has more than n/2 vertices.  With big the largest child subtree of the
    root of a sequence it yields: if 2*big < n the root is the only
    centroid and the sequence is already canonical, so it is kept; if
    2*big > n (a later subtree is the heavy one, as in every skipped
    sequence) the root is no centroid, and no automorphism maps it onto
    one, so it is dropped.  If 2*big == n the root of that subtree is the
    other centroid, and the sequence is kept when seq[:1] + seq[big+1:],
    the rest of the tree rooted at the root, is at most seq[1:big+1] one
    level up, that subtree rooted at its root.  On all 614,789 two-centroid
    sequences of the even orders up to 20, this keeps exactly the canonical
    forms, the sequences at least the one rooted at the other centroid."""
    if not 1 <= n <= MAX_ENUMERATION_ORDER:
        raise ValueError(f"order must be in 1..{MAX_ENUMERATION_ORDER}")
    for seq, big in _sequences(n):
        if 2 * big < n or 2 * big == n and (
            seq[:1] + seq[big + 1 :] <= [lvl - 1 for lvl in seq[1 : big + 1]]
        ):
            yield level_sequence_to_graph(seq)
