"""Immutable simple undirected graphs with a canonical edge order.

Vertices are dense 0-based integers.  Edges are unordered pairs (u, v) with
u < v, stored sorted lexicographically; the position of a pair in that list
is its edge index.  Vertex and edge subsets are passed around as plain int
bitmasks (bit i set = index i is a member), which keeps membership tests and
unions word-parallel in the subset-search inner loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


class GraphFormatError(ValueError):
    """Raised when an edge-list document cannot be parsed."""


MAX_VERTICES = 10**6  # the largest order (or gadget edge count) a file may ask for
_TREE = "_is_tree"  # the key of is_tree's kept answer in a Graph's __dict__


def check_order(n: int, what: str = "vertices") -> None:
    """Raise ValueError when a count of ``what`` exceeds MAX_VERTICES, so a
    count a file asks for is checked before anything is allocated in
    proportion to it."""
    if n > MAX_VERTICES:
        raise ValueError(f"{n} {what} exceeds the limit of {MAX_VERTICES}")


def check_vertex_set(g: Graph, s: int) -> None:
    """Raise ValueError unless the mask s names only vertices of g."""
    if s < 0 or s >> g.n:
        raise ValueError(f"vertex set is not a mask over the {g.n} vertices")


def mask_from(indices: Iterable[int]) -> int:
    """Bitmask with the given bit indices set."""
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def bit_list(mask: int) -> list[int]:
    """The set bit indices of ``mask`` in increasing order, read off its
    binary digits in time linear in its length."""
    return [i for i, digit in enumerate(bin(mask)[:1:-1]) if digit == "1"]


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1.

    adj[v] is the sorted tuple of neighbors of v; edges is the canonical
    lexicographically sorted tuple of (min, max) pairs.  Graphs are
    immutable; is_tree keeps its answer outside the fields, so ==, hash and pickles ignore it.
    """

    n: int
    adj: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph, validating and canonicalizing the edge list.  An
        order above MAX_VERTICES raises ValueError."""
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise ValueError(f"duplicate edge ({e[0]}, {e[1]})")
            seen.add(e)
        return Graph._build(n, seen)

    @staticmethod
    def _build(n: int, pairs: Iterable[tuple[int, int]]) -> "Graph":
        """The distinct (min, max) pairs were validated already.  Only the
        order is checked, before the sort: every file-built graph comes here."""
        check_order(n)
        return Graph._from_canonical(n, tuple(sorted(pairs)))

    @staticmethod
    def _from_canonical(n: int, canon: tuple[tuple[int, int], ...]) -> "Graph":
        """Unchecked: canon holds valid (min, max) pairs in canonical order.
        In that order the edges (u, v) with u < v come before the edges
        (v, w), so appending leaves every adjacency list sorted."""
        nbrs: list[list[int]] = [[] for _ in range(n)]
        for u, v in canon:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return Graph(n, tuple(map(tuple, nbrs)), canon)

    def __getstate__(self) -> dict:
        return {"n": self.n, "adj": self.adj, "edges": self.edges}

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list text format.

    Lines starting with '#' are comments.  An optional first directive line
    "n <count>" declares the vertex count; otherwise the count is one more
    than the largest index seen (0 if there are no edges).  Every other
    non-blank line is "u v".  An error names the first faulty line by its
    1-based number.  A count above MAX_VERTICES raises ValueError before
    the graph is built.
    """
    return Graph._build(*_parse_edge_list(text))


def _parse_edge_list(text: str) -> tuple[int, list[tuple[int, int]]]:
    """The vertex count and the validated (min, max) edges of an edge-list
    document, without building the graph, so a caller can check the count
    against a size guard first.

    One pass: a declared count precedes every edge, so ranges and
    duplicates are checked as the lines are read, and the first faulty
    line's error is raised without reading further."""
    declared: int | None = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] == "n":
            if declared is not None or edges:
                raise GraphFormatError(
                    f"line {lineno}: directive 'n' must be the first non-comment line"
                )
            if len(parts) != 2:
                raise GraphFormatError(f"line {lineno}: malformed directive {line.strip()!r}")
            try:
                declared = int(parts[1])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: malformed vertex count {parts[1]!r}") from None
            if declared < 0:
                raise GraphFormatError(f"line {lineno}: negative vertex count")
            continue
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: malformed edge line {line.strip()!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: malformed edge line {line.strip()!r}") from None
        if u < 0 or v < 0:
            raise GraphFormatError(f"line {lineno}: negative vertex index")
        if u == v:
            raise GraphFormatError(f"line {lineno}: self-loop at vertex {u}")
        e = (u, v) if u < v else (v, u)
        if declared is not None and e[1] >= declared:
            raise GraphFormatError(f"line {lineno}: vertex index {e[1]} exceeds declared count {declared}")
        if e in seen:
            raise GraphFormatError(f"line {lineno}: duplicate edge ({e[0]}, {e[1]})")
        seen.add(e)
        edges.append(e)
    if declared is not None:
        return declared, edges
    return 1 + max((v for _, v in edges), default=-1), edges


def serialize_edge_list(g: Graph) -> str:
    """Emit the canonical edge-list document (header always present)."""
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def traverse(g: Graph, root: int) -> tuple[list[int], list[int]]:
    """Breadth-first search of g from root.

    Returns (order, parent).  order lists every vertex reachable from root;
    each vertex appears after its parent, so a forward pass over order sees
    parents before children and a reversed pass sees children before
    parents.  parent[v] is the vertex that reached v, and -1 for root and
    for every vertex not reached.
    """
    parent = [-1] * g.n
    return _reach(g, root, [False] * g.n, parent), parent


def _reach(g: Graph, root: int, seen: list[bool], parent: list[int] | None = None) -> list[int]:
    """The breadth-first order from root over vertices not yet marked in
    seen, marking each one and, when a parent list is given, recording its
    parent.  Callers that scan many roots share seen, so each scan allocates
    it once; a caller keeps the walk off some vertices by marking them
    first."""
    seen[root] = True
    order = [root]
    for v in order:  # order doubles as the queue: appends extend the loop
        for u in g.adj[v]:
            if not seen[u]:
                seen[u] = True
                if parent is not None:
                    parent[u] = v
                order.append(u)
    return order


def connected_components(g: Graph) -> list[int]:
    """Vertex masks of the connected components, ordered by smallest member."""
    seen = [False] * g.n
    return [mask_from(_reach(g, start, seen)) for start in range(g.n) if not seen[start]]


class NotATreeError(ValueError):
    """Raised when an operation defined only on trees gets another graph."""

    def __init__(self, task: str) -> None:
        super().__init__(f"{task} requires a tree")


def has_tree_size(n: int, edge_count: int) -> bool:
    """True when n vertices and edge_count edges can form a tree: n >= 1 and
    n - 1 edges.  This half of is_tree needs no Graph, so a parsed edge
    list can be rejected before one is built."""
    return n >= 1 and edge_count == n - 1


def is_tree(g: Graph) -> bool:
    """Connected with exactly n-1 edges; the empty graph is not a tree.  The
    answer, or a tree builder's record of it, is kept on g: one walk at most."""
    if _TREE not in g.__dict__:
        g.__dict__[_TREE] = has_tree_size(g.n, len(g.edges)) and len(traverse(g, 0)[0]) == g.n
    return g.__dict__[_TREE]


def _tree(g: Graph, like: Graph | None = None) -> Graph:
    """g, recorded as a tree for is_tree; with like, only if like is recorded as one."""
    if like is None or like.__dict__.get(_TREE):
        g.__dict__[_TREE] = True
    return g


def require_tree(g: Graph, task: str) -> None:
    """Raise NotATreeError(task) unless g is a tree."""
    if not is_tree(g):
        raise NotATreeError(task)


def good_pendant_edges(g: Graph) -> list[tuple[int, int]]:
    """All (leaf, support) pairs where the leaf has degree 1 and its support
    degree exactly 2, sorted by leaf index."""
    out = []
    for leaf in range(g.n):
        if g.degree(leaf) == 1:
            support = g.adj[leaf][0]
            if g.degree(support) == 2:
                out.append((leaf, support))
    return out


def induced_delete(g: Graph, removed: int) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on the vertices outside the ``removed`` mask.

    Returns the new graph plus the old-index -> new-index map for the
    surviving vertices, which keep their relative order.
    """
    keep = bit_list(((1 << g.n) - 1) & ~removed)
    return _induced(g, keep)[0], {old: new for new, old in enumerate(keep)}


def _induced(g: Graph, keep: list[int]) -> tuple[Graph, list[int]]:
    """The subgraph induced on the increasing list keep, keep[i] renamed i,
    and the renaming: new[v] is v's index in keep, -1 for a vertex outside
    it.  Renaming in order keeps g's canonical edge order, so the kept
    edges need no sort and no check."""
    new = [-1] * g.n
    for i, v in enumerate(keep):
        new[v] = i
    edges = tuple([(new[u], new[v]) for u, v in g.edges if new[u] >= 0 and new[v] >= 0])
    return Graph._from_canonical(len(keep), edges), new
