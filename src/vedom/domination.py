"""Exact ground-truth oracle for vertex-edge domination.

A vertex v ve-dominates an edge e when an endpoint of e lies in the closed
neighborhood N[v]; a vertex set is ve-dominating when every edge is
ve-dominated by some member.  One search visits all inclusion-minimal
ve-dominating sets of a small graph exactly, as the minimal transversals of
the edges' dominator sets N[a] | N[b]; its consumers list the sets, decide
the verdict alone, or tally the extremal parameters:

  gamma_ve / big_gamma_ve   min / max size of a minimal ve-dominating set
  i_ve / beta_ve            the same extremes over independent minimal sets
  well-ve-dominated         gamma_ve == big_gamma_ve
  well-ve-covered           i_ve == beta_ve

Everything is exponential-time by design; a vertex-count guard protects the
entry points.  Vertex and edge sets are int bitmasks (see vedom.graph).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .graph import Graph, bit_list, check_vertex_set

FULL_MODE_GUARD = 24
SIZE_BOUNDED_VERTEX_GUARD = 40
SIZE_BOUNDED_BOUND_GUARD = 10


class InstanceTooLargeError(ValueError):
    """Raised when a graph exceeds the oracle's vertex guard."""


def _spread(g: Graph, own: list[int]) -> list[int]:
    """Per vertex v, the union of own[w] over the members w of N[v]."""
    spread = own[:]
    for a, b in g.edges:
        spread[a] |= own[b]
        spread[b] |= own[a]
    return spread


def dominated_edge_masks(g: Graph) -> list[int]:
    """Per vertex v, the mask of the edges v ve-dominates, the edges at the
    members of N[v]; O(n + m) mask steps."""
    inc = [0] * g.n
    for idx, (a, b) in enumerate(g.edges):
        inc[a] |= 1 << idx
        inc[b] |= 1 << idx
    return _spread(g, inc)


def ve_dominated_edges(g: Graph, v: int) -> int:
    """Edge mask ve-dominated by the single vertex v: the edges at N[v]."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    return dominated_edge_masks(g)[v]


def _coverage(g: Graph, s: int) -> tuple[list[int], int, int]:
    """Dominated-edge masks, and the edges ve-dominated by at least one and
    by at least two members of s (a checked mask), in one pass over them."""
    masks = dominated_edge_masks(g)
    once = twice = 0
    for v in bit_list(s):
        twice |= once & masks[v]
        once |= masks[v]
    return masks, once, twice


def is_ve_dominating(g: Graph, s: int) -> bool:
    """True when the union of dominated-edge masks over s covers every edge.

    Vacuously true on edgeless graphs, so the empty set dominates P_1.
    """
    check_vertex_set(g, s)
    _, once, _ = _coverage(g, s)
    return once == (1 << len(g.edges)) - 1


def private_edges(g: Graph, s: int, v: int) -> int:
    """Edges ve-dominated by v and by no other member of s.  Requires v in s."""
    check_vertex_set(g, s)
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    if not (s >> v) & 1:
        raise ValueError(f"vertex {v} is not a member of the set")
    masks, _, twice = _coverage(g, s)
    return masks[v] & ~twice


def is_minimal_ve_dominating(g: Graph, s: int) -> bool:
    """Minimality via private edges: s dominates and every member has one."""
    check_vertex_set(g, s)
    masks, once, twice = _coverage(g, s)
    if once != (1 << len(g.edges)) - 1:
        return False
    return all(masks[v] & ~twice for v in bit_list(s))


def _check_guard(n: int, size_bound: int | None, guard: int) -> None:
    """Raise unless the oracle may search a graph of n vertices."""
    if size_bound is None:
        if n > guard:
            raise InstanceTooLargeError(
                f"{n} vertices exceeds the full-mode guard of {guard}"
            )
    else:
        if size_bound < 0:
            raise ValueError("size bound must be non-negative")
        if n > guard and not (
            n <= SIZE_BOUNDED_VERTEX_GUARD and size_bound <= SIZE_BOUNDED_BOUND_GUARD
        ):
            raise InstanceTooLargeError(
                f"{n} vertices with bound {size_bound} exceeds the "
                f"size-bounded guard ({SIZE_BOUNDED_VERTEX_GUARD} vertices, "
                f"bound {SIZE_BOUNDED_BOUND_GUARD})"
            )


def _search(
    g: Graph,
    size_bound: int | None,
    guard: int,
    visit: Callable[[int, int, int], bool | None],
) -> None:
    """Call visit(base, extra, free) on every inclusion-minimal
    ve-dominating set of g (of size <= size_bound when one is given), in
    batches in search order, and stop as soon as visit returns a true value.
    A batch is the sets base | bit for each bit of extra, all of one size,
    and free holds the bits whose set is independent.  An edgeless graph's
    one minimal set, the empty one, comes alone as visit(0, 0, 1).

    A set ve-dominates g when it meets N[a] | N[b] for every edge ab, so the
    minimal sets are the minimal transversals of any family with the same
    transversals.  Where v has a neighbour w, N[w] <= N[v], every edge at v
    has a dominator set containing N[v], that of vw, so it gives N[v].

    Equal sets are kept once, and the search branches on the first uncovered
    kept set, smallest first and ties in edge order.  Along a branch each
    member's private sets (kept sets met by no other member) are tracked;
    once a member has none the branch is abandoned, as no superset gives
    them back and every subset of a minimal set keeps them, so every cover
    reached is minimal.

    Each node visits its completing batch first, then its branches, low bit
    first.  The candidates in every uncovered kept set complete the cover;
    the batch is those of them that lie in no member's every private set,
    as such a pick would leave that member none.  near is N[chosen] while
    the members are independent, and every vertex once they are not, so the
    independent picks are those outside it.  With one pick left the node
    ends there.  Otherwise every completer is excluded from the node's
    branches, which loses no minimal set: a set holding chosen, another
    pick and a completer w holds chosen | w, which is already a cover.  For
    each other candidate, low bit first, the branch either includes it or
    excludes it from the rest of the node, so every cover is generated
    along exactly one path.
    """
    _check_guard(g.n, size_bound, guard)
    if not g.edges:
        visit(0, 0, 1)
        return
    closed = _spread(g, [1 << v for v in range(g.n)])  # N[v]
    seal = [0] * g.n  # N[v] when v has a neighbour w with N[w] <= N[v], else 0
    for a, b in g.edges:
        if (dominators := closed[a] | closed[b]) == closed[a]:
            seal[a] = dominators
        if dominators == closed[b]:
            seal[b] = dominators
    kept = {}  # kept set -> two vertices whose closed neighbourhoods make it up
    for a, b in g.edges:
        if seal[a]:
            kept[seal[a]] = a, a
        elif seal[b]:
            kept[seal[b]] = b, b
        else:
            kept[closed[a] | closed[b]] = a, b
    family = sorted(kept, key=int.bit_count)  # smallest first, ties in edge order
    full = (1 << len(family)) - 1
    own = [0] * g.n  # per vertex x, the kept sets that N[x] is part of
    for idx, dominators in enumerate(family):
        a, b = kept[dominators]
        own[a] |= 1 << idx
        own[b] |= 1 << idx
    masks = _spread(g, own)  # per vertex, the kept sets it belongs to
    bound = g.n if size_bound is None else min(size_bound, g.n)
    meets = {}  # private sets of a member -> the vertices in all of them

    def search(
        chosen: int, covered: int, banned: int, private: tuple[int, ...], near: int
    ) -> bool | None:
        rem = ~covered & full
        candidates = family[(rem & -rem).bit_length() - 1] & ~banned
        done, rest = candidates, rem & (rem - 1)  # the picks that complete the cover
        while rest and done:
            done &= family[(rest & -rest).bit_length() - 1]
            rest &= rest - 1
        valid = done
        for p in private:
            if not valid:
                break
            if (meet := meets.get(p)) is None:
                meet, q = -1, p
                while q and meet:
                    meet &= family[(q & -q).bit_length() - 1]
                    q &= q - 1
                meets[p] = meet
            valid &= ~meet
        if valid and visit(chosen, valid, valid & ~near):
            return True
        if len(private) + 1 == bound:  # one pick left
            return False
        candidates ^= done
        banned |= done
        while candidates:
            bit = candidates & -candidates
            candidates ^= bit
            v = bit.bit_length() - 1
            keep = (~masks[v]).__and__  # what a member keeps private once v joins
            if all(kept := tuple(map(keep, private))) and search(
                chosen | bit, covered | masks[v], banned, kept + (masks[v] & rem,),
                -1 if near & bit else near | closed[v],
            ):
                return True
            banned |= bit
        return False

    try:
        if bound:
            search(0, 0, 0, (), 0)
    finally:
        del search  # search refers to itself through its closure cell: break that cycle


def enumerate_minimal_ve_dominating_sets(
    g: Graph, size_bound: int | None = None, guard: int = FULL_MODE_GUARD
) -> list[int]:
    """All inclusion-minimal ve-dominating sets as vertex masks.

    Full mode (no size bound) returns every minimal set; size-bounded mode
    returns exactly the minimal sets of cardinality <= size_bound.  Output is
    ordered by (size, lexicographic member order) and contains each set once.
    """
    minimal: list[int] = []

    def collect(base: int, extra: int, _: int) -> None:
        minimal.extend([base | 1 << v for v in bit_list(extra)] or [base])

    _search(g, size_bound, guard, collect)
    # stable sorts: by size, and within one size the set with the lowest differing vertex first
    minimal.sort(key=lambda s: bin(s)[:1:-1], reverse=True)
    minimal.sort(key=int.bit_count)
    return minimal


def is_well_ve_dominated(g: Graph, guard: int = FULL_MODE_GUARD) -> bool:
    """True when all minimal ve-dominating sets of g have the same size.

    The search stops at the second distinct size, so a graph that is not
    well-ve-dominated is usually decided after a few minimal sets.  Guarded
    like oracle_report in full mode.
    """
    sizes: set[int] = set()

    def second_size(base: int, extra: int, _: int) -> bool:
        sizes.add((base | extra & -extra).bit_count())
        return len(sizes) > 1

    _search(g, None, guard, second_size)
    return len(sizes) == 1


@dataclass(frozen=True)
class DominationReport:
    """Everything the exact oracle knows about one graph."""

    gamma_ve: int
    big_gamma_ve: int
    minimal_size_multiset: dict[int, int]
    witness_min: int
    witness_max: int
    i_ve: int | None
    beta_ve: int | None
    is_well_ve_dominated: bool
    is_well_ve_covered: bool | None
    enumeration_mode: str

    def to_json_dict(self) -> dict:
        return {
            "gamma_ve": self.gamma_ve,
            "big_gamma_ve": self.big_gamma_ve,
            "sizes": {str(k): v for k, v in sorted(self.minimal_size_multiset.items())},
            "witness_min": bit_list(self.witness_min),
            "witness_max": bit_list(self.witness_max),
            "i_ve": self.i_ve,
            "beta_ve": self.beta_ve,
            "wvd": self.is_well_ve_dominated,
            "wvc": self.is_well_ve_covered,
            "mode": self.enumeration_mode,
        }


def oracle_report(
    g: Graph, size_bound: int | None = None, guard: int = FULL_MODE_GUARD
) -> DominationReport:
    """Full enumeration report; gamma_ve = big_gamma_ve = 0 on edgeless graphs.

    With a size bound the report describes only the minimal sets of size
    <= size_bound (the verdict fields are then bound-relative), and i_ve,
    beta_ve and is_well_ve_covered are None when none of them is
    independent.

    The report is tallied during the search: the count of each size, the
    sizes of the independent sets, and per size the lexicographically first
    set, which is the witness the sorted enumeration would list first.
    """
    counts: dict[int, int] = {}
    first: dict[int, int] = {}
    ind_sizes: set[int] = set()

    def tally(base: int, extra: int, free: int) -> None:
        s = base | extra & -extra  # the batch's lexicographically first set
        k = s.bit_count()
        counts[k] = counts.get(k, 0) + (extra.bit_count() or 1)
        # of two sets of one size, s comes first exactly when it holds the
        # lowest vertex in which they differ
        if k not in first or s & (d := first[k] ^ s) & -d:
            first[k] = s
        if free:
            ind_sizes.add(k)

    _search(g, size_bound, guard, tally)
    if not counts:
        raise ValueError(f"no minimal ve-dominating set of size <= {size_bound}")
    gamma, big_gamma = min(counts), max(counts)
    # every maximal independent set ve-dominates, so full mode always finds
    # an independent minimal set; only a size bound can leave none
    i_ve = min(ind_sizes, default=None)
    beta_ve = max(ind_sizes, default=None)
    mode = "full" if size_bound is None else f"size-bounded({size_bound})"
    return DominationReport(
        gamma_ve=gamma,
        big_gamma_ve=big_gamma,
        minimal_size_multiset=dict(sorted(counts.items())),
        witness_min=first[gamma],
        witness_max=first[big_gamma],
        i_ve=i_ve,
        beta_ve=beta_ve,
        is_well_ve_dominated=gamma == big_gamma,
        is_well_ve_covered=i_ve == beta_ve if ind_sizes else None,
        enumeration_mode=mode,
    )
