"""Seeded input generators for the vedom benchmark.

Everything here is the benchmark's own code (stdlib only, no vedom import):
the same (workload, seed) pair always gives byte-identical input files.
Graphs are plain ``(n, edges)`` pairs; each generated item also carries the
facts the generator built into it (backbone, planted pattern, formula), so
the checkers can compare the program's answers against construction rather
than against an earlier run.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass, field
from pathlib import Path

Edge = tuple[int, int]

# recognize-accept: backbone orders; a tree has 3k vertices plus k // 6 twins,
# so the ladder spans 316 to 10,133 vertices
ACCEPT_BACKBONE_ORDERS = (100, 140, 200, 280, 400, 560, 800, 1120, 1600, 2240, 3200)
# recognize-reject: planted expansions (3k + 1 + k // 6 vertices, 89 to 710)
# and random Pruefer trees (90 to 500 vertices); the refutation search is
# cubic, so 1.5k-vertex trees would take seconds each
REJECT_PLANTED_ORDERS = (28, 40, 56, 80, 112, 160, 224)
REJECT_PRUEFER_ORDERS = (90, 130, 180, 250, 350, 500)
# Independent draws per size on the recognize workloads.  Sizes of each
# workload are an odd number of classes whose costs do not overlap, so the
# median call is the middle draw of the middle class rather than the gap
# between two classes, and does not hang on one random tree's shape.
DRAWS = 3
# oracle-exact: paths keep their natural labels (vertex i next to i + 1)
ORACLE_PATH_ORDERS = (2, 3, 6, 7, 16, 17, 18, 19, 20)
SWEEP_MAX_ORDER = 12


@dataclass
class Item:
    """One input of a workload: what to run it through and what was built."""

    kind: str
    n: int = 0
    edges: list[Edge] = field(default_factory=list)
    facts: dict = field(default_factory=dict)
    path: str = ""


def pruefer_tree(rng: random.Random, n: int) -> list[Edge]:
    """Uniform random labelled tree on n >= 2 vertices (Pruefer decoding)."""
    if n == 2:
        return [(0, 1)]
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def relabel(rng: random.Random, n: int, edges: list[Edge]) -> tuple[list[int], list[Edge]]:
    """Random vertex permutation; returns (perm, relabelled edges)."""
    perm = list(range(n))
    rng.shuffle(perm)
    return perm, [(perm[u], perm[v]) for u, v in edges]


def expansion(rng: random.Random, k: int, twins: int, planted: bool = False) -> Item:
    """Backbone expansion of a random tree on k vertices, shuffled labels.

    Backbone vertex w gets a support k + w and a leaf 2k + w before
    relabelling; ``twins`` extra leaves go to random supports (reduction
    collapses them again).  With ``planted`` one more pendant leaf hangs off
    a random backbone vertex, which creates forbidden pattern i.
    """
    edges = pruefer_tree(rng, k)
    backbone_edges = list(edges)
    for w in range(k):
        edges.append((w, k + w))
        edges.append((k + w, 2 * k + w))
    n = 3 * k
    for _ in range(twins):
        edges.append((k + rng.randrange(k), n))
        n += 1
    facts: dict = {}
    if planted:
        anchor = rng.randrange(k)
        edges.append((anchor, n))
        facts["planted"] = (n, anchor)
        n += 1
    perm, edges = relabel(rng, n, edges)
    facts["backbone"] = sorted(perm[w] for w in range(k))
    facts["backbone_edges"] = sorted(
        (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in backbone_edges
    )
    if planted:
        leaf, anchor = facts["planted"]
        facts["planted"] = (perm[leaf], perm[anchor])
    return Item("expansion-planted" if planted else "expansion", n, edges, facts)


def path_edges(n: int) -> list[Edge]:
    return [(i, i + 1) for i in range(n - 1)]


def spider(rng: random.Random, legs: int, total: int) -> tuple[int, list[Edge]]:
    """Centre 0 with ``legs`` paths whose lengths (>= 3) add up to total - 1."""
    lengths = [3] * legs
    for _ in range(total - 1 - 3 * legs):
        lengths[rng.randrange(legs)] += 1
    edges = []
    v = 1
    for length in lengths:
        prev = 0
        for _ in range(length):
            edges.append((prev, v))
            prev, v = v, v + 1
    return v, edges


def caterpillar(rng: random.Random, n: int) -> list[Edge]:
    """Spine 0..n//2-1; the other vertices hang off random spine vertices."""
    spine = n // 2
    return path_edges(spine) + [(rng.randrange(spine), v) for v in range(spine, n)]


def sparse_graph(rng: random.Random, n: int, extra: int) -> list[Edge]:
    """Connected graph: a random tree plus ``extra`` random chords."""
    edges = pruefer_tree(rng, n)
    present = {(min(u, v), max(u, v)) for u, v in edges}
    while len(present) < n - 1 + extra:
        u, v = rng.sample(range(n), 2)
        present.add((min(u, v), max(u, v)))
    return sorted(present)


def random_cnf(rng: random.Random, variables: int, clauses: int) -> list[tuple[int, int, int]]:
    """Uniform random 3-CNF: three distinct variables per clause, random signs."""
    out = []
    for _ in range(clauses):
        chosen = rng.sample(range(1, variables + 1), 3)
        out.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))
    return out


def planted_cnf(rng: random.Random, variables: int, clauses: int) -> list[tuple[int, int, int]]:
    """Random 3-CNF satisfied by a hidden random assignment (planted 3-SAT)."""
    hidden = {v: rng.random() < 0.5 for v in range(1, variables + 1)}
    out: list[tuple[int, int, int]] = []
    while len(out) < clauses:
        clause = random_cnf(rng, variables, 1)[0]
        if any(hidden[abs(lit)] == (lit > 0) for lit in clause):
            out.append(clause)
    return out


def unsat_cnf(rng: random.Random, variables: int) -> list[tuple[int, int, int]]:
    """All eight sign patterns over three random variables: unsatisfiable."""
    chosen = rng.sample(range(1, variables + 1), 3)
    out = [
        tuple(s * v for s, v in zip(signs, chosen))
        for signs in itertools.product((1, -1), repeat=3)
    ]
    rng.shuffle(out)
    return out


def edge_list_text(rng: random.Random, n: int, edges: list[Edge]) -> str:
    """Edge-list document with the header, edges in random order and
    orientation (the program canonicalizes both)."""
    lines = [f"{u} {v}" if rng.random() < 0.5 else f"{v} {u}" for u, v in edges]
    rng.shuffle(lines)
    return "\n".join([f"n {n}", *lines]) + "\n"


def dimacs_text(variables: int, clauses: list[tuple[int, int, int]]) -> str:
    body = [" ".join(map(str, c)) + " 0" for c in clauses]
    return "\n".join([f"p cnf {variables} {len(clauses)}", *body]) + "\n"


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"vedombench:{workload}:{seed}")


def recognize_accept(seed: int) -> list[Item]:
    rng = _rng("recognize-accept", seed)
    return [expansion(rng, k, k // 6) for k in ACCEPT_BACKBONE_ORDERS for _ in range(DRAWS)]


def recognize_reject(seed: int) -> list[Item]:
    rng = _rng("recognize-reject", seed)
    items = []
    for k in REJECT_PLANTED_ORDERS:
        items += [expansion(rng, k, k // 6, planted=True) for _ in range(DRAWS)]
    for n in REJECT_PRUEFER_ORDERS:
        items += [Item("pruefer", n, pruefer_tree(rng, n)) for _ in range(DRAWS)]
    return items


def oracle_exact(seed: int) -> list[Item]:
    """Paths, spiders and caterpillars (many minimal sets), random trees and
    sparse graphs (few), and 3-SAT gadgets for --decide and bounded reports."""
    rng = _rng("oracle-exact", seed)
    items = [Item("path", n, path_edges(n)) for n in ORACLE_PATH_ORDERS]
    for legs, total in ((3, 19), (4, 19), (4, 20)):
        n, edges = spider(rng, legs, total)
        items.append(Item("spider", n, edges))
    for n in (18, 20, 22):
        items.append(Item("caterpillar", n, caterpillar(rng, n)))
    for n in (14, 16, 20, 22):
        items.append(Item("random-tree", n, pruefer_tree(rng, n)))
    for n, extra in ((12, 3), (14, 2), (16, 2), (18, 3)):
        items.append(Item("sparse-graph", n, sparse_graph(rng, n, extra)))
    formulas = [
        ("decide", 3, random_cnf(rng, 3, 6)),
        ("decide", 3, unsat_cnf(rng, 3)),
        ("decide", 4, random_cnf(rng, 4, 12)),
        ("decide", 4, unsat_cnf(rng, 4) + random_cnf(rng, 4, 4)),
        ("decide", 5, random_cnf(rng, 5, 9)),
        ("bounded-2n", 3, planted_cnf(rng, 3, 6)),
        ("bounded-2n", 4, planted_cnf(rng, 4, 8)),
        ("bounded-2n+1", 3, random_cnf(rng, 3, 5)),
        ("bounded-2n+1", 3, unsat_cnf(rng, 3)),
        ("bounded-2n+1", 4, planted_cnf(rng, 4, 8)),
    ]
    for kind, variables, clauses in formulas:
        items.append(Item(kind, facts={"variables": variables, "clauses": clauses}))
    return items


def tree_sweep(seed: int) -> list[Item]:
    """The sweep input is an order, not a graph, so the seed does not matter."""
    return [Item("sweep", SWEEP_MAX_ORDER)]


GENERATORS = {
    "recognize-accept": recognize_accept,
    "recognize-reject": recognize_reject,
    "oracle-exact": oracle_exact,
    "tree-sweep": tree_sweep,
}


def write_inputs(workload: str, seed: int, items: list[Item], directory: Path) -> None:
    """Write each graph as an edge-list file and each formula as DIMACS,
    recording the file name on the item."""
    rng = _rng(workload + ":files", seed)
    directory.mkdir(parents=True, exist_ok=True)
    for index, item in enumerate(items):
        if "clauses" in item.facts:
            text = dimacs_text(item.facts["variables"], item.facts["clauses"])
            name = f"{index:02d}-{item.kind}.cnf"
        elif item.kind == "sweep":
            continue
        else:
            text = edge_list_text(rng, item.n, item.edges)
            name = f"{index:02d}-{item.kind}-{item.n}.el"
        target = directory / name
        target.write_text(text, encoding="utf-8")
        item.path = str(target)
