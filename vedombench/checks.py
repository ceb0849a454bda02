"""Independent output checks for the vedom benchmark.

Each checker recomputes what it needs from the input with the benchmark's
own code (no vedom import) and raises CheckFailed on the first
disagreement.  Nothing here is a recorded copy of an earlier output: the
expected values come from definitions (ve-domination, open-neighborhood
reduction, forbidden paths), from how the generator built the input, from
truth tables, or from published counts.
"""

from __future__ import annotations

import itertools
from math import ceil

# free trees on 1..18 vertices, OEIS A000055
A000055 = (
    1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741,
    19320, 48629, 123867,
)
BRUTE_FORCE_MAX = 16


class CheckFailed(AssertionError):
    """An output disagreed with the benchmark's own computation."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def adjacency(n: int, edges) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def dominated_masks(n: int, edges) -> list[int]:
    """Per vertex v, the mask of edge indices with an endpoint in N[v]."""
    closed = [1 << v for v in range(n)]
    for u, v in edges:
        closed[u] |= 1 << v
        closed[v] |= 1 << u
    masks = [0] * n
    for index, (a, b) in enumerate(edges):
        ends = (1 << a) | (1 << b)
        for v in range(n):
            if closed[v] & ends:
                masks[v] |= 1 << index
    return masks


def is_minimal_dominating(n: int, edges, members) -> bool:
    """Dominates every edge, and dropping any one member leaves an edge
    undominated (the definition, via single-vertex removal)."""
    masks = dominated_masks(n, edges)
    full = (1 << len(edges)) - 1
    members = sorted(set(members))

    def covered(vertices) -> int:
        out = 0
        for v in vertices:
            out |= masks[v]
        return out

    if covered(members) != full:
        return False
    return all(covered(members[:i] + members[i + 1:]) != full for i in range(len(members)))


def brute_force_minimal_sets(n: int, edges) -> list[int]:
    """Every minimal ve-dominating set, by a sweep over all 2^n subsets."""
    expect(n <= BRUTE_FORCE_MAX, f"brute force is capped at {BRUTE_FORCE_MAX} vertices")
    masks = dominated_masks(n, edges)
    full = (1 << len(edges)) - 1
    covered = [0] * (1 << n)
    for s in range(1, 1 << n):
        low = s & -s
        covered[s] = covered[s ^ low] | masks[low.bit_length() - 1]
    out = []
    for s in range(1 << n):
        if covered[s] != full:
            continue
        rest, minimal = s, True
        while rest:
            low = rest & -rest
            rest ^= low
            if covered[s ^ low] == full:
                minimal = False
                break
        if minimal:
            out.append(s)
    return out


def is_independent(adj: list[set[int]], members) -> bool:
    chosen = set(members)
    return all(not (adj[v] & chosen) for v in chosen)


def reduce_open_neighborhoods(n: int, edges) -> tuple[list[int], int, list[tuple[int, int]]]:
    """Keep the smallest vertex of each open-neighborhood class.

    Returns (to_reduced, reduced order, reduced edges); surviving vertices
    keep their relative order.
    """
    adj = adjacency(n, edges)
    first: dict[frozenset, int] = {}
    rep = [first.setdefault(frozenset(adj[v]), v) for v in range(n)]
    kept = [v for v in range(n) if rep[v] == v]
    index = {v: i for i, v in enumerate(kept)}
    reduced_edges = sorted(
        (min(index[u], index[v]), max(index[u], index[v]))
        for u, v in edges
        if u in index and v in index
    )
    return [index[rep[v]] for v in range(n)], len(kept), reduced_edges


def _check_reduction(output: dict, n: int, edges) -> tuple[int, list[set[int]]]:
    to_reduced, order, reduced_edges = reduce_open_neighborhoods(n, edges)
    expect(output["to_reduced"] == to_reduced, "to_reduced differs from the open-neighborhood reduction")
    expect(output["reduced_order"] == order, f"reduced order {output['reduced_order']} != {order}")
    return order, adjacency(order, reduced_edges)


def check_accept(output: dict, item) -> None:
    """recognize --json on a generated well-ve-dominated tree."""
    expect(output["verdict"] == "yes" and output["case"] == "T2", f"not accepted: {output.get('refutation')}")
    order, adj = _check_reduction(output, item.n, item.edges)
    to_reduced = output["to_reduced"]

    units = output["units"]
    expect(3 * len(units) == order, "units do not cover the reduced tree in thirds")
    flat = [v for unit in units for v in unit]
    expect(sorted(flat) == list(range(order)), "units do not partition the reduced vertices")
    for leaf, support, w in units:
        expect(adj[leaf] == {support}, f"unit ({leaf}, {support}, {w}): leaf is not pendant on its support")
        expect(adj[support] == {leaf, w}, f"unit ({leaf}, {support}, {w}): support is not degree 2 between leaf and backbone")
    labels = output["labels"]
    for leaf, support, w in units:
        expect((labels[str(leaf)], labels[str(support)], labels[str(w)]) == ("L", "S", "W"), "labels disagree with units")

    backbone = sorted(to_reduced[w] for w in item.facts["backbone"])
    expect(sorted(u[2] for u in units) == backbone, "backbone differs from the generated one")
    expected_edges = sorted(
        (min(to_reduced[u], to_reduced[v]), max(to_reduced[u], to_reduced[v]))
        for u, v in item.facts["backbone_edges"]
    )
    expect(sorted(map(tuple, output["backbone_edges"])) == expected_edges, "backbone edges differ from the generated ones")

    certificate = output["certificate"]
    expect(len(set(certificate)) == len(certificate), "certificate repeats a vertex")
    expect(all(0 <= v < order for v in certificate), "certificate vertex out of range")
    leaf_support = {v for unit in units for v in unit[:2]}
    expect(set(certificate) <= leaf_support, "certificate leaves L and S")
    expect(is_independent(adj, certificate), "certificate is not independent")
    member = [False] * order
    for v in certificate:
        member[v] = True
    for a in range(order):
        for b in adj[a]:
            if a < b:
                count = sum(member[x] for x in adj[a] | adj[b] | {a, b})
                expect(count == 1, f"edge ({a}, {b}) is ve-dominated {count} times")


PATTERN_LENGTH = {"i": 4, "ii": 5, "iii": 7}


def check_reject(output: dict, item) -> None:
    """recognize --json on a generated tree that is not well-ve-dominated."""
    expect(output["verdict"] == "no" and output["case"] == "rejected", "tree was accepted")
    order, adj = _check_reduction(output, item.n, item.edges)
    reason = output["refutation"]["reason"]
    witness = output["refutation"]["witness"]
    deg = [len(a) for a in adj]
    if reason.startswith("forbidden-path("):
        pattern = reason[len("forbidden-path("):-1]
        expect(pattern in PATTERN_LENGTH and len(witness) == PATTERN_LENGTH[pattern], f"bad witness length for {reason}")
        expect(len(set(witness)) == len(witness), "witness path repeats a vertex")
        expect(all(witness[i + 1] in adj[witness[i]] for i in range(len(witness) - 1)), "witness is not a path")
        expect(deg[witness[0]] == deg[witness[-1]] == 1 and deg[witness[1]] == 2, f"{reason} degree pattern broken")
        if pattern == "iii":
            expect(deg[witness[3]] == deg[witness[5]] == 2, "pattern iii degree pattern broken")
        if "planted" in item.facts:
            expect(pattern == "i", "planted pattern i exists but a later pattern was reported")
        return
    expect("planted" not in item.facts, f"planted pattern i missed, got {reason}")
    leaves = {v for v in range(order) if deg[v] == 1}
    supports = {next(iter(adj[v])) for v in leaves}
    if reason == "order-not-3n":
        expect(witness == [order] and order > 2 and (order < 6 or order % 3), "order-not-3n does not hold")
        return
    expect(order >= 6 and order % 3 == 0, f"structural reason {reason} on order {order}")
    if reason == "bad-leaf":
        leaf, support = witness
        expect(leaf in leaves and adj[leaf] == {support} and deg[support] != 2, "bad-leaf does not hold")
    elif reason == "bad-support-degree":
        leaf, support, w = witness
        expect(leaf in leaves and adj[support] == {leaf, w}, "bad-support-degree: not a unit body")
        expect(w in leaves or w in supports, "bad-support-degree: backbone end is fine")
    elif reason == "w-multiplicity":
        w, *found = witness
        expect(w not in leaves and w not in supports, "w-multiplicity: not a backbone vertex")
        expect(sorted(found) == sorted(adj[w] & supports) and len(found) != 1, "w-multiplicity does not hold")
    elif reason == "backbone-disconnected":
        backbone = set(range(order)) - leaves - supports
        expect(sorted(backbone) == witness, "backbone-disconnected: wrong backbone")
        start = min(backbone)
        seen, stack = {start}, [start]
        while stack:
            for u in adj[stack.pop()] & backbone:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        expect(seen != backbone, "backbone is connected")
    else:
        raise CheckFailed(f"unknown refutation {reason!r}")


def _check_witness(n: int, edges, members, size: int, what: str) -> None:
    expect(len(members) == size, f"{what} has size {len(members)}, expected {size}")
    expect(is_minimal_dominating(n, edges, members), f"{what} {members} is not a minimal ve-dominating set")


def check_report(report: dict, item, brute: list[int] | None) -> None:
    """analyze --json report; ``brute`` holds every minimal set when the
    graph is small enough to sweep all subsets."""
    n, edges = item.n, item.edges
    gamma, big_gamma = report["gamma_ve"], report["big_gamma_ve"]
    i_ve, beta_ve = report["i_ve"], report["beta_ve"]
    expect(gamma <= i_ve <= beta_ve <= big_gamma, "gamma <= i <= beta <= Gamma fails")
    _check_witness(n, edges, report["witness_min"], gamma, "witness_min")
    _check_witness(n, edges, report["witness_max"], big_gamma, "witness_max")
    sizes = {int(k): v for k, v in report["sizes"].items()}
    expect(min(sizes) == gamma and max(sizes) == big_gamma, "size multiset does not span gamma..Gamma")
    expect(report["wvd"] == (gamma == big_gamma) and report["wvc"] == (i_ve == beta_ve), "verdicts disagree with the parameters")
    if item.kind == "path":
        expect(gamma == ceil((n - 1) / 4), f"gamma_ve(P_{n}) = {gamma}, expected {ceil((n - 1) / 4)}")
        expect(report["wvd"] == (n in (1, 2, 3, 6)), f"P_{n} well-ve-dominated verdict is wrong")
    if brute is not None:
        counts: dict[int, int] = {}
        for s in brute:
            counts[s.bit_count()] = counts.get(s.bit_count(), 0) + 1
        expect(sizes == counts, f"size multiset {sizes} != brute force {counts}")
        adj = adjacency(n, edges)
        independent = [s.bit_count() for s in brute if is_independent(adj, _bits(s))]
        expect((i_ve, beta_ve) == (min(independent), max(independent)), "i_ve / beta_ve differ from brute force")


def _bits(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if (mask >> v) & 1]


def truth_table_sat(variables: int, clauses) -> bool:
    for values in itertools.product((False, True), repeat=variables):
        if all(any(values[abs(lit) - 1] == (lit > 0) for lit in c) for c in clauses):
            return True
    return False


def gadget(variables: int, clauses) -> tuple[int, list[tuple[int, int]]]:
    """The 3-SAT gadget as the paper describes it: per variable the path
    x-y-u-u'-w-z on ids 6i..6i+5, clause j on 6n+j wired to u (positive
    literal) or u' (negated), the clause vertices a clique, and an apex on
    6n+m next to every clause vertex."""
    n, m = variables, len(clauses)
    edges = []
    for i in range(n):
        edges += [(6 * i + k, 6 * i + k + 1) for k in range(5)]
    for j, clause in enumerate(clauses):
        for lit in clause:
            edges.append((6 * (abs(lit) - 1) + (2 if lit > 0 else 3), 6 * n + j))
    edges += [(6 * n + a, 6 * n + b) for a, b in itertools.combinations(range(m), 2)]
    edges += [(6 * n + j, 6 * n + m) for j in range(m)]
    return 6 * n + m + 1, sorted(edges)


def parse_edge_list(text: str) -> tuple[int, list[tuple[int, int]]]:
    lines = text.split("\n")
    expect(lines[0].startswith("n "), "edge list lacks its header")
    edges = [tuple(map(int, line.split())) for line in lines[1:] if line]
    return int(lines[0][2:]), edges


def check_from_cnf(output: dict, item) -> None:
    """from-cnf --decide --json: gadget shape and the satisfiability verdict."""
    variables, clauses = item.facts["variables"], item.facts["clauses"]
    n, edges = gadget(variables, clauses)
    m = len(clauses)
    expect(output["vertices"] == n and output["edges"] == 5 * variables + 3 * m + m * (m - 1) // 2 + m, "gadget counts are wrong")
    expect(parse_edge_list(output["edge_list"]) == (n, edges), "gadget edges differ from the construction")
    expect(output["clause_vertices"] == list(range(6 * variables, 6 * variables + m)) and output["apex"] == n - 1, "gadget part ids are wrong")
    expect(output["satisfiable"] == truth_table_sat(variables, clauses), "--decide disagrees with the truth table")


def check_bounded(report: dict, item, bound: int, gadget_edges) -> None:
    """oracle_report(gadget, size_bound=2n or 2n+1) from the library."""
    variables, clauses = item.facts["variables"], item.facts["clauses"]
    n, edges = gadget(variables, clauses)
    expect(sorted(map(tuple, gadget_edges)) == edges, "library gadget differs from the construction")
    low = 2 * variables
    sizes = {int(k) for k in report["sizes"]}
    expect(sizes <= {low, low + 1} and max(sizes) <= bound, f"bounded sizes {sorted(sizes)} outside {{2n, 2n+1}}")
    expect(report["gamma_ve"] == low, "bounded gamma_ve is not 2n")
    expect(report["mode"] == f"size-bounded({bound})", "wrong enumeration mode")
    sat = truth_table_sat(variables, clauses)
    expect((report["i_ve"] == low) == sat, "independent 2n-set exists iff the formula is satisfiable: fails")
    _check_witness(n, edges, report["witness_min"], report["gamma_ve"], "witness_min")
    _check_witness(n, edges, report["witness_max"], report["big_gamma_ve"], "witness_max")


def check_sweep(output: dict, exit_code: int, max_order: int) -> None:
    """enumerate --max-n N --lemmas --json."""
    expect(exit_code == 0, f"enumerate exited {exit_code}")
    expected = {str(k): A000055[k - 1] for k in range(1, max_order + 1)}
    expect(output["trees_checked"] == expected, "trees per order differ from OEIS A000055")
    expect(output["mismatches"] == [] and output["lemma_failures"] == [], "mismatches or lemma failures")
    expect(output["ok"] is True, "sweep not ok")
    expect(all(0 <= output["wvd_census"][k] <= v for k, v in expected.items()), "census exceeds tree count")
