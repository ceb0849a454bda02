"""Acceptance suite: one test per top-level requirement.

Each test prints a single "ACCEPTANCE <n> (<name>): PASS/FAIL" line (run
pytest with -s to see them live).  The shared sweep fixture takes the
harness's per-tree records, lemmas on, for every non-isomorphic tree up to
15 vertices, and adds each tree's exact oracle report; criterion 7 folds
those records as `lemma_suite` does, and the last tests reuse them to check
the oracle against published bounds and to compare the oracle's reports
and the recognizer's searches with the references in tests/reference.py.
"""

import itertools
import time

import pytest

from vedom import harness
from vedom.constructions import (
    CnfInstance,
    expand_backbone,
    path_graph,
    sat_decide_via_graph,
    sat_to_graph,
    unit_cut_extend,
)
from vedom.domination import (
    enumerate_minimal_ve_dominating_sets,
    is_minimal_ve_dominating,
    oracle_report,
)
from vedom.freetrees import FREE_TREE_COUNTS, enumerate_free_trees
from vedom.graph import bit_list, mask_from
from vedom.recognizer import find_forbidden_configuration, verify_certificate

from tests import reference
from tests.reference import sat_decide_by_truth_table

SWEEP_MAX = 15

FIG_INSTANCE = CnfInstance(4, ((1, 2, -3), (-1, 3, 4), (-2, -3, -4)))
UNSAT_ALL_PATTERNS = CnfInstance(
    3,
    tuple(
        tuple(s * v for s, v in zip(signs, (1, 2, 3)))
        for signs in itertools.product((1, -1), repeat=3)
    ),
)


def _finish(num: int, name: str, failures: list, detail: str = "") -> None:
    status = "PASS" if not failures else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num} ({name}): {status}{suffix}")
    assert not failures, f"criterion {num} violations: {failures[:5]}"


@pytest.fixture(scope="module")
def tree_sweep():
    """The harness's records (order, index, tree, recognition, oracle
    verdict, lemma failures), lemmas on, for every tree <= 15, each with
    the tree's full oracle report appended."""
    started = time.perf_counter()
    records = [(*r, oracle_report(r[2])) for r in harness._records(SWEEP_MAX, lemmas=True)]
    return records, time.perf_counter() - started


def test_criterion_1_path_classification():
    failures = []
    started = time.perf_counter()
    for n in range(1, 13):
        wvd = oracle_report(path_graph(n)).is_well_ve_dominated
        if wvd != (n in (1, 2, 3, 6)):
            failures.append(f"P_{n} verdict {wvd}")
    p6 = oracle_report(path_graph(6))
    if (p6.gamma_ve, p6.big_gamma_ve) != (2, 2):
        failures.append(f"P_6 gamma/Gamma {p6.gamma_ve}/{p6.big_gamma_ve}")
    p4_sets = enumerate_minimal_ve_dominating_sets(path_graph(4))
    if sorted({s.bit_count() for s in p4_sets}) != [1, 2]:
        failures.append("P_4 sizes")
    if mask_from([2]) not in p4_sets or mask_from([0, 3]) not in p4_sets:
        failures.append("P_4 witness sets")
    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s (limit 1s)")
    _finish(1, "path classification", failures, f"{elapsed:.2f}s")


def test_criterion_2_recognizer_equals_oracle(tree_sweep):
    records, elapsed = tree_sweep
    failures = [
        f"order {n}: recognizer={res.verdict} oracle={rep.is_well_ve_dominated}"
        for n, _, _, res, *_, rep in records
        if res.verdict != rep.is_well_ve_dominated
    ]
    if len(records) != sum(FREE_TREE_COUNTS[:SWEEP_MAX]):
        failures.append(f"swept {len(records)} trees, expected the full census")
    if elapsed >= 300.0:
        failures.append(f"sweep took {elapsed:.0f}s (target 300s)")
    _finish(
        2,
        "recognizer equals oracle",
        failures,
        f"{len(records)} trees, {elapsed:.1f}s",
    )


def test_criterion_3_certificate_validity(tree_sweep):
    records, _ = tree_sweep
    failures = []
    checked = 0
    for n, _, _, res, *_ in records:
        if res.case != "T2":
            continue
        checked += 1
        t2 = res.reduced_tree
        check = verify_certificate(t2, res.certificate)
        if not (check.independent and check.within_leaf_support):
            failures.append(f"order {n}: certificate set invalid")
        if any(c != 1 for c in check.counts):
            failures.append(f"order {n}: dominator counts {check.counts}")
        if t2.n != 3 * len(res.partition.units):
            failures.append(f"order {n}: reduced order {t2.n} != 3x units")
        if not is_minimal_ve_dominating(t2, mask_from(u[1] for u in res.partition.units)):
            failures.append(f"order {n}: supports not minimal")
    _finish(3, "certificate validity", failures, f"{checked} recognized trees")


def test_criterion_4_backbone_expansion():
    failures = []
    started = time.perf_counter()
    checked = 0
    for k in range(2, 7):
        for r in enumerate_free_trees(k):
            checked += 1
            t, _ = expand_backbone(r)
            rep = oracle_report(t)
            if not rep.is_well_ve_dominated:
                failures.append(f"expansion of order-{k} backbone not WVD")
            if rep.gamma_ve != k:
                failures.append(f"gamma {rep.gamma_ve} != {k}")
            if t.n != 3 * k:
                failures.append(f"order {t.n} != {3 * k}")
    elapsed = time.perf_counter() - started
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.1f}s (limit 30s)")
    _finish(4, "backbone expansion", failures, f"{checked} backbones, {elapsed:.1f}s")


def test_criterion_5_additivity():
    """Joins only: the lemma suite's check (f) splits every unit-cut edge of
    the sweep's T2 trees, and criterion 7 asserts it never failed."""
    failures = []
    expansions = [
        expand_backbone(r) for k in range(2, 5) for r in enumerate_free_trees(k)
    ]
    join_checks = 0
    for (t1, p1), (t2, p2) in itertools.combinations_with_replacement(expansions, 2):
        if t1.n + t2.n > 24:
            continue
        join_checks += 1
        joined = unit_cut_extend(t1, p1, 0, t2, p2, 0)
        rep = oracle_report(joined)
        expected = len(p1.units) + len(p2.units)
        if not rep.is_well_ve_dominated or rep.gamma_ve != expected:
            failures.append(
                f"join {t1.n}+{t2.n}: gamma {rep.gamma_ve}, wvd {rep.is_well_ve_dominated}"
            )
    _finish(5, "unit-cut additivity", failures, f"{join_checks} joins")


def test_criterion_6_sat_reduction():
    failures = []
    started = time.perf_counter()

    gadget = sat_to_graph(FIG_INSTANCE)
    if (gadget.graph.n, len(gadget.graph.edges)) != (28, 35):
        failures.append(f"figure gadget {gadget.graph.n}/{len(gadget.graph.edges)}")
    sizes = {
        s.bit_count()
        for s in enumerate_minimal_ve_dominating_sets(gadget.graph, size_bound=9)
    }
    if sizes != {8, 9}:
        failures.append(f"figure gadget bounded sizes {sorted(sizes)}")
    if sat_decide_via_graph(FIG_INSTANCE) is not True:
        failures.append("figure instance not decided satisfiable")
    if sat_decide_by_truth_table(FIG_INSTANCE) is not True:
        failures.append("figure instance truth table disagrees")

    unsat = sat_to_graph(UNSAT_ALL_PATTERNS)
    adj = reference.adjacency_masks(unsat.graph)
    small = enumerate_minimal_ve_dominating_sets(unsat.graph, size_bound=6)
    independent_small = [
        s for s in small if all(adj[v] & s == 0 for v in bit_list(s))
    ]
    if independent_small:
        failures.append("unsat gadget has a size-6 independent dominating set")
    if sat_decide_via_graph(UNSAT_ALL_PATTERNS) is not False:
        failures.append("unsat instance not decided unsatisfiable")
    if sat_decide_by_truth_table(UNSAT_ALL_PATTERNS) is not False:
        failures.append("unsat instance truth table disagrees")

    elapsed = time.perf_counter() - started
    if elapsed >= 60.0:
        failures.append(f"took {elapsed:.1f}s (limit 60s)")
    _finish(6, "sat reduction", failures, f"{elapsed:.1f}s")


def test_criterion_7_lemma_suite(tree_sweep):
    """The whole report, folded from the sweep's records as lemma_suite
    folds its own: no lemma failure, the recognizer equal to
    is_well_ve_dominated on every tree of the full census."""
    records, elapsed = tree_sweep
    report = harness._tally(SWEEP_MAX, (r[:-1] for r in records))
    failures = list(report.lemma_failures) + report.recognizer_oracle_mismatches
    if report.trees_checked != {n: FREE_TREE_COUNTS[n - 1] for n in range(1, SWEEP_MAX + 1)}:
        failures.append(f"trees checked {report.trees_checked}, expected the full census")
    if not report.ok:
        failures.append("report not ok")
    _finish(
        7,
        "lemma suite",
        failures,
        f"{sum(report.trees_checked.values())} trees, {elapsed:.1f}s sweep",
    )


def test_criterion_8_chain_sanity(tree_sweep):
    records, _ = tree_sweep
    failures = []
    checked = 0
    for n, *_, rep in records:
        checked += 1
        if not (rep.gamma_ve <= rep.i_ve <= rep.beta_ve <= rep.big_gamma_ve):
            failures.append(
                f"order {n}: {rep.gamma_ve},{rep.i_ve},{rep.beta_ve},{rep.big_gamma_ve}"
            )
    _finish(8, "domination chain", failures, f"{checked} trees")


def test_published_tree_bounds_on_sweep(tree_sweep):
    """Krishnakumari, Venkatakrishnan & Krzywkowski, C. R. Math. Acad. Sci.
    Paris 352 (2014): a tree of order n >= 3 with l leaves and s support
    vertices has (n - l - s + 3)/4 <= gamma_ve <= n/3.  The trees attaining
    n/3 are P_3 and the recognizer's T2 trees with no twins, the backbone
    expansions.  Neither the paper nor tests/reference.py supplies these
    facts, so they check the oracle against a third source."""
    records, _ = tree_sweep
    failures = []
    attained = 0
    for n, _, t, res, *_, rep in records:
        if n < 3:
            continue
        gamma = rep.gamma_ve
        leaves = [v for v in range(n) if t.degree(v) == 1]
        supports = {t.adj[v][0] for v in leaves}
        if not (n - len(leaves) - len(supports) + 3 <= 4 * gamma and 3 * gamma <= n):
            failures.append(f"order {n} {t.edges}: gamma_ve {gamma} out of bounds")
        at_bound = 3 * gamma == n
        attained += at_bound
        if at_bound != (n == 3 or (res.case == "T2" and res.reduced_tree is t)):
            failures.append(f"order {n} {t.edges}: gamma_ve {gamma}, case {res.case}")
    assert not failures, failures[:5]
    assert attained == 8  # P_3 and the expansions of the 7 backbones of order 2-5


def test_sweep_reports_match_reference(tree_sweep):
    """The sweep's full oracle reports, size multiset, extremes, independent
    sizes and witnesses included, equal the earlier report that sorted the
    minimal sets, on every tree up to order 11."""
    records, _ = tree_sweep
    failures = [
        f"order {n} {t.edges}"
        for n, _, t, *_, rep in records
        if n <= 11 and rep != reference.oracle_report(t)
    ]
    assert not failures, failures[:5]


def test_recognizer_searches_match_reference_on_sweep(tree_sweep):
    """Forbidden-path witnesses on every tree up to order 15 and on its
    reduced tree, and certificate checks on every T2 certificate, equal the
    earlier implementations."""
    records, _ = tree_sweep
    failures = []
    for n, _, t, res, *_ in records:
        for g in (t, res.reduced_tree):
            got = find_forbidden_configuration(g)
            if got != reference.find_forbidden_configuration(g):
                failures.append(f"order {n} {g.edges}: witness {got}")
        if res.case == "T2":
            t2, cert = res.reduced_tree, res.certificate
            if verify_certificate(t2, cert) != reference.verify_certificate(t2, cert):
                failures.append(f"order {n} {t2.edges}: certificate check")
    assert not failures, failures[:5]
