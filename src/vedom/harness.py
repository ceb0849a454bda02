"""Exhaustive validation harness.

Cross-validates the structural recognizer against the exact oracle over all
non-isomorphic trees up to a given order, and re-checks the structural facts
the toolkit relies on (reduction transport, cut decompositions, forbidden
configurations, the covered/dominated implication, unit-cut additivity) with
the oracle as ground truth.  Reports collect mismatches and failures, which
are expected to be empty on a correct build.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator

from .constructions import unit_cut_decompose
from .domination import is_well_ve_dominated, oracle_report
from .freetrees import MAX_ENUMERATION_ORDER, enumerate_free_trees
from .graph import Graph, _induced, _reach, serialize_edge_list
from .recognizer import find_forbidden_configuration, recognize


@dataclass
class ValidationReport:
    max_order: int
    trees_checked: dict[int, int] = field(default_factory=dict)
    recognizer_oracle_mismatches: list[str] = field(default_factory=list)
    wvd_tree_census: dict[int, int] = field(default_factory=dict)
    lemma_failures: list[tuple[str, str]] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.recognizer_oracle_mismatches and not self.lemma_failures

    def to_json_dict(self) -> dict:
        return {
            "max_order": self.max_order,
            "trees_checked": {str(k): v for k, v in sorted(self.trees_checked.items())},
            "mismatches": list(self.recognizer_oracle_mismatches),
            "wvd_census": {str(k): v for k, v in sorted(self.wvd_tree_census.items())},
            "lemma_failures": [list(f) for f in self.lemma_failures],
            "elapsed_seconds": round(self.elapsed, 3),
            "ok": self.ok,
        }


def _check_tree(t: Graph, lemmas: bool) -> tuple[bool, bool, list[tuple[str, str]]]:
    """Recognizer verdict, oracle verdict and, when lemmas is set, the lemma
    failures of one tree.  The oracle gives only its verdict; a full report
    is computed only for the lemmas that read i_ve, beta_ve or gamma_ve."""
    result = recognize(t)
    is_wvd = is_well_ve_dominated(t)
    failures: list[tuple[str, str]] = []
    if not lemmas:
        return result.verdict, is_wvd, failures
    fail = failures.append
    t2 = result.reduced_tree  # t itself when t has no twins
    if t2 is not t and is_well_ve_dominated(t2) != is_wvd:
        fail(("reduction-transport", _graph_tag(t)))
    if is_wvd:
        if find_forbidden_configuration(t) is not None:
            fail(("forbidden-config-soundness", _graph_tag(t)))
        if not oracle_report(t).is_well_ve_covered:
            fail(("wvd-implies-wvc", _graph_tag(t)))
        for u, v in _qualifying_cut_edges(t):
            if not all(map(is_well_ve_dominated, _components_without(t, (u, v)))):
                fail(("cut-edge-components", f"{_graph_tag(t)} edge ({u},{v})"))
        for c in _qualifying_cut_vertices(t):
            if not all(map(is_well_ve_dominated, _components_without(t, (c,)))):
                fail(("cut-vertex-components", f"{_graph_tag(t)} vertex {c}"))
    if result.case == "T2":
        _check_unit_cut_additivity(result, fail)
    return result.verdict, is_wvd, failures


def _check_args(max_n: int) -> None:
    if not 1 <= max_n <= MAX_ENUMERATION_ORDER:
        raise ValueError(f"max_n must be in 1..{MAX_ENUMERATION_ORDER}")


def _sweep(report: ValidationReport, lemmas: bool) -> ValidationReport:
    """Check every free tree up to report.max_order once, and tally
    verdicts, mismatches and lemma failures."""
    started = time.perf_counter()
    for n in range(1, report.max_order + 1):
        report.trees_checked[n] = report.wvd_tree_census[n] = 0
        for index, t in enumerate(enumerate_free_trees(n)):
            recognized, oracle_says, failures = _check_tree(t, lemmas)
            report.trees_checked[n] += 1
            report.wvd_tree_census[n] += oracle_says
            if recognized != oracle_says:
                report.recognizer_oracle_mismatches.append(
                    f"order {n} tree #{index}: recognizer={recognized} oracle={oracle_says}"
                )
            report.lemma_failures.extend(failures)
    report.elapsed = time.perf_counter() - started
    return report


def cross_validate(max_n: int) -> ValidationReport:
    """Recognizer verdict vs oracle verdict on every tree up to max_n."""
    _check_args(max_n)
    return _sweep(ValidationReport(max_order=max_n), lemmas=False)


def _graph_tag(g: Graph) -> str:
    return serialize_edge_list(g).replace("\n", ";")


def _starts_path_avoiding(t: Graph, v: int, x: int) -> bool:
    """Whether v starts a length-2 path avoiding x: v has a non-leaf
    neighbor other than x."""
    return any(w != x and t.degree(w) >= 2 for w in t.adj[v])


def _qualifying_cut_edges(t: Graph) -> list[tuple[int, int]]:
    """Tree edges whose endpoints both start a length-2 path avoiding the
    edge."""
    return [
        (u, v) for u, v in t.edges if _starts_path_avoiding(t, u, v) and _starts_path_avoiding(t, v, u)
    ]


def _qualifying_cut_vertices(t: Graph) -> list[int]:
    """Cut vertices c with two neighbors that each start a length-2 path
    avoiding c (in a tree every edge is a cut edge already)."""
    return [c for c in range(t.n) if sum(_starts_path_avoiding(t, v, c) for v in t.adj[c]) >= 2]


def lemma_suite(max_n: int) -> ValidationReport:
    """Oracle-backed re-checks of the structural facts.

    (a) reduction transport: a tree with twins gets the verdict of its
        reduced tree, the recognizer's own;
    (b) components of t minus both endpoints of a qualifying cut edge of a
        well-ve-dominated tree stay well-ve-dominated;
    (c) the cut-vertex analogue;
    (d) forbidden-configuration witnesses only fire on non-WVD trees;
    (e) well-ve-dominated implies i_ve = beta_ve;
    (f) gamma_ve is additive across every unit-cut edge of recognized trees.

    All run on the cross_validate sweep, whose counts, census and mismatches
    the report carries too.
    """
    _check_args(max_n)
    return _sweep(ValidationReport(max_order=max_n), lemmas=True)


def _components_without(t: Graph, cut: tuple[int, ...]) -> Iterator[Graph]:
    """The components of t - cut, by smallest member, each renamed in
    order: one walk each over a seen list on which cut is marked first."""
    seen = [False] * t.n
    for c in cut:
        seen[c] = True
    for start in range(t.n):
        if not seen[start]:
            yield _induced(t, sorted(_reach(t, start, seen)))[0]


def _check_unit_cut_additivity(result, fail) -> None:
    t2, partition = result.reduced_tree, result.partition
    total = oracle_report(t2).gamma_ve
    for edge in partition.backbone_edges:
        left, right = unit_cut_decompose(t2, partition, edge=edge)
        parts = oracle_report(left).gamma_ve + oracle_report(right).gamma_ve
        if parts != total:
            fail(("unit-cut-additivity", f"{_graph_tag(t2)} edge {edge}: {parts} != {total}"))
