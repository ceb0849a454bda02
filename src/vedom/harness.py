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
from typing import Iterable, Iterator

from .constructions import unit_cut_decompose
from .domination import is_well_ve_dominated, oracle_report
from .freetrees import MAX_ENUMERATION_ORDER, enumerate_free_trees
from .graph import Graph, _induced, _reach, serialize_edge_list
from .recognizer import RecognitionResult, find_forbidden_configuration, recognize


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


def _check_tree(t: Graph, lemmas: bool) -> tuple[RecognitionResult, bool, list[tuple[str, str]]]:
    """Recognizer result, oracle verdict and, when lemmas is set, the lemma
    failures of one tree.  The oracle gives only its verdict; a full report
    is computed only for the lemmas that read i_ve, beta_ve or gamma_ve."""
    result = recognize(t)
    is_wvd = is_well_ve_dominated(t)
    failures: list[tuple[str, str]] = []
    if not lemmas:
        return result, is_wvd, failures
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
    return result, is_wvd, failures


def _records(max_n: int, lemmas: bool) -> Iterator[tuple]:
    """(order, index, tree, recognizer result, oracle verdict, lemma
    failures) for every free tree up to max_n, in enumeration order."""
    for n in range(1, max_n + 1):
        for index, t in enumerate(enumerate_free_trees(n)):
            yield (n, index, t, *_check_tree(t, lemmas))


def _tally(max_n: int, records: Iterable[tuple]) -> ValidationReport:
    """Fold records into a report; max_n is checked before the first is drawn."""
    if not 1 <= max_n <= MAX_ENUMERATION_ORDER:
        raise ValueError(f"max_n must be in 1..{MAX_ENUMERATION_ORDER}")
    report = ValidationReport(max_n, dict.fromkeys(range(1, max_n + 1), 0))
    report.wvd_tree_census = dict(report.trees_checked)
    started = time.perf_counter()
    for n, index, _, result, is_wvd, failures in records:
        report.trees_checked[n] += 1
        report.wvd_tree_census[n] += is_wvd
        if result.verdict != is_wvd:
            mismatch = f"order {n} tree #{index}: recognizer={result.verdict} oracle={is_wvd}"
            report.recognizer_oracle_mismatches.append(mismatch)
        report.lemma_failures.extend(failures)
    report.elapsed = time.perf_counter() - started
    return report


def cross_validate(max_n: int) -> ValidationReport:
    """Recognizer verdict vs oracle verdict on every tree up to max_n."""
    return _tally(max_n, _records(max_n, lemmas=False))


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

    All run on the record stream that cross_validate folds too, so the
    report carries its counts, census and mismatches as well.
    """
    return _tally(max_n, _records(max_n, lemmas=True))


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
