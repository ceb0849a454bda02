import dataclasses
import json

import pytest

from vedom import harness
from vedom.constructions import expand_backbone, path_graph
from vedom.domination import is_well_ve_dominated
from vedom.freetrees import FREE_TREE_COUNTS, enumerate_free_trees
from vedom.harness import (
    ValidationReport,
    _graph_tag,
    _qualifying_cut_edges,
    _qualifying_cut_vertices,
    cross_validate,
    lemma_suite,
)
from vedom.reduction import is_reduced

from tests.strategies import star


class TestCrossValidate:
    def test_no_mismatches_up_to_nine(self):
        report = cross_validate(9)
        assert report.recognizer_oracle_mismatches == []
        assert report.ok

    def test_tree_counts_match_known_sequence(self):
        report = cross_validate(8)
        for n in range(1, 9):
            assert report.trees_checked[n] == FREE_TREE_COUNTS[n - 1]

    def test_order_one_census(self):
        report = cross_validate(1)
        assert report.trees_checked == {1: 1}
        assert report.wvd_tree_census == {1: 1}

    def test_census_counts_wvd_trees_only(self):
        report = cross_validate(6)
        for n in range(1, 7):
            assert 0 <= report.wvd_tree_census[n] <= report.trees_checked[n]

    def test_range_check(self, monkeypatch):
        """The sweep reaches as far as the enumerator: every order 1-20 is
        swept, and 21 is refused before any work."""
        monkeypatch.setattr(harness, "enumerate_free_trees", lambda n: iter(()))
        assert cross_validate(20).trees_checked == dict.fromkeys(range(1, 21), 0)
        with pytest.raises(ValueError, match=r"^max_n must be in 1\.\.20$"):
            cross_validate(21)


class TestLemmaSuite:
    def test_no_failures_up_to_nine(self):
        report = lemma_suite(9)
        assert report.lemma_failures == []
        assert report.ok

    def test_sweep_matches_cross_validate(self):
        lemmas = lemma_suite(8)
        cross = cross_validate(8)
        assert lemmas.trees_checked == cross.trees_checked
        assert lemmas.wvd_tree_census == cross.wvd_tree_census
        assert lemmas.recognizer_oracle_mismatches == cross.recognizer_oracle_mismatches


class TestReductionTransport:
    """Check (a) compares each swept tree's verdict with the verdict of the
    reduced tree in its recognizer result."""

    def test_a_wrong_reduced_tree_is_reported(self, monkeypatch):
        """Every rejected tree with twins is given P_2, which is
        well-ve-dominated, as its reduced tree; each is reported, and
        nothing else is."""
        recognize, patched = harness.recognize, []

        def wrong_reduction(t):
            result = recognize(t)
            if result.reduced_tree is t or result.verdict:
                return result
            patched.append(_graph_tag(t))
            return dataclasses.replace(result, reduced_tree=path_graph(2))

        monkeypatch.setattr(harness, "recognize", wrong_reduction)
        report = lemma_suite(8)
        assert patched
        assert report.lemma_failures == [("reduction-transport", tag) for tag in patched]
        assert report.recognizer_oracle_mismatches == []

    def test_every_tree_with_twins_asks_for_its_reduced_trees_verdict(self, monkeypatch):
        recognize, is_wvd = harness.recognize, harness.is_well_ve_dominated
        reduced, asked = [], []

        def recorded_recognize(t):
            result = recognize(t)
            if result.reduced_tree is not t:
                reduced.append(result.reduced_tree)
            return result

        def recorded_is_wvd(g):
            asked.append(g)
            return is_wvd(g)

        monkeypatch.setattr(harness, "recognize", recorded_recognize)
        monkeypatch.setattr(harness, "is_well_ve_dominated", recorded_is_wvd)
        assert lemma_suite(8).ok
        with_twins = sum(not is_reduced(t) for n in range(1, 9) for t in enumerate_free_trees(n))
        assert len(reduced) == with_twins > 0
        asked_ids = {id(g) for g in asked}  # every graph stays alive in its list
        assert all(id(g) in asked_ids for g in reduced)

    def test_oracle_heavy_checks_run_above_order_twelve(self, monkeypatch):
        """On the 13-vertex star, (a) asks for the verdict of its reduced
        tree P_2, and (e) takes the star's full report."""
        is_wvd, report = harness.is_well_ve_dominated, harness.oracle_report
        asked, reported = [], []

        def recorded_is_wvd(g):
            asked.append(g.n)
            return is_wvd(g)

        def recorded_report(g):
            reported.append(g.n)
            return report(g)

        monkeypatch.setattr(harness, "is_well_ve_dominated", recorded_is_wvd)
        monkeypatch.setattr(harness, "oracle_report", recorded_report)
        result, is_wvd, failures = harness._check_tree(star(12), True)
        assert (result.verdict, is_wvd, failures) == (True, True, [])
        assert asked == [13, 2]
        assert reported == [13]


class TestFailureReports:
    """Each check reports exactly the trees whose patched input breaks it,
    with the tuple or line it documents, and nothing else."""

    def test_a_witness_on_a_wvd_tree_is_reported(self, monkeypatch):
        patched = []

        def witness_everywhere(t):
            patched.append(_graph_tag(t))
            return "i", (0, 1, 2, 3)

        monkeypatch.setattr(harness, "find_forbidden_configuration", witness_everywhere)
        report = lemma_suite(8)
        assert patched
        assert report.lemma_failures == [("forbidden-config-soundness", tag) for tag in patched]

    def test_a_wvd_tree_that_is_not_wvc_is_reported(self, monkeypatch):
        """Every report says not well-ve-covered; only (e) reads that."""
        oracle_report = harness.oracle_report

        def not_covered(g):
            return dataclasses.replace(oracle_report(g), is_well_ve_covered=False)

        monkeypatch.setattr(harness, "oracle_report", not_covered)
        report = lemma_suite(8)
        wvd = [t for n in range(1, 9) for t in enumerate_free_trees(n) if is_well_ve_dominated(t)]
        assert report.lemma_failures == [("wvd-implies-wvc", _graph_tag(t)) for t in wvd]

    def test_a_cut_with_a_component_that_is_not_wvd_is_reported(self, monkeypatch):
        """Order 9 is the first with a qualifying cut vertex; every cut of
        a well-ve-dominated tree is given P_4, which is not one."""
        expected = []

        def p4_left(t, cut):
            tag = _graph_tag(t)
            if len(cut) == 2:
                expected.append(("cut-edge-components", f"{tag} edge ({cut[0]},{cut[1]})"))
            else:
                expected.append(("cut-vertex-components", f"{tag} vertex {cut[0]}"))
            return iter([path_graph(4)])

        monkeypatch.setattr(harness, "_components_without", p4_left)
        report = lemma_suite(9)
        assert {lemma for lemma, _ in expected} == {"cut-edge-components", "cut-vertex-components"}
        assert report.lemma_failures == expected

    def test_a_unit_cut_that_is_not_additive_is_reported(self, monkeypatch):
        """Each unit cut is given the whole tree twice, so its two sides
        add up to twice gamma_ve."""
        expected = []

        def doubled(t, partition, edge):
            gamma = harness.oracle_report(t).gamma_ve
            expected.append(
                ("unit-cut-additivity", f"{_graph_tag(t)} edge {edge}: {2 * gamma} != {gamma}")
            )
            return t, t

        monkeypatch.setattr(harness, "unit_cut_decompose", doubled)
        report = lemma_suite(9)
        assert expected
        assert report.lemma_failures == expected

    def test_a_wrong_verdict_is_a_mismatch_line(self, monkeypatch):
        recognize = harness.recognize

        def flipped(t):
            result = recognize(t)
            return dataclasses.replace(result, verdict=not result.verdict)

        monkeypatch.setattr(harness, "recognize", flipped)
        report = lemma_suite(6)
        expected = [
            f"order {n} tree #{i}: recognizer={not wvd} oracle={wvd}"
            for n in range(1, 7)
            for i, wvd in enumerate(map(is_well_ve_dominated, enumerate_free_trees(n)))
        ]
        assert report.recognizer_oracle_mismatches == expected
        assert report.lemma_failures == []
        assert not report.ok


class TestQualifyingHypotheses:
    def test_path_six_edges(self):
        assert _qualifying_cut_edges(path_graph(6)) == [(2, 3)]

    def test_path_six_has_no_qualifying_vertex(self):
        assert _qualifying_cut_vertices(path_graph(6)) == []

    def test_path_seven_center_qualifies(self):
        assert 3 in _qualifying_cut_vertices(path_graph(7))

    def test_expansion_middle_backbone_qualifies(self):
        t, _ = expand_backbone(path_graph(3))
        assert 1 in _qualifying_cut_vertices(t)


def test_report_json_shape():
    report = ValidationReport(max_order=4)
    report.trees_checked = {1: 1, 2: 1}
    report.wvd_tree_census = {1: 1, 2: 1}
    d = report.to_json_dict()
    assert json.dumps(d)
    assert d["ok"] is True
    assert d["mismatches"] == []
