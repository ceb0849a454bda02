import json
import random

import pytest

from vedom.constructions import expand_backbone, path_graph
from vedom.freetrees import FREE_TREE_COUNTS
from vedom.graph import is_tree
from vedom.harness import (
    ValidationReport,
    _qualifying_cut_edges,
    _qualifying_cut_vertices,
    cross_validate,
    lemma_suite,
    random_leaf_duplicated_tree,
)

from tests import reference


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

    def test_range_check(self):
        with pytest.raises(ValueError):
            cross_validate(16)


class TestLemmaSuite:
    def test_no_failures_up_to_nine(self):
        report = lemma_suite(9)
        assert report.lemma_failures == []
        assert report.ok

    def test_transport_sampling_is_deterministic(self):
        a = lemma_suite(3)
        b = lemma_suite(3)
        assert a.lemma_failures == b.lemma_failures == []

    def test_sweep_matches_cross_validate(self):
        lemmas = lemma_suite(8)
        cross = cross_validate(8)
        assert lemmas.trees_checked == cross.trees_checked
        assert lemmas.wvd_tree_census == cross.wvd_tree_census
        assert lemmas.recognizer_oracle_mismatches == cross.recognizer_oracle_mismatches


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


class TestRandomLeafDuplication:
    def test_respects_cap_and_treeness(self):
        rng = random.Random(5)
        for _ in range(50):
            g = random_leaf_duplicated_tree(rng, 12)
            assert g.n <= 12
            assert is_tree(g)

    def test_deterministic_for_seed(self):
        a = [random_leaf_duplicated_tree(random.Random(3), 12).edges for _ in range(5)]
        b = [random_leaf_duplicated_tree(random.Random(3), 12).edges for _ in range(5)]
        assert a == b

    def test_same_draws_and_trees_as_the_rebuilding_sampler(self):
        """Two identically seeded generators, one through the earlier
        sampler that rebuilds its graph after every added leaf: after each
        call the trees are equal and so are the generators' states.  Max
        order 3 always starts from P_2, whose chosen leaf's support is the
        other leaf, and some samples there add one."""
        for max_order in range(2, 16):
            ours, theirs = random.Random(max_order), random.Random(max_order)
            orders = set()
            for _ in range(2000):
                g = random_leaf_duplicated_tree(ours, max_order)
                assert g == reference.random_leaf_duplicated_tree(theirs, max_order)
                assert ours.getstate() == theirs.getstate()
                orders.add(g.n)
            if max_order == 3:
                assert orders == {2, 3}


def test_report_json_shape():
    report = ValidationReport(max_order=4)
    report.trees_checked = {1: 1, 2: 1}
    report.wvd_tree_census = {1: 1, 2: 1}
    d = report.to_json_dict()
    assert json.dumps(d)
    assert d["ok"] is True
    assert d["mismatches"] == []
