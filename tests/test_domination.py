import gc
import itertools
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vedom import domination
from vedom.domination import (
    InstanceTooLargeError,
    dominated_edge_masks,
    enumerate_minimal_ve_dominating_sets,
    is_minimal_ve_dominating,
    is_ve_dominating,
    is_well_ve_dominated,
    oracle_report,
    private_edges,
    ve_dominated_edges,
)
from vedom.constructions import CnfInstance, path_graph, sat_decide_via_graph, sat_to_graph
from vedom.freetrees import enumerate_free_trees
from vedom.graph import Graph, bit_list, connected_components, induced_delete, mask_from
from vedom.harness import lemma_suite
from vedom.recognizer import verify_certificate

from tests.reference import adjacency_masks, is_minimal_by_removal, minimal_sets_by_exhaustion
from tests.strategies import graphs, relabeled, star, trees


def edge_mask(g, pairs):
    ids = {e: i for i, e in enumerate(g.edges)}
    return mask_from(ids[tuple(sorted(p))] for p in pairs)


class TestDominatedEdges:
    def test_path_four_end(self):
        g = path_graph(4)
        assert ve_dominated_edges(g, 0) == edge_mask(g, [(0, 1), (1, 2)])

    def test_path_four_inner(self):
        g = path_graph(4)
        assert ve_dominated_edges(g, 1) == (1 << 3) - 1

    def test_star_leaf_sees_everything(self):
        g = star(3)
        for leaf in (1, 2, 3):
            assert ve_dominated_edges(g, leaf) == (1 << 3) - 1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            ve_dominated_edges(path_graph(2), 5)

    @given(graphs())
    def test_matches_the_mask_table(self, g):
        assert [ve_dominated_edges(g, v) for v in range(g.n)] == dominated_edge_masks(g)


class TestIsVeDominating:
    def test_path_four_center(self):
        assert is_ve_dominating(path_graph(4), mask_from([2]))

    def test_path_four_far_end_misses(self):
        assert not is_ve_dominating(path_graph(4), mask_from([3]))

    def test_empty_set_dominates_edgeless(self):
        assert is_ve_dominating(path_graph(1), 0)
        assert not is_ve_dominating(path_graph(2), 0)


class TestPrivateEdges:
    def test_path_six(self):
        g = path_graph(6)
        got = private_edges(g, mask_from([1, 4]), 1)
        assert got == edge_mask(g, [(0, 1), (1, 2)])

    def test_singleton_private_is_everything_dominated(self):
        g = path_graph(5)
        for v in range(5):
            assert private_edges(g, 1 << v, v) == ve_dominated_edges(g, v)

    def test_shadowed_vertex_has_none(self):
        assert private_edges(path_graph(4), mask_from([1, 2]), 1) == 0

    def test_requires_membership(self):
        with pytest.raises(ValueError):
            private_edges(path_graph(4), mask_from([1]), 2)

    @pytest.mark.parametrize("v", [-1, 4])
    def test_vertex_out_of_range(self, v):
        with pytest.raises(ValueError, match=f"^vertex {v} out of range$"):
            private_edges(path_graph(4), mask_from([1]), v)

    @pytest.mark.parametrize(
        "s, v, message",
        [
            (mask_from([1]), -1, "vertex -1 out of range"),
            (mask_from([1]), 4, "vertex 4 out of range"),
            (mask_from([1]), 2, "vertex 2 is not a member of the set"),
            (1 << 4, 9, "vertex set is not a mask over the 4 vertices"),
        ],
        ids=["below-range", "above-range", "non-member", "set-first"],
    )
    def test_arguments_are_checked_before_any_work(self, monkeypatch, s, v, message):
        """The set first, then the vertex, and only then the masks."""
        calls = []
        original = domination.dominated_edge_masks

        def counted(g):
            calls.append(g)
            return original(g)

        monkeypatch.setattr(domination, "dominated_edge_masks", counted)
        with pytest.raises(ValueError, match=f"^{message}$"):
            private_edges(path_graph(4), s, v)
        assert calls == []
        private_edges(path_graph(4), mask_from([1]), 1)
        assert len(calls) == 1


@pytest.mark.parametrize(
    "check",
    [is_ve_dominating, is_minimal_ve_dominating, lambda g, s: private_edges(g, s, 0), verify_certificate],
    ids=["is_ve_dominating", "is_minimal_ve_dominating", "private_edges", "verify_certificate"],
)
@pytest.mark.parametrize("n", [1, 3, 4])
def test_vertex_sets_out_of_range_are_refused(check, n):
    """A mask with a bit at or above n, or a negative one, names no vertex
    set of the graph, so it is refused, never read as one."""
    for s in (1 << n, -1, (1 << n) | 1):
        with pytest.raises(ValueError, match="^vertex set is not a mask over the"):
            check(path_graph(n), s)


class TestMinimality:
    def test_path_four_cases(self):
        g = path_graph(4)
        assert is_minimal_ve_dominating(g, mask_from([2]))
        assert is_minimal_ve_dominating(g, mask_from([0, 3]))
        assert not is_minimal_ve_dominating(g, mask_from([1, 2]))

    def test_routes_agree_exhaustively_on_small_graphs(self):
        corpus = [path_graph(n) for n in range(1, 7)]
        corpus.append(star(3))
        corpus.append(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
        corpus.append(Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)]))
        for g in corpus:
            for s in range(1 << g.n):
                assert is_minimal_ve_dominating(g, s) == is_minimal_by_removal(g, s)


@given(graphs(max_n=6))
@settings(max_examples=60)
def test_minimality_routes_agree(g):
    for s in range(1 << g.n):
        assert is_minimal_ve_dominating(g, s) == is_minimal_by_removal(g, s)


@given(trees(min_n=2, max_n=12), st.integers(min_value=0))
@settings(max_examples=80)
def test_minimality_routes_agree_on_larger_random_subsets(t, raw):
    s = raw % (1 << t.n)
    assert is_minimal_ve_dominating(t, s) == is_minimal_by_removal(t, s)


class TestEnumeration:
    def test_path_four_exact(self):
        sets = enumerate_minimal_ve_dominating_sets(path_graph(4))
        assert [bit_list(s) for s in sets] == [[1], [2], [0, 3]]

    def test_path_two(self):
        sets = enumerate_minimal_ve_dominating_sets(path_graph(2))
        assert [bit_list(s) for s in sets] == [[0], [1]]

    def test_path_six_all_size_two(self):
        sets = enumerate_minimal_ve_dominating_sets(path_graph(6))
        assert {s.bit_count() for s in sets} == {2}

    def test_edgeless_graph_has_empty_set_only(self):
        g = Graph.from_edges(3, [])
        assert enumerate_minimal_ve_dominating_sets(g) == [0]

    def test_order_contract(self):
        sets = enumerate_minimal_ve_dominating_sets(path_graph(5))
        keys = [(s.bit_count(), bit_list(s)) for s in sets]
        assert keys == sorted(keys)

    def test_matches_exhaustive_sweep_on_all_small_trees(self):
        for n in range(1, 9):
            for t in enumerate_free_trees(n):
                assert (
                    enumerate_minimal_ve_dominating_sets(t)
                    == minimal_sets_by_exhaustion(t)
                )

    def test_every_emitted_set_is_minimal(self):
        for t in enumerate_free_trees(8):
            full = (1 << len(t.edges)) - 1
            masks = dominated_edge_masks(t)
            for s in enumerate_minimal_ve_dominating_sets(t):
                assert is_minimal_ve_dominating(t, s)
                for v in bit_list(s):
                    rest = 0
                    for u in bit_list(s & ~(1 << v)):
                        rest |= masks[u]
                    assert rest != full

    def test_size_bound_at_order_equals_full(self):
        for n in range(1, 8):
            for t in enumerate_free_trees(n):
                assert enumerate_minimal_ve_dominating_sets(
                    t, size_bound=t.n
                ) == enumerate_minimal_ve_dominating_sets(t)

    def test_size_bound_filters(self):
        sets = enumerate_minimal_ve_dominating_sets(path_graph(4), size_bound=1)
        assert [bit_list(s) for s in sets] == [[1], [2]]


@given(graphs(min_n=1, max_n=7))
@settings(max_examples=60)
def test_enumeration_matches_exhaustion(g):
    assert enumerate_minimal_ve_dominating_sets(g) == minimal_sets_by_exhaustion(g)


class TestOracleReport:
    def test_path_six(self):
        r = oracle_report(path_graph(6))
        assert (r.gamma_ve, r.big_gamma_ve) == (2, 2)
        assert r.is_well_ve_dominated

    def test_path_four(self):
        r = oracle_report(path_graph(4))
        assert (r.gamma_ve, r.big_gamma_ve) == (1, 2)
        assert not r.is_well_ve_dominated
        assert r.minimal_size_multiset == {1: 2, 2: 1}

    def test_negative_size_bound_is_refused(self):
        with pytest.raises(ValueError, match="^size bound must be non-negative$"):
            oracle_report(path_graph(3), size_bound=-1)

    def test_single_vertex(self):
        r = oracle_report(path_graph(1))
        assert (r.gamma_ve, r.big_gamma_ve) == (0, 0)
        assert r.is_well_ve_dominated and r.is_well_ve_covered

    def test_witnesses_are_minimal_of_reported_sizes(self):
        for n in range(2, 9):
            r = oracle_report(path_graph(n))
            assert r.witness_min.bit_count() == r.gamma_ve
            assert r.witness_max.bit_count() == r.big_gamma_ve
            assert is_minimal_ve_dominating(path_graph(n), r.witness_min)
            assert is_minimal_ve_dominating(path_graph(n), r.witness_max)

    def test_wvd_implies_wvc_on_small_trees(self):
        for n in range(1, 9):
            for t in enumerate_free_trees(n):
                r = oracle_report(t)
                if r.is_well_ve_dominated:
                    assert r.is_well_ve_covered

    def test_json_keys_and_stability(self):
        d = oracle_report(path_graph(6)).to_json_dict()
        assert list(d) == [
            "gamma_ve", "big_gamma_ve", "sizes", "witness_min", "witness_max",
            "i_ve", "beta_ve", "wvd", "wvc", "mode",
        ]
        assert d["mode"] == "full"
        assert json.dumps(d) == json.dumps(oracle_report(path_graph(6)).to_json_dict())

    def test_bounded_mode_tag(self):
        r = oracle_report(path_graph(6), size_bound=3)
        assert r.enumeration_mode == "size-bounded(3)"

    def test_guard_full_mode(self):
        g = Graph.from_edges(25, [(i, i + 1) for i in range(24)])
        with pytest.raises(InstanceTooLargeError):
            oracle_report(g)

    def test_verdict_guard_matches_report(self):
        g = Graph.from_edges(25, [(i, i + 1) for i in range(24)])
        with pytest.raises(InstanceTooLargeError) as report_error:
            oracle_report(g)
        with pytest.raises(InstanceTooLargeError) as verdict_error:
            is_well_ve_dominated(g)
        assert str(verdict_error.value) == str(report_error.value)
        assert is_well_ve_dominated(g, guard=25) is oracle_report(g, guard=25).is_well_ve_dominated

    def test_guard_allows_bounded_mode(self):
        g = Graph.from_edges(30, [(i, i + 1) for i in range(29)])
        sets = enumerate_minimal_ve_dominating_sets(g, size_bound=5)
        assert all(s.bit_count() <= 5 for s in sets)

    def test_guard_bounded_limits(self):
        g = Graph.from_edges(41, [(i, i + 1) for i in range(40)])
        with pytest.raises(InstanceTooLargeError):
            enumerate_minimal_ve_dominating_sets(g, size_bound=5)
        g30 = Graph.from_edges(30, [(i, i + 1) for i in range(29)])
        with pytest.raises(InstanceTooLargeError):
            enumerate_minimal_ve_dominating_sets(g30, size_bound=11)


class TestDisconnected:
    def test_gamma_adds_over_components(self):
        g = Graph.from_edges(10, [(0, 1), (1, 2), (3, 4), (5, 6), (6, 7), (7, 8), (8, 9)])
        whole = oracle_report(g)
        total_gamma = total_big = 0
        wvd = True
        for comp in connected_components(g):
            sub, _ = induced_delete(g, ((1 << g.n) - 1) & ~comp)
            r = oracle_report(sub)
            total_gamma += r.gamma_ve
            total_big += r.big_gamma_ve
            wvd = wvd and r.is_well_ve_dominated
        assert whole.gamma_ve == total_gamma
        assert whole.big_gamma_ve == total_big
        assert whole.is_well_ve_dominated == wvd


class TestChain:
    def test_path_examples(self):
        for n in (6, 4):
            r = oracle_report(path_graph(n))
            assert r.gamma_ve <= r.i_ve <= r.beta_ve <= r.big_gamma_ve
        assert (r.gamma_ve, r.i_ve, r.beta_ve, r.big_gamma_ve) == (1, 1, 2, 2)


@given(trees(max_n=9))
@settings(max_examples=60)
def test_verdict_invariant_under_relabelling(t):
    perm = list(reversed(range(t.n)))
    h = relabeled(t, perm)
    a, b = oracle_report(t), oracle_report(h)
    assert a.is_well_ve_dominated == b.is_well_ve_dominated
    assert a.minimal_size_multiset == b.minimal_size_multiset
    assert (a.gamma_ve, a.big_gamma_ve, a.i_ve, a.beta_ve) == (
        b.gamma_ve, b.big_gamma_ve, b.i_ve, b.beta_ve,
    )


def test_independence_helper():
    g = path_graph(4)
    adj = adjacency_masks(g)
    assert adj[1] == mask_from([0, 2])


FIGURE_CNF = CnfInstance(4, ((1, 2, -3), (-1, 3, 4), (-2, -3, -4)))


@pytest.mark.parametrize(
    "call",
    [
        lambda: oracle_report(path_graph(10)),
        lambda: oracle_report(sat_to_graph(FIGURE_CNF).graph, size_bound=8),
        lambda: is_well_ve_dominated(path_graph(10)),
        lambda: is_well_ve_dominated(path_graph(7)),
        lambda: enumerate_minimal_ve_dominating_sets(star(4)),
        lambda: sat_decide_via_graph(FIGURE_CNF),
        lambda: sat_decide_via_graph(sat_to_graph(FIGURE_CNF)),
        lambda: lemma_suite(8),
    ],
    ids=[
        "oracle_report",
        "oracle_report-bounded",
        "is_well_ve_dominated-yes",
        "is_well_ve_dominated-no",
        "enumerate_minimal_ve_dominating_sets",
        "sat_decide_via_graph",
        "sat_decide_via_graph-gadget",
        "lemma_suite",
    ],
)
def test_oracle_calls_leave_no_reference_cycle(call):
    """The CLI pauses the cyclic collector around each call, and tests and
    the benchmark call these outside it, so no call may leave a cycle for
    the collector to find."""
    was_enabled = gc.isenabled()
    call()  # warm-up
    gc.disable()
    try:
        gc.collect()
        call()
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def _search_calls(call) -> int:
    """The calls the oracle's search makes to itself while call() runs."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        code = frame.f_code
        if event == "call" and (code.co_name, code.co_filename) == ("search", domination.__file__):
            calls += 1

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return calls


ALL_SIGN_PATTERNS_CNF = CnfInstance(3, tuple(itertools.product((1, -1), (2, -2), (3, -3))))


@pytest.mark.parametrize(
    "f, extra, calls",
    [
        (FIGURE_CNF, 0, 3280),
        (ALL_SIGN_PATTERNS_CNF, 0, 364),
        (FIGURE_CNF, 1, 8001),
        (ALL_SIGN_PATTERNS_CNF, 1, 924),
    ],
    ids=["figure", "all-sign-patterns", "figure-2n+1", "all-sign-patterns-2n+1"],
)
def test_size_bound_search_calls_on_gadgets(f, extra, calls):
    """At bounds 2n and 2n + 1 the bound is the search's depth limit; a
    node's completing picks are visited in one batch without a call, so
    batching leaves these counts as they were.  The sets are those of full
    mode."""
    g = sat_to_graph(f).graph
    bound = 2 * f.variable_count + extra
    sets = []
    assert _search_calls(lambda: sets.extend(enumerate_minimal_ve_dominating_sets(g, bound))) == calls
    assert sets == [s for s in enumerate_minimal_ve_dominating_sets(g, guard=40) if s.bit_count() <= bound]


def _batches(g, bound, stop=False):
    """The visits the oracle's search makes on g under bound, and the sets
    they carry; each visit returns stop."""
    visits = sets = 0

    def visit(base, extra, free):
        nonlocal visits, sets
        assert extra and not base & extra and free & extra == free
        visits += 1
        sets += extra.bit_count()
        return stop

    domination._search(g, bound, domination.FULL_MODE_GUARD, visit)
    return visits, sets


@pytest.mark.parametrize(
    "g, bound, visits, sets",
    [
        (sat_to_graph(FIGURE_CNF).graph, 8, 851, 1840),
        (sat_to_graph(FIGURE_CNF).graph, 9, 5563, 16072),
        (path_graph(20), None, 478, 877),
    ],
    ids=["figure-8", "figure-9", "P20-full"],
)
def test_completing_picks_are_visited_in_batches(g, bound, visits, sets):
    """Every node hands all of its valid completing picks to one visit, in
    full mode as under a bound, so the sets come in fewer visits than sets.
    A visit that returns true ends the search after that one batch."""
    assert _batches(g, bound) == (visits, sets)
    assert len(enumerate_minimal_ve_dominating_sets(g, bound)) == sets
    assert _batches(g, bound, stop=True)[0] == 1


def test_a_bound_below_gamma_searches_and_finds_none():
    """Bound 2n - 1 is below the figure gadget's gamma_ve of 2n, since each
    of its 2n pendant sets {x, y, u} and {u', w, z} needs a member of its
    own; the search runs to its depth limit and the bounded report finds
    no set."""
    g = sat_to_graph(FIGURE_CNF).graph

    def report():
        with pytest.raises(ValueError, match="no minimal ve-dominating set of size <= 7"):
            oracle_report(g, size_bound=7)

    assert _search_calls(report) == 1093
