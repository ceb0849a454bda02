import os
import pickle
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given

import vedom

from vedom import graph as graph_module
from vedom.constructions import path_graph
from vedom.freetrees import enumerate_free_trees, level_sequence_to_graph
from vedom.graph import (
    Graph,
    GraphFormatError,
    NotATreeError,
    bit_list,
    connected_components,
    good_pendant_edges,
    has_tree_size,
    induced_delete,
    is_tree,
    mask_from,
    parse_edge_list,
    require_tree,
    serialize_edge_list,
    traverse,
)
from vedom.reduction import reduce_graph

from tests.reference import rooted_level_sequences
from tests.strategies import graphs, relabeled, star


class TestParsing:
    def test_single_edge(self):
        g = parse_edge_list("n 2\n0 1\n")
        assert g.n == 2
        assert g.edges == ((0, 1),)

    def test_path_six(self):
        g = parse_edge_list("n 6\n0 1\n1 2\n2 3\n3 4\n4 5\n")
        assert g.n == 6
        assert len(g.edges) == 5

    def test_duplicate_edge_reports_line(self):
        with pytest.raises(GraphFormatError, match="line 3"):
            parse_edge_list("n 3\n0 1\n0 1\n")

    def test_duplicate_detected_in_either_orientation(self):
        with pytest.raises(GraphFormatError, match="duplicate"):
            parse_edge_list("n 3\n0 1\n1 0\n")

    def test_self_loop_reports_line(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            parse_edge_list("n 3\n1 1\n")

    def test_index_beyond_declared_count(self):
        with pytest.raises(GraphFormatError, match="exceeds"):
            parse_edge_list("n 2\n0 2\n")

    def test_malformed_line(self):
        with pytest.raises(GraphFormatError, match="line 1"):
            parse_edge_list("0 1 2\n")

    def test_non_numeric(self):
        with pytest.raises(GraphFormatError, match="malformed"):
            parse_edge_list("a b\n")

    def test_header_not_first(self):
        with pytest.raises(GraphFormatError, match="first"):
            parse_edge_list("0 1\nn 4\n")

    def test_comments_and_blank_lines(self):
        g = parse_edge_list("# a path\n\nn 3\n# middle\n0 1\n1 2\n")
        assert g.edges == ((0, 1), (1, 2))

    def test_without_header_counts_from_max_index(self):
        g = parse_edge_list("0 1\n1 4\n")
        assert g.n == 5

    def test_empty_document_is_empty_graph(self):
        g = parse_edge_list("")
        assert g.n == 0 and g.edges == ()

    def test_header_only_isolated_vertices(self):
        g = parse_edge_list("n 3\n")
        assert g.n == 3 and g.edges == ()

    def test_roundtrip_examples(self):
        for text in ("n 2\n0 1\n", "n 6\n0 1\n1 2\n2 3\n3 4\n4 5\n", "n 4\n"):
            g = parse_edge_list(text)
            assert serialize_edge_list(g) == text

    @pytest.mark.parametrize(
        "call",
        ["parse_edge_list('n 1000000000')", "parse_edge_list('0 999999999')", "Graph.from_edges(10**9, [])"],
        ids=["count", "index", "from-edges"],
    )
    def test_order_over_the_limit_raises_before_the_build(self, call):
        """In a child process with its address space capped at 1 GiB, so a
        graph built in proportion to the order fails there and not here."""

        def cap() -> None:
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        code = (
            "from vedom.graph import Graph, parse_edge_list\n"
            "try:\n"
            f"    {call}\n"
            "except ValueError as exc:\n"
            "    print(type(exc).__name__, exc)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(vedom.__file__).resolve().parents[1])}
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=60, preexec_fn=cap, env=env,
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == "ValueError 1000000000 vertices exceeds the limit of 1000000\n"


@given(graphs())
def test_roundtrip_is_identity(g):
    again = parse_edge_list(serialize_edge_list(g))
    assert again.n == g.n
    assert again.edges == g.edges
    assert again.adj == g.adj


@given(graphs())
def test_closed_neighborhood_two_ways(g):
    for v in range(g.n):
        from_adj = set(g.adj[v]) | {v}
        from_edges = {v}
        for u, w in g.edges:
            if u == v:
                from_edges.add(w)
            if w == v:
                from_edges.add(u)
        assert len(from_adj) == g.degree(v) + 1
        assert from_adj == from_edges


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edges(2, [(0, 0)])

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph.from_edges(2, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_edges(2, [(0, 2)])

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError, match="^vertex count must be non-negative$"):
            Graph.from_edges(-1, [])

    def test_canonical_edge_order(self):
        g = Graph.from_edges(4, [(3, 2), (1, 0), (2, 0)])
        assert g.edges == ((0, 1), (0, 2), (2, 3))


class TestIsTree:
    def test_path_is_tree(self):
        assert is_tree(path_graph(6))

    def test_cycle_is_not(self):
        c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert not is_tree(c4)

    def test_disconnected_is_not(self):
        two_edges = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert not is_tree(two_edges)

    def test_trivial_orders(self):
        assert not is_tree(Graph.from_edges(0, []))
        assert is_tree(Graph.from_edges(1, []))

    def test_size_check_needs_no_graph(self):
        assert has_tree_size(1, 0) and has_tree_size(3_000_000, 2_999_999)
        assert not has_tree_size(0, -1)
        assert not has_tree_size(3_000_000, 0)

    def test_require_tree_names_the_task(self):
        require_tree(path_graph(3), "sorting")
        with pytest.raises(NotATreeError, match="^sorting requires a tree$"):
            require_tree(Graph.from_edges(4, [(0, 1), (2, 3)]), "sorting")


C4_EDGES = [(0, 1), (1, 2), (2, 3), (0, 3)]


def _kept_answer_cases() -> list[Graph]:
    """Every free tree and every rooted level sequence's tree up to order
    12, the reduced graph of each, and seeded random graphs (forests,
    disconnected and cyclic ones among them) with their reduced graphs."""
    built = [t for n in range(1, 13) for t in enumerate_free_trees(n)]
    built += [level_sequence_to_graph(s) for n in range(1, 13) for s in rooted_level_sequences(n)]
    rng = random.Random(18)
    drawn = [Graph.from_edges(0, []), path_graph(1), Graph.from_edges(4, C4_EDGES)]
    for _ in range(400):
        n = rng.randint(1, 9)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        drawn.append(Graph.from_edges(n, rng.sample(pairs, min(len(pairs), rng.randint(0, n)))))
    graphs = built + drawn
    return graphs + [reduce_graph(g).reduced_graph for g in graphs]


class TestKeptTreeAnswer:
    """is_tree keeps its answer on the graph, and the tree builders record
    it; the kept answer must be the traversal definition's, and must not
    show in equality, hashing, repr or pickles."""

    def test_kept_answer_is_the_traversal_definition(self):
        cases = _kept_answer_cases()
        kinds = set()
        for g in cases:
            fresh = Graph(g.n, g.adj, g.edges)
            expected = has_tree_size(fresh.n, len(fresh.edges)) and len(traverse(fresh, 0)[0]) == fresh.n
            assert is_tree(g) is expected and is_tree(g) is expected
            assert g == fresh and hash(g) == hash(fresh) and repr(g) == repr(fresh)
            data = pickle.dumps(g)
            assert data == pickle.dumps(fresh)
            assert graph_module._TREE not in vars(pickle.loads(data))
            kinds.add((g.n > 0 and len(traverse(g, 0)[0]) == g.n, len(g.edges) - g.n + 1))
        # trees, connected graphs with a cycle, and disconnected graphs with n - 1 and fewer edges
        assert {(True, 0), (True, 1), (False, 0), (False, -1)} <= kinds

    def test_builders_record_trees_before_anyone_asks(self):
        for n in range(1, 13):
            for t in [*enumerate_free_trees(n), *map(level_sequence_to_graph, rooted_level_sequences(n))]:
                assert vars(t)[graph_module._TREE] is True
                assert vars(reduce_graph(t).reduced_graph)[graph_module._TREE] is True

    def test_only_a_known_tree_passes_its_record_to_the_reduction(self):
        c4 = Graph.from_edges(4, C4_EDGES)
        p2 = reduce_graph(c4).reduced_graph  # C4's opposite vertices are twins
        assert p2 == path_graph(2) and graph_module._TREE not in vars(p2)
        parsed = parse_edge_list(serialize_edge_list(path_graph(7)))
        assert graph_module._TREE not in vars(reduce_graph(parsed).reduced_graph)
        assert is_tree(parsed)
        assert vars(reduce_graph(parsed).reduced_graph)[graph_module._TREE] is True
        assert not is_tree(c4)  # a kept False passes nothing on either
        assert graph_module._TREE not in vars(reduce_graph(c4).reduced_graph)


class TestComponents:
    def test_single_component(self):
        assert connected_components(path_graph(6)) == [mask_from(range(6))]

    def test_two_components(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
        assert connected_components(g) == [mask_from((0, 1, 2)), mask_from((3, 4))]

    def test_empty_graph(self):
        assert connected_components(Graph.from_edges(0, [])) == []

    def test_many_components_share_one_scan(self, monkeypatch):
        """10,000 two-vertex components: each component's search must reuse
        the scan's seen list rather than allocate an n-length one."""
        g = Graph.from_edges(20_000, [(v, v + 1) for v in range(0, 20_000, 2)])
        lists = []  # kept alive, so distinct lists have distinct ids
        reach = graph_module._reach

        def recording(g, root, seen, parent=None):
            assert parent is None
            lists.append(seen)
            return reach(g, root, seen, parent)

        monkeypatch.setattr(graph_module, "_reach", recording)
        assert connected_components(g) == [0b11 << v for v in range(0, 20_000, 2)]
        assert len(lists) == 10_000
        assert len({id(x) for x in lists}) == 1


class TestTraverse:
    def test_parents_before_children(self):
        g = Graph.from_edges(6, [(0, 3), (3, 1), (1, 4), (4, 0), (2, 5)])
        order, parent = traverse(g, 3)
        assert sorted(order) == [0, 1, 3, 4]
        assert order[0] == 3 and parent[3] == -1
        for i, v in enumerate(order[1:], start=1):
            assert g.has_edge(parent[v], v)
            assert order.index(parent[v]) < i
        assert parent[2] == parent[5] == -1

    def test_premarked_vertices_restrict_the_search(self):
        seen = [True, False, False, False, False, True]  # every vertex outside {1, 3, 4} but the root
        parent = [-1] * 6
        order = graph_module._reach(path_graph(6), 2, seen, parent)
        assert sorted(order) == [1, 2, 3, 4]
        assert parent == [-1, 2, -1, 2, 3, -1]

    def test_root_among_premarked_vertices_is_still_listed(self):
        parent = [-1] * 3
        assert graph_module._reach(path_graph(3), 0, [True] * 3, parent) == [0]
        assert parent == [-1, -1, -1]

    @given(graphs(min_n=1, max_n=8))
    def test_reaches_exactly_the_root_component(self, g):
        order, parent = traverse(g, 0)
        assert mask_from(order) == connected_components(g)[0]
        assert len(set(order)) == len(order)
        assert all(parent[v] in order[:i] for i, v in enumerate(order) if i)


class TestGoodPendantEdges:
    def test_path_six_both_ends(self):
        assert good_pendant_edges(path_graph(6)) == [(0, 1), (5, 4)]

    def test_star_has_none(self):
        assert good_pendant_edges(star(3)) == []

    def test_path_four(self):
        pairs = good_pendant_edges(path_graph(4))
        assert pairs == [(0, 1), (3, 2)]
        g = path_graph(4)
        for leaf, support in pairs:
            assert g.degree(leaf) == 1
            assert g.degree(support) == 2


class TestInducedDelete:
    def test_middle_of_path(self):
        sub, remap = induced_delete(path_graph(6), mask_from((2, 3)))
        assert sub.n == 4
        assert sub.edges == ((0, 1), (2, 3))
        assert remap == {0: 0, 1: 1, 4: 2, 5: 3}

    def test_delete_nothing_is_identity(self):
        g = path_graph(6)
        sub, remap = induced_delete(g, 0)
        assert sub == g
        assert remap == {v: v for v in range(6)}

    def test_leaf_removal(self):
        sub, _ = induced_delete(path_graph(4), 1 << 0)
        assert sub.edges == ((0, 1), (1, 2))


@given(graphs(min_n=1))
def test_relabeled_preserves_degrees(g):
    perm = list(reversed(range(g.n)))
    h = relabeled(g, perm)
    assert sorted(g.degree(v) for v in range(g.n)) == sorted(
        h.degree(v) for v in range(h.n)
    )


def test_relabeled_rejects_a_non_permutation():
    with pytest.raises(ValueError):
        relabeled(Graph.from_edges(3, [(0, 1), (1, 2)]), [0, 1, 1])


def test_bit_helpers():
    assert bit_list(mask_from([5, 1, 3])) == [1, 3, 5]
    assert bit_list(0) == []
