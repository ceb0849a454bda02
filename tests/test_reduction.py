from hypothesis import given, settings

from vedom import graph as graph_module
from vedom import reduction
from vedom.constructions import path_graph
from vedom.domination import oracle_report
from vedom.freetrees import enumerate_free_trees, trees_isomorphic
from vedom.graph import Graph
from vedom.reduction import is_reduced, neighborhood_classes, reduce_graph

from tests.strategies import graphs, star, trees


class TestNeighborhoodClasses:
    def test_star_collapses_leaves(self):
        assert neighborhood_classes(star(3)) == [[0], [1, 2, 3]]

    def test_path_three(self):
        assert neighborhood_classes(path_graph(3)) == [[0, 2], [1]]

    def test_path_six_all_singletons(self):
        assert neighborhood_classes(path_graph(6)) == [[v] for v in range(6)]


class TestIsReduced:
    def test_path_six(self):
        assert is_reduced(path_graph(6))

    def test_path_three_is_not(self):
        assert not is_reduced(path_graph(3))

    def test_single_vertex(self):
        assert is_reduced(path_graph(1))


class TestReduce:
    def test_path_three_to_edge(self):
        rmap = reduce_graph(path_graph(3))
        assert rmap.reduced_graph.n == 2
        assert rmap.reduced_graph.edges == ((0, 1),)

    def test_big_star_to_edge(self):
        rmap = reduce_graph(star(5))
        assert trees_isomorphic(rmap.reduced_graph, path_graph(2))

    def test_reduced_input_is_fixed_point(self):
        p6 = path_graph(6)
        rmap = reduce_graph(p6)
        assert rmap.reduced_graph is p6
        assert rmap.to_reduced == tuple(range(6))

    def test_representatives_are_minimum_members(self):
        rmap = reduce_graph(star(3))
        assert rmap.representatives == (0, 1)
        assert rmap.to_reduced == (0, 1, 1, 1)

    def test_to_reduced_sends_twins_together(self):
        rmap = reduce_graph(star(3))
        assert rmap.to_reduced[1] == rmap.to_reduced[2] == rmap.to_reduced[3]

    def test_renames_without_rebuilding(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("reduced graph rebuilt")

        c4_with_twin_leaves = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 4), (1, 5)])
        monkeypatch.setattr(Graph, "from_edges", staticmethod(forbidden))
        monkeypatch.setattr(graph_module, "induced_delete", forbidden)
        monkeypatch.setattr(reduction, "induced_delete", forbidden, raising=False)  # if imported
        rmap = reduce_graph(c4_with_twin_leaves)
        assert rmap.to_reduced == (0, 1, 0, 2, 3, 3)
        assert rmap.reduced_graph.edges == ((0, 1), (0, 2), (1, 3))


@given(graphs())
@settings(max_examples=80)
def test_reduce_is_idempotent(g):
    reduced = reduce_graph(g).reduced_graph
    assert is_reduced(reduced)
    assert reduce_graph(reduced).reduced_graph == reduced


@given(trees(max_n=9))
@settings(max_examples=50)
def test_verdict_transport_on_trees(t):
    reduced = reduce_graph(t).reduced_graph
    assert (
        oracle_report(t).is_well_ve_dominated
        == oracle_report(reduced).is_well_ve_dominated
    )


def test_transport_star_example():
    # duplicating the pendant leaf of a 3-path gives the 3-star; both reduce
    # to a single edge and all three agree on the verdict
    k13 = star(3)
    assert oracle_report(k13).is_well_ve_dominated
    assert oracle_report(reduce_graph(k13).reduced_graph).is_well_ve_dominated
    assert oracle_report(path_graph(2)).is_well_ve_dominated


def test_nonsingleton_classes_in_trees_are_leaf_groups():
    for n in range(2, 10):
        for t in enumerate_free_trees(n):
            for cls in neighborhood_classes(t):
                if len(cls) > 1:
                    assert all(t.degree(v) == 1 for v in cls)
