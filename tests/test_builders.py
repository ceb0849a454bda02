"""The graphs vedom builds itself skip the checked constructor: each
builder passes its (min, max) pairs to ``Graph._build`` and records the
result as a tree.  These tests hold every such builder to the checked
``Graph.from_edges`` of its own edges, adjacency included, and its record
to the traversal definition of a tree; they also check the expansions'
partitions, which ``expand_backbone`` builds unchecked, and that only
``vedom.graph`` calls the checked constructor, knows the record or cuts a
graph through vertex masks."""

import ast
import itertools
import math
import random
from pathlib import Path

import pytest

import vedom
from vedom import graph
from vedom.constructions import expand_backbone, path_graph, unit_cut_decompose, unit_cut_extend
from vedom.freetrees import enumerate_free_trees
from vedom.graph import Graph, has_tree_size, traverse
from vedom.recognizer import unit_partition, validate_unit_partition

from tests import reference
from tests.strategies import pruefer_to_tree


def _assert_checked_tree(g: Graph) -> None:
    """g equals the checked build of its edges, and its builder recorded it
    as a tree, which it is by the traversal definition."""
    checked = Graph.from_edges(g.n, g.edges)
    assert g == checked and g.adj == checked.adj
    assert vars(g).get(graph._TREE) is True
    fresh = Graph(g.n, g.adj, g.edges)
    assert has_tree_size(fresh.n, len(fresh.edges)) and len(traverse(fresh, 0)[0]) == fresh.n


def _seeded_backbones(count: int = 12, seed: int = 1901) -> list[Graph]:
    """Pruefer trees with log-uniform orders in 2..3000."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = round(math.exp(rng.uniform(math.log(2), math.log(3000))))
        out.append(pruefer_to_tree(n, [rng.randrange(n) for _ in range(n - 2)]))
    return out + [pruefer_to_tree(3000, [rng.randrange(3000) for _ in range(2998)])]


_SMALL_BACKBONES = [r for n in range(2, 10) for r in enumerate_free_trees(n)]


class TestBuildersMatchTheCheckedConstructor:
    def test_every_pruefer_sequence_of_orders_2_to_7(self):
        for n in range(2, 8):
            for seq in itertools.product(range(n), repeat=n - 2):
                _assert_checked_tree(pruefer_to_tree(n, list(seq)))

    def test_seeded_pruefer_trees_up_to_3000_vertices(self):
        backbones = _seeded_backbones()
        assert max(r.n for r in backbones) == 3000
        for r in backbones:
            _assert_checked_tree(r)

    def test_paths(self):
        for n in range(1, 51):
            _assert_checked_tree(path_graph(n))

    def test_expansions_extensions_and_cut_sides_of_every_backbone_of_order_2_to_9(self):
        six, six_p = expand_backbone(path_graph(2))
        for r in _SMALL_BACKBONES:
            t, p = expand_backbone(r)
            _assert_checked_tree(t)
            for u in range(r.n):
                _assert_checked_tree(unit_cut_extend(t, p, u, six, six_p, 1))
            _assert_checked_tree(unit_cut_extend(t, p, r.n - 1, t, p, 0))
            for body in unit_cut_decompose(t, p):
                _assert_checked_tree(body)
            for e in p.backbone_edges:
                sides = unit_cut_decompose(t, p, edge=e)
                assert sides == reference.unit_cut_sides(t, e)
                for side in sides:
                    _assert_checked_tree(side)

    def test_cut_sides_of_seeded_expansions(self):
        rng = random.Random(1902)
        for r in _seeded_backbones(count=6):
            t, p = expand_backbone(r)
            for e in rng.sample(p.backbone_edges, min(3, len(p.backbone_edges))):
                sides = unit_cut_decompose(t, p, edge=e)
                assert sides == reference.unit_cut_sides(t, e)
                for side in sides:
                    _assert_checked_tree(side)

    @pytest.mark.parametrize(
        "n, seq", [(4, []), (4, [0, 1, 2]), (4, [0, 4]), (4, [-1, 0]), (1, []), (0, [])]
    )
    def test_pruefer_decoding_refuses_what_is_not_a_sequence_of_a_tree(self, n, seq):
        with pytest.raises(ValueError, match=f"^not a Pruefer sequence of a tree on {n} vertices$"):
            pruefer_to_tree(n, seq)


@pytest.mark.parametrize(
    "backbones",
    [_SMALL_BACKBONES, _seeded_backbones()],
    ids=["every-free-tree-of-order-2-to-9", "seeded-pruefer-up-to-3000"],
)
def test_expansion_partitions_are_valid_and_are_the_recognizers(backbones):
    """expand_backbone builds its partition unchecked, so it is checked here."""
    for r in backbones:
        t, p = expand_backbone(r)
        validate_unit_partition(t, p)
        assert unit_partition(t) == p


def _module_names() -> dict[str, set[str]]:
    """Per vedom module, the names it reads, defines an attribute or imports,
    and "call f" for each function f it calls by name or attribute."""
    out = {}
    for path in sorted(Path(vedom.__file__).parent.glob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                names.add(f"call {getattr(func, 'attr', getattr(func, 'id', ''))}")
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        out[path.name] = names
    return out


def test_only_graph_calls_the_checked_constructor_or_knows_the_tree_record():
    """No vedom module calls Graph.from_edges, the door for edge lists from
    outside, and no module but vedom.graph names the tree record's key."""
    for name, names in _module_names().items():
        assert "call from_edges" not in names, name
        if name != "graph.py":
            assert "_TREE" not in names, name


def test_only_graph_cuts_a_graph_through_vertex_masks():
    """Outside vedom.graph, a part of a graph is taken by a walk over a seen
    list marked beforehand and built with graph._induced: no other module
    calls induced_delete or connected_components, which stay public."""
    for name, names in _module_names().items():
        if name != "graph.py":
            assert not {"call induced_delete", "call connected_components"} & names, name
