"""The library's searches against the earlier implementations in
tests/reference.py: same refutation witness, same canonical sequence and
same certificate, on every small free tree and on seeded random trees; and
the same minimal ve-dominating sets, in the same order, as the oracle's
earlier generate-then-filter search, on graphs past the 16-vertex cap of the
exhaustive sweep."""

import itertools
import math
import random

from vedom.constructions import CnfInstance, expand_backbone, path_graph, sat_to_graph
from vedom.domination import enumerate_minimal_ve_dominating_sets
from vedom.freetrees import canonical_form, enumerate_free_trees, pruefer_to_tree
from vedom.graph import Graph, relabeled
from vedom.recognizer import find_forbidden_configuration, recognize

from tests import reference


def _random_tree(rng: random.Random, lo: int, hi: int):
    """Pruefer tree with a log-uniform order in lo..hi, so every scale is
    sampled while the quadratic reference stays cheap on average."""
    n = round(math.exp(rng.uniform(math.log(lo), math.log(hi))))
    return pruefer_to_tree(n, [rng.randrange(n) for _ in range(n - 2)])


def _seeded_trees(count: int = 200, seed: int = 20251018):
    """Half random Pruefer trees of up to 400 vertices (nearly all rejected),
    half shuffled backbone expansions of such trees, up to 300 vertices
    (all accepted)."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        if i % 2:
            out.append(_random_tree(rng, 6, 400))
        else:
            t, _ = expand_backbone(_random_tree(rng, 3, 100))
            perm = list(range(t.n))
            rng.shuffle(perm)
            out.append(relabeled(t, perm))
    return out


def _assert_same_as_reference(t):
    assert find_forbidden_configuration(t) == reference.find_forbidden_configuration(t)
    assert canonical_form(t) == reference.canonical_form(t)
    result = recognize(t)
    expected = (
        reference.build_certificate(result.reduced_tree, result.partition)
        if result.partition is not None
        else None
    )
    assert result.certificate == expected
    return result.verdict


def test_free_trees_up_to_order_11_match_reference():
    for n in range(1, 12):
        for t in enumerate_free_trees(n):
            _assert_same_as_reference(t)


def test_seeded_random_trees_match_reference():
    trees = _seeded_trees()
    accepted = sum(_assert_same_as_reference(t) for t in trees)
    assert accepted >= len(trees) // 2
    assert max(t.n for t in trees) > 300


def _spider(rng: random.Random, n: int) -> Graph:
    """Three to five legs of random lengths joined at vertex 0."""
    legs = [1] * rng.randint(3, 5)
    for _ in range(n - 1 - len(legs)):
        legs[rng.randrange(len(legs))] += 1
    edges = []
    for length in legs:
        prev = 0
        for _ in range(length):
            edges.append((prev, len(edges) + 1))
            prev = len(edges)
    return Graph.from_edges(n, edges)


def _caterpillar(rng: random.Random, n: int) -> Graph:
    spine = rng.randint(n // 3, n // 2)
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(rng.randrange(spine), v) for v in range(spine, n)]
    return Graph.from_edges(n, edges)


def _sparse_graph(rng: random.Random, n: int, extra: int) -> Graph:
    """A random tree plus extra random edges, so cycles are covered too."""
    edges = set(_random_tree(rng, n, n).edges)
    while len(edges) < n - 1 + extra:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return Graph.from_edges(n, sorted(edges))


def test_oracle_matches_cover_generation_past_exhaustion():
    rng = random.Random(20251019)
    graphs = [path_graph(n) for n in (17, 18, 19)]
    for n in range(17, 21):
        graphs += [_spider(rng, n), _caterpillar(rng, n), _sparse_graph(rng, n, rng.randint(2, 4))]
    for g in graphs:
        assert enumerate_minimal_ve_dominating_sets(g) == reference.minimal_sets_by_covers(g)


def test_bounded_oracle_matches_cover_generation_on_sat_gadgets():
    formulas = [
        # every sign pattern over three variables: unsatisfiable
        CnfInstance(3, tuple(itertools.product((1, -1), (2, -2), (3, -3)))),
        CnfInstance(3, ((1, 2, 3), (-1, -2, 3), (1, -2, -3), (-1, 2, -3), (1, 2, -3))),
        CnfInstance(4, ((1, 2, -3), (-1, 3, 4), (-2, -3, -4))),
        CnfInstance(4, ((1, -2, 3), (-1, 2, 4), (2, -3, -4), (-1, -2, -4), (1, 3, 4), (-2, 3, -4))),
    ]
    for f in formulas:
        g = sat_to_graph(f).graph
        for bound in (2 * f.variable_count, 2 * f.variable_count + 1):
            expected = reference.minimal_sets_by_covers(g, bound)
            assert enumerate_minimal_ve_dominating_sets(g, size_bound=bound) == expected
