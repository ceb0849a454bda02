"""The library's searches against the earlier implementations in
tests/reference.py: same refutation witness, same canonical sequence and
same certificate, on every small free tree and on seeded random trees; the
same rooted sequences and the same free trees, labels and order included,
as the earlier generator, the same two-centroid keep decisions as its
rule that re-rooted each sequence, and on larger orders trees that are
their own canonical forms, each class once; the
same certificate check on every vertex set of every small tree; and the
same minimal ve-dominating sets, in the same order, as the oracle's earlier
generate-then-filter search, on graphs past the 16-vertex cap of the
exhaustive sweep; and the same oracle report, witnesses included, as the
earlier report that sorted the sets before tallying them, and the same
dominated-edge masks as the earlier mask rule; and the same
reduction map and induced subgraph as the earlier code that rebuilt each
graph through ``Graph.from_edges``, whose result the unchecked
``Graph._build`` also matches; the same edges as the earlier two-pass
parser, and its error on the shortest prefix it rejects; and the same
unit partition or refutation,
and the same reducedness verdict, as the earlier set-based code; the same
recognition result, every field, as the earlier ``recognize`` that built
its result in three places; and the same tree from every level sequence
as the earlier builder with its own adjacency loop; and the same verdict
as the earlier field-by-field partition validator on every leaf-ordered
set of pendant units of every free tree of order 6 to 15 divisible by 3,
and on mutations of seeded expansions' partitions."""

import itertools
import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vedom import domination
from vedom.constructions import CnfInstance, expand_backbone, path_graph, sat_to_graph
from vedom.domination import (
    dominated_edge_masks,
    enumerate_minimal_ve_dominating_sets,
    is_well_ve_dominated,
    oracle_report,
)
from vedom.freetrees import (
    FREE_TREE_COUNTS,
    _sequences,
    canonical_form,
    enumerate_free_trees,
    level_sequence_to_graph,
)
from vedom.graph import Graph, GraphFormatError, _parse_edge_list, induced_delete, mask_from
from vedom.harness import _components_without, _qualifying_cut_edges, _qualifying_cut_vertices
from vedom.recognizer import (
    InvalidPartitionError,
    Refutation,
    UnitPartition,
    build_certificate,
    find_forbidden_configuration,
    recognize,
    unit_partition,
    validate_unit_partition,
    verify_certificate,
)
from vedom.reduction import is_reduced, reduce_graph

from tests import reference
from tests.strategies import graphs, permutations_of, pruefer_to_tree, relabeled


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
            assert is_well_ve_dominated(t) == reference.oracle_report(t).is_well_ve_dominated


def test_free_trees_up_to_order_13_match_reference_generator():
    for n in range(1, 14):
        assert list(enumerate_free_trees(n)) == list(reference.enumerate_free_trees(n))


def test_level_sequence_builder_matches_reference():
    for n in range(1, 13):
        for seq in reference.rooted_level_sequences(n):
            assert level_sequence_to_graph(seq) == reference.level_sequence_to_graph(seq)
    assert level_sequence_to_graph(()) == reference.level_sequence_to_graph(()) == Graph(0, (), ())


def test_free_trees_of_orders_14_to_16_are_their_canonical_forms():
    """Past the reference generator's orders: each tree's canonical form
    is strictly below the one before it, so no class repeats, the tree is
    the graph built from that form, and the counts are the known ones."""
    for n in range(14, 17):
        forms = []
        for t in enumerate_free_trees(n):
            form = reference.canonical_form(t)
            assert not forms or form < forms[-1]
            assert t == reference.level_sequence_to_graph(form)
            forms.append(form)
        assert len(forms) == FREE_TREE_COUNTS[n - 1]


def test_two_centroid_rule_matches_rerooting_reference():
    """The generator keeps a two-centroid sequence when the rest of the tree,
    rooted at the root, is at most the first child subtree, rooted at that
    child; the earlier rule kept it when it was at least the reference's
    sequence re-rooted at the other centroid.  Both agree on every
    two-centroid sequence of every even order up to 16."""
    two_centroid = 0
    for n in range(2, 17, 2):
        for seq, big in _sequences(n):
            if 2 * big == n:
                two_centroid += 1
                kept = seq[:1] + seq[big + 1 :] <= [lvl - 1 for lvl in seq[1 : big + 1]]
                assert kept == (seq >= reference.rerooted(seq)), seq
    # the squares of the rooted-tree counts of orders 1..8
    assert two_centroid == 16032


def test_seeded_random_trees_match_reference():
    trees = _seeded_trees()
    accepted = sum(_assert_same_as_reference(t) for t in trees)
    assert accepted >= len(trees) // 2
    assert max(t.n for t in trees) > 300


def _recursive_tree(rng: random.Random, n: int) -> Graph:
    """Every vertex after the first joins a uniformly chosen earlier one: a
    shallow tree, so the cubic reference search stays cheap at this size."""
    return Graph.from_edges(n, [(rng.randrange(v), v) for v in range(1, n)])


def _planted(rng: random.Random, k: int, tail: int) -> tuple[Graph, Graph]:
    """A shuffled backbone expansion of order 3k, and the same tree with a
    path of ``tail`` new vertices hung off one backbone vertex.  A tail of 1,
    2 or 4 plants forbidden pattern i, ii or iii."""
    t, partition = expand_backbone(_recursive_tree(rng, k))
    perm = list(range(t.n))
    rng.shuffle(perm)
    t = relabeled(t, perm)
    edges = list(t.edges)
    prev = perm[partition.units[rng.randrange(k)][2]]
    for v in range(t.n, t.n + tail):
        edges.append((prev, v))
        prev = v
    return t, Graph.from_edges(t.n + tail, edges)


def _large_seeded_trees() -> tuple[list[tuple[Graph, Graph]], Graph]:
    """Accepted trees of orders 600, 990 and 1500, each with a path planted
    that makes forbidden pattern iii, ii or i, and a random 500-vertex tree."""
    rng = random.Random(20251020)
    pairs = [_planted(rng, k, tail) for k, tail in ((200, 4), (330, 2), (500, 1))]
    return pairs, _random_tree(rng, 500, 500)


def test_large_seeded_trees_match_reference():
    pairs, random_tree = _large_seeded_trees()
    witnesses = []
    for t, planted in pairs:
        result = recognize(t)
        assert verify_certificate(t, result.certificate) == reference.verify_certificate(
            t, result.certificate
        )
        found = find_forbidden_configuration(planted)
        assert found == reference.find_forbidden_configuration(planted)
        witnesses.append(found[0])
    found = find_forbidden_configuration(random_tree)
    assert found == reference.find_forbidden_configuration(random_tree)
    assert witnesses == ["iii", "ii", "i"]


def test_recognize_matches_reference():
    """Every field of the result, on all free trees up to order 13, the
    seeded random trees and the large planted ones: both accepting cases,
    all three forbidden paths and three structural refutations occur."""
    pairs, random_tree = _large_seeded_trees()
    trees = [t for n in range(1, 14) for t in enumerate_free_trees(n)]
    trees += _seeded_trees() + [t for pair in pairs for t in pair] + [random_tree]
    outcomes = set()
    for t in trees:
        result = recognize(t)
        assert result == reference.recognize(t)
        outcomes.add(result.refutation.reason if result.refutation else result.case)
    assert outcomes == {
        "T1", "T2", "forbidden-path(i)", "forbidden-path(ii)", "forbidden-path(iii)",
        "order-not-3n", "bad-leaf", "w-multiplicity",
    }


@st.composite
def _graph_and_mask(draw):
    g = draw(graphs(max_n=12))
    return g, draw(st.integers(min_value=0, max_value=(1 << g.n) - 1))


def test_certificate_check_matches_reference_on_every_mask_of_small_trees():
    """All 7,822 pairs of a free tree up to order 8 and a vertex set of it."""
    pairs = 0
    for n in range(1, 9):
        for t in enumerate_free_trees(n):
            for mask in range(1 << n):
                assert verify_certificate(t, mask) == reference.verify_certificate(t, mask)
                pairs += 1
    assert pairs == 7822


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


_GADGET_FORMULAS = [
    # every sign pattern over three variables: unsatisfiable
    CnfInstance(3, tuple(itertools.product((1, -1), (2, -2), (3, -3)))),
    CnfInstance(3, ((1, 2, 3),)),
    CnfInstance(3, ((1, 2, 3), (-1, -2, 3), (1, -2, -3), (-1, 2, -3), (1, 2, -3))),
    CnfInstance(4, ((1, 2, -3), (-1, 3, 4), (-2, -3, -4))),
    CnfInstance(4, ((1, -2, 3), (-1, 2, 4), (2, -3, -4), (-1, -2, -4), (1, 3, 4), (-2, 3, -4))),
]


def test_bounded_oracle_matches_cover_generation_on_sat_gadgets():
    """Sets and reports at bounds 2n and 2n + 1.  Bound 2n is each gadget's
    gamma_ve, so the search reaches the level where one pick is left and
    takes the last picks in bulk.  At bound 2n the unsatisfiable
    gadget's report has no independent set, so i_ve and beta_ve are None."""
    without_independent = 0
    for f in _GADGET_FORMULAS:
        g = sat_to_graph(f).graph
        for bound in (2 * f.variable_count, 2 * f.variable_count + 1):
            expected = reference.minimal_sets_by_covers(g, bound)
            assert enumerate_minimal_ve_dominating_sets(g, size_bound=bound) == expected
            got = oracle_report(g, size_bound=bound).to_json_dict()
            assert got == reference.oracle_report(g, bound).to_json_dict()
            assert got["gamma_ve"] == 2 * f.variable_count
            without_independent += got["i_ve"] is None
    assert without_independent == 1


def test_gadget_equals_checked_build():
    """sat_to_graph builds unchecked; its graph is the one the checked
    Graph.from_edges builds from the same edges."""
    for f in _GADGET_FORMULAS:
        g = sat_to_graph(f).graph
        assert g == Graph.from_edges(g.n, g.edges)


def _random_graphs(count: int = 300, seed: int = 20251021, max_n: int = 14) -> list[Graph]:
    """Graphs of 0 to max_n vertices, each edge present with a probability
    drawn per graph, so sparse trees-like and dense graphs both occur."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(0, max_n)
        p = rng.uniform(0.1, 0.6)
        pairs = itertools.combinations(range(n), 2)
        out.append(Graph.from_edges(n, [e for e in pairs if rng.random() < p]))
    return out


def _nested_graphs(seed: int = 20261019) -> list[Graph]:
    """Graphs whose closed neighbourhoods nest, N[w] <= N[v] <= N[u], and
    whose adjacent vertices are often true twins, so the oracle keeps far
    fewer dominator sets than edges: K_2 to K_8, and seeded threshold
    graphs, split graphs and cliques with pendant vertices of 3 to 12
    vertices."""
    rng = random.Random(seed)
    out = [Graph.from_edges(n, itertools.combinations(range(n), 2)) for n in range(2, 9)]
    for _ in range(10):
        n = rng.randint(3, 12)
        # each vertex joins all earlier ones or none of them
        out.append(Graph.from_edges(n, [(u, v) for v in range(n) if rng.random() < 0.6 for u in range(v)]))
        k = rng.randint(2, n - 1)
        clique = list(itertools.combinations(range(k), 2))
        out.append(Graph.from_edges(n, clique + [
            (u, v) for v in range(k, n) for u in range(k) if rng.random() < 0.5
        ]))
        out.append(Graph.from_edges(n, clique + [(rng.randrange(k), v) for v in range(k, n)]))
    return out


def _kept_family(g: Graph) -> list[int]:
    """The dominator sets the oracle's search keeps for g, in search order,
    read off its frame as it returns; bound 0 builds them and searches
    nothing, and an edgeless graph keeps none."""
    kept = []

    def profile(frame, event, arg):
        if event == "return" and frame.f_code is domination._search.__code__:
            kept.extend(frame.f_locals.get("family", ()))

    sys.setprofile(profile)
    try:
        enumerate_minimal_ve_dominating_sets(g, size_bound=0)
    finally:
        sys.setprofile(None)
    return kept


def test_kept_dominator_sets_have_the_edges_transversals():
    """The kept sets are distinct dominator sets N[a] | N[b] of edges,
    smallest first, and every edge's dominator set contains one, so both
    families have the same minimal transversals.  A gadget keeps 3n + m
    sets: the 2n pendant sets N[y] and N[w], the n sets N[u] | N[u'] of the
    (u, u') edges and the m clause neighbourhoods."""
    gadgets = [sat_to_graph(f).graph for f in _GADGET_FORMULAS]
    for g in _nested_graphs() + _random_graphs(60) + gadgets:
        closed = [mask_from((v, *g.adj[v])) for v in range(g.n)]
        dominators = {closed[a] | closed[b] for a, b in g.edges}
        kept = _kept_family(g)
        assert len(set(kept)) == len(kept) and set(kept) <= dominators
        assert [s.bit_count() for s in kept] == sorted(s.bit_count() for s in kept)
        assert all(any(s & d == s for s in kept) for d in dominators)
    for f, g in zip(_GADGET_FORMULAS, gadgets):
        assert len(_kept_family(g)) == 3 * f.variable_count + len(f.clauses)


def _report_or_error(report, g, bound):
    try:
        return report(g, size_bound=bound).to_json_dict()
    except ValueError as exc:
        return str(exc)


def test_streamed_report_matches_reference_on_random_graphs():
    """Full and bounded reports, witnesses included; a bound below gamma_ve
    raises the same error in both.  At bound gamma_ve the last pick must
    complete the cover, and at gamma_ve + 1 the picks before it must leave
    room for it.  The nested graphs are where the oracle keeps fewer
    dominator sets than edges."""
    graphs = _random_graphs() + _nested_graphs()
    verdicts = []
    bounded = []
    for g in graphs:
        rep = oracle_report(g)
        assert rep.to_json_dict() == reference.oracle_report(g).to_json_dict()
        assert is_well_ve_dominated(g) == rep.is_well_ve_dominated
        verdicts.append(rep.is_well_ve_dominated)
        for bound in (0, 1, 2, 3, rep.gamma_ve, rep.gamma_ve + 1):
            got = _report_or_error(oracle_report, g, bound)
            assert got == _report_or_error(reference.oracle_report, g, bound)
            bounded.append("error" if isinstance(got, str) else got["i_ve"] is None)
    assert max(g.n for g in graphs) == 14
    assert True in verdicts and False in verdicts
    assert {"error", True, False} <= set(bounded)


def test_bounded_search_matches_reference_at_every_bound():
    """Sets and reports, witnesses included, at every bound from 0 to n; a
    bound below gamma_ve gives the same error from both.  Each bound puts
    the bulk last pick at another depth of the search, and the batches there
    hold picks that would leave a member no private set, picks adjacent to a
    member, and both kinds of report without an independent set."""
    graphs = _random_graphs(180, max_n=12) + _nested_graphs()
    bounded = []
    for g in graphs:
        for bound in range(g.n + 1):
            expected = reference.minimal_sets_by_covers(g, bound)
            assert enumerate_minimal_ve_dominating_sets(g, bound) == expected
            got = _report_or_error(oracle_report, g, bound)
            assert got == _report_or_error(reference.oracle_report, g, bound)
            bounded.append("error" if isinstance(got, str) else got["i_ve"] is None)
    assert {"error", True, False} <= set(bounded)


def test_masks_match_reference():
    """The library's dominated-edge masks against the earlier rule, which
    the reference searches build for themselves."""
    graphs = [t for n in range(1, 11) for t in enumerate_free_trees(n)]
    graphs += _random_graphs()
    graphs += [Graph.from_edges(n + 1, [(0, i) for i in range(1, n + 1)]) for n in range(1, 41)]
    graphs += [sat_to_graph(f).graph for f in _GADGET_FORMULAS]
    for g in graphs:
        assert dominated_edge_masks(g) == reference.dominated_edge_masks(g)


def _assert_reduction_matches_reference(g):
    """Every ReductionMap field, the reduced Graph's n, adj and edges
    included, as the earlier reduction gives it."""
    assert reduce_graph(g) == reference.reduce_graph(g)


def _twin_leaf_tree(rng: random.Random, k: int) -> Graph:
    """A shuffled backbone expansion of order 3k with k // 6 + 1 extra
    leaves, each a twin of the leaf on a random support."""
    t, partition = expand_backbone(_recursive_tree(rng, k))
    n = t.n + k // 6 + 1
    edges = list(t.edges)
    for v in range(t.n, n):
        edges.append((partition.units[rng.randrange(k)][1], v))
    perm = list(range(n))
    rng.shuffle(perm)
    return relabeled(Graph.from_edges(n, edges), perm)


def test_reduction_matches_reference_on_trees():
    for n in range(1, 12):
        for t in enumerate_free_trees(n):
            _assert_reduction_matches_reference(t)
    rng = random.Random(20251022)
    trees = [_twin_leaf_tree(rng, k) for k in (2, 5, 30, 200, 1000)]
    trees += [_random_tree(rng, 6, 3000) for _ in range(5)]
    for t in trees:
        _assert_reduction_matches_reference(t)
    assert max(t.n for t in trees) > 3000
    for empty_or_p1 in (Graph.from_edges(0, []), Graph.from_edges(1, [])):
        _assert_reduction_matches_reference(empty_or_p1)


@st.composite
def _graphs_with_twins(draw):
    """A small graph with copies of some of its vertices, each copy taking
    its original's open neighbourhood, relabelled at random; the twin
    classes this makes are of any degree, not only leaves."""
    g = draw(graphs(max_n=7))
    edges, n = list(g.edges), g.n
    for v in draw(st.lists(st.integers(0, g.n - 1), max_size=4)) if g.n else ():
        edges += [(u, n) for u in g.adj[v]]
        n += 1
    return relabeled(Graph.from_edges(n, edges), draw(permutations_of(n)))


@given(_graphs_with_twins())
@settings(max_examples=150, deadline=None)
def test_reduction_matches_reference_on_graphs_with_twins(g):
    _assert_reduction_matches_reference(g)


@given(st.integers(1, 4), st.integers(1, 4))
def test_reduction_matches_reference_on_complete_bipartite_graphs(a, b):
    """C_4 is K_{2,2}; each side is one twin class."""
    k_ab = Graph.from_edges(a + b, [(u, a + v) for u in range(a) for v in range(b)])
    _assert_reduction_matches_reference(k_ab)
    assert reduce_graph(k_ab).reduced_graph.n == 2


@given(_graph_and_mask())
@settings(max_examples=100, deadline=None)
def test_induced_delete_matches_reference(case):
    g, removed = case
    assert induced_delete(g, removed) == reference.induced_delete(g, removed)


def test_qualifying_cuts_match_reference():
    for n in range(1, 13):
        for t in enumerate_free_trees(n):
            assert _qualifying_cut_edges(t) == reference.qualifying_cut_edges(t)
            assert _qualifying_cut_vertices(t) == reference.qualifying_cut_vertices(t)


def test_cut_components_match_reference_on_every_tree_up_to_order_10():
    """The components of t minus every edge's ends and minus every vertex,
    not only the lemma suite's qualifying cuts of well-ve-dominated trees,
    against the suite's earlier mask path; cuts leaving a component that is
    not well-ve-dominated occur, and others that leave none."""
    verdicts = set()
    for n in range(1, 11):
        for t in enumerate_free_trees(n):
            for cut in [*t.edges, *((c,) for c in range(t.n))]:
                components = list(_components_without(t, cut))
                assert components == reference.components_without(t, mask_from(cut))
                verdicts.add(all(map(is_well_ve_dominated, components)))
    assert verdicts == {True, False}


def test_certificate_matches_reference_on_every_t2_tree_up_to_order_15():
    """build_certificate colours by depth parity in a walk of the whole
    tree, the reference by a walk of the backbone subtree alone."""
    checked = 0
    for n in range(1, 16):
        for t in enumerate_free_trees(n):
            result = recognize(t)
            if result.case == "T2":
                t2, p = result.reduced_tree, result.partition
                assert build_certificate(t2, p) == reference.build_certificate(t2, p)
                checked += 1
    assert checked == 116  # of the 131 accepted trees; the other 15 are T1


def test_certificate_matches_reference_on_seeded_expansions():
    """Shuffled backbone expansions of 6 to 9,999 vertices, so the minimum
    backbone vertex, where both colourings start, falls anywhere."""
    rng = random.Random(20251026)
    backbones = [_random_tree(rng, 2, 3333) for _ in range(34)]
    backbones.append(pruefer_to_tree(3333, [rng.randrange(3333) for _ in range(3331)]))
    for r in backbones:
        t, _ = expand_backbone(r)
        perm = list(range(t.n))
        rng.shuffle(perm)
        t = relabeled(t, perm)
        p = unit_partition(t)
        assert build_certificate(t, p) == reference.build_certificate(t, p)


@given(graphs(max_n=10), st.randoms(use_true_random=False))
def test_unchecked_constructor_matches_from_edges(g, rnd):
    """Valid edges in any order, and for from_edges in either orientation."""
    edges = list(g.edges)
    rnd.shuffle(edges)
    flipped = [(v, u) if rnd.random() < 0.5 else (u, v) for u, v in edges]
    assert Graph._build(g.n, edges) == Graph.from_edges(g.n, flipped) == g


def _outcome(fn, *args):
    """fn's result, or the type and message of the error it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


_edge_line = st.tuples(st.integers(-1, 8), st.integers(-1, 8)).map("{0[0]} {0[1]}".format)
_format_error_line = st.sampled_from(["n 3", "n 9", "n", "1 2 3", "a b", "4", "-1 2", "5 5", "n x"])
_harmless_line = st.sampled_from(["", "   ", "# comment", " # 1 2"])


@st.composite
def _edge_documents(draw):
    """Edge lines over a small index range (so out-of-range and duplicate
    edges are common) after an optional count, then maybe a line that is a
    format error, such as a late directive, then more lines."""
    lines = draw(st.lists(st.one_of(_edge_line, _harmless_line), max_size=10))
    head = draw(st.one_of(st.just([]), st.integers(0, 6).map(lambda n: [f"n {n}"])))
    tail = draw(st.lists(st.one_of(_format_error_line, _edge_line, _harmless_line), max_size=4))
    return "\n".join(head + lines + tail) + draw(st.sampled_from(["", "\n"]))


def _first_fault(text: str):
    """The reference's error on the shortest prefix of text's lines that it
    rejects, with that prefix's length; None when it rejects none."""
    lines = text.splitlines()
    for k in range(1, len(lines) + 1):
        outcome = _outcome(reference.parse_edge_list, "\n".join(lines[:k]))
        if outcome[0] is GraphFormatError:
            return outcome, k
    return None


@given(_edge_documents())
@settings(max_examples=400)
def test_parser_matches_two_pass_reference(text):
    """The edges of a valid document and the error of a document with one
    fault are the reference's; with more faults, the error is the one the
    reference gives for the first faulty line.  A document has one fault
    when it is valid without its first faulty line."""
    got = _outcome(_parse_edge_list, text)
    first = _first_fault(text)
    if first is None:
        assert got == reference.parse_edge_list(text)
        return
    outcome, k = first
    assert got == outcome
    lines = text.splitlines()
    if _first_fault("\n".join(lines[: k - 1] + lines[k:])) is None:
        assert got == _outcome(reference.parse_edge_list, text)


def test_parser_raises_the_first_faulty_lines_error():
    """A range or duplicate error is raised on its own line, before a later
    format, range or duplicate error; the reference reports a later format
    error first."""
    cases = {
        "n 2\n0 5\nx y\n": "line 2: vertex index 5 exceeds declared count 2",
        "0 1\n1 0\nn 3\n": "line 2: duplicate edge (0, 1)",
        "n 2\n0 5\n0 1\n0 1\n": "line 2: vertex index 5 exceeds declared count 2",
        "n 4\n0 1\n1 0\n0 9\n": "line 3: duplicate edge (0, 1)",
    }
    for text, message in cases.items():
        assert _outcome(_parse_edge_list, text) == (GraphFormatError, message)
    assert _outcome(reference.parse_edge_list, "n 2\n0 5\nx y\n")[1].startswith("line 3:")
    assert _outcome(reference.parse_edge_list, "0 1\n1 0\nn 3\n")[1].startswith("line 3:")


def _assert_partition_matches_reference(t) -> object:
    """is_reduced on t and on its reduction, then unit_partition on the
    reduction when it has at least 6 vertices; returns the partition
    outcome, or None."""
    assert is_reduced(t) == reference.is_reduced(t)
    red = reduce_graph(t).reduced_graph
    assert is_reduced(red) and reference.is_reduced(red)
    assert _outcome(unit_partition, t) == _outcome(reference.unit_partition, t)
    if red.n < 6:
        return None
    got = _outcome(unit_partition, red)
    assert got == _outcome(reference.unit_partition, red)
    return got


def _kind(outcome) -> str:
    return outcome.reason if isinstance(outcome, Refutation) else type(outcome).__name__


def test_unit_partition_matches_reference_on_free_trees():
    kinds = set()
    for n in range(1, 13):
        for t in enumerate_free_trees(n):
            outcome = _assert_partition_matches_reference(t)
            if outcome is not None:
                kinds.add(_kind(outcome))
    assert kinds == {"UnitPartition", "bad-leaf", "w-multiplicity"}


def test_unit_partition_matches_reference_on_large_trees():
    rng = random.Random(20251023)
    trees = [_random_tree(rng, 6, 3000) for _ in range(6)]
    trees += [_twin_leaf_tree(rng, k) for k in (2, 7, 40, 300, 1000)]
    for k in (3, 50, 400, 1000):
        trees += _planted(rng, k, rng.choice((1, 2, 4)))
    kinds = [_kind(_assert_partition_matches_reference(t)) for t in trees]
    assert max(t.n for t in trees) >= 3000
    assert {"UnitPartition", "bad-leaf", "w-multiplicity"} <= set(kinds)


def _candidate_units(t: Graph) -> list[tuple[int, int, int]]:
    """Each leaf's pendant path (leaf, support, w) through a degree-2
    support, in leaf order: the only units the earlier validator takes."""
    out = []
    for leaf, a in enumerate(t.adj):
        if len(a) == 1 and len(t.adj[a[0]]) == 2:
            s = a[0]
            out.append((leaf, s, sum(t.adj[s]) - leaf))  # s's other neighbour
    return out


def _implied_partition(t: Graph, units) -> UnitPartition:
    """units with the labels they give (later units overwrite earlier ones)
    and the edges between the vertices left W."""
    label = ["W"] * t.n
    for leaf, s, _ in units:
        label[leaf], label[s] = "L", "S"
    backbone = tuple((u, v) for u, v in t.edges if label[u] == label[v] == "W")
    return UnitPartition(tuple(units), tuple(label), backbone)


def test_partition_validator_accepts_what_the_reference_accepts_on_free_trees():
    """Every leaf-ordered set of n/3 candidate units, with the labels and
    backbone edges it implies, on every free tree of order 6, 9, 12 and 15:
    the validator accepts exactly the sets the earlier field-by-field one
    accepts.  The earlier one takes no other leaf-ordered partition, since
    its units cover every vertex and so fix every label and backbone edge.
    It accepts the unit partitions of the expansions of the 1 + 1 + 2 + 3
    free trees of orders 2 to 5, the reduced well-ve-dominated trees."""
    sets = accepted = 0
    for n in (6, 9, 12, 15):
        for t in enumerate_free_trees(n):
            for units in itertools.combinations(_candidate_units(t), n // 3):
                p = _implied_partition(t, units)
                verdict = _outcome(validate_unit_partition, t, p) is None
                assert verdict == (_outcome(reference.validate_unit_partition, t, p) is None)
                sets += 1
                accepted += verdict
    assert (accepted, sets) == (7, 293)


def _mutations(rng: random.Random, t: Graph, p: UnitPartition) -> list[UnitPartition]:
    """p with one label changed, one backbone edge dropped, one unit edge
    added to the backbone edges, and one unit's leaf and support swapped."""
    v = rng.randrange(t.n)
    label = list(p.label)
    label[v] = rng.choice([x for x in "LSW" if x != label[v]])
    dropped = list(p.backbone_edges)
    del dropped[rng.randrange(len(dropped))]
    extra = rng.choice([e for e in t.edges if e not in p.backbone_edges])
    units = list(p.units)
    i = rng.randrange(len(units))
    leaf, s, w = units[i]
    units[i] = (s, leaf, w)
    return [
        UnitPartition(p.units, tuple(label), p.backbone_edges),
        UnitPartition(p.units, p.label, tuple(dropped)),
        UnitPartition(p.units, p.label, tuple(sorted(p.backbone_edges + (extra,)))),
        UnitPartition(tuple(units), p.label, p.backbone_edges),
    ]


def test_partition_validators_reject_the_same_mutations_of_seeded_expansions():
    """Shuffled backbone expansions of 6 to 900 vertices: both validators
    take each partition as built and refuse each of its mutations."""
    rng = random.Random(20251104)
    for _ in range(40):
        t, _ = expand_backbone(_random_tree(rng, 2, 300))
        perm = list(range(t.n))
        rng.shuffle(perm)
        t = relabeled(t, perm)
        p = unit_partition(t)
        mutations = _mutations(rng, t, p)
        for validate in (validate_unit_partition, reference.validate_unit_partition):
            validate(t, p)
            for bad in mutations:
                with pytest.raises(InvalidPartitionError):
                    validate(t, bad)
