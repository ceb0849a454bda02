import itertools
import math
import random

import pytest

from vedom.freetrees import (
    FREE_TREE_COUNTS,
    _sequences,
    canonical_form,
    canonical_rooted_sequence,
    centroids,
    enumerate_free_trees,
    level_sequence_to_graph,
    trees_isomorphic,
)
from vedom.constructions import path_graph
from vedom.graph import _TREE, Graph, NotATreeError, is_tree

from tests import reference
from tests.strategies import pruefer_to_tree, relabeled, star

ROOTED_TREE_COUNTS = {1: 1, 2: 1, 3: 2, 4: 4, 5: 9, 6: 20, 7: 48, 8: 115}


def _read(seq: list[int], n: int) -> tuple[list[int], int]:
    """The level-2 starts and the largest child subtree, read off seq."""
    ends = [i for i, lvl in enumerate(seq) if lvl == 2] + [n]
    return ends[:-1], max(b - a for a, b in zip(ends, ends[1:]))


class TestRootedSequences:
    def test_counts(self):
        for n, expected in ROOTED_TREE_COUNTS.items():
            assert sum(1 for _ in reference.rooted_level_sequences(n)) == expected

    def test_first_is_path_last_is_star(self):
        seqs = list(reference.rooted_level_sequences(5))
        assert seqs[0] == (1, 2, 3, 4, 5)
        assert seqs[-1] == (1, 2, 2, 2, 2)

    def test_sequences_are_their_own_canonical_form(self):
        for n in range(1, 8):
            for seq in reference.rooted_level_sequences(n):
                g = level_sequence_to_graph(seq)
                assert canonical_rooted_sequence(g, 0) == seq

    def test_carried_starts_and_the_two_centroid_rule(self):
        """The largest subtree carried across successor steps equals the
        one read off each sequence afresh; with two centroids they are the
        root and the root of the subtree of n/2 vertices, the reference's
        re-rooted sequence is the canonical sequence at the other, and the
        rule that compares the tree's two halves keeps the sequence exactly
        when it is the canonical form.  No two-centroid sequence has a heavy
        first subtree, so all are met."""
        two_centroid = 0
        for n in range(2, 15):
            for seq, big in _sequences(n):
                starts, read_big = _read(seq, n)
                assert big == read_big
                if 2 * big != n:
                    continue
                two_centroid += 1
                g = level_sequence_to_graph(seq)
                ends = starts + [n]
                other = next(a for a, b in zip(ends, ends[1:]) if 2 * (b - a) == n)
                assert centroids(g) == [0, other]
                assert tuple(reference.rerooted(seq)) == canonical_rooted_sequence(g, other)
                kept = seq[:1] + seq[big + 1 :] <= [lvl - 1 for lvl in seq[1 : big + 1]]
                assert kept == (canonical_form(g) == tuple(seq))
        # a subtree of n/2 vertices joined to a root with n/2 - 1 more below it
        assert two_centroid == sum(ROOTED_TREE_COUNTS[k] ** 2 for k in range(1, 8))

    def test_skip_drops_exactly_the_sequences_with_a_heavy_first_subtree(self):
        """The generator yields the reference's rooted sequences, in order,
        minus those whose first child subtree has more than n/2 vertices."""
        for n in range(2, 15):
            light = [
                seq for seq in reference.rooted_level_sequences(n)
                if 2 * (next((i for i in range(2, n) if seq[i] == 2), n) - 1) <= n
            ]
            assert [tuple(seq) for seq, _ in _sequences(n)] == light
        assert sum(1 for _ in _sequences(12)) == 759
        assert sum(1 for _ in _sequences(15)) == 8810


class TestLevelSequenceToGraph:
    @pytest.mark.parametrize(
        "seq, message",
        [([1, 3], "vertex 1 has no earlier vertex at level 2"),
         ([1, 2, 0], "vertex 2 has no earlier vertex at level -1")],
    )
    def test_a_vertex_with_no_parent_is_named(self, seq, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            level_sequence_to_graph(seq)

    def test_empty_sequence_is_the_unrecorded_empty_graph(self):
        g = level_sequence_to_graph([])
        assert g == Graph(0, (), ()) and _TREE not in vars(g)
        assert not is_tree(g)


class TestFreeTreeEnumeration:
    def test_counts_match_known_sequence(self):
        """Orders 14-16 are counted by the canonical-form test of
        test_differential.py, and 1-15 by the acceptance sweep too."""
        for n in range(1, 14):
            assert sum(1 for _ in enumerate_free_trees(n)) == FREE_TREE_COUNTS[n - 1]

    def test_order_four(self):
        got = {canonical_form(t) for t in enumerate_free_trees(4)}
        assert got == {canonical_form(path_graph(4)), canonical_form(star(3))}

    def test_all_outputs_are_trees_of_right_order(self):
        for n in range(1, 9):
            for t in enumerate_free_trees(n):
                assert t.n == n and is_tree(Graph(t.n, t.adj, t.edges))  # not the recorded answer

    def test_no_duplicates_up_to_ten(self):
        for n in range(1, 11):
            forms = [canonical_form(t) for t in enumerate_free_trees(n)]
            assert len(forms) == len(set(forms))

    def test_census_is_complete_by_counting_labelings(self):
        """A free tree T of order n has n!/|Aut(T)| labelings, and Cayley's
        n^(n-2) labeled trees are all of them.  So trees of distinct codes
        whose labelings sum to n^(n-2) are every class exactly once."""
        for n in range(1, 15):
            trees = list(enumerate_free_trees(n))
            assert len({canonical_form(t) for t in trees}) == len(trees)
            labelings = sum(math.factorial(n) // reference.automorphism_count(t) for t in trees)
            assert labelings == n ** (n - 2)

    def test_canonical_form_is_invariant_under_relabeling(self):
        """Distinct codes are distinct classes only if every labeling of a
        tree gets the same code; each tree up to order 12, five relabelings."""
        rng = random.Random(20261020)
        for n in range(1, 13):
            for t in enumerate_free_trees(n):
                form = canonical_form(t)
                for _ in range(5):
                    perm = list(range(n))
                    rng.shuffle(perm)
                    assert canonical_form(relabeled(t, perm)) == form

    def test_deterministic_order(self):
        first = [t.edges for t in enumerate_free_trees(7)]
        second = [t.edges for t in enumerate_free_trees(7)]
        assert first == second

    def test_range_errors(self):
        for n in (0, 21):
            with pytest.raises(ValueError, match=r"^order must be in 1\.\.20$"):
                list(enumerate_free_trees(n))


def test_centroids_refuse_a_graph_with_tree_size_that_is_no_tree():
    """A triangle and an isolated vertex: n - 1 edges, one walk short.  The
    canonical form, read at the centroids, is refused the same way."""
    g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2)])
    for f in (centroids, canonical_form):
        with pytest.raises(NotATreeError, match="^centroids requires a tree$"):
            f(g)


class TestIsomorphism:
    def test_relabeled_tree_is_isomorphic(self):
        t = pruefer_to_tree(7, [0, 3, 3, 1, 5])
        assert trees_isomorphic(t, relabeled(t, list(reversed(range(7)))))

    def test_different_trees_are_not(self):
        assert not trees_isomorphic(path_graph(6), star(5))
        assert not trees_isomorphic(path_graph(4), star(3))

    def test_order_mismatch(self):
        assert not trees_isomorphic(path_graph(4), path_graph(5))


class TestDeepTrees:
    """Trees far deeper than the default recursion limit."""

    def test_long_path_is_isomorphic_to_itself(self):
        assert trees_isomorphic(path_graph(3000), path_graph(3000))

    def test_long_path_rooted_at_an_end(self):
        assert canonical_rooted_sequence(path_graph(3000), 0) == tuple(range(1, 3001))

    def test_long_path_is_not_a_spider(self):
        legs = (1000, 1000, 999)
        edges = []
        n = 1
        for length in legs:
            edges.append((0, n))
            edges += [(v, v + 1) for v in range(n, n + length - 1)]
            n += length
        spider = Graph.from_edges(n, edges)
        assert spider.n == 3000 and is_tree(spider)
        assert not trees_isomorphic(path_graph(3000), spider)


def test_pruefer_decoding_matches_reference():
    for n in range(3, 7):
        for seq in itertools.product(range(n), repeat=n - 2):
            assert pruefer_to_tree(n, list(seq)) == reference.pruefer_to_tree(n, list(seq))
