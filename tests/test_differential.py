"""The library's searches against the earlier implementations in
tests/reference.py: same refutation witness, same canonical sequence and
same certificate, on every small free tree and on seeded random trees."""

import math
import random

from vedom.constructions import expand_backbone
from vedom.freetrees import canonical_form, enumerate_free_trees, pruefer_to_tree
from vedom.graph import relabeled
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
