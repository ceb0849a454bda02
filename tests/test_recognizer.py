import random
import sys

import pytest
from hypothesis import given, settings

import vedom.cli
import vedom.domination
import vedom.graph
import vedom.recognizer
from vedom.constructions import expand_backbone, parse_dimacs_cnf, path_graph
from vedom.domination import is_minimal_ve_dominating, oracle_report
from vedom.freetrees import enumerate_free_trees, trees_isomorphic
from vedom.graph import (
    Graph,
    GraphFormatError,
    NotATreeError,
    bit_list,
    mask_from,
    parse_edge_list,
    serialize_edge_list,
)
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

from tests import reference
from tests.strategies import pruefer_to_tree, star, trees


def spider_two_legs(legs=3):
    """Center 0 with `legs` paths of length two attached."""
    edges = []
    n = 1
    for _ in range(legs):
        edges += [(0, n), (n, n + 1)]
        n += 2
    return Graph.from_edges(n, edges)


class TestForbiddenConfigurations:
    def test_path_four_is_config_i(self):
        assert find_forbidden_configuration(path_graph(4)) == ("i", (0, 1, 2, 3))

    def test_path_five_is_config_ii(self):
        assert find_forbidden_configuration(path_graph(5)) == ("ii", (0, 1, 2, 3, 4))

    def test_path_seven_is_config_iii(self):
        assert find_forbidden_configuration(path_graph(7)) == ("iii", (0, 1, 2, 3, 4, 5, 6))

    def test_path_six_is_clean(self):
        assert find_forbidden_configuration(path_graph(6)) is None

    def test_path_nine_is_clean(self):
        # no leaf pair at distance 3, 4, or 6: soundness means no witness
        assert find_forbidden_configuration(path_graph(9)) is None

    def test_spider_is_config_ii(self):
        found = find_forbidden_configuration(spider_two_legs())
        assert found is not None
        config, witness = found
        assert config == "ii"
        assert len(witness) == 5

    def test_requires_tree(self):
        c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        with pytest.raises(ValueError):
            find_forbidden_configuration(c4)

    def test_witness_is_sound_on_small_trees(self):
        for n in range(1, 11):
            for t in enumerate_free_trees(n):
                if find_forbidden_configuration(t) is not None:
                    assert not oracle_report(t).is_well_ve_dominated


class TestUnitPartition:
    def test_path_six(self):
        p = unit_partition(path_graph(6))
        assert isinstance(p, UnitPartition)
        assert p.units == ((0, 1, 2), (5, 4, 3))
        assert p.label == ("L", "S", "W", "W", "S", "L")
        assert p.backbone_edges == ((2, 3),)

    def test_path_nine_middle_fails(self):
        r = unit_partition(path_graph(9))
        assert isinstance(r, Refutation)
        assert r.reason == "w-multiplicity"

    def test_expansion_of_star(self):
        from vedom.constructions import expand_backbone

        t, _ = expand_backbone(star(3))
        p = unit_partition(t)
        assert isinstance(p, UnitPartition)
        assert len(p.units) == 4
        backbone = Graph.from_edges(4, p.backbone_edges)
        assert trees_isomorphic(backbone, star(3))

    def test_bad_leaf_refutation(self):
        # a leaf hanging off a degree-3 vertex of an order-6 tree
        t = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (2, 4), (4, 5)])
        r = unit_partition(t)
        assert isinstance(r, Refutation)
        assert r.reason == "bad-leaf"

    def test_preconditions(self):
        with pytest.raises(ValueError, match="tree"):
            unit_partition(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
        with pytest.raises(ValueError, match="reduced"):
            unit_partition(star(5))
        with pytest.raises(ValueError, match="order"):
            unit_partition(path_graph(4))


def _other_color_class(cert, p):
    """The certificate built from the other backbone color class: each unit
    swaps its picked support for its leaf, or its leaf for its support."""
    return cert ^ mask_from(v for leaf, s, _ in p.units for v in (leaf, s))


class TestCertificates:
    def test_path_six_certificate(self):
        p = unit_partition(path_graph(6))
        assert bit_list(build_certificate(path_graph(6), p)) == [1, 5]

    def test_path_six_inverted_colors(self):
        p = unit_partition(path_graph(6))
        assert bit_list(_other_color_class(build_certificate(path_graph(6), p), p)) == [0, 4]

    def test_alternating_classes_on_path_backbone(self):
        from vedom.constructions import expand_backbone

        t, p = expand_backbone(path_graph(3))
        # backbone 0-1-2, supports 3,4,5, leaves 6,7,8: alternation picks
        # supports at the even backbone vertices and the middle leaf
        assert bit_list(build_certificate(t, p)) == [3, 5, 7]

    def test_verify_path_six_good(self):
        check = verify_certificate(path_graph(6), mask_from([1, 5]))
        assert check.passed
        assert check.counts == (1, 1, 1, 1, 1)

    def test_verify_double_cover_fails(self):
        check = verify_certificate(path_graph(6), mask_from([1, 4]))
        assert not check.passed
        assert check.counts[2] == 2

    def test_verify_uncovered_fails(self):
        check = verify_certificate(path_graph(6), mask_from([0, 5]))
        assert not check.passed
        assert check.counts[2] == 0

    def test_verify_rejects_dependent_set(self):
        check = verify_certificate(path_graph(6), mask_from([0, 1, 4]))
        assert not check.independent
        assert not check.passed

    def test_verify_rejects_outside_leaf_support(self):
        check = verify_certificate(path_graph(6), mask_from([2, 4]))
        assert not check.within_leaf_support

    def test_verify_refuses_a_non_tree_before_reading_the_set(self):
        """A triangle with a pendant vertex, with a set in range and one out
        of it: the tree check comes first."""
        g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        for mask in (mask_from([3]), 1 << 4, -1):
            with pytest.raises(NotATreeError, match="^certificate check requires a tree$"):
                verify_certificate(g, mask)

    def test_both_colorings_always_pass(self):
        from vedom.constructions import expand_backbone

        for n in range(2, 6):
            for r in enumerate_free_trees(n):
                t, p = expand_backbone(r)
                cert = build_certificate(t, p)
                for c in (cert, _other_color_class(cert, p)):
                    assert verify_certificate(t, c).passed


class TestNoQuadraticWork:
    """Deterministic guards on the linear-time paths: the certificate check
    must not test vertex pairs for adjacency or build per-vertex edge masks,
    the forbidden-path search must not search the tree once per leaf, and
    the edge-list reader must not read past a faulty line."""

    def test_certificate_check_uses_no_pair_tests_or_edge_masks(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("quadratic helper called")

        rng = random.Random(3)
        t, p = expand_backbone(pruefer_to_tree(1000, [rng.randrange(1000) for _ in range(998)]))
        cert = build_certificate(t, p)
        monkeypatch.setattr(Graph, "has_edge", forbidden)
        monkeypatch.setattr(vedom.domination, "dominated_edge_masks", forbidden)
        monkeypatch.setattr(vedom.recognizer, "dominated_edge_masks", forbidden, raising=False)
        assert t.n == 3000
        assert verify_certificate(t, cert).passed

    def test_forbidden_search_traverses_at_most_once(self, monkeypatch):
        calls = []
        original = vedom.graph.traverse

        def counted(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        rng = random.Random(4)
        t = pruefer_to_tree(1500, [rng.randrange(1500) for _ in range(1498)])
        assert sum(t.degree(v) == 1 for v in range(t.n)) >= 500
        monkeypatch.setattr(vedom.graph, "traverse", counted)
        monkeypatch.setattr(vedom.recognizer, "traverse", counted)
        assert find_forbidden_configuration(t) is not None
        assert len(calls) <= 1

    def test_line_events_grow_linearly(self):
        """recognize makes at most about ten times the Python line events
        (sys.settrace) on ten times the vertices: accepting a shuffled
        expansion with twin leaves, refuting the same expansion with each
        forbidden pattern planted, and on a random Pruefer tree.  A count is
        deterministic where a clock is not.  Past 100 events per vertex the
        count stops the call, so a quadratic step fails fast.  Blind spot:
        work done in C (sorts, big-int masks, str methods) makes no line
        events, so per-bit work on n-bit masks goes unseen; the README's
        wall-clock figures are the second witness."""
        counts = {}
        for k in (333, 3333):  # about 10^3 and 10^4 vertices
            rng = random.Random(k)
            t, partition = expand_backbone(_random_pruefer_tree(rng, k))
            units = partition.units
            cases = {"T2": [(units[rng.randrange(k)][1], t.n + i) for i in range(k // 6 + 1)]}
            w = units[rng.randrange(k)][2]
            for pattern, tail in (("i", 1), ("ii", 2), ("iii", 4)):
                path = [w, *range(t.n, t.n + tail)]
                cases[f"forbidden-path({pattern})"] = list(zip(path, path[1:]))
            trees = {
                outcome: _shuffled(rng, t.n + len(extra), [*t.edges, *extra])
                for outcome, extra in cases.items()
            }
            trees["pruefer"] = _random_pruefer_tree(rng, 3 * k + 1)
            for outcome, g in trees.items():
                result, events = _line_events(lambda: recognize(g), cap=100 * g.n)
                if outcome != "pruefer":
                    assert (result.refutation.reason if result.refutation else result.case) == outcome
                counts.setdefault(outcome, []).append(events)
        for outcome, (small, large) in counts.items():
            assert large <= 10.5 * small, (outcome, small, large)

    def test_readers_and_writers_make_line_events_linearly(self):
        """The same check on the other paths the README calls linear, at
        about 10^3 and 10^4 units: the DIMACS reader per clause, the
        edge-list reader per vertex of a tree file with its lines and
        endpoints shuffled, backbone expansion per backbone vertex, and the
        JSON writer per vertex of an accepting recognize payload."""
        counts = {}
        for k in (1000, 10000):
            rng = random.Random(k)
            clauses = [
                " ".join(str(rng.choice([x, -x])) for x in rng.sample(range(1, 9), 3)) + " 0"
                for _ in range(k)
            ]
            cnf = f"c {k} clauses\np cnf 8 {k}\n" + "\n".join(clauses) + "\n"
            r = _random_pruefer_tree(rng, k)
            lines = [f"{u} {v}" if rng.random() < 0.5 else f"{v} {u}" for u, v in r.edges]
            rng.shuffle(lines)
            edge_text = f"n {k}\n" + "\n".join(lines) + "\n"
            accepted = expand_backbone(_random_pruefer_tree(rng, k // 3))[0]
            payload = vedom.cli._recognition_dict(recognize(accepted))
            assert payload["verdict"] == "yes"
            calls = {
                "parse_dimacs_cnf": (lambda: parse_dimacs_cnf(cnf), k),
                "parse_edge_list": (lambda: parse_edge_list(edge_text), k),
                "expand_backbone": (lambda: expand_backbone(r), k),
                "_json_text": (lambda: vedom.cli._json_text(payload), accepted.n),
            }
            for name, (call, units) in calls.items():
                _, events = _line_events(call, cap=100 * units)
                counts.setdefault(name, []).append(events)
        for name, (small, large) in counts.items():
            assert large <= 10.5 * small, (name, small, large)

    def test_edge_list_reader_stops_at_the_first_fault(self):
        """An out-of-range edge on line 2 ends the read there: the 10^4
        valid lines after it make no line events (about 13 each if read)."""
        k = 10**4
        text = f"n {k + 1}\n0 {k + 1}\n" + "".join(f"{i} {i + 1}\n" for i in range(k))

        def read():
            try:
                vedom.graph._parse_edge_list(text)
            except GraphFormatError as exc:
                return str(exc)

        message, events = _line_events(read, cap=100)
        assert message == f"line 2: vertex index {k + 1} exceeds declared count {k + 1}"
        assert events < 100


def _line_events(call, cap: int):
    """call()'s result and the Python line events it made; the test fails
    as soon as they pass cap."""
    events = 0

    def line(frame, event, arg):
        nonlocal events
        if event == "line":
            events += 1
            if events > cap:
                pytest.fail(f"more than {cap} line events")
        return line

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: line)
    try:
        return call(), events
    finally:
        sys.settrace(previous)


def _shuffled(rng: random.Random, n: int, edges: list[tuple[int, int]]) -> Graph:
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


def _random_pruefer_tree(rng: random.Random, n: int) -> Graph:
    return pruefer_to_tree(n, [rng.randrange(n) for _ in range(n - 2)])


def _branch(r) -> str:
    """The branch of recognize's decision chain that r came from."""
    if r.case != "rejected":
        return r.case
    if r.reduced_tree.n < 6 or r.reduced_tree.n % 3:
        return "order-not-3n"
    return "partition-refuted" if r.refutation.reason.startswith("forbidden-path") else "other"


class TestTreeCheckedOnce:
    """recognize walks a tree for its tree check at most once.  An
    enumerated tree comes with the check recorded by its builder, so it is
    not walked at all; a parsed tree is walked by recognize's own check, and
    its reduced tree inherits the answer for unit_partition and
    find_forbidden_configuration."""

    def test_each_branch_walks_an_enumerated_tree_never_and_a_parsed_one_once(self, monkeypatch):
        examples = {}  # per branch, a tree that the reduction shrinks and one it keeps
        for n in range(1, 10):
            for t in enumerate_free_trees(n):
                r = recognize(t)
                examples.setdefault((_branch(r), r.reduced_tree.n < n), t)
        branches = ("T1", "order-not-3n", "partition-refuted", "T2")
        assert {(b, shrunk) for b in branches for shrunk in (False, True)} <= set(examples)
        walks = []
        original = vedom.graph.traverse

        def counted(g, *args, **kwargs):
            walks.append(g)
            return original(g, *args, **kwargs)

        monkeypatch.setattr(vedom.graph, "traverse", counted)
        for (branch, _), t in examples.items():
            walks.clear()
            assert _branch(recognize(t)) == branch
            assert walks == [], branch
            parsed = parse_edge_list(serialize_edge_list(t))
            assert _branch(recognize(parsed)) == branch
            assert len(walks) == 1 and walks[0] is parsed, branch

    def test_direct_calls_on_a_non_tree_still_raise(self):
        forest = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        c6 = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
        p = unit_partition(path_graph(6))
        for g in (forest, c6):
            for _ in range(2):  # the second time with the answer kept
                with pytest.raises(NotATreeError):
                    unit_partition(g)
                with pytest.raises(NotATreeError):
                    find_forbidden_configuration(g)
                with pytest.raises(NotATreeError, match="^unit partition requires a tree$"):
                    validate_unit_partition(g, p)


class TestValidatePartition:
    def test_roundtrip(self):
        p = unit_partition(path_graph(6))
        validate_unit_partition(path_graph(6), p)

    def test_rejects_wrong_tree(self):
        p = unit_partition(path_graph(6))
        with pytest.raises(InvalidPartitionError):
            validate_unit_partition(path_graph(9), p)

    def test_rejects_mangled_units(self):
        p = unit_partition(path_graph(6))
        bad = UnitPartition(
            units=((1, 0, 2), p.units[1]),
            label=p.label,
            backbone_edges=p.backbone_edges,
        )
        with pytest.raises(InvalidPartitionError):
            validate_unit_partition(path_graph(6), bad)

    @pytest.mark.parametrize(
        "units, label, backbone_edges",
        [
            (((0, 1, 3), (5, 4, 3)), "LSWWSL", ((2, 3),)),
            (((0, 1, 2), (5, 4, 3)), "LSSWSL", ((2, 3),)),
            (((0, 1, 2), (0, 1, 2)), "LSWWSL", ((2, 3),)),
            (((0, 1, 2), (5, 4, 3)), "LSWWSL", ()),
        ],
        ids=["unit-body", "labels", "partition", "backbone-edges"],
    )
    def test_each_rejection_names_its_check(self, units, label, backbone_edges):
        """Each partition of P_6 breaks one of the checks the field-by-field
        validator made, and every rejection gives the one message."""
        bad = UnitPartition(units=units, label=tuple(label), backbone_edges=backbone_edges)
        with pytest.raises(InvalidPartitionError, match="^not the unit partition of the tree$"):
            validate_unit_partition(path_graph(6), bad)

    def test_rejects_units_out_of_leaf_order(self):
        p = unit_partition(path_graph(6))
        swapped = UnitPartition(p.units[::-1], p.label, p.backbone_edges)
        reference.validate_unit_partition(path_graph(6), swapped)  # the earlier validator took it
        with pytest.raises(InvalidPartitionError, match="^not the unit partition of the tree$"):
            validate_unit_partition(path_graph(6), swapped)


class TestRecognize:
    def test_path_six(self):
        r = recognize(path_graph(6))
        assert r.verdict and r.case == "T2"
        assert r.partition.units == ((0, 1, 2), (5, 4, 3))
        assert bit_list(r.certificate) == [1, 5]

    def test_path_seven(self):
        r = recognize(path_graph(7))
        assert not r.verdict
        assert r.refutation.reason == "forbidden-path(iii)"

    def test_spider_reports_forbidden_path(self):
        r = recognize(spider_two_legs())
        assert not r.verdict
        assert r.refutation.reason == "forbidden-path(ii)"

    def test_path_nine_reports_structure(self):
        r = recognize(path_graph(9))
        assert not r.verdict
        assert r.refutation.reason == "w-multiplicity"

    def test_path_ten_reports_order(self):
        # no leaf pair at distance 3, 4, or 6, so the order check surfaces
        r = recognize(path_graph(10))
        assert not r.verdict
        assert r.refutation.reason == "order-not-3n"

    def test_star_is_small_case(self):
        r = recognize(star(7))
        assert r.verdict and r.case == "T1"
        assert r.reduced_tree.n == 2

    def test_tiny_paths(self):
        for n in (1, 2, 3):
            r = recognize(path_graph(n))
            assert r.verdict and r.case == "T1"

    def test_requires_tree(self):
        with pytest.raises(ValueError):
            recognize(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))

    def test_unreduced_input_is_fine(self):
        # twin leaves at one support of the 6-path collapse away
        t = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 6)])
        r = recognize(t)
        assert r.verdict and r.case == "T2"
        assert r.reduced_tree.n == 6

    def test_yes_case_invariants_on_small_trees(self):
        for n in range(1, 13):
            for t in enumerate_free_trees(n):
                r = recognize(t)
                if r.case != "T2":
                    continue
                t2 = r.reduced_tree
                assert t2.n == 3 * len(r.partition.units)
                assert verify_certificate(t2, r.certificate).passed
                rep = oracle_report(t2)
                assert rep.gamma_ve == rep.big_gamma_ve == len(r.partition.units)
                assert is_minimal_ve_dominating(t2, mask_from(u[1] for u in r.partition.units))


@given(trees(max_n=11))
@settings(max_examples=80)
def test_recognizer_agrees_with_oracle(t):
    assert recognize(t).verdict == oracle_report(t).is_well_ve_dominated
