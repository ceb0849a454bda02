import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vedom import constructions
from vedom.constructions import (
    CnfFormatError,
    CnfInstance,
    expand_backbone,
    is_wvd_path,
    parse_dimacs_cnf,
    path_graph,
    sat_decide_via_graph,
    sat_to_graph,
    unit_cut_decompose,
    unit_cut_extend,
)
from vedom.domination import (
    InstanceTooLargeError,
    enumerate_minimal_ve_dominating_sets,
    is_minimal_ve_dominating,
    is_ve_dominating,
    oracle_report,
)
from vedom.freetrees import trees_isomorphic
from vedom.graph import Graph, bit_list, mask_from
from vedom.recognizer import UnitPartition, recognize, unit_partition, validate_unit_partition

from tests.reference import adjacency_masks, sat_decide_by_truth_table
from tests.strategies import star

FIG_INSTANCE = CnfInstance(4, ((1, 2, -3), (-1, 3, 4), (-2, -3, -4)))
UNSAT_ALL_PATTERNS = CnfInstance(
    3,
    tuple(
        tuple(s * v for s, v in zip(signs, (1, 2, 3)))
        for signs in itertools.product((1, -1), repeat=3)
    ),
)


@st.composite
def cnf_instances(draw, max_vars=4, max_clauses=5):
    n = draw(st.integers(3, max_vars))
    m = draw(st.integers(1, max_clauses))
    clauses = []
    for _ in range(m):
        variables = draw(st.permutations(list(range(1, n + 1))))[:3]
        signs = draw(st.tuples(*(st.sampled_from((1, -1)) for _ in range(3))))
        clauses.append(tuple(s * v for s, v in zip(signs, sorted(variables))))
    return CnfInstance(n, tuple(clauses))


class TestCnfValidation:
    def test_arity(self):
        with pytest.raises(CnfFormatError, match="3 literals"):
            CnfInstance(3, ((1, 2),))

    def test_repeated_variable(self):
        with pytest.raises(CnfFormatError, match="repeats"):
            CnfInstance(3, ((1, 1, 2),))

    def test_complementary_pair(self):
        with pytest.raises(CnfFormatError, match="negation"):
            CnfInstance(3, ((1, -1, 2),))

    def test_zero_literal(self):
        with pytest.raises(CnfFormatError, match="out of range"):
            CnfInstance(3, ((0, 1, 2),))

    def test_out_of_range_variable(self):
        with pytest.raises(CnfFormatError, match="out of range"):
            CnfInstance(3, ((1, 2, 4),))

    def test_no_clauses_rejected(self):
        with pytest.raises(CnfFormatError, match="clause"):
            CnfInstance(3, ())


class TestDimacsParsing:
    def test_basic(self):
        f = parse_dimacs_cnf("c comment\np cnf 3 2\n1 2 3 0\n-1 -2 3 0\n")
        assert f.variable_count == 3
        assert f.clauses == ((1, 2, 3), (-1, -2, 3))

    def test_clause_spanning_lines(self):
        f = parse_dimacs_cnf("p cnf 3 1\n1 2\n3 0\n")
        assert f.clauses == ((1, 2, 3),)

    def test_header_count_mismatch(self):
        with pytest.raises(CnfFormatError, match="declares"):
            parse_dimacs_cnf("p cnf 3 2\n1 2 3 0\n")

    def test_missing_header(self):
        with pytest.raises(CnfFormatError, match="header"):
            parse_dimacs_cnf("1 2 3 0\n")

    def test_unterminated_clause(self):
        with pytest.raises(CnfFormatError, match="terminated"):
            parse_dimacs_cnf("p cnf 3 1\n1 2 3\n")

    def test_wrong_arity(self):
        with pytest.raises(CnfFormatError, match="3 literals"):
            parse_dimacs_cnf("p cnf 4 1\n1 2 3 4 0\n")


class TestSatGadget:
    def test_figure_instance_counts(self):
        gm = sat_to_graph(FIG_INSTANCE)
        assert gm.graph.n == 28
        assert len(gm.graph.edges) == 35

    def test_single_clause_counts(self):
        gm = sat_to_graph(CnfInstance(3, ((1, 2, 3),)))
        assert gm.graph.n == 20
        n, m = 3, 1
        assert len(gm.graph.edges) == 5 * n + 3 * m + m * (m - 1) // 2 + m

    def test_clause_vertex_wiring(self):
        gm = sat_to_graph(FIG_INSTANCE)
        g = gm.graph
        m = len(FIG_INSTANCE.clauses)
        for j, clause in enumerate(FIG_INSTANCE.clauses):
            c = gm.clause_vertices[j]
            assert g.degree(c) == 3 + (m - 1) + 1
            for lit in clause:
                var = abs(lit) - 1
                expected = gm.u[var] if lit > 0 else gm.u_neg[var]
                assert g.has_edge(c, expected)
        assert g.degree(gm.apex) == m

    def test_deterministic(self):
        a = sat_to_graph(FIG_INSTANCE).graph
        b = sat_to_graph(FIG_INSTANCE).graph
        assert a == b

    def test_literal_vertices_dominate_every_gadget(self):
        # the 2n literal vertices always form a minimal ve-dominating set,
        # which is why the satisfiability signal lives in independent sets
        for f in (FIG_INSTANCE, UNSAT_ALL_PATTERNS):
            gm = sat_to_graph(f)
            literals = mask_from(list(gm.u) + list(gm.u_neg))
            assert is_ve_dominating(gm.graph, literals)
            assert is_minimal_ve_dominating(gm.graph, literals)

    def test_size_2n_plus_1_minimal_set_always_exists(self):
        for f in (FIG_INSTANCE, UNSAT_ALL_PATTERNS, CnfInstance(3, ((1, 2, 3),))):
            gm = sat_to_graph(f)
            s = mask_from([gm.clause_vertices[0]] + list(gm.x) + list(gm.w))
            assert s.bit_count() == 2 * f.variable_count + 1
            assert is_minimal_ve_dominating(gm.graph, s)

    def test_bounded_sizes_figure_instance(self):
        gm = sat_to_graph(FIG_INSTANCE)
        sets = enumerate_minimal_ve_dominating_sets(gm.graph, size_bound=9)
        assert {s.bit_count() for s in sets} == {8, 9}

    def test_bounded_sizes_unsat_instance(self):
        gm = sat_to_graph(UNSAT_ALL_PATTERNS)
        sets = enumerate_minimal_ve_dominating_sets(gm.graph, size_bound=7)
        assert {s.bit_count() for s in sets} == {6, 7}


class TestSatDecide:
    def test_figure_instance_satisfiable(self):
        assert sat_decide_via_graph(FIG_INSTANCE) is True

    def test_all_sign_patterns_unsatisfiable(self):
        assert sat_decide_via_graph(UNSAT_ALL_PATTERNS) is False
        assert sat_decide_by_truth_table(UNSAT_ALL_PATTERNS) is False

    def test_single_clause(self):
        assert sat_decide_via_graph(CnfInstance(3, ((1, 2, 3),))) is True

    def test_bounded_report_at_2n_on_unsat_gadget_has_no_independent_set(self):
        report = oracle_report(sat_to_graph(UNSAT_ALL_PATTERNS).graph, size_bound=6)
        assert (report.i_ve, report.beta_ve, report.is_well_ve_covered) == (None, None, None)
        d = report.to_json_dict()
        assert (d["i_ve"], d["beta_ve"], d["wvc"]) == (None, None, None)
        assert report.gamma_ve == 6

    def test_bounded_report_at_2n_on_sat_gadget(self):
        report = oracle_report(sat_to_graph(FIG_INSTANCE).graph, size_bound=8)
        assert report.i_ve == 8

    def test_no_independent_small_set_in_unsat_gadget(self):
        gm = sat_to_graph(UNSAT_ALL_PATTERNS)
        adj = adjacency_masks(gm.graph)
        sets = enumerate_minimal_ve_dominating_sets(gm.graph, size_bound=6)
        for s in sets:
            assert any(adj[v] & s for v in bit_list(s))

    def test_guard_is_checked_before_the_gadget_is_built(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("gadget built before the guard check")

        monkeypatch.setattr(constructions, "sat_to_graph", forbidden)
        with pytest.raises(InstanceTooLargeError, match="gadget has 44 vertices"):
            sat_decide_via_graph(CnfInstance(7, ((1, 2, 3),)))

    def test_gadget_decides_like_the_truth_table_on_seeded_formulas(self):
        """The bounded oracle finds an independent minimal set of size 2n on
        the gadget exactly when the formula is satisfiable, and so does the
        per-variable search, on 23 seeded formulas of 3 or 4 variables, the
        all-sign-patterns formula, and every sign pattern over variables 2-4
        of four with one clause on variable 1."""
        rng = random.Random(20261019)
        patterns = itertools.product((2, -2), (3, -3), (4, -4))
        formulas = [UNSAT_ALL_PATTERNS, CnfInstance(4, ((1, 2, 3), *patterns))]
        while len(formulas) < 25:
            n = rng.choice((3, 4))
            clauses = [
                tuple(v * rng.choice((1, -1)) for v in rng.sample(range(1, n + 1), 3))
                for _ in range(rng.randint(1, 8 if n == 3 else 15))
            ]
            formulas.append(CnfInstance(n, tuple(clauses)))
        verdicts = []
        for f in formulas:
            n = f.variable_count
            report = oracle_report(sat_to_graph(f).graph, size_bound=2 * n)
            verdict = sat_decide_by_truth_table(f)
            assert sat_decide_via_graph(f) is verdict
            assert (report.i_ve == 2 * n) is verdict
            verdicts.append((n, verdict))
        assert {(3, True), (3, False), (4, True), (4, False)} <= set(verdicts)

    def test_gadget_is_well_ve_covered_at_bound_2n_plus_1_exactly_when_unsatisfiable(self):
        """On seeded satisfiable and unsatisfiable formulas over 3 and 4
        variables, the report at bound 2n + 1 has is_well_ve_covered True
        exactly when the truth table finds no satisfying assignment.  This
        is relative to the bound: the report sees only the minimal sets of
        at most 2n + 1 vertices, so the gadget's i_ve = beta_ve is shown
        among those, not among all minimal sets.  Here a satisfiable
        formula gives independent minimal sets of sizes 2n and 2n + 1, an
        unsatisfiable one only of size 2n + 1.  Unsatisfiable formulas over
        3 variables hold every sign pattern, so those are shuffled copies
        of the all-sign-patterns formula."""
        rng = random.Random(20261020)
        formulas = [UNSAT_ALL_PATTERNS]
        for _ in range(2):
            clauses = [tuple(rng.sample(c, 3)) for c in UNSAT_ALL_PATTERNS.clauses]
            rng.shuffle(clauses)
            formulas.append(CnfInstance(3, tuple(clauses)))
        wanted = {(3, True): 3, (4, True): 2, (4, False): 3}
        while any(wanted.values()):
            n = rng.choice((3, 4))
            clauses = tuple(
                tuple(v * rng.choice((1, -1)) for v in rng.sample(range(1, n + 1), 3))
                for _ in range(rng.randint(1, 8) if n == 3 else rng.randint(11, 14))
            )
            f = CnfInstance(n, clauses)
            key = (n, sat_decide_by_truth_table(f))
            if wanted.get(key):
                wanted[key] -= 1
                formulas.append(f)
        for f in formulas:
            n = f.variable_count
            report = oracle_report(sat_to_graph(f).graph, size_bound=2 * n + 1)
            satisfiable = sat_decide_by_truth_table(f)
            assert report.is_well_ve_covered is not satisfiable
            assert (report.i_ve, report.beta_ve) == (2 * n + 1 - satisfiable, 2 * n + 1)

    @given(cnf_instances())
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_truth_table(self, f):
        assert sat_decide_via_graph(f) == sat_decide_by_truth_table(f)


class TestExpandBackbone:
    def test_two_vertex_backbone_gives_six_path(self):
        t, p = expand_backbone(path_graph(2))
        assert trees_isomorphic(t, path_graph(6))
        assert len(p.units) == 2

    def test_star_backbone(self):
        t, p = expand_backbone(star(3))
        assert t.n == 12
        assert recognize(t).case == "T2"
        assert oracle_report(t).gamma_ve == 4

    def test_unreduced_backbone_allowed(self):
        t, _ = expand_backbone(path_graph(3))
        assert t.n == 9
        r = recognize(t)
        assert r.verdict
        assert oracle_report(t).is_well_ve_dominated

    def test_partition_matches_recognizer(self):
        t, p = expand_backbone(star(3))
        assert unit_partition(t) == p

    def test_errors(self):
        with pytest.raises(ValueError, match="tree"):
            expand_backbone(Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)]))
        with pytest.raises(ValueError, match="order"):
            expand_backbone(path_graph(1))


class TestUnitCutDecompose:
    def test_six_path_bodies(self):
        p = unit_partition(path_graph(6))
        bodies = unit_cut_decompose(path_graph(6), p)
        assert len(bodies) == 2
        for b in bodies:
            assert trees_isomorphic(b, path_graph(3))

    def test_expansion_bodies(self):
        t, p = expand_backbone(star(3))
        bodies = unit_cut_decompose(t, p)
        assert len(bodies) == 4
        assert sum(oracle_report(b).gamma_ve for b in bodies) == oracle_report(t).gamma_ve

    def test_single_edge_split(self):
        t, p = expand_backbone(path_graph(2))
        left, right = unit_cut_decompose(t, p, edge=p.backbone_edges[0])
        assert trees_isomorphic(left, path_graph(3))
        assert trees_isomorphic(right, path_graph(3))
        assert (
            oracle_report(left).gamma_ve + oracle_report(right).gamma_ve
            == oracle_report(t).gamma_ve
            == 2
        )

    def test_rejects_non_backbone_edge(self):
        p = unit_partition(path_graph(6))
        with pytest.raises(ValueError, match="backbone"):
            unit_cut_decompose(path_graph(6), p, edge=(0, 1))

    def test_rejects_invalid_partition(self):
        p = unit_partition(path_graph(6))
        with pytest.raises(ValueError):
            unit_cut_decompose(path_graph(9), p)


class TestUnitCutExtend:
    def test_two_six_paths(self):
        p = unit_partition(path_graph(6))
        joined = unit_cut_extend(path_graph(6), p, 2, path_graph(6), p, 2)
        assert joined.n == 12
        r = recognize(joined)
        assert r.verdict and len(r.partition.units) == 4
        assert oracle_report(joined).gamma_ve == 4

    def test_mixed_expansions(self):
        t1, p1 = expand_backbone(path_graph(2))
        t2, p2 = expand_backbone(star(3))
        joined = unit_cut_extend(t1, p1, 0, t2, p2, 0)
        assert joined.n == 18
        r = recognize(joined)
        assert r.verdict
        assert len(r.partition.units) == 6
        assert oracle_report(joined).gamma_ve == 2 + 4

    def test_rejects_support_endpoint(self):
        p = unit_partition(path_graph(6))
        with pytest.raises(ValueError, match="backbone vertex"):
            unit_cut_extend(path_graph(6), p, 1, path_graph(6), p, 2)

    def test_rejects_single_unit_path(self):
        p3 = UnitPartition(units=((0, 1, 2),), label=("L", "S", "W"), backbone_edges=())
        validate_unit_partition(path_graph(3), p3)
        p6 = unit_partition(path_graph(6))
        with pytest.raises(ValueError, match="both inputs must be recognized order >= 6 trees"):
            unit_cut_extend(path_graph(3), p3, 2, path_graph(6), p6, 2)
        with pytest.raises(ValueError, match="both inputs must be recognized order >= 6 trees"):
            unit_cut_extend(path_graph(6), p6, 2, path_graph(3), p3, 2)

    def test_roundtrip_with_decompose(self):
        t1, p1 = expand_backbone(path_graph(2))
        t2, p2 = expand_backbone(star(3))
        joined = unit_cut_extend(t1, p1, 0, t2, p2, 0)
        r = recognize(joined)
        assert r.reduced_tree == joined
        left, right = unit_cut_decompose(joined, r.partition, edge=(0, t1.n))
        assert trees_isomorphic(left, t1)
        assert trees_isomorphic(right, t2)


class TestPaths:
    def test_path_graph_shape(self):
        g = path_graph(4)
        assert g.edges == ((0, 1), (1, 2), (2, 3))
        assert path_graph(1).edges == ()

    def test_path_errors(self):
        with pytest.raises(ValueError):
            path_graph(0)
        with pytest.raises(ValueError):
            is_wvd_path(0)

    def test_classification(self):
        assert [n for n in range(1, 13) if is_wvd_path(n)] == [1, 2, 3, 6]

    def test_classification_matches_oracle(self):
        for n in range(1, 13):
            assert is_wvd_path(n) == oracle_report(path_graph(n)).is_well_ve_dominated
