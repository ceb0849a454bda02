"""Tests for the benchmark's own generators, checkers and tracer.

    python3 -m unittest discover -s vedombench

Real outputs come from running vedom (imported from ./src) on small
generated inputs; every checker must accept them and reject a corrupted
copy.
"""

from __future__ import annotations

import copy
import itertools
import json
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
import vedom.cli  # noqa: E402,F401
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402


def written(workload: str, seed: int, directory: str) -> dict[str, bytes]:
    items = inputs.GENERATORS[workload](seed)
    inputs.write_inputs(workload, seed, items, Path(directory))
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


class GeneratorTests(unittest.TestCase):
    def test_same_seed_gives_identical_files(self):
        for workload in ("recognize-accept", "recognize-reject", "oracle-exact"):
            with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b, tempfile.TemporaryDirectory() as c:
                first, second = written(workload, 7, a), written(workload, 7, b)
                self.assertEqual(first, second, workload)
                self.assertNotEqual(first, written(workload, 8, c), workload)

    def test_pruefer_tree_is_a_tree(self):
        rng = inputs.random.Random(3)
        for n in (2, 3, 10, 200):
            edges = inputs.pruefer_tree(rng, n)
            self.assertEqual(len(edges), n - 1)
            _, order, _ = checks.reduce_open_neighborhoods(n, edges)
            self.assertGreaterEqual(order, 1)

    def test_cnf_families(self):
        rng = inputs.random.Random(5)
        self.assertFalse(checks.truth_table_sat(4, inputs.unsat_cnf(rng, 4)))
        for _ in range(20):
            self.assertTrue(checks.truth_table_sat(4, inputs.planted_cnf(rng, 4, 15)))


class DefinitionTests(unittest.TestCase):
    def test_brute_force_matches_the_definition(self):
        rng = inputs.random.Random(11)
        for n in range(2, 8):
            edges = inputs.sparse_graph(rng, n, 1 if n > 3 else 0)
            expected = [
                sum(1 << v for v in s)
                for size in range(n + 1)
                for s in itertools.combinations(range(n), size)
                if checks.is_minimal_dominating(n, edges, s)
            ]
            self.assertEqual(sorted(checks.brute_force_minimal_sets(n, edges)), sorted(expected))

    def test_path_six_is_well_ve_dominated(self):
        sizes = {s.bit_count() for s in checks.brute_force_minimal_sets(6, inputs.path_edges(6))}
        self.assertEqual(sizes, {2})

    def test_reduction_collapses_twin_leaves(self):
        to_reduced, order, edges = checks.reduce_open_neighborhoods(4, [(0, 1), (0, 2), (0, 3)])
        self.assertEqual((to_reduced, order, edges), ([0, 1, 1, 1], 2, [(0, 1)]))

    def test_gadget_counts(self):
        clauses = [(1, 2, -3), (-1, 3, 4), (-2, -3, -4)]
        n, edges = checks.gadget(4, clauses)
        self.assertEqual((n, len(edges)), (6 * 4 + 3 + 1, 5 * 4 + 3 * 3 + 3 + 3))


def run_item(item) -> object:
    return workloads.item_op(item).call()


class CheckerTests(unittest.TestCase):
    """Each checker accepts vedom's real output and rejects a corruption."""

    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        rng = inputs.random.Random(2)
        cls.accept = inputs.expansion(rng, 12, 3)
        cls.planted = inputs.expansion(rng, 10, 2, planted=True)
        cls.pruefer = inputs.Item("pruefer", 40, inputs.pruefer_tree(rng, 40))
        cls.path7 = inputs.Item("path", 7, inputs.path_edges(7))
        cls.tree = inputs.Item("random-tree", 12, inputs.pruefer_tree(rng, 12))
        cls.decide = inputs.Item("decide", facts={"variables": 3, "clauses": inputs.unsat_cnf(rng, 3)})
        cls.bounded = inputs.Item("bounded-2n+1", facts={"variables": 3, "clauses": inputs.planted_cnf(rng, 3, 4)})
        items = [cls.accept, cls.planted, cls.pruefer, cls.path7, cls.tree, cls.decide, cls.bounded]
        inputs.write_inputs("test", 0, items, Path(cls.tmp.name))

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def output(self, item) -> dict:
        code, out, err = run_item(item)
        self.assertEqual(code, 0, err)
        return json.loads(out)

    def assert_rejects(self, check, *args):
        with self.assertRaises(CheckFailed):
            check(*args)

    def test_accept(self):
        out = self.output(self.accept)
        checks.check_accept(out, self.accept)
        moved = copy.deepcopy(out)
        cert = moved["certificate"]
        outside = next(v for v in range(out["reduced_order"]) if v not in cert)
        cert[0] = outside
        self.assert_rejects(checks.check_accept, moved, self.accept)
        other = copy.deepcopy(self.accept)
        other.facts["backbone"] = other.facts["backbone"][1:] + [next(
            v for v in range(other.n) if v not in other.facts["backbone"])]
        self.assert_rejects(checks.check_accept, out, other)

    def test_reject(self):
        for item in (self.planted, self.pruefer):
            out = self.output(item)
            checks.check_reject(out, item)
        out = self.output(self.planted)
        broken = copy.deepcopy(out)
        witness = broken["refutation"]["witness"]
        witness[1], witness[2] = witness[2], witness[1]
        self.assert_rejects(checks.check_reject, broken, self.planted)
        later = copy.deepcopy(out)
        later["refutation"]["reason"] = "forbidden-path(ii)"
        self.assert_rejects(checks.check_reject, later, self.planted)

    def test_report(self):
        for item in (self.path7, self.tree):
            brute = checks.brute_force_minimal_sets(item.n, item.edges)
            out = self.output(item)
            checks.check_report(out, item, brute)
            wrong_gamma = dict(out, gamma_ve=out["gamma_ve"] + 1)
            self.assert_rejects(checks.check_report, wrong_gamma, item, brute)
            sizes = dict(out["sizes"])
            key = next(iter(sizes))
            sizes[key] += 1
            self.assert_rejects(checks.check_report, dict(out, sizes=sizes), item, brute)
        out = self.output(self.path7)
        self.assert_rejects(checks.check_report, dict(out, wvd=not out["wvd"]), self.path7, None)
        witness = [6] + out["witness_min"][1:]  # P_7's edges 0-1 and 1-2 lose their dominator
        self.assert_rejects(checks.check_report, dict(out, witness_min=witness), self.path7, None)

    def test_from_cnf(self):
        out = self.output(self.decide)
        checks.check_from_cnf(out, self.decide)
        self.assert_rejects(checks.check_from_cnf, dict(out, satisfiable=not out["satisfiable"]), self.decide)

    def test_bounded(self):
        edges, report = run_item(self.bounded)
        out = report.to_json_dict()
        checks.check_bounded(out, self.bounded, 7, edges)
        self.assert_rejects(checks.check_bounded, dict(out, sizes={**out["sizes"], "8": 1}), self.bounded, 7, edges)
        self.assert_rejects(checks.check_bounded, dict(out, i_ve=7), self.bounded, 7, edges)

    def test_sweep(self):
        code, out, _ = workloads.sweep_op(7).call()
        data = json.loads(out)
        checks.check_sweep(data, code, 7)
        self.assert_rejects(checks.check_sweep, data, 1, 7)
        counts = dict(data["trees_checked"], **{"7": 10})
        self.assert_rejects(checks.check_sweep, dict(data, trees_checked=counts), code, 7)


class BenchmarkFileTests(unittest.TestCase):
    def test_metric_names_match_what_the_runs_print(self):
        import run

        spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.E2E_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, tracing.layer_metric_units())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(inputs.GENERATORS))


class TracerTests(unittest.TestCase):
    def test_install_wraps_imported_names_and_uninstall_restores(self):
        original = sys.modules["vedom.graph"].is_tree
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(sys.modules["vedom.recognizer"].is_tree, original)
            self.assertIs(sys.modules["vedom.recognizer"].is_tree, sys.modules["vedom.graph"].is_tree)
            code, out, _ = workloads.sweep_op(6).call()
        finally:
            tracer.uninstall()
        self.assertIs(sys.modules["vedom.recognizer"].is_tree, original)
        self.assertEqual(code, 0)
        metrics = tracer.metrics(1, 0.0)
        self.assertEqual(set(metrics), set(tracing.layer_metric_units()))
        self.assertEqual(metrics["cli.main.calls"], 1)
        self.assertGreater(metrics["freetrees.trees_yielded"], sum(checks.A000055[:6]))
        self.assertTrue(all(v >= 0 for v in metrics.values()))


if __name__ == "__main__":
    unittest.main()
