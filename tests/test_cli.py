import argparse
import gc
import itertools
import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import vedom
from vedom import cli, constructions, graph
from vedom.cli import main
from vedom.constructions import expand_backbone, parse_dimacs_cnf, sat_to_graph, unit_cut_decompose
from vedom.domination import oracle_report
from vedom.graph import Graph, parse_edge_list, serialize_edge_list
from vedom.harness import ValidationReport, lemma_suite
from vedom.recognizer import recognize
from vedom.reduction import reduce_graph

from tests.strategies import pruefer_to_tree

P6 = "n 6\n0 1\n1 2\n2 3\n3 4\n4 5\n"
P7 = "n 7\n0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n"
STAR4 = "n 4\n0 1\n0 2\n0 3\n"
FIG_CNF = "c figure instance\np cnf 4 3\n1 2 -3 0\n-1 3 4 0\n-2 -3 -4 0\n"
UNSAT_CNF = (
    "p cnf 3 8\n"
    "1 2 3 0\n1 2 -3 0\n1 -2 3 0\n1 -2 -3 0\n"
    "-1 2 3 0\n-1 2 -3 0\n-1 -2 3 0\n-1 -2 -3 0\n"
)


@pytest.fixture
def p6_file(tmp_path):
    f = tmp_path / "p6.el"
    f.write_text(P6)
    return str(f)


@pytest.fixture
def p7_file(tmp_path):
    f = tmp_path / "p7.el"
    f.write_text(P7)
    return str(f)


class TestAnalyze:
    def test_json_report(self, p6_file, capsys):
        assert main(["analyze", p6_file, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["gamma_ve"] == 2
        assert data["big_gamma_ve"] == 2
        assert data["wvd"] is True

    def test_text_report(self, p6_file, capsys):
        assert main(["analyze", p6_file]) == 0
        out = capsys.readouterr().out
        assert "gamma_ve: 2" in out
        assert "well-ve-dominated: True" in out

    def test_deterministic_output(self, p6_file, capsys):
        main(["analyze", p6_file, "--json"])
        first = capsys.readouterr().out
        main(["analyze", p6_file, "--json"])
        second = capsys.readouterr().out
        assert first == second

    def test_guard_is_checked_before_the_graph_is_built(self, tmp_path, monkeypatch, capsys):
        def forbidden(*args):
            raise AssertionError("graph built before the guard check")

        f = tmp_path / "huge.el"
        f.write_text("n 3000000\n")
        monkeypatch.setattr(Graph, "_build", staticmethod(forbidden))
        assert main(["analyze", str(f)]) == 2
        err = capsys.readouterr().err
        assert err == "error: 3000000 vertices exceeds the full-mode guard of 24\n"

    def test_threads_is_not_an_analyze_flag(self, p6_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", p6_file, "--threads", "0"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_guard_override(self, tmp_path, capsys):
        f = tmp_path / "p30.el"
        f.write_text("n 30\n" + "".join(f"{i} {i+1}\n" for i in range(29)))
        assert main(["analyze", str(f)]) == 2
        assert "error" in capsys.readouterr().err


class TestRecognize:
    def test_yes_with_certificate(self, p6_file, capsys):
        assert main(["recognize", p6_file]) == 0
        out = capsys.readouterr().out
        assert "verdict: yes" in out
        assert "certificate: [1, 5]" in out

    def test_no_with_refutation(self, p7_file, capsys):
        assert main(["recognize", p7_file]) == 0
        out = capsys.readouterr().out
        assert "verdict: no" in out
        assert "forbidden-path(iii)" in out

    def test_verify_agreement(self, p6_file, p7_file, capsys):
        assert main(["recognize", p6_file, "--verify"]) == 0
        assert "oracle agrees: True" in capsys.readouterr().out
        assert main(["recognize", p7_file, "--verify"]) == 0

    def test_json_payload(self, p6_file, capsys):
        assert main(["recognize", p6_file, "--json", "--verify"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"] == "yes"
        assert data["case"] == "T2"
        assert data["certificate"] == [1, 5]
        assert data["oracle_agrees"] is True

    def test_rejects_non_tree(self, tmp_path, capsys):
        f = tmp_path / "c4.el"
        f.write_text("n 4\n0 1\n1 2\n2 3\n0 3\n")
        assert main(["recognize", str(f)]) == 2

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_verify_guard_is_checked_before_recognition(
        self, json_flag, tmp_path, monkeypatch, capsys
    ):
        def forbidden(*args):
            raise AssertionError("recognized before the guard check")

        f = tmp_path / "p30.el"
        f.write_text("n 30\n" + "".join(f"{i} {i + 1}\n" for i in range(29)))
        monkeypatch.setattr(cli, "recognize", forbidden)
        assert main(["recognize", str(f), "--verify", *json_flag]) == 2
        assert capsys.readouterr() == ("", "error: 30 vertices exceeds the full-mode guard of 24\n")

    def test_twin_leaves_are_recognized_without_rebuilding_the_graph(
        self, tmp_path, monkeypatch, capsys
    ):
        def forbidden(*args):
            raise AssertionError("graph rebuilt through the checked constructor")

        # P6 with two extra leaves twinned with leaf 0 and one with leaf 5
        f = tmp_path / "twins.el"
        f.write_text("n 9\n0 1\n1 2\n2 3\n3 4\n4 5\n1 6\n1 7\n4 8\n")
        monkeypatch.setattr(Graph, "from_edges", staticmethod(forbidden))
        assert main(["recognize", str(f), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert (data["verdict"], data["reduced_order"]) == ("yes", 6)
        assert data["to_reduced"] == [0, 1, 2, 3, 4, 5, 0, 0, 5]


@pytest.mark.parametrize(
    "command, message",
    [
        ("recognize", "recognition requires a tree"),
        ("decompose", "recognition requires a tree"),
        ("expand", "backbone expansion requires a tree"),
    ],
)
def test_wrong_edge_count_is_rejected_before_the_graph_is_built(
    command, message, tmp_path, monkeypatch, capsys
):
    def forbidden(*args):
        raise AssertionError("graph built before the edge count was checked")

    huge = tmp_path / "huge.el"
    huge.write_text("n 3000000\n")
    with monkeypatch.context() as patch:
        patch.setattr(Graph, "_build", staticmethod(forbidden))
        assert main([command, str(huge)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    # n - 1 edges but not a tree: the graph is built, and the library
    # rejects it with the same message
    triangle = tmp_path / "triangle_and_vertex.el"
    triangle.write_text("n 4\n0 1\n1 2\n0 2\n")
    assert main([command, str(triangle)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


class TestReduce:
    def test_star_reduces_to_edge(self, tmp_path, capsys):
        f = tmp_path / "star.el"
        f.write_text(STAR4)
        assert main(["reduce", str(f)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("n 2\n0 1\n")
        mapping = json.loads(out.splitlines()[-1])
        assert mapping == {"0": 0, "1": 1, "2": 1, "3": 1}

    def test_json_mode(self, tmp_path, capsys):
        f = tmp_path / "star.el"
        f.write_text(STAR4)
        assert main(["reduce", str(f), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["edge_list"] == "n 2\n0 1\n"


class TestExpandDecompose:
    def test_expand_edge(self, tmp_path, capsys):
        f = tmp_path / "p2.el"
        f.write_text("n 2\n0 1\n")
        assert main(["expand", str(f)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("n 6\n")

    def test_expand_rejects_single_vertex(self, tmp_path, capsys):
        f = tmp_path / "p1.el"
        f.write_text("n 1\n")
        assert main(["expand", str(f)]) == 2

    def test_decompose_p6(self, p6_file, capsys):
        assert main(["decompose", p6_file]) == 0
        out = capsys.readouterr().out
        assert "unit 0: leaf=0 support=1 backbone=2" in out
        assert "unit 1: leaf=5 support=4 backbone=3" in out

    def test_decompose_json(self, p6_file, capsys):
        assert main(["decompose", p6_file, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["units"] == [[0, 1, 2], [5, 4, 3]]
        assert len(data["bodies"]) == 2

    def test_decompose_rejects_non_member(self, p7_file, capsys):
        assert main(["decompose", p7_file]) == 2
        assert capsys.readouterr() == ("", "error: tree does not decompose (case rejected)\n")


class TestFromCnf:
    def test_figure_instance(self, tmp_path, capsys):
        f = tmp_path / "fig.cnf"
        f.write_text(FIG_CNF)
        assert main(["from-cnf", str(f), "--json", "--decide"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["vertices"] == 28
        assert data["edges"] == 35
        assert data["satisfiable"] is True

    def test_unsat_instance(self, tmp_path, capsys):
        f = tmp_path / "unsat.cnf"
        f.write_text(UNSAT_CNF)
        assert main(["from-cnf", str(f), "--decide"]) == 0
        assert "satisfiable: False" in capsys.readouterr().out

    def test_emits_edge_list(self, tmp_path, capsys):
        f = tmp_path / "fig.cnf"
        f.write_text(FIG_CNF)
        assert main(["from-cnf", str(f)]) == 0
        assert capsys.readouterr().out.startswith("n 28\n")

    def test_decide_guard_is_checked_before_the_gadget_is_built(
        self, tmp_path, monkeypatch, capsys
    ):
        def forbidden(*args):
            raise AssertionError("gadget built before the guard check")

        f = tmp_path / "over.cnf"
        f.write_text("p cnf 7 1\n1 2 3 0\n")  # 6 * 7 + 1 + 1 = 44 gadget vertices
        monkeypatch.setattr(cli, "sat_to_graph", forbidden)
        monkeypatch.setattr(constructions, "sat_to_graph", forbidden)
        assert main(["from-cnf", str(f), "--decide"]) == 2
        assert capsys.readouterr() == (
            "",
            "error: gadget has 44 vertices, above the bounded-search guard of 40\n",
        )

    def test_decide_builds_the_gadget_once(self, tmp_path, monkeypatch, capsys):
        builds = []

        def counted(f):
            builds.append(f)
            return sat_to_graph(f)

        f = tmp_path / "fig.cnf"
        f.write_text(FIG_CNF)
        monkeypatch.setattr(cli, "sat_to_graph", counted)
        monkeypatch.setattr(constructions, "sat_to_graph", counted)
        assert main(["from-cnf", str(f), "--decide", "--json"]) == 0
        assert len(builds) == 1
        assert json.loads(capsys.readouterr().out)["satisfiable"] is True

    def test_bad_cnf(self, tmp_path, capsys):
        f = tmp_path / "bad.cnf"
        f.write_text("p cnf 3 1\n1 2 0\n")
        assert main(["from-cnf", str(f)]) == 2


class TestEnumerate:
    def test_small_sweep(self, capsys):
        assert main(["enumerate", "--max-n", "6"]) == 0
        out = capsys.readouterr().out
        assert "mismatches: 0" in out

    def test_with_lemmas_json(self, capsys):
        assert main(["enumerate", "--max-n", "5", "--lemmas", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True
        assert data["mismatches"] == []
        assert data["lemma_failures"] == []

    def test_rejects_oversized_sweep(self, capsys):
        """The library's limit check, the enumerator's, is the only one:
        one line on stderr."""
        for max_n in ("0", "21", "99"):
            assert main(["enumerate", "--max-n", max_n]) == 2
            assert capsys.readouterr() == ("", "error: max_n must be in 1..20\n")

    def test_table_widens_only_for_six_digit_counts(self, monkeypatch, capsys):
        """Order 18's 123,867 trees widen the trees column, header too;
        up to order 17 the table keeps its five-wide column."""
        counts = {16: (19320, 66), 17: (48629, 100), 18: (123867, 161)}

        def fake_sweep(max_n):
            report = ValidationReport(max_order=max_n)
            for n in range(16, max_n + 1):
                report.trees_checked[n], report.wvd_tree_census[n] = counts[n]
            return report

        monkeypatch.setattr(cli, "cross_validate", fake_sweep)
        assert main(["enumerate", "--max-n", "17"]) == 0
        assert capsys.readouterr().out.splitlines()[:3] == [
            "order  trees  well-ve-dominated",
            "   16  19320     66",
            "   17  48629    100",
        ]
        assert main(["enumerate", "--max-n", "18"]) == 0
        assert capsys.readouterr().out.splitlines()[:4] == [
            "order   trees  well-ve-dominated",
            "   16   19320     66",
            "   17   48629    100",
            "   18  123867    161",
        ]

    @pytest.mark.parametrize("lemmas", [False, True], ids=["plain", "lemmas"])
    def test_a_failing_report_prints_each_line_and_exits_1(self, lemmas, monkeypatch, capsys):
        """Each mismatch line, and with --lemmas each lemma failure, is
        printed under its count."""
        mismatches = [
            "order 6 tree #0: recognizer=True oracle=False",
            "order 6 tree #1: recognizer=False oracle=True",
        ]
        failures = [("wvd-implies-wvc", "n 2;0 1;"), ("unit-cut-additivity", "n 6;0 1;")]

        def failing(max_n):
            return ValidationReport(max_n, {6: 6}, mismatches, {6: 2}, failures if lemmas else [])

        monkeypatch.setattr(cli, "cross_validate", failing)
        monkeypatch.setattr(cli, "lemma_suite", failing)
        assert main(["enumerate", "--max-n", "6", *["--lemmas"] * lemmas]) == 1
        expected = [
            "order  trees  well-ve-dominated",
            "    6      6      2",
            "mismatches: 2",
            "  order 6 tree #0: recognizer=True oracle=False",
            "  order 6 tree #1: recognizer=False oracle=True",
        ]
        if lemmas:
            expected += [
                "lemma failures: 2",
                "  wvd-implies-wvc: n 2;0 1;",
                "  unit-cut-additivity: n 6;0 1;",
            ]
        assert capsys.readouterr() == ("\n".join(expected) + "\n", "")

    def test_threads_is_not_an_enumerate_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--max-n", "6", "--threads", "2"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["reduce", "g.el"],
        ["expand", "g.el"],
        ["decompose", "g.el"],
        ["from-cnf", "f.cnf", "--decide"],
        ["enumerate", "--max-n", "1"],
    ],
)
def test_max_vertices_only_where_the_oracle_guard_is_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--max-vertices", "-5"])
    assert exc.value.code == 2
    assert "--max-vertices" in capsys.readouterr().err


class TestErrorPaths:
    def test_missing_file(self, capsys):
        assert main(["analyze", "/nonexistent/file.el"]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_edge_list(self, tmp_path, capsys):
        f = tmp_path / "bad.el"
        f.write_text("n 3\n0 1\n0 1\n")
        assert main(["analyze", str(f)]) == 2
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("analyze", "n 3 4\n", "line 1: malformed directive 'n 3 4'"),
            ("analyze", "n x\n", "line 1: malformed vertex count 'x'"),
            ("analyze", "n -2\n", "line 1: negative vertex count"),
            ("from-cnf", "p cnf 3\n", "line 1: malformed header 'p cnf 3'"),
            ("from-cnf", "p cnf x 1\n", "line 1: malformed header 'p cnf x 1'"),
        ],
        ids=["directive", "non-integer-count", "negative-count", "short-header", "non-integer-header"],
    )
    def test_a_malformed_first_line_is_named(self, command, text, message, tmp_path, capsys):
        f = tmp_path / "input"
        f.write_text(text)
        assert main([command, str(f)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestSharedParser:
    """main builds its parser on the first call and reuses it; every later
    call must behave as it would with a freshly built parser."""

    @staticmethod
    def _run(argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors and --help
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err

    def _alone(self, argv, capsys):
        cli.build_parser.cache_clear()
        return self._run(argv, capsys)

    def test_a_sequence_of_calls_matches_each_call_alone(self, p6_file, p7_file, tmp_path, capsys):
        cnf = tmp_path / "fig.cnf"
        cnf.write_text(FIG_CNF)
        sequence = [
            ["recognize", p7_file, "--json"],
            ["recognize", p7_file],
            ["analyze", p6_file, "--max-vertices", "5"],
            ["analyze", p6_file],
            ["recognize", p6_file, "--verify"],
            ["reduce", p6_file, "--json"],
            ["from-cnf", str(cnf), "--decide"],
            ["enumerate"],
            ["enumerate", "--max-n", "5"],
            ["recognize", "--help"],
            ["recognize", p7_file, "--json"],
        ]
        together = [self._run(argv, capsys) for argv in sequence]
        assert together == [self._alone(argv, capsys) for argv in sequence]

    @pytest.mark.parametrize(
        "bad",
        [["frobnicate"], ["enumerate", "--lemmas"], ["--help"], ["analyze", "--help"]],
        ids=["unknown-subcommand", "missing-max-n", "help", "subcommand-help"],
    )
    def test_a_usage_exit_leaves_the_next_call_unchanged(self, bad, p6_file, capsys):
        argv = ["analyze", p6_file, "--json"]
        first = self._run(argv, capsys)
        code, _, _ = self._run(bad, capsys)
        assert code in (0, 2)
        assert self._run(argv, capsys) == first

    def test_a_patched_library_name_takes_effect_after_an_earlier_call(
        self, p7_file, monkeypatch, capsys
    ):
        def patched(t):
            raise ValueError("patched recognize")

        assert main(["recognize", p7_file]) == 0
        monkeypatch.setattr(cli, "recognize", patched)
        assert main(["recognize", p7_file]) == 2
        assert capsys.readouterr().err == "error: patched recognize\n"

    def test_twenty_calls_build_at_most_one_parser(self, p6_file, p7_file, monkeypatch, capsys):
        """One parser is ten ArgumentParsers: the top-level one, seven
        subcommands and two parents.  Counted, not timed."""
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(None)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for argv in [["recognize", p7_file, "--json"], ["analyze", p6_file]] * 10:
            main(argv)
        assert len(built) <= 10



@pytest.fixture
def collector():
    """Leaves the cyclic collector's enabled state as the test found it."""
    was_enabled = gc.isenabled()
    yield
    (gc.enable if was_enabled else gc.disable)()


class TestCollectorPause:
    """main runs each subcommand with the cyclic collector paused, which is
    safe only because no call leaves a reference cycle behind."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "{p6}", "--json"],
            ["analyze", "{p7}"],
            ["recognize", "{p6}", "--verify"],
            ["recognize", "{p7}", "--verify", "--json"],
            ["reduce", "{p7}", "--json"],
            ["expand", "{p6}"],
            ["decompose", "{p6}", "--json"],
            ["decompose", "{p7}"],
            ["from-cnf", "{cnf}", "--decide"],
            ["from-cnf", "{unsat}", "--decide", "--json"],
            ["enumerate", "--max-n", "8", "--lemmas"],
            ["analyze", "{bad}"],
            ["recognize", "{missing}"],
            ["enumerate", "--max-n", "99"],
        ],
        ids=lambda argv: " ".join(a.strip("{}") for a in argv),
    )
    def test_each_call_leaves_no_reference_cycle(self, argv, p6_file, p7_file, tmp_path, collector, capsys):
        paths = {
            "p6": p6_file,
            "p7": p7_file,
            "cnf": tmp_path / "fig.cnf",
            "unsat": tmp_path / "unsat.cnf",
            "bad": tmp_path / "bad.el",
            "missing": tmp_path / "missing.el",
        }
        paths["cnf"].write_text(FIG_CNF)
        paths["unsat"].write_text(UNSAT_CNF)
        paths["bad"].write_text("0 1\nx y\n")
        argv = [a.format(**paths) for a in argv]
        main(argv)  # warm-up: the first call of a process builds the shared parser
        gc.disable()
        gc.collect()
        main(argv)
        assert gc.collect() == 0

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("outcome", [0, 1, 2, "raises", "usage"])
    def test_main_leaves_the_collector_as_it_found_it(
        self, enabled, outcome, p6_file, p7_file, monkeypatch, collector, capsys
    ):
        seen = []

        def paused_recognize(t):
            seen.append(gc.isenabled())
            if outcome == "raises":
                raise RuntimeError("patched recognize")
            return recognize(t)

        monkeypatch.setattr(cli, "recognize", paused_recognize)
        # an oracle that accepts everything disagrees on P7, for exit 1
        monkeypatch.setattr(cli, "is_well_ve_dominated", lambda t, guard: True)
        argv = {
            0: ["recognize", p6_file, "--verify"],
            1: ["recognize", p7_file, "--verify"],
            2: ["recognize", p6_file + ".missing"],
            "raises": ["recognize", p6_file],
            "usage": ["recognize", p6_file, "--frobnicate"],
        }[outcome]
        (gc.enable if enabled else gc.disable)()
        if outcome in ("raises", "usage"):
            with pytest.raises(RuntimeError if outcome == "raises" else SystemExit):
                main(argv)
        else:
            assert main(argv) == outcome
        assert gc.isenabled() is enabled
        assert seen == ([False] if outcome in (0, 1, "raises") else [])

    def test_a_large_recognize_runs_no_collection(self, tmp_path, collector, capsys):
        """Counted, not timed: on these 31,668 vertices a call with the
        collector running makes about 160 collections."""
        rng = random.Random(13)
        k = 10_556
        backbone = pruefer_to_tree(k, [rng.randrange(k) for _ in range(k - 2)])
        f = tmp_path / "expansion.el"
        f.write_text(serialize_edge_list(expand_backbone(backbone)[0]))
        collections = []

        def count(phase, info):
            if phase == "start":
                collections.append(info["generation"])

        gc.enable()
        gc.callbacks.append(count)
        try:
            assert main(["recognize", str(f), "--json"]) == 0
        finally:
            gc.callbacks.remove(count)
        assert collections == []
        assert json.loads(capsys.readouterr().out)["verdict"] == "yes"


# escapes, non-ASCII and a character outside the BMP, for keys and strs
_CHARS = 'ab "\\/\n\t\x00\x7f\u00e9\u2028\u4e2d\U0001f600'


def _text(rng: random.Random) -> str:
    return "".join(rng.choice(_CHARS) for _ in range(rng.randrange(5)))


def _scalar(rng: random.Random):
    """An int (small or up to 80 bits), a str, a finite float, a bool or None."""
    return rng.choice(
        [
            lambda: rng.randrange(-3, 10),
            lambda: rng.randrange(-(2**80), 2**80 + 1),
            lambda: _text(rng),
            lambda: rng.choice([0.0, -0.0, 1.5, 1e300, 5e-324, rng.uniform(-1e6, 1e6)]),
            lambda: rng.choice([True, False]),
            lambda: None,
        ]
    )()


def _rows(rng: random.Random) -> list:
    """Rows of one width 0-3, as units and edges are, and rows the writer
    must not take for int rows: ragged, or with a bool in them; or rows as
    tuples (2-tuples among them)."""
    width, shape, rows = rng.randrange(4), rng.randrange(4), []
    for _ in range(rng.randrange(5)):
        row = [rng.choice([rng.randrange(-3, 10), rng.randrange(2**70)]) for _ in range(width)]
        if shape == 1 and row:
            row[rng.randrange(width)] = rng.choice([True, False])
        elif shape == 2:
            row = row[: rng.randrange(width + 1)]
        rows.append(tuple(row) if shape == 3 else row)
    return rows


def _json_value(rng: random.Random, leaves: list[int]):
    """A scalar, a row list, or a list, tuple or str-keyed dict of such
    values nested to any depth; each value drawn, nested ones included,
    uses up one of the leaves[0] left."""
    leaves[0] -= 1
    kind = rng.randrange(5 if leaves[0] > 0 else 2)
    if kind < 2:
        return _rows(rng) if kind else _scalar(rng)
    kids = []
    for _ in range(rng.randrange(5)):
        if leaves[0] > 0:
            kids.append(_json_value(rng, leaves))
    if kind == 2:
        return kids
    return tuple(kids) if kind == 3 else {_text(rng): kid for kid in kids}


def test_json_writer_matches_json_dumps():
    """2,000 seeded values of at most 40 values each."""
    rng = random.Random(2024)
    for _ in range(2000):
        obj = _json_value(rng, [40])
        assert cli._json_text(obj) == json.dumps(obj, indent=2, sort_keys=True), obj


def _dumps(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _twin_leaf_expansion() -> Graph:
    """A 90-vertex backbone expansion with a twin leaf on every fifth unit."""
    t, partition = expand_backbone(pruefer_to_tree(30, [(7 * i) % 30 for i in range(28)]))
    edges = list(t.edges)
    for i, (_, s, _) in enumerate(partition.units[::5]):
        edges.append((s, t.n + i))
    return Graph.from_edges(t.n + len(partition.units[::5]), edges)


def _reduce_payload(g: Graph) -> dict:
    rmap = reduce_graph(g)
    return {
        "edge_list": serialize_edge_list(rmap.reduced_graph),
        "representative_map": {
            str(v): rmap.representatives[r] for v, r in enumerate(rmap.to_reduced)
        },
    }


def _decompose_payload(g: Graph) -> dict:
    result = recognize(g)
    return {
        "units": result.partition.units,
        "bodies": [serialize_edge_list(b) for b in unit_cut_decompose(result.reduced_tree, result.partition)],
        "backbone_edges": result.partition.backbone_edges,
    }


def _expand_payload(g: Graph) -> dict:
    t, partition = expand_backbone(g)
    return {"edge_list": serialize_edge_list(t), "units": partition.units}


def _from_cnf_payload(text: str) -> dict:
    gadget = sat_to_graph(parse_dimacs_cnf(text))
    return {
        "vertices": gadget.graph.n,
        "edges": len(gadget.graph.edges),
        "clause_vertices": gadget.clause_vertices,
        "apex": gadget.apex,
        "edge_list": serialize_edge_list(gadget.graph),
    }


_TWINS = serialize_edge_list(_twin_leaf_expansion())


@pytest.mark.parametrize(
    "argv, text, payload",
    [
        (["analyze"], P6, lambda: oracle_report(parse_edge_list(P6)).to_json_dict()),
        (["recognize"], _TWINS, lambda: cli._recognition_dict(recognize(parse_edge_list(_TWINS)))),
        (["recognize"], P7, lambda: cli._recognition_dict(recognize(parse_edge_list(P7)))),
        (
            ["recognize", "--verify"],
            P6,
            lambda: {**cli._recognition_dict(recognize(parse_edge_list(P6))), "oracle_agrees": True},
        ),
        (["reduce"], _TWINS, lambda: _reduce_payload(parse_edge_list(_TWINS))),
        (["expand"], P6, lambda: _expand_payload(parse_edge_list(P6))),
        (["decompose"], _TWINS, lambda: _decompose_payload(parse_edge_list(_TWINS))),
        (["from-cnf"], FIG_CNF, lambda: _from_cnf_payload(FIG_CNF)),
    ],
    ids=["analyze", "recognize-yes", "recognize-no", "recognize-verify", "reduce", "expand", "decompose", "from-cnf"],
)
def test_json_output_is_json_dumps_of_the_library_payload(argv, text, payload, tmp_path, capsys):
    f = tmp_path / "input"
    f.write_text(text)
    assert main([argv[0], str(f), *argv[1:], "--json"]) == 0
    assert capsys.readouterr().out == _dumps(payload())


def test_json_rows_are_laid_out_without_a_call_per_row(tmp_path, capsys, monkeypatch):
    """decompose --json hands the writer its units and backbone edges as
    tuples.  Each list of int rows is laid out in one step, so the writer
    is called once for the payload and once per value in it."""
    calls = []
    write = cli._json_text

    def counted(obj, indent=""):
        calls.append(obj)
        return write(obj, indent)

    monkeypatch.setattr(cli, "_json_text", counted)
    f = tmp_path / "tree"
    f.write_text(_TWINS)
    assert main(["decompose", str(f), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["units"]) == 30 and len(calls) == 1 + len(payload)


def test_enumerate_json_is_json_dumps_of_the_report(capsys):
    assert main(["enumerate", "--max-n", "7", "--lemmas", "--json"]) == 0
    out = capsys.readouterr().out
    expected = lemma_suite(7).to_json_dict()
    expected["elapsed_seconds"] = json.loads(out)["elapsed_seconds"]
    assert out == _dumps(expected)


def _run_capped(argv: list[str]) -> subprocess.CompletedProcess:
    """The CLI in a child process with its address space capped at 1 GiB, so
    a count that reaches an allocation fails there and not on the host."""

    def cap() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    src = str(Path(vedom.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-m", "vedom.cli", *argv],
        capture_output=True, text=True, timeout=60, preexec_fn=cap, env=env,
    )


@pytest.mark.parametrize(
    "command, name, text, order",
    [
        (["reduce"], "count.el", "n 1000000000\n", 10**9),
        (["reduce"], "index.el", "0 999999999\n", 10**9),
        (["from-cnf"], "count.cnf", "p cnf 1000000000 1\n1 2 3 0\n", 6 * 10**9 + 2),
        # an oracle guard raised past the order still leaves the vertex limit
        (["analyze", "--max-vertices", "2000000000"], "count.el", "n 1000000000\n", 10**9),
    ],
    ids=["reduce-count", "reduce-index", "from-cnf-count", "analyze-count"],
)
def test_declared_count_over_the_limit_exits_before_allocation(command, name, text, order, tmp_path):
    f = tmp_path / name
    f.write_text(text)
    done = _run_capped([*command, str(f)])
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"error: {order} vertices exceeds the limit of 1000000\n"


def test_over_limit_backbone_is_refused_before_the_edge_list(tmp_path, monkeypatch):
    """A backbone of 333,334 vertices expands to 1,000,002, over the vertex
    limit: vedom expand exits 2 with the limit message, and expand_backbone
    refuses with its own check, before it lists an edge of the output or
    builds it (shown under a lowered limit, where the builder's check would
    give the same message, on a backbone whose edges cannot be read)."""
    k = 333_334
    f = tmp_path / "path.el"
    f.write_text(f"n {k}\n" + "".join(f"{i} {i + 1}\n" for i in range(k - 1)))
    done = _run_capped(["expand", str(f)])
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: 1000002 vertices exceeds the limit of 1000000\n"

    def forbidden(*args):
        raise AssertionError("output built before the limit check")

    class Trap(tuple):
        def __iter__(self):
            raise AssertionError("edges listed before the limit check")

    b = pruefer_to_tree(100, [3] * 98)
    backbone = graph._tree(Graph(b.n, b.adj, Trap(b.edges)))
    monkeypatch.setattr(graph, "MAX_VERTICES", 299)
    monkeypatch.setattr(Graph, "_build", staticmethod(forbidden))
    with pytest.raises(ValueError, match="^300 vertices exceeds the limit of 299$"):
        expand_backbone(backbone)


def test_gadget_edge_count_over_the_limit_exits_before_the_build(tmp_path):
    """1,500 clauses over 3 variables make only 1,519 gadget vertices, but
    the clause clique alone has m(m - 1)/2 = 1,124,250 edges."""
    signs = itertools.cycle(itertools.product((1, -1), repeat=3))
    clauses = [f"{a} {2 * b} {3 * c} 0\n" for a, b, c in itertools.islice(signs, 1500)]
    f = tmp_path / "clique.cnf"
    f.write_text("p cnf 3 1500\n" + "".join(clauses))
    done = _run_capped(["from-cnf", str(f)])
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: 1130265 gadget edges exceeds the limit of 1000000\n"
