import json

import pytest

from vedom import cli, constructions
from vedom.cli import main
from vedom.graph import Graph

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
        assert main(["enumerate", "--max-n", "16"]) == 2

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

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
