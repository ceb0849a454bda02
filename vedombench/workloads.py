"""Operations of each workload: one call into a vedom entry point plus the
independent check of its output.

CLI operations call ``vedom.cli.main([...])`` in-process with stdout and
stderr captured; the bounded gadget reports call the library's
``oracle_report(..., size_bound=k)``, which the CLI does not expose.
Entry points are looked up on their module at call time, so the tracer's
wrappers are used once installed.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import dataclass
from typing import Callable

import checks
from inputs import Item

FAILED_EXIT = 2  # the CLI's "bad input / error" exit code


@dataclass
class Op:
    label: str
    items: int                       # work items one call completes
    call: Callable[[], object]
    failed: Callable[[object], bool]
    check: Callable[[object], None]  # raises checks.CheckFailed


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sys.modules["vedom.cli"].main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_failed(raw) -> bool:
    return raw[0] == FAILED_EXIT


def cli_op(label: str, argv: list[str], check: Callable[[dict], None]) -> Op:
    def check_output(raw) -> None:
        code, out, _ = raw
        checks.expect(code == 0, f"{label}: exit code {code}")
        check(json.loads(out))

    return Op(label, 1, lambda: run_cli(argv), _cli_failed, check_output)


def _brute_force(item: Item) -> list[int] | None:
    """Brute-force minimal sets, computed on first use and kept on the item."""
    if item.n > checks.BRUTE_FORCE_MAX:
        return None
    if "brute" not in item.facts:
        item.facts["brute"] = checks.brute_force_minimal_sets(item.n, item.edges)
    return item.facts["brute"]


def bounded_op(item: Item, bound: int) -> Op:
    variables, clauses = item.facts["variables"], item.facts["clauses"]

    def call():
        constructions = sys.modules["vedom.constructions"]
        domination = sys.modules["vedom.domination"]
        instance = constructions.CnfInstance(variables, tuple(map(tuple, clauses)))
        graph = constructions.sat_to_graph(instance).graph
        return graph.edges, domination.oracle_report(graph, size_bound=bound)

    def check(raw) -> None:
        edges, report = raw
        checks.check_bounded(report.to_json_dict(), item, bound, edges)

    return Op(f"oracle_report(gadget, size_bound={bound})", 1, call, lambda raw: False, check)


def item_op(item: Item) -> Op:
    label = f"{item.kind} {item.path}"
    if item.kind in ("expansion", "expansion-planted", "pruefer"):
        check = checks.check_accept if item.kind == "expansion" else checks.check_reject
        return cli_op(label, ["recognize", item.path, "--json"], lambda out: check(out, item))
    if item.kind == "decide":
        return cli_op(label, ["from-cnf", item.path, "--decide", "--json"], lambda out: checks.check_from_cnf(out, item))
    if item.kind.startswith("bounded-"):
        extra = 1 if item.kind.endswith("+1") else 0
        return bounded_op(item, 2 * item.facts["variables"] + extra)
    if item.kind == "sweep":
        return sweep_op(item.n)
    return cli_op(label, ["analyze", item.path, "--json"], lambda out: checks.check_report(out, item, _brute_force(item)))


def sweep_op(max_order: int) -> Op:
    def check(raw) -> None:
        code, out, _ = raw
        checks.check_sweep(json.loads(out), code, max_order)

    trees = sum(checks.A000055[:max_order])
    argv = ["enumerate", "--max-n", str(max_order), "--lemmas", "--json"]
    return Op(f"enumerate --max-n {max_order}", trees, lambda: run_cli(argv), _cli_failed, check)


def build(workload: str, items: list[Item]) -> tuple[list[Op], Op]:
    """The round of operations and the warm-up operation for a workload."""
    ops = [item_op(item) for item in items]
    warmup = sweep_op(6) if workload == "tree-sweep" else ops[0]
    return ops, warmup
