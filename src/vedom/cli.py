"""Command-line surface.

Subcommands: analyze, recognize, reduce, expand, decompose, from-cnf,
enumerate.  Exit codes: 0 success, 1 a checked property was violated,
2 bad input.  All output is deterministic for fixed inputs and flags, except
the elapsed_seconds field of enumerate --json; --json switches to a stable
JSON rendering.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys
from itertools import chain, starmap

from .constructions import (
    BACKBONE_EXPANSION,
    _check_gadget_guard,
    expand_backbone,
    parse_dimacs_cnf,
    sat_decide_via_graph,
    sat_to_graph,
    unit_cut_decompose,
)
from .domination import (
    FULL_MODE_GUARD,
    _check_guard,
    is_well_ve_dominated,
    oracle_report,
)
from .graph import (
    Graph,
    NotATreeError,
    _parse_edge_list,
    bit_list,
    has_tree_size,
    serialize_edge_list,
)
from .harness import cross_validate, lemma_suite
from .recognizer import RECOGNITION, RecognitionResult, recognize
from .reduction import reduce_graph


def _read_edges(path: str) -> tuple[int, list[tuple[int, int]]]:
    with open(path, "r", encoding="utf-8") as handle:
        return _parse_edge_list(handle.read())


def _read_tree(path: str, task: str) -> Graph:
    """The graph of an edge-list file that must hold a tree.  A wrong edge
    count is rejected, with the error the library gives for a non-tree,
    before the graph is built."""
    n, edges = _read_edges(path)
    if not has_tree_size(n, len(edges)):
        raise NotATreeError(task)
    return Graph._build(n, edges)


_encode_str = json.encoder.encode_basestring_ascii


def _json_text(obj, indent: str = "") -> str:
    """obj laid out as json.dumps(obj, indent=2, sort_keys=True) lays it out.

    With an indent, json leaves its C encoder for a Python generator step
    per element; this lays out the containers itself and renders runs of
    ints, strs and int rows in C loops.  Dict keys are str in every payload.
    """
    if isinstance(obj, str):
        return _encode_str(obj)
    if type(obj) is int:
        return str(obj)
    if not isinstance(obj, (dict, list, tuple)):
        return json.dumps(obj)  # None, bool, float
    if not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    inner = indent + "  "
    if isinstance(obj, dict):
        keys = sorted(obj)
        texts = _texts(list(map(obj.__getitem__, keys)), inner)
        items, brackets = map("{}: {}".format, map(_encode_str, keys), texts), "{}"
    else:
        items, brackets = _texts(obj, inner), "[]"
    sep = ",\n" + inner
    return brackets[0] + "\n" + inner + sep.join(items) + "\n" + indent + brackets[1]


def _texts(values: list, inner: str):
    """The JSON text of each value at depth inner: ints, strs, and lists of
    ints of one nonzero length (units, edges) without a call per value."""
    kinds = set(map(type, values))
    if kinds == {int}:
        return map(str, values)
    if kinds == {str}:
        return map(_encode_str, values)
    if kinds <= {list, tuple} and len(widths := set(map(len, values))) == 1:
        if set(map(type, chain.from_iterable(values))) == {int}:  # so width > 0
            deeper = inner + "  "
            row = "[\n" + deeper + (",\n" + deeper).join(["{}"] * widths.pop()) + "\n" + inner + "]"
            return starmap(row.format, values)
    return [_json_text(v, inner) for v in values]


def _cmd_analyze(args: argparse.Namespace) -> int:
    n, edges = _read_edges(args.graph)
    _check_guard(n, None, args.max_vertices)  # before the graph is built
    g = Graph._build(n, edges)
    report = oracle_report(g, guard=args.max_vertices)
    if args.json:
        print(_json_text(report.to_json_dict()))
        return 0
    print(f"vertices: {g.n}  edges: {len(g.edges)}")
    print(f"gamma_ve: {report.gamma_ve}")
    print(f"big_gamma_ve: {report.big_gamma_ve}")
    sizes = ", ".join(f"{k}:{v}" for k, v in sorted(report.minimal_size_multiset.items()))
    print(f"minimal set sizes: {sizes}")
    print(f"i_ve: {report.i_ve}  beta_ve: {report.beta_ve}")
    print(f"well-ve-dominated: {report.is_well_ve_dominated}")
    print(f"well-ve-covered: {report.is_well_ve_covered}")
    return 0


def _recognition_dict(result: RecognitionResult) -> dict:
    payload: dict = {
        "verdict": "yes" if result.verdict else "no",
        "case": result.case,
        "reduced_order": result.reduced_tree.n,
        "to_reduced": result.to_reduced,
    }
    if result.partition is not None:
        label = result.partition.label
        payload["labels"] = dict(zip(map(str, range(len(label))), label))
        payload["units"] = result.partition.units
        payload["backbone_edges"] = result.partition.backbone_edges
    if result.certificate is not None:
        payload["certificate"] = bit_list(result.certificate)
    if result.refutation is not None:
        payload["refutation"] = {
            "reason": result.refutation.reason,
            "witness": result.refutation.witness,
        }
    return payload


def _cmd_recognize(args: argparse.Namespace) -> int:
    t = _read_tree(args.tree, RECOGNITION)
    if args.verify:
        _check_guard(t.n, None, args.max_vertices)  # before any recognition work
    result = recognize(t)
    agree = None
    if args.verify:
        agree = is_well_ve_dominated(t, guard=args.max_vertices) == result.verdict
    if args.json:
        payload = _recognition_dict(result)
        if args.verify:
            payload["oracle_agrees"] = agree
        print(_json_text(payload))
    else:
        print(f"verdict: {'yes' if result.verdict else 'no'} (case {result.case})")
        if result.partition is not None:
            labels = " ".join(
                f"{v}:{lab}" for v, lab in enumerate(result.partition.label)
            )
            print(f"labels: {labels}")
        if result.certificate is not None:
            print(f"certificate: {bit_list(result.certificate)}")
        if result.refutation is not None:
            print(
                f"refutation: {result.refutation.reason} "
                f"witness {list(result.refutation.witness)}"
            )
        if args.verify:
            print(f"oracle agrees: {agree}")
    return 1 if agree is False else 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    rmap = reduce_graph(Graph._build(*_read_edges(args.graph)))
    text = serialize_edge_list(rmap.reduced_graph)
    representative = {
        str(v): rmap.representatives[r] for v, r in enumerate(rmap.to_reduced)
    }
    if args.json:
        print(_json_text({"edge_list": text, "representative_map": representative}))
    else:
        sys.stdout.write(text)
        print(json.dumps(representative, sort_keys=True))
    return 0


def _cmd_expand(args: argparse.Namespace) -> int:
    r = _read_tree(args.backbone, BACKBONE_EXPANSION)
    t, partition = expand_backbone(r)
    if args.json:
        print(_json_text({"edge_list": serialize_edge_list(t), "units": partition.units}))
    else:
        sys.stdout.write(serialize_edge_list(t))
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    t = _read_tree(args.tree, RECOGNITION)
    result = recognize(t)
    if result.case != "T2":
        raise ValueError(f"tree does not decompose (case {result.case})")
    partition = result.partition
    bodies = unit_cut_decompose(result.reduced_tree, partition)
    if args.json:
        payload = {
            "units": partition.units,
            "bodies": [serialize_edge_list(b) for b in bodies],
            "backbone_edges": partition.backbone_edges,
        }
        print(_json_text(payload))
    else:
        for i, (leaf, s, w) in enumerate(partition.units):
            print(f"unit {i}: leaf={leaf} support={s} backbone={w}")
    return 0


def _cmd_from_cnf(args: argparse.Namespace) -> int:
    with open(args.dimacs, "r", encoding="utf-8") as handle:
        instance = parse_dimacs_cnf(handle.read())
    if args.decide:
        _check_gadget_guard(instance)  # before the gadget is built
    gadget = sat_to_graph(instance)
    payload: dict = {
        "vertices": gadget.graph.n,
        "edges": len(gadget.graph.edges),
        "clause_vertices": gadget.clause_vertices,
        "apex": gadget.apex,
    }
    if args.decide:
        payload["satisfiable"] = sat_decide_via_graph(gadget)
    if args.json:
        payload["edge_list"] = serialize_edge_list(gadget.graph)
        print(_json_text(payload))
    else:
        sys.stdout.write(serialize_edge_list(gadget.graph))
        if args.decide:
            print(f"satisfiable: {payload['satisfiable']}")
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    sweep = lemma_suite if args.lemmas else cross_validate
    report = sweep(args.max_n)
    if args.json:
        print(_json_text(report.to_json_dict()))
    else:
        width = max(5, len(str(max(report.trees_checked.values()))))
        print(f"order  {'trees':>{width}}  well-ve-dominated")
        for n in sorted(report.trees_checked):
            print(
                f"{n:>5}  {report.trees_checked[n]:>{width}}  {report.wvd_tree_census[n]:>5}"
            )
        print(f"mismatches: {len(report.recognizer_oracle_mismatches)}")
        for line in report.recognizer_oracle_mismatches:
            print(f"  {line}")
        if args.lemmas:
            print(f"lemma failures: {len(report.lemma_failures)}")
            for lemma_id, witness in report.lemma_failures:
                print(f"  {lemma_id}: {witness}")
    return 0 if report.ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser shared by every call in this process, built on first
    use.  Callers must not mutate it; parse_args leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON output")
    oracle = argparse.ArgumentParser(add_help=False)  # read by analyze, recognize --verify
    oracle.add_argument(
        "--max-vertices",
        type=int,
        default=FULL_MODE_GUARD,
        help="override the oracle vertex guard",
    )

    parser = argparse.ArgumentParser(
        prog="vedom",
        description="Exact analysis of vertex-edge domination in graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common, oracle], help="exact oracle report")
    p.add_argument("graph", help="edge-list file")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("recognize", parents=[common, oracle], help="well-ve-dominated tree test")
    p.add_argument("tree", help="edge-list file")
    p.add_argument("--verify", action="store_true", help="cross-check with the oracle")
    p.set_defaults(func=_cmd_recognize)

    p = sub.add_parser("reduce", parents=[common], help="collapse identical neighborhoods")
    p.add_argument("graph", help="edge-list file")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("expand", parents=[common], help="backbone expansion")
    p.add_argument("backbone", help="edge-list file of the backbone tree")
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("decompose", parents=[common], help="unit-cut decomposition")
    p.add_argument("tree", help="edge-list file")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("from-cnf", parents=[common], help="3-SAT reduction gadget")
    p.add_argument("dimacs", help="DIMACS CNF file")
    p.add_argument("--decide", action="store_true", help="decide satisfiability")
    p.set_defaults(func=_cmd_from_cnf)

    p = sub.add_parser("enumerate", parents=[common], help="tree sweep vs the oracle")
    p.add_argument("--max-n", type=int, required=True, help="largest order to sweep")
    p.add_argument("--lemmas", action="store_true", help="also run the lemma suite")
    p.set_defaults(func=_cmd_enumerate)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand with the cyclic garbage collector paused.

    No subcommand leaves a reference cycle, so its collections would free
    nothing; reference counting frees everything it drops.  The collector is
    paused after parsing, so argparse's exits never see it paused, and is
    re-enabled afterwards only if it was enabled on entry.
    """
    args = build_parser().parse_args(argv)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # every input error vedom raises is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if was_enabled:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
