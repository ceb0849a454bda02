"""Per-layer tracing by wrapping vedom's public functions from outside.

``Tracer.install`` replaces each traced function with a wrapper in its
defining module and under every other name a ``vedom`` module imported it
as, so intra-package calls are traced too.  Each call is a span; a span's
self time is its duration minus the time covered by its child spans.
Generators are traced per step, so ``enumerate_free_trees`` counts only
the time spent inside the generator.  Totals are aggregated as spans close;
the full span tree (name, parent, start, end) is kept for the first
operation only, up to ``SPAN_CAP`` spans.
"""

from __future__ import annotations

import sys
import time
from typing import Callable

# (module, attribute path) of every traced function
TRACED = (
    ("cli", "main"),
    ("graph", "parse_edge_list"),
    ("graph", "Graph.from_edges"),
    ("graph", "is_tree"),
    ("graph", "induced_delete"),
    ("graph", "connected_components"),
    ("reduction", "reduce_graph"),
    ("reduction", "is_reduced"),
    ("recognizer", "recognize"),
    ("recognizer", "unit_partition"),
    ("recognizer", "build_certificate"),
    ("recognizer", "verify_certificate"),
    ("recognizer", "find_forbidden_configuration"),
    ("recognizer", "validate_unit_partition"),
    ("domination", "oracle_report"),
    ("domination", "enumerate_minimal_ve_dominating_sets"),
    ("domination", "dominated_edge_masks"),
    ("freetrees", "enumerate_free_trees"),
    ("freetrees", "canonical_form"),
    ("harness", "cross_validate"),
    ("harness", "lemma_suite"),
    ("constructions", "sat_to_graph"),
    ("constructions", "sat_decide_via_graph"),
    ("constructions", "unit_cut_decompose"),
)
GENERATORS = {"freetrees.enumerate_free_trees"}
COUNTERS = (
    "domination.minimal_sets",
    "reduction.vertices_removed",
    "freetrees.trees_yielded",
    "recognizer.forbidden_paths_found",
)
SPAN_CAP = 20000


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for module, attr in TRACED:
        units[f"{module}.{attr}.calls"] = "count"
        units[f"{module}.{attr}.self_s"] = "s"
    for name in COUNTERS:
        units[name] = "count"
    units["freetrees.yield_ratio"] = "ratio"
    units["trace.overhead_pct"] = "%"
    return units


def _count_result(name: str, args: tuple, result) -> tuple[str, int] | None:
    """The counter a traced call's result feeds, if any."""
    if name == "domination.enumerate_minimal_ve_dominating_sets":
        return "domination.minimal_sets", len(result)
    if name == "reduction.reduce_graph":
        return "reduction.vertices_removed", args[0].n - result.reduced_graph.n
    if name == "recognizer.find_forbidden_configuration":
        return "recognizer.forbidden_paths_found", int(result is not None)
    return None


class Tracer:
    def __init__(self) -> None:
        self.calls = {f"{m}.{a}": 0 for m, a in TRACED}
        self.self_ns = dict.fromkeys(self.calls, 0)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.spans: list[list] = []   # [name, parent index, start ns, end ns]
        self.capture = False
        self._stack: list[list[int]] = []  # [child ns, span index or -1]
        self._undo: list[Callable[[], None]] = []

    def _enter(self, name: str) -> list[int]:
        index = -1
        if self.capture and len(self.spans) < SPAN_CAP:
            parent = self._stack[-1][1] if self._stack else -1
            index = len(self.spans)
            self.spans.append([name, parent, time.perf_counter_ns(), 0])
        frame = [0, index]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list[int], started: int) -> None:
        ended = time.perf_counter_ns()
        duration = ended - started
        self._stack.pop()
        self.self_ns[name] += duration - frame[0]
        if self._stack:
            self._stack[-1][0] += duration
        if frame[1] >= 0:
            self.spans[frame[1]][3] = ended

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self

        if name in GENERATORS:
            def traced_generator(*args, **kwargs):
                tracer.calls[name] += 1
                steps = fn(*args, **kwargs)
                while True:
                    frame = tracer._enter(name)
                    started = time.perf_counter_ns()
                    try:
                        item = next(steps)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(name, frame, started)
                    tracer.counters["freetrees.trees_yielded"] += 1
                    yield item
            return traced_generator

        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            frame = tracer._enter(name)
            started = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name, frame, started)
            counted = _count_result(name, args, result)
            if counted is not None:
                tracer.counters[counted[0]] += counted[1]
            return result
        return traced

    def install(self, package: str = "vedom") -> None:
        """Wrap every TRACED function wherever a loaded vedom module binds it."""
        modules = [m for key, m in sys.modules.items() if key == package or key.startswith(package + ".")]
        for module_name, attr in TRACED:
            name = f"{module_name}.{attr}"
            home = sys.modules[f"{package}.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, staticmethod(self._wrap(name, original.__func__)))
                self._undo.append(lambda c=cls, k=method, o=original: setattr(c, k, o))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._undo.append(lambda m=module, k=key, o=original: setattr(m, k, o))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def metrics(self, rounds: int, overhead_pct: float, scale: float = 1.0) -> dict[str, float]:
        """Per-layer metrics per round of the workload's inputs; self times
        are multiplied by ``scale`` (the pass's reference-speed factor)."""
        out: dict[str, float] = {}
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name] / rounds
            out[f"{name}.self_s"] = self.self_ns[name] / 1e9 / rounds * scale
        for name, value in self.counters.items():
            out[name] = value / rounds
        canonical = self.calls["freetrees.canonical_form"]
        out["freetrees.yield_ratio"] = self.counters["freetrees.trees_yielded"] / canonical if canonical else 0.0
        out["trace.overhead_pct"] = overhead_pct
        return out
