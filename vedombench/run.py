"""Run one vedom benchmark workload and print its metrics.

    python3 vedombench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; vedom is imported from ./src.  With
``--trace 0`` the last stdout line is a JSON object holding the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced pass
and the tracing overhead against an untraced pass of the same run.  Times are
scaled to a reference machine speed (see calibrate.py).  Every output is
checked; the exit code is 1 if a check failed and 2 if the benchmark could
not start (for example when ./src/vedom is missing).  Detailed results,
raw times included, and traces are written to vedombench/out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
import checks
import inputs
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 7
SETUP_KERNELS = 5  # kernel samples on each side of a set-up
E2E_UNITS = {"setup_s": "s", "ops_per_s": "items/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


def import_vedom() -> None:
    """(Re-)import vedom from ./src, never from an installed copy."""
    for name in [k for k in sys.modules if k == "vedom" or k.startswith("vedom.")]:
        del sys.modules[name]
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    importlib.invalidate_caches()
    vedom = importlib.import_module("vedom")
    importlib.import_module("vedom.cli")
    if not Path(vedom.__file__).resolve().is_relative_to(src):
        raise ImportError(f"vedom imported from {vedom.__file__}, not from {src}")


def setup_once(workload: str, seed: int, workdir: Path) -> tuple[float, list[workloads.Op]]:
    """Generate and write the inputs, import vedom, make one warm-up call."""
    started = time.perf_counter()
    items = inputs.GENERATORS[workload](seed)
    inputs.write_inputs(workload, seed, items, workdir)
    import_vedom()
    ops, warmup = workloads.build(workload, items)
    raw = warmup.call()
    if warmup.failed(raw):
        raise RuntimeError(f"warm-up call {warmup.label} failed: {raw}")
    elapsed = time.perf_counter() - started
    warmup.check(raw)
    return elapsed, ops


@dataclass
class Pass:
    speed: calibrate.Speed = field(default_factory=calibrate.Speed)
    durations_ns: list[int] = field(default_factory=list)   # raw, successful ops
    marks: list[tuple[int, int]] = field(default_factory=list)  # kernel samples around each
    items: int = 0
    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    check_error: str = ""

    def scaled_ns(self) -> list[float]:
        """Each operation's time at reference speed."""
        return [d * self.speed.scale(a, b) for d, (a, b) in zip(self.durations_ns, self.marks)]

    def busy_s(self) -> float:
        return sum(self.scaled_ns()) / 1e9


def timed_pass(ops: list[workloads.Op], seconds: float, after_first=lambda: None) -> Pass:
    """Whole rounds over the ops until ``seconds`` have passed (at least one).

    Only the entry-point call is timed; the calibration kernel and the
    output check run between calls.
    """
    result = Pass()
    started = time.perf_counter()
    while result.rounds == 0 or time.perf_counter() - started < seconds:
        for op in ops:
            result.attempted += 1
            before = result.speed.mark()
            t0 = time.perf_counter_ns()
            try:
                raw = op.call()
            except Exception:
                result.failed += 1
                print(f"operation {op.label} raised:", file=sys.stderr)
                traceback.print_exc()
                continue
            elapsed = time.perf_counter_ns() - t0
            if result.attempted == 1:
                after_first()
            result.speed.sample(calibrate.samples_after(elapsed))
            if op.failed(raw):
                result.failed += 1
                print(f"operation {op.label} failed: {raw}", file=sys.stderr)
                continue
            try:
                op.check(raw)
            except checks.CheckFailed as exc:
                result.check_error = f"{op.label}: {exc}"
                return result
            result.durations_ns.append(elapsed)
            result.marks.append((before, result.speed.mark()))
            result.items += op.items
        result.rounds += 1
    return result


def end_to_end(p: Pass, setup_s: float) -> dict[str, float]:
    """The end-to-end metrics of a pass, times at reference speed."""
    return {
        "setup_s": setup_s,
        "ops_per_s": p.items / p.busy_s(),
        "op_p50_ms": statistics.median(p.scaled_ns()) / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }


def traced_run(ops: list[workloads.Op], seconds: float) -> tuple[list[Pass], dict, dict]:
    """Untraced pass, then traced pass, each for half the run."""
    base = timed_pass(ops, seconds / 2)
    if base.check_error or base.failed:
        return [base], {}, {}
    tracer = tracing.Tracer()
    tracer.install()
    tracer.capture = True
    try:
        traced = timed_pass(ops, seconds / 2, after_first=lambda: setattr(tracer, "capture", False))
    finally:
        tracer.uninstall()
    if traced.check_error or traced.failed:
        return [base, traced], {}, {}
    base_round = base.busy_s() / base.rounds
    traced_round = traced.busy_s() / traced.rounds
    metrics = tracer.metrics(traced.rounds, 100.0 * (traced_round / base_round - 1.0), traced.speed.scale())
    units = tracing.layer_metric_units()
    detail = {
        "per_round_busy_s": {"untraced": base_round, "traced": traced_round},
        "ops_per_s": {"untraced": base.items / base.busy_s(), "traced": traced.items / traced.busy_s()},
        "rounds": {"untraced": base.rounds, "traced": traced.rounds},
        "first_op_spans": [
            {"name": s[0], "parent": s[1], "start_ns": s[2], "end_ns": s[3]} for s in tracer.spans
        ],
    }
    return [base, traced], {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="vedom benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(inputs.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = OUT_DIR / f"inputs-{args.workload}-{os.getpid()}"
    setup_speed = calibrate.Speed()
    try:
        setups, scaled_setups = [], []
        for _ in range(SETUP_REPEATS):
            before = setup_speed.mark()
            setup_speed.sample(SETUP_KERNELS)
            elapsed, ops = setup_once(args.workload, args.seed, workdir)
            setup_speed.sample(SETUP_KERNELS)
            setups.append(elapsed)
            scaled_setups.append(elapsed * setup_speed.scale(before, setup_speed.mark()))
        if args.trace:
            passes, metrics, detail = traced_run(ops, args.seconds)
        else:
            passes = [timed_pass(ops, args.seconds)]
            p = passes[0]
            metrics, detail = {}, {}
            if p.durations_ns and not p.check_error:
                values = end_to_end(p, statistics.median(scaled_setups))
                metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
                detail = {
                    "rounds": p.rounds,
                    "setup_raw_s": setups,
                    "op_raw_ms": [d / 1e6 for d in p.durations_ns],
                    "op_scaled_ms": [d / 1e6 for d in p.scaled_ns()],
                    "kernel_ms": [k / 1e6 for k in p.speed.samples_ns],
                }
    except (ImportError, OSError, RuntimeError, checks.CheckFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    check_error = next((p.check_error for p in passes if p.check_error), "")
    result = {
        "correct": not check_error,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    (OUT_DIR / f"result-{stem}-trace{args.trace}.json").write_text(
        json.dumps({**result, "check_error": check_error, "detail": {} if args.trace else detail}) + "\n"
    )
    if args.trace and detail:
        (OUT_DIR / f"trace-{stem}.json").write_text(json.dumps({"metrics": metrics, **detail}) + "\n")
    if check_error:
        print(f"check failed: {check_error}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 1 if check_error else 0


if __name__ == "__main__":
    raise SystemExit(main())
