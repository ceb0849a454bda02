"""The benchmark's tracer wraps vedom functions by name, so each name it
lists must exist.  The list is read from the tracer's source with ``ast``,
without importing the benchmark package."""

import ast
import functools
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "vedombench" / "tracing.py"


def _traced() -> tuple[tuple[str, str], ...]:
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no TRACED assignment in vedombench/tracing.py")


def test_every_traced_name_resolves():
    traced = _traced()
    assert traced
    for module, attr in traced:
        target = functools.reduce(getattr, attr.split("."), importlib.import_module(f"vedom.{module}"))
        assert callable(target), f"{module}.{attr}"
