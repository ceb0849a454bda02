"""Every function and class in the library has a reason to be there: the
package exports it, or library code names it.  A helper that only tests
call belongs in ``tests/``.  The names are read from the sources with
``ast``; an import does not count as a use.  Nor does a module import a
name it does not read."""

import ast
from pathlib import Path

import vedom

SOURCES = sorted(Path(vedom.__file__).parent.glob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _named(node: ast.AST) -> set[str]:
    """The names node reads or takes as an attribute."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def orphans(sources: list[Path], exported: set[str]) -> list[str]:
    """module.name of each top-level function or class in sources that is
    not exported and not named by another top-level statement of any of
    them, imports aside."""
    statements = [
        (path.stem, node, _named(node))
        for path in sources
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if not isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    return [
        f"{module}.{node.name}"
        for module, node, _ in statements
        if isinstance(node, DEFINITIONS)
        and node.name not in exported
        and not any(node.name in names for _, other, names in statements if other is not node)
    ]


def test_every_library_definition_is_exported_or_used():
    assert orphans(SOURCES, set(vedom.__all__)) == []


def test_a_name_only_imports_or_its_own_body_use_is_flagged(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return helper()\n\n\n"
        "def helper():\n    return 1\n\n\n"
        "def recursive(k):\n    return recursive(k - 1) if k else used()\n"
    )
    (tmp_path / "b.py").write_text("from .a import recursive\n\nif __name__ == '__main__':\n    used()\n")
    assert orphans(sorted(tmp_path.glob("*.py")), set()) == ["a.recursive"]
    assert orphans(sorted(tmp_path.glob("*.py")), {"recursive"}) == []


def unread_imports(path: Path) -> list[str]:
    """The names path imports, ``annotations`` aside, that it never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    imported = [
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    return [name for name in imported if name != "annotations" and name not in read]


def test_every_import_is_used():
    """__init__ imports to export, so it is left out."""
    unread = {path.stem: unread_imports(path) for path in SOURCES if path.stem != "__init__"}
    assert {stem: names for stem, names in unread.items() if names} == {}


def test_an_unread_import_is_flagged(tmp_path):
    (tmp_path / "a.py").write_text(
        "from __future__ import annotations\n\nimport os.path\nimport sys as system\n"
        "from .graph import Graph, is_tree\n\n\ndef f(g: Graph) -> str:\n    return os.sep\n"
    )
    assert unread_imports(tmp_path / "a.py") == ["system", "is_tree"]
