"""Every name a package module imports is read by that module.

An import statement marked ``noqa`` is exempt: the package ``__init__``
re-exports and the bindings that perfbench wraps by name carry that mark.
"""
import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "soccersum"


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every name an unmarked import binds that the module
    never loads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            bound.append((node.lineno, alias.asname or alias.name.split(".")[0]))
    loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
              and isinstance(n.ctx, ast.Load)}
    return [(line, name) for line, name in bound if name not in loaded]


def test_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport sys\n"
              "from dataclasses import dataclass, field  # the second name goes unread\n"
              "from json import dumps  # noqa: F401\n"
              "def f():\n    import re\n    return os.sep, dataclass\n")
    assert unused_imports(source) == [(3, "sys"), (4, "field"), (7, "re")]


def test_no_module_imports_a_name_it_never_reads():
    found = [(str(path.relative_to(SRC)), line, name)
             for path in sorted(SRC.rglob("*.py"))
             for line, name in unused_imports(path.read_text())]
    assert found == []
