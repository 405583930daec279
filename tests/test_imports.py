"""Every name a package module imports is read by that module, every
top-level function and class of the package is named somewhere else, only
``core`` names the fields of an action span's JSON record, no handler
re-raises the error it caught with a location written in front
(``core.naming`` is the one way a location gets into a message), and only
``core``'s two openers open a file or make a directory.

An import statement marked ``noqa`` is exempt: the package ``__init__``
re-exports and the bindings that perfbench wraps by name carry that mark.
"""
import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "soccersum"


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


def definitions(source: str) -> list[tuple[int, str]]:
    """(line, name) of every top-level function and class."""
    return [(node.lineno, node.name) for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def names_used(source: str, package_init: bool = False) -> set[str]:
    """Every name the code reads, takes as an attribute or imports, and
    every identifier in a string that holds only a (dotted) name, as
    perfbench names the functions it wraps.  A definition does not name
    itself, and a ``package_init`` does not name what it imports from the
    package to re-export."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if not (package_init and getattr(node, "level", 0)):
                used.update(alias.name.split(".")[-1] for alias in node.names)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and re.fullmatch(r"[\w.:]+", node.value)):
            used.update(re.findall(r"\w+", node.value))
    return used


def test_scan_finds_an_orphaned_definition():
    source = ("import json\nclass Used:\n    pass\nclass Orphan:\n    pass\n"
              "def f():\n    return Used, json.dumps('g')\ndef g():\n    return g\n")
    assert definitions(source) == [(2, "Used"), (4, "Orphan"), (6, "f"), (8, "g")]
    assert {"Used", "dumps", "g"} <= names_used(source)
    assert "Orphan" not in names_used(source) and "f" not in names_used(source)
    init = "from .core import Used  # noqa: F401\nfrom json import dumps\n"
    assert names_used(init, package_init=True) == {"dumps"}


def test_every_definition_is_named_elsewhere():
    files = [path for tree in ("src", "tests", "perfbench")
             for path in sorted((ROOT / tree).rglob("*.py"))]
    used = set().union(*(names_used(path.read_text(), path.name == "__init__.py")
                         for path in files))
    orphans = [(str(path.relative_to(SRC)), line, name)
               for path in sorted(SRC.rglob("*.py"))
               for line, name in definitions(path.read_text()) if name not in used]
    assert orphans == []


# the index fields of an action span's JSON record; ``core.Action.record``
# and ``core.Action.from_record`` are the one codec that spells them
SPAN_FIELDS = ("start_index", "end_index")


def span_field_literals(source: str) -> list[tuple[int, str]]:
    """(line, text) of every string literal that is a span field's name."""
    return sorted((node.lineno, node.value) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Constant) and node.value in SPAN_FIELDS)


def test_scan_finds_a_span_field_literal():
    source = ("def f(a, rec):\n    return a.start_index, rec['end_index']\n"
              "def g(a):\n    return {\"start_index\": a.start_index}\n")
    assert span_field_literals(source) == [(2, "end_index"), (4, "start_index")]


def test_only_core_spells_a_span_record():
    found = [(str(path.relative_to(SRC)), line, text)
             for path in sorted(SRC.rglob("*.py")) if path != SRC / "core.py"
             for line, text in span_field_literals(path.read_text())]
    assert found == []


def rewraps(source: str) -> list[tuple[int, str]]:
    """(line, class) of every ``raise X(...)`` inside an ``except X as exc``
    handler (``X`` alone or in a tuple) whose arguments read ``exc``: an
    error re-raised as its own class with its message written into a new
    one.  A handler that turns ``exc`` into another class is not one."""
    found = []
    for handler in ast.walk(ast.parse(source)):
        if not (isinstance(handler, ast.ExceptHandler) and handler.name):
            continue
        caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        caught = {ast.unparse(t) for t in caught}
        for node in ast.walk(handler):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and ast.unparse(node.exc.func) in caught
                    and any(isinstance(n, ast.Name) and n.id == handler.name
                            for n in ast.walk(node.exc))):
                found.append((node.lineno, ast.unparse(node.exc.func)))
    return sorted(found)


def test_scan_finds_a_rewrap():
    source = ("def f(path):\n"
              "    try:\n        g()\n"
              "    except DataFormatError as exc:\n"
              "        raise DataFormatError('%s: %s' % (path, exc)) from None\n"
              "    try:\n        g()\n"
              "    except (KeyError, ConfigError) as exc:\n"
              "        raise ConfigError(str(exc))\n"
              "    try:\n        g()\n"
              "    except ConfigError as exc:  # another class: allowed\n"
              "        raise DataFormatError('record: %s' % exc) from None\n"
              "    except ValueError as exc:  # through the helper, or re-raised as is\n"
              "        if path:\n            raise named(path, exc)\n"
              "        raise ValueError('plain')\n")
    assert rewraps(source) == [(5, "DataFormatError"), (9, "ConfigError")]


def test_no_handler_rewraps_the_error_it_caught():
    found = [(str(path.relative_to(SRC)), line, name)
             for path in sorted(SRC.rglob("*.py"))
             for line, name in rewraps(path.read_text())]
    assert found == []


# the one reader and the one writer of a file: each turns an ``OSError``
# into a typed error, and the writer makes the file's directory
OPENERS = ("open_input", "open_output")


def file_openings(source: str, allowed: tuple[str, ...] = ()) -> list[tuple[int, str]]:
    """(line, call) of every call to builtin ``open`` or ``os.makedirs``
    outside the functions named in ``allowed``."""
    tree = ast.parse(source)
    exempt = {id(node) for f in ast.walk(tree)
              if isinstance(f, ast.FunctionDef) and f.name in allowed for node in ast.walk(f)}
    return sorted((node.lineno, ast.unparse(node.func)) for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and id(node) not in exempt
                  and ast.unparse(node.func) in ("open", "os.makedirs"))


def test_scan_finds_a_file_opening():
    source = ("import os\n"
              "def open_output(path):\n    os.makedirs(path)\n    return open(path, 'w')\n"
              "def save(path, fh):\n    with open(path) as out:\n"
              "        os.makedirs(path, exist_ok=True)\n"
              "    return fh.open(), np.memmap(path), wavfile.read(path)\n")
    assert file_openings(source, ("open_output",)) == [(6, "open"), (7, "os.makedirs")]
    assert file_openings(source) == [(3, "os.makedirs"), (4, "open"), (6, "open"),
                                     (7, "os.makedirs")]


def test_only_the_core_openers_open_a_file():
    found = [(str(path.relative_to(SRC)), line, call)
             for path in sorted(SRC.rglob("*.py"))
             for line, call in file_openings(path.read_text(),
                                             OPENERS if path == SRC / "core.py" else ())]
    assert found == []
