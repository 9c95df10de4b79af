"""Exactness lint: the library computes with ints, strings and Dyadics only.

Every number randlab reports is exact, so its source holds no true division,
no float literal, no use of the name ``float`` and no ``math`` import.  The
check reads the syntax tree, so strings and comments may still mention them.

A second lint keeps the module state in one place: the only ``global``
statement rebinds the registry object, in ``install_code_table``.  A third
keeps memo state in the universe that owns it: the only process-wide
``functools`` cache is the one on ``mltest._full_space``.  A fourth keeps one
spelling of a ``Dyadic``: the only f-string that reads both a ``.num`` and a
``.scale`` is the one in ``Dyadic.__str__``.  A fifth keeps the reference
interpreter in ``tests/reference.py`` independent of the engine it checks: it
imports nothing from ``randlab``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import randlab

SOURCES = sorted(Path(randlab.__file__).parent.glob("*.py"))


def inexact_nodes(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"{where}: true division")
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{where}: float constant {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"{where}: the name float")
        elif isinstance(node, ast.Import) and any(
            alias.name.split(".")[0] == "math" for alias in node.names
        ):
            found.append(f"{where}: math import")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "math":
            found.append(f"{where}: math import")
    return found


def test_the_lint_sees_every_kind_of_inexact_code() -> None:
    snippet = "import math\nfrom math import log2\nx = 1 / 2\nx /= 2\ny = 0.5\nz = float(3)\n"
    assert len(inexact_nodes(ast.parse(snippet))) == 6
    exact = "x = 7 // 2\nx //= 2\ns = 'a / b, 0.5, float, math'\n"
    assert inexact_nodes(ast.parse(exact)) == []


def test_the_lint_reads_the_whole_package() -> None:
    names = {path.name for path in SOURCES}
    assert {"bitstr.py", "machine.py", "complexity.py", "mltest.py", "cli.py"} <= names


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_source_is_exact(path: Path) -> None:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert inexact_nodes(tree) == []


def global_statements(tree: ast.AST, owner: str | None = None) -> list[tuple]:
    """(enclosing function or None, names) for every global statement."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Global):
            found.append((owner, node.names))
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
        found += global_statements(node, inner)
    return found


def test_the_lint_sees_every_global_statement() -> None:
    snippet = "global a\ndef f():\n    global b, c\n    def g():\n        global d\n"
    assert global_statements(ast.parse(snippet)) == [(None, ["a"]), ("f", ["b", "c"]), ("g", ["d"])]


def test_module_state_is_rebound_in_one_place() -> None:
    found = [
        (path.name, owner, len(names))
        for path in SOURCES
        for owner, names in global_statements(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == [("machine.py", "install_code_table", 1)]


CACHES = {"lru_cache", "cache"}


def cache_uses(tree: ast.AST) -> list[tuple[str | None, str]]:
    """(the function it decorates or None, spelling) for every use of
    functools' lru_cache or cache, however imported, in line order."""
    names, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            names |= {alias.asname or alias.name for alias in node.names if alias.name in CACHES}
        elif isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name for alias in node.names if alias.name == "functools"}
    owners = {
        id(dec.func if isinstance(dec, ast.Call) else dec): node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for dec in node.decorator_list
    }
    found = [
        (node.lineno, node.col_offset, owners.get(id(node)), ast.unparse(node))
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id in names)
        or (
            isinstance(node, ast.Attribute)
            and node.attr in CACHES
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        )
    ]
    return [(owner, spelling) for _, _, owner, spelling in sorted(found)]


def test_the_lint_sees_every_process_wide_cache() -> None:
    snippet = (
        "import functools\nimport functools as ft\nfrom functools import cache, lru_cache as lc\n"
        "@functools.lru_cache(maxsize=None)\ndef a(): pass\n@ft.cache\ndef b(): pass\n"
        "@lc(1)\ndef c(): pass\n@cache\ndef d(): pass\ne = functools.cache(len)\n"
    )
    assert cache_uses(ast.parse(snippet)) == [
        ("a", "functools.lru_cache"), ("b", "ft.cache"), ("c", "lc"), ("d", "cache"),
        (None, "functools.cache"),
    ]
    unrelated = "cache = {}\ndef lru_cache(f):\n    return f\n@lru_cache\ndef f(): pass\n"
    assert cache_uses(ast.parse(unrelated)) == []


def test_memo_state_lives_in_the_universe() -> None:
    # an unbounded cache on decode_machine held 37.9 MiB for 200,000 indices
    found = [
        (path.name, owner)
        for path in SOURCES
        for owner, _ in cache_uses(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == [("mltest.py", "_full_space")]


def dyadic_spellings(tree: ast.AST, owner: str | None = None) -> list[str | None]:
    """The enclosing class or def, dotted, of every outermost f-string that
    reads both a ``.num`` and a ``.scale`` attribute, in source order."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.JoinedStr):
            attrs = {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            if {"num", "scale"} <= attrs:
                found.append(owner)
            continue
        inner = owner
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{owner}.{node.name}" if owner else node.name
        found += dyadic_spellings(node, inner)
    return found


def test_the_lint_sees_every_dyadic_spelling() -> None:
    snippet = (
        'a = f"{d.num}/2^{d.scale}"\n'
        'class D:\n    def s(self):\n        return f"{self.num}/{1 << self.scale}"\n'
        'def g(r):\n    def h():\n        return f"{r.num:>{r.scale}}"\n'
        "b = f\"{f'{r.num}'}/{2 ** r.scale}\"\n"
    )
    assert dyadic_spellings(ast.parse(snippet)) == [None, "D.s", "g.h", None]
    unrelated = (
        'a = f"{num}/2^{scale}"\nb = f"{r.num}"\nc = f"{r.scale}"\n'
        'd = "{}/{}".format(r.num, r.scale)\ne = str(r.num) + "/" + str(r.scale)\n'
    )
    assert dyadic_spellings(ast.parse(unrelated)) == []


def test_one_f_string_spells_a_dyadic() -> None:
    # str(Dyadic) is the report cell; a second spelling would drift from it
    found = [
        (path.name, owner)
        for path in SOURCES
        for owner in dyadic_spellings(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == [("bitstr.py", "Dyadic.__str__")]


REFERENCE = Path(__file__).with_name("reference.py")


def randlab_imports(tree: ast.AST) -> list[str]:
    """The module named by every import of randlab or of its submodules."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append(node.module or "")
    return [name for name in names if name.split(".")[0] == "randlab"]


def test_the_lint_sees_every_randlab_import() -> None:
    snippet = (
        "import randlab\nimport os, randlab.machine as m\nfrom randlab import machine\n"
        "from randlab.bitstr import index_to_string\ndef f():\n    import randlab.cli\n"
    )
    assert randlab_imports(ast.parse(snippet)) == [
        "randlab", "randlab.machine", "randlab", "randlab.bitstr", "randlab.cli"
    ]
    unrelated = "import os\nfrom itertools import count\nrandlab = 'randlab.machine'\n"
    assert randlab_imports(ast.parse(unrelated)) == []


def test_the_reference_imports_nothing_from_randlab() -> None:
    # it checks the engine only while it shares none of the engine's code
    assert randlab_imports(ast.parse(REFERENCE.read_text(encoding="utf-8"))) == []
