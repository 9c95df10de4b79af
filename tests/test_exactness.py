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
imports nothing from ``randlab``.  A sixth holds the declared Python floor:
every module parses with the grammar of Python 3.10, the oldest version
``pyproject.toml`` accepts.  A seventh states each public name once:
``randlab.__all__`` holds the 80 pinned names, each library module's
``__all__`` names only what that module defines itself, and only
``__init__.py`` uses ``import *``, to re-export those lists.
"""

from __future__ import annotations

import ast
import re
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


PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"
FLOOR = re.search(r'requires-python = ">=(\d+)\.(\d+)"', PYPROJECT.read_text(encoding="utf-8"))
PYTHON_FLOOR = tuple(int(part) for part in FLOOR.groups())


def test_the_floor_lint_sees_newer_grammar() -> None:
    snippet = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(snippet)
    with pytest.raises(SyntaxError):
        ast.parse(snippet, feature_version=PYTHON_FLOOR)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_source_parses_at_the_python_floor(path: Path) -> None:
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=PYTHON_FLOOR)


# the package's public surface, as it stood when each module took its own __all__
PUBLIC_NAMES = [
    "BridgeMassError", "BridgeResult", "BudgetedOutcome", "ComplexityBound",
    "DEFAULT_BUDGET", "DEFAULT_DEPTH", "DEFAULT_K_LEN_LIMIT", "DEFAULT_LEN_LIMIT",
    "DYADIC_ONE", "DYADIC_ZERO", "DeficiencyReport", "DovetailEvent", "Dyadic",
    "KraftOverflowError", "LevelVerdict", "MachineBehavior", "OmegaEstimate",
    "PAD_SCAN_LIMIT", "PadWitness", "REGISTRY_NAMES", "REGISTRY_SIZE", "REG_CODE_TABLE",
    "REG_ECHO", "REG_IDENTITY", "REG_PAD", "REG_PAIR", "Sense1Test", "Sense2Test",
    "SubadditivityReport", "__version__", "all_strings", "bits_of", "budget_short_programs",
    "builtin_tests", "census_incompressible", "chain", "clear_code_table",
    "compression_test", "cover_measure", "current_code_table", "decode_machine",
    "dovetail_domain", "dovetail_events", "halted_below", "horizon_search",
    "index_to_string", "install_code_table", "is_prefix", "is_prefix_free", "kraft_code",
    "kraft_code_stream", "kraft_sum", "level_sense1", "mapping_behavior",
    "ml_to_kc_decoder", "normalize", "omega_lower_bound", "pad_witness", "parse_dyadic",
    "plain_c", "prefix_freeize", "prefix_guard", "prefix_k", "prefix_universal_run",
    "prefix_universal_status", "psi_reconstruct", "registered_tests", "registry_constants",
    "registry_fingerprint", "run", "score", "sense1_to_sense2", "sense2_to_sense1",
    "string_to_index", "subadditivity_probe", "universal_run", "universal_status",
    "universal_test", "validate_sense1", "value_of",
]


def test_the_package_exports_the_pinned_names() -> None:
    assert len(PUBLIC_NAMES) == 80
    assert sorted(randlab.__all__) == PUBLIC_NAMES
    assert len(set(randlab.__all__)) == len(randlab.__all__)
    star: dict = {}
    exec("from randlab import *", star)
    for name in randlab.__all__:
        assert star[name] is getattr(randlab, name), name


def star_imports(tree: ast.AST) -> list[str]:
    """The module named by every ``import *``, in source order."""
    return [
        node.module or ""
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and any(alias.name == "*" for alias in node.names)
    ]


def test_the_lint_sees_every_star_import() -> None:
    snippet = (
        "from os import *\nfrom .bitstr import *\nfrom . import machine\n"
        "from .omega import psi_reconstruct\n"
    )
    assert star_imports(ast.parse(snippet)) == ["os", "bitstr"]
    assert star_imports(ast.parse("import os\nfrom os.path import join as star\n")) == []


LIBRARY = ["bitstr", "prefixfree", "machine", "complexity", "omega", "mltest"]


def test_only_the_package_imports_star() -> None:
    # each library module's __all__ is re-exported once, by __init__.py
    found = [
        (path.name, module)
        for path in SOURCES
        for module in star_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == [("__init__.py", module) for module in LIBRARY]


def own_definitions(tree: ast.Module) -> set[str]:
    """The names a module binds at its top level by def, class or assignment;
    the names it imports are not its own."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def test_the_lint_sees_every_own_definition() -> None:
    snippet = (
        "from .machine import DEFAULT_BUDGET\nimport json\nA = 1\nB: int = 2\n"
        "C, (D, E) = 3, (4, 5)\ndef f():\n    G = 6\nclass H:\n    I = 7\n"
    )
    assert own_definitions(ast.parse(snippet)) == {"A", "B", "C", "D", "E", "f", "H"}


@pytest.mark.parametrize("module", LIBRARY)
def test_a_module_exports_only_what_it_defines(module: str) -> None:
    tree = ast.parse(Path(randlab.__file__).with_name(f"{module}.py").read_text(encoding="utf-8"))
    exported = getattr(randlab, module).__all__
    assert len(set(exported)) == len(exported)
    assert set(exported) <= own_definitions(tree), sorted(set(exported) - own_definitions(tree))
