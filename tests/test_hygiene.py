"""Source hygiene: no module of the package imports a name it never uses,
no module-level private name goes unreferenced, private names are
imported only from ``core``, each law's text is written once, one
function of ``core`` raises every cap, only ``core`` reads the
environment, and the package imports no public name that a module's
``__all__`` already declares."""

import ast
import importlib
from collections import defaultdict
from pathlib import Path

import pytest

import skewlat
from skewlat import core

SRC = Path(__file__).resolve().parent.parent / "src" / "skewlat"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
PACKAGE = sorted(SRC.glob("*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.asname is not None and alias.asname == alias.name:
                    continue  # `import x as x` is an explicit re-export
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_scan_covers_every_module():
    assert {p.name for p in MODULES} >= {"census.py", "cli.py", "completeness.py", "core.py", "frames.py", "models.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unused_imports(tree) == []


def test_the_scan_flags_an_unused_import():
    tree = ast.parse("import os\nfrom a import b, c as d\nfrom e import f as f\nprint(b)\n")
    assert _unused_imports(tree) == ["os (line 1)", "d (line 2)"]


def _private_imports(tree: ast.Module) -> list[str]:
    # `from .m import _x` (or `from skewlat.m import _x`) with m other than core
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("skewlat")):
            if (node.module or "").rpartition(".")[2] == "core":
                continue
            found += [f"{alias.name} from {node.module} (line {node.lineno})" for alias in node.names
                      if alias.name.startswith("_") and not alias.name.startswith("__")]
    return found


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_private_names_are_imported_only_from_core(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _private_imports(tree) == []


def test_the_scan_flags_a_private_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "from .core import _scan, check_identity\n"
        "from skewlat.core import _law\n"
        "from .models import _effective_cap, chain_lattice\n"
        "def f():\n    from skewlat.completeness import _bounds\n"
    )
    assert _private_imports(tree) == [
        "_effective_cap from models (line 4)",
        "_bounds from skewlat.completeness (line 6)",
    ]


def _private_definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    # module-level `def _x`, `class _X` and `_X = ...`; dunders are not private
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(t.id, node) for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
    return [(name, node) for name, node in found if name.startswith("_") and not name.startswith("__")]


def _orphaned_private_names(trees: dict[str, ast.Module]) -> list[str]:
    # a reference is a name, an attribute or an imported alias anywhere in the package
    refs = defaultdict(set)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs[node.id].add(id(node))
            elif isinstance(node, ast.Attribute):
                refs[node.attr].add(id(node))
            elif isinstance(node, ast.alias):
                refs[node.name].add(id(node))
    orphans = []
    for module, tree in trees.items():
        for name, definition in _private_definitions(tree):
            own = {id(node) for node in ast.walk(definition)}
            if not refs[name] - own:
                orphans.append(f"{module}: {name} (line {definition.lineno})")
    return orphans


def test_every_module_level_private_name_is_referenced():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in PACKAGE}
    assert _orphaned_private_names(trees) == []


def test_the_scan_flags_an_orphaned_private_name():
    a = ast.parse(
        "_CAP = 3\n_SPARE: int = 4\n__all__ = []\n"
        "def _used(): return _CAP\n"
        "def _orphan(): return 1\n"
        "def _recursive(k): return _recursive(k - 1)\n"
        "class _Hidden: pass\n"
    )
    b = ast.parse("from a import _used\nprint(_used())\n")
    assert _orphaned_private_names({"a.py": a, "b.py": b}) == [
        "a.py: _SPARE (line 2)",
        "a.py: _orphan (line 5)",
        "a.py: _recursive (line 6)",
        "a.py: _Hidden (line 7)",
    ]


def test_every_exported_name_resolves():
    # a stale entry would otherwise fail only on `from skewlat import *`
    assert len(skewlat.__all__) == len(set(skewlat.__all__))
    assert [name for name in skewlat.__all__ if not hasattr(skewlat, name)] == []
    for path in MODULES:
        module = importlib.import_module(f"skewlat.{path.stem}")
        exported = getattr(module, "__all__", ())
        assert [name for name in exported if not hasattr(module, name)] == [], path.name


def _hand_imports(tree: ast.Module, declared: dict[str, list[str]]) -> list[str]:
    # names imported one by one from a module whose __all__ declares them, when the package republishes that
    # whole __all__ (then `from .m import *` brings them); cli's __all__ also holds main and entry
    exported = set(skewlat.__all__)
    return [f"{alias.name} from {node.module} (line {node.lineno})" for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in declared
            and set(declared[node.module]) <= exported
            for alias in node.names if alias.name in declared[node.module]]


def test_the_package_imports_each_public_name_once():
    modules = ("core", "models", "completeness", "frames", "census", "cli")
    declared = {name: importlib.import_module(f"skewlat.{name}").__all__ for name in modules}
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    assert _hand_imports(tree, declared) == []
    cli = ["ParseError", "StructureFile", "emit", "parse"]
    assert skewlat.__all__ == [name for module in modules[:-1] for name in declared[module]] + cli


def test_the_scan_flags_a_hand_import_of_a_republished_name():
    tree = ast.parse(
        "from .core import *\nfrom .core import Table, check_identity\n"
        "from .cli import ParseError, main\nfrom . import core\n"
    )
    declared = {"core": ["check_identity", "green_d"], "cli": ["ParseError", "main"]}
    assert _hand_imports(tree, declared) == ["check_identity from core (line 2)"]


def _repeated_laws(trees: dict[str, ast.Module]) -> list[str]:
    # string constants that parse as a law, docstrings aside, written more than once
    seen = defaultdict(list)
    for module, tree in trees.items():
        docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                      if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                      and node.body and isinstance(node.body[0], ast.Expr)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
                try:
                    core._parse_equation(node.value)
                except ValueError:
                    continue
                seen[node.value].append(f"{module}:{node.lineno}")
    return [f"{text} ({', '.join(where)})" for text, where in seen.items() if len(where) > 1]


def test_each_law_text_is_written_once():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in PACKAGE}
    assert _repeated_laws(trees) == []


def test_the_scan_flags_a_repeated_law():
    a = ast.parse(
        '"""x∧y = y∧x is a docstring."""\n'
        'LAWS = ("x∧y = y∧x", "x∨x = x", "not a law")\n'
        'def f():\n    """x∨x = x"""\n    return "x ∨ x=x", "not a law"\n'
    )
    b = ast.parse('LAW = "x∧y = y∧x"\n')
    assert _repeated_laws({"a.py": a, "b.py": b}) == ["x∧y = y∧x (a.py:2, b.py:1)"]


def _cap_raisers(trees: dict[str, ast.Module]) -> list[str]:
    # the functions, by module, that construct a CapExceededError, by its name or as an attribute
    found = []
    for module, tree in trees.items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                called = [getattr(node.func, "id", getattr(node.func, "attr", None))
                          for node in ast.walk(fn) if isinstance(node, ast.Call)]
                if "CapExceededError" in called:
                    found.append(f"{module}: {fn.name}")
    return found


def _environment_readers(trees: dict[str, ast.Module]) -> list[str]:
    # the modules that name os.environ or os.getenv
    return sorted({module for module, tree in trees.items() for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")})


def test_one_function_of_core_raises_every_cap():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in PACKAGE}
    assert _cap_raisers(trees) == ["core.py: _check_cap"]


def test_only_core_reads_the_environment():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in PACKAGE}
    assert _environment_readers(trees) == ["core.py"]


def test_the_scans_flag_a_second_cap_raiser_and_an_environment_reader():
    a = ast.parse("def check(n):\n    if n > 3:\n        raise CapExceededError(n)\n")
    b = ast.parse("import os\ndef cap():\n    def inner():\n        raise core.CapExceededError(os.environ['X'])\n")
    assert _cap_raisers({"a.py": a, "b.py": b}) == ["a.py: check", "b.py: cap", "b.py: inner"]
    assert _environment_readers({"a.py": a, "b.py": b, "c.py": ast.parse("import os\nos.getenv('X')\n")}) == ["b.py", "c.py"]
