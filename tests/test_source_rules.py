"""Rules every module of the library keeps, checked on its source.

- No `assert` statement: `python -O` strips them, so no check may rest on one.
- Absolute imports come from the standard library only: the library has no
  runtime dependency.
- Every name in a module's `__all__` is defined in that module.
- The storage layout of `Matrix` stays in `linalg.py`: no other module names
  `ZERO` or a storage attribute (the integer rows and their denominator).
- The library reads no environment: no module names `os.environ`,
  `os.environb` or `os.getenv`, so every setting is an argument.
- Every module model is made by `gtrep.complete_module`, which checks its
  invariants: no other function calls `Representation`.
"""

import ast
import pathlib
import sys

import pytest

from kahlergrad.linalg import Matrix

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "kahlergrad"
MODULES = sorted(SRC.glob("*.py"))
ROW_STORAGE = ("_nums", "_den")
ENVIRONMENT = ("environ", "environb", "getenv")


def _asserts(tree) -> list:
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def _outside_stdlib(tree) -> list:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names if name.split(".")[0] not in sys.stdlib_module_names]


def _undefined_exports(tree) -> list:
    """Names of the module-level `__all__` that no module-level statement binds."""
    defined, exported = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            defined.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                defined.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
                if isinstance(target, ast.Name) and target.id == "__all__":
                    exported = ast.literal_eval(node.value)
    return [name for name in exported if name not in defined]


def _layout_names(tree) -> list:
    """Lines that import or read `ZERO` or name a storage attribute."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            lines += [node.lineno for alias in node.names if alias.name == "ZERO"]
        elif isinstance(node, ast.Attribute) and node.attr in ("ZERO", *ROW_STORAGE):
            lines.append(node.lineno)
        elif isinstance(node, ast.Constant) and node.value in ROW_STORAGE:
            lines.append(node.lineno)
    return sorted(lines)


def _environment_reads(tree) -> list:
    """Lines that import or read `os.environ`, `os.environb` or `os.getenv`."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            lines += [node.lineno for alias in node.names if alias.name in ENVIRONMENT]
        elif (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT
              and isinstance(node.value, ast.Name) and node.value.id == "os"):
            lines.append(node.lineno)
    return sorted(lines)


def _module_constructions(tree, allowed=None) -> list:
    """Lines that call `Representation` outside the function ``allowed``."""
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == allowed:
            inside.update(map(id, ast.walk(node)))
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and id(node) not in inside
                  and "Representation" in (getattr(node.func, "id", None),
                                           getattr(node.func, "attr", None)))


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_modules_found():
    assert {"cli.py", "clifford.py", "envalg.py", "gtrep.py", "linalg.py"} <= {
        path.name for path in MODULES
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_assert_statement(path):
    assert _asserts(_parse(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_absolute_imports_are_stdlib(path):
    assert _outside_stdlib(_parse(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_all_names_are_defined(path):
    assert _undefined_exports(_parse(path)) == []


@pytest.mark.parametrize("path", [path for path in MODULES if path.name != "linalg.py"],
                         ids=lambda path: path.name)
def test_matrix_layout_stays_in_linalg(path):
    assert set(ROW_STORAGE) <= set(Matrix.__slots__)
    assert _layout_names(_parse(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_environment_read(path):
    assert _environment_reads(_parse(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_modules_are_made_by_the_checked_completion(path):
    allowed = "complete_module" if path.name == "gtrep.py" else None
    assert _module_constructions(_parse(path), allowed) == []


def test_rules_flag_a_module_that_breaks_them():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "from sympy.core import S\n"
        "from .linalg import Matrix\n"
        "from fractions import Fraction\n"
        "__all__ = ['Matrix', 'Fraction', 'Rational', 'f']\n"
        "def f(x):\n"
        "    assert x > 0\n"
        "    import hypothesis\n"
        "    return x\n"
        "def g(m):\n"
        "    from .linalg import Matrix, ZERO\n"
        "    return m._nums, linalg.ZERO, getattr(m, '_nums')\n"
        "def h(m):\n"
        "    return m._den, getattr(m, '_den')\n"
        "from os import environ, path\n"
        "def e(os):\n"
        "    return os.environ.get('X'), os.getenv('Y', os.environb), os.sep\n"
        "def complete_module(rho, gen, gram):\n"
        "    return Representation(rho, 1, gen, gram)\n"
        "def derived(t):\n"
        "    return gtrep.Representation(t.weight, t.dim, {}, t.gram), Representation\n"
    )
    assert _asserts(tree) == [8]
    assert _outside_stdlib(tree) == ["numpy", "sympy.core", "hypothesis"]
    assert _undefined_exports(tree) == ["Rational"]
    assert _layout_names(tree) == [12, 13, 13, 13, 15, 15]
    assert _environment_reads(tree) == [16, 18, 18, 18]
    assert _module_constructions(tree, "complete_module") == [22]
    assert _module_constructions(tree) == [20, 22]
