"""Rules every module of the library keeps, checked on its source.

- No `assert` statement: `python -O` strips them, so no check may rest on one.
- Absolute imports come from the standard library only: the library has no
  runtime dependency.
- Every name in a module's `__all__` is defined in that module.
- The storage layout of `Matrix` stays in `linalg.py`: no other module names
  `ZERO` or a storage attribute (the integer rows and their denominator).
"""

import ast
import pathlib
import sys

import pytest

from kahlergrad.linalg import Matrix

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "kahlergrad"
MODULES = sorted(SRC.glob("*.py"))
ROW_STORAGE = ("_nums", "_den")


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
    )
    assert _asserts(tree) == [8]
    assert _outside_stdlib(tree) == ["numpy", "sympy.core", "hypothesis"]
    assert _undefined_exports(tree) == ["Rational"]
    assert _layout_names(tree) == [12, 13, 13, 13, 15, 15]
