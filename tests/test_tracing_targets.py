"""The benchmark's tracer (`perfbench/tracing.py`) wraps kahlergrad functions
by name through its `patch(owners, name, group)` calls, and a name that no
longer exists breaks every traced run.  These tests read those calls with
`ast` and look each name up on its first owner, so a refactor that renames
or removes a traced function fails here instead."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _resolve(expr, namespace):
    """The object a name or attribute chain such as ``gtrep.Representation``
    stands for."""
    if isinstance(expr, ast.Name):
        return namespace[expr.id]
    if isinstance(expr, ast.Attribute):
        return getattr(_resolve(expr.value, namespace), expr.attr)
    raise KeyError(ast.unparse(expr))


def _install(source: str) -> ast.FunctionDef:
    (fn,) = [node for node in ast.parse(source).body
             if isinstance(node, ast.FunctionDef) and node.name == "install"]
    return fn


def _namespace(fn: ast.FunctionDef) -> dict:
    """The kahlergrad modules ``install`` imports, and its aliases of them
    such as ``M = linalg.Matrix``."""
    namespace = {}
    for node in ast.walk(fn):
        if isinstance(node, ast.ImportFrom) and node.module == "kahlergrad":
            for alias in node.names:
                namespace[alias.asname or alias.name] = importlib.import_module(
                    f"kahlergrad.{alias.name}")
    for node in fn.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            try:
                namespace[node.targets[0].id] = _resolve(node.value, namespace)
            except (KeyError, AttributeError):
                continue
    return namespace


def _patch_calls(fn: ast.FunctionDef) -> list:
    """(line, first owner, name) for each ``patch`` call; a name given by a
    loop variable stands for each constant of the loop's tuple."""
    out = []

    def visit(node, bound):
        if (isinstance(node, ast.For) and isinstance(node.target, ast.Name)
                and isinstance(node.iter, ast.Tuple)):
            bound = {**bound, node.target.id: [e.value for e in node.iter.elts]}
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "patch":
            owners, name = node.args[:2]
            names = [name.value] if isinstance(name, ast.Constant) else bound[name.id]
            out.extend((node.lineno, owners.elts[0], x) for x in names)
        for child in ast.iter_child_nodes(node):
            visit(child, bound)

    visit(fn, {})
    return out


def _missing(source: str) -> list:
    """The patched names that their first owner lacks, as (line, owner, name)."""
    fn = _install(source)
    namespace = _namespace(fn)
    return [(line, ast.unparse(owner), name) for line, owner, name in _patch_calls(fn)
            if not hasattr(_resolve(owner, namespace), name)]


def test_every_patched_name_exists_on_its_first_owner():
    source = TRACING.read_text()
    assert len(_patch_calls(_install(source))) >= 30
    assert _missing(source) == []


def test_a_missing_name_is_reported():
    source = '''
def install():
    from kahlergrad import clifford, linalg
    M = linalg.Matrix
    for name in ("matmul", "no_such_method"):
        patch([M], name, "linalg.x")
    patch([clifford.CliffordSystem], "p_star_p", "clifford.p_star_p")
    patch([linalg, clifford], "no_such_function", "linalg.y")
'''
    assert _missing(source) == [(6, "M", "no_such_method"), (8, "linalg", "no_such_function")]
