"""Source-level rules for the package: no asserts, stdlib-only, exact."""
import ast
import sys
from pathlib import Path

import acmchar

SOURCES = sorted(Path(acmchar.__file__).parent.glob("*.py"))


def _nodes():
    """(file name, node) for every AST node of the package."""
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield path.name, node


def test_no_assert_statements():
    """Correctness guards must raise real errors: ``python -O`` strips
    ``assert``, so an assert in the package could change an answer."""
    assert len(SOURCES) >= 8
    found = [f"{name}:{node.lineno}" for name, node in _nodes()
             if isinstance(node, ast.Assert)]
    assert found == []


def test_stdlib_only_imports():
    """Every absolute import names a standard-library module."""
    imported, found = 0, []
    for name, node in _nodes():
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        imported += len(modules)
        found += [f"{name}:{node.lineno}: {m}" for m in modules
                  if m.partition(".")[0] not in sys.stdlib_module_names]
    assert imported >= 10
    assert found == []


def test_no_float_arithmetic():
    """Answers are exact: no float literal, no ``float(`` call and no
    true division anywhere in the package."""
    found = []
    for name, node in _nodes():
        if (isinstance(node, ast.Constant)
                and type(node.value) in (float, complex)
                or isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name) and node.func.id == "float"
                or isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.Div)):
            found.append(f"{name}:{node.lineno}")
    assert found == []


def _functions(file_name):
    return [node for name, node in _nodes()
            if name == file_name and isinstance(node, ast.FunctionDef)]


def test_only_run_returns_exit_codes():
    """The CLI handlers print and return nothing; ``run`` alone maps
    their outcome to an exit code."""
    handlers = [f for f in _functions("cli.py")
                if f.name.startswith(("_cmd_", "_emit"))]
    assert len(handlers) >= 10
    found = [f"{f.name}:{node.lineno}" for f in handlers
             for node in ast.walk(f)
             if isinstance(node, ast.Return) and node.value is not None]
    assert found == []


def test_intfun_arithmetic_reads_windows():
    """IntFun methods work on the stored windows; only ``__call__``
    evaluates a function at a point."""
    methods = [f for f in _functions("intfun.py") if f.name != "__call__"]
    found = [f"{f.name}:{node.lineno}" for f in methods
             for node in ast.walk(f)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in ("self", "other")]
    assert found == []
