"""Source-level rules for the package: no asserts, stdlib-only, exact."""
import ast
import os
import subprocess
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


def test_one_owner_for_the_integer_rule():
    """Every exact-int check goes through ``intfun._require_ints``: the
    package compares ``type(...)`` with ``int`` only inside it.
    ``IntFun.__init__``'s set test is its fast path and calls the helper
    to name the bad value."""
    found = [f"{name}:{f.name}" for name, f in _nodes()
             if isinstance(f, ast.FunctionDef)
             for node in ast.walk(f)
             if isinstance(node, ast.Compare)
             and any(isinstance(x, ast.Call) and isinstance(x.func, ast.Name)
                     and x.func.id == "type" for x in (node.left, *node.comparators))
             and any(isinstance(x, ast.Name) and x.id == "int"
                     for x in (node.left, *node.comparators))]
    assert found == ["intfun.py:_require_ints"]


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


# the analyze-codim3 path: each scans its windows instead of evaluating
# its IntFun arguments point by point
WINDOW_SCANS = {
    "growth.py": ("is_macaulay", "_is_o_sequence", "s0_of", "_s0", "decompose",
                  "_peel"),
    "characters.py": ("gamma_from_h", "h_from_gamma", "_h_values", "char_s0",
                      "is_positive_character", "check_necessary", "_s0_s1"),
    "codim3.py": ("check_prop36_bounds", "integral_screen", "_integral",
                  "quadric_check", "integral_quadric_check"),
}


def test_window_scans_never_call_their_arguments():
    """No function on the analyze-codim3 path calls one of its parameters
    as a function; ``tests/helpers.py`` keeps the point-by-point versions
    as oracles."""
    found, seen = [], set()
    for file_name, names in WINDOW_SCANS.items():
        for f in _functions(file_name):
            if f.name not in names:
                continue
            seen.add(f.name)
            params = {a.arg for a in f.args.args}
            found += [f"{f.name}:{node.lineno}" for node in ast.walk(f)
                      if isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Name)
                      and node.func.id in params]
    assert seen == {n for names in WINDOW_SCANS.values() for n in names}
    assert found == []


def _called_names(file_name, function_name):
    """The plain names that one function of the package calls."""
    [f] = [f for f in _functions(file_name) if f.name == function_name]
    return {node.func.id for node in ast.walk(f)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}


def test_decompose_codim3_peels_value_tuples():
    """``decompose_codim3`` reads h and its layers as value tuples: it
    calls none of the steps that would build them as throwaway records
    (``tests/helpers.py::decompose_codim3_composed`` composes them as an
    oracle)."""
    called = _called_names("codim3.py", "decompose_codim3")
    assert {"_h_values", "_is_o_sequence", "_peel"} <= called
    assert called.isdisjoint({"h_from_gamma", "MacaulayFn", "decompose",
                              "gamma_from_h"})


def test_cli_reads_s1_from_the_library():
    """Cor 3.7 has one owner, ``codim3.s1_via_cor37``: ``analyze-codim3``
    takes s1 from it and does not compute s0(gamma_r) + r again."""
    called = _called_names("cli.py", "_cmd_analyze_codim3")
    assert "s1_via_cor37" in called
    assert "char_s0" not in called


_CACHES = ("cache", "lru_cache")


def _is_cache(node):
    if isinstance(node, ast.Call):
        node = node.func
    return (isinstance(node, ast.Name) and node.id in _CACHES
            or isinstance(node, ast.Attribute) and node.attr in _CACHES)


def _process_caches(node, file_name):
    """The caches that live as long as the process: decorated functions
    and cache calls outside every function body."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if any(_is_cache(d) for d in child.decorator_list):
                yield f"{file_name}:{child.name}"
        elif isinstance(child, ast.Call) and _is_cache(child):
            yield f"{file_name}:{child.lineno}"
        elif not isinstance(child, ast.Lambda):
            yield from _process_caches(child, file_name)


def test_module_level_caches_have_measured_traffic():
    """A module-level cache lives as long as the process, so each one must
    earn its memory.  ``binomial._upper`` (``upper`` after its integer
    check) is measured in process on a 2-core machine with CPython 3.11.
    An analyze-d24 query makes 7.1 calls, all from ``_is_o_sequence`` on
    h, and 99.7% hit on a cold pass (53 entries); a hit takes 0.1 us where
    a computed ``upper(10, 3)`` takes 0.9 us.  In growth-bigint, a child
    fills about 5,500 entries, under the cache's bound of 2**16, and
    ``is_macaulay`` on a batch of 288 near-maximal h-vectors (whose
    low-degree values repeat) hits on 36% of its calls; with the bracketed
    greedy the batch took 2.7 ms with the cache and 2.9 ms without (medians
    of 8 alternating runs over 18 batches, two such sets).  The lex oracle
    builds its monomial lists per call: the CLI calls it once per process
    and no benchmark workload calls it.
    ``cli._build_parser`` holds one parser, the 13-verb argparse tree.  A
    CLI process builds it once either way; the suite calls ``run`` in
    process 20,107 times (1,609 before the analyze-codim3 digest).  A
    parser per call took 2.5 s of a 20 s run at the 1,609 calls, and the
    digest's 18,498 calls took 37 s with a parser per call, 2 s with one.
    A cache made inside a function lives for one call and is not counted
    here."""
    found = {cached for path in SOURCES
             for cached in _process_caches(ast.parse(path.read_text()),
                                           path.name)}
    assert found == {"binomial.py:_upper", "cli.py:_build_parser"}


def test_cli_import_loads_no_heavy_stdlib_modules():
    """Every CLI call starts a fresh process, so what ``import acmchar.cli``
    pulls in is paid on each call: the records need no ``dataclasses``
    (which loads ``inspect``), and ``fractions`` is imported only by
    ``hilbert_polynomial``, which no verb calls."""
    code = ("import sys; before = set(sys.modules); import acmchar.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    env = {**os.environ, "PYTHONPATH": str(Path(acmchar.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                         capture_output=True, text=True, check=True).stdout.split()
    assert "acmchar.cli" in out
    assert {"dataclasses", "inspect", "fractions"}.isdisjoint(out)
