"""Statement-deletion mutation probe: find the checks no test can see.

Each mutant replaces one statement of one function body in
``src/acmchar`` with ``pass`` (a docstring is not a statement here, and a
``pass`` is not replaced).  The suite then runs against the mutant with
``pytest -x``; a mutant that fails a test, fails to import or runs past the
timeout is killed, and one that passes the whole suite survives.  The
timeout is five times the unmutated suite's time, which the probe measures
first, and at least 60 s; a suite that runs past it is killed with every
process it started.  Each survivor is printed as one line,
``module.py:line: statement``, and a summary follows.

The probe works on copies of ``src/``, ``tests/`` and ``pyproject.toml``
in a temporary directory, one per job, and never writes ``src/``.  It uses
the standard library only.  Pytest does not collect this file, and it is
not part of the tier-1 suite: a survivor runs the whole suite, so a pass
over every module takes tens of minutes.

    python tests/mutate.py [--module intfun.py ...] [--jobs 2]
"""
from __future__ import annotations

import argparse
import ast
import contextlib
import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "acmchar"


def _statements(func):
    """Every statement nested in a function, bare strings (docstrings) and
    ``pass`` excluded."""
    for node in ast.walk(func):
        for field in ("body", "orelse", "finalbody"):
            block = getattr(node, field, None)
            for stmt in block if isinstance(block, list) else ():
                if not (isinstance(stmt, ast.Pass)
                        or isinstance(stmt, ast.Expr)
                        and isinstance(stmt.value, ast.Constant)
                        and isinstance(stmt.value.value, str)):
                    yield stmt


def mutants(source: str):
    """(line, first line of the statement, mutated source) for each
    function-body statement replaced with ``pass``, in source order."""
    lines = source.encode().splitlines(keepends=True)  # offsets are in bytes
    stmts = {(stmt.lineno, stmt.col_offset): stmt
             for func in ast.walk(ast.parse(source))
             if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
             for stmt in _statements(func)}
    for (line, col), stmt in sorted(stmts.items()):
        first, last = line - 1, stmt.end_lineno - 1
        head = lines[first][:col] + b"pass" + lines[last][stmt.end_col_offset:]
        yield line, lines[first].decode().strip(), b"".join(
            lines[:first] + [head] + lines[last + 1:]).decode()


def _copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    shutil.copytree(ROOT / "src", dest / "src", ignore=skip)
    shutil.copytree(ROOT / "tests", dest / "tests", ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _run_suite(copy: Path, timeout: float | None = None) -> str:
    env = {**os.environ, "PYTHONPATH": str(copy / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
        cwd=copy, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        # the suite's own children (CLI processes a test starts) go too, so
        # a hung mutant leaves nothing running into the next one
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    return "timeout" if code is None else "survived" if code == 0 else "killed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--module", action="append",
                        help="a file in src/acmchar, e.g. intfun.py "
                             "(repeatable; default: every module)")
    parser.add_argument("--jobs", type=int,
                        default=len(os.sched_getaffinity(0)),
                        help="suites run at once, one copy each "
                             "(default: one per usable CPU)")
    args = parser.parse_args(argv)
    names = args.module or sorted(p.name for p in (ROOT / PACKAGE).glob("*.py"))
    work = [(name, line, stmt, text)
            for name in names
            for line, stmt, text in mutants((ROOT / PACKAGE / name).read_text())]

    with tempfile.TemporaryDirectory(prefix="acmchar-mutate-") as tmp:
        copies = queue.Queue()
        for j in range(args.jobs):
            _copy_tree(Path(tmp) / str(j))
            copies.put(Path(tmp) / str(j))
        start = time.monotonic()
        if _run_suite(Path(tmp) / "0") != "survived":
            print("the suite fails without a mutant", file=sys.stderr)
            return 2
        timeout = max(60.0, 5 * (time.monotonic() - start))

        def probe(item):
            name, _, _, text = item
            copy = copies.get()
            target = copy / PACKAGE / name
            try:
                target.write_text(text)
                return _run_suite(copy, timeout)
            finally:
                shutil.copy2(ROOT / PACKAGE / name, target)
                copies.put(copy)

        counts = {"killed": 0, "timeout": 0, "survived": 0}
        with ThreadPoolExecutor(args.jobs) as pool:
            for (name, line, stmt, _), verdict in zip(work, pool.map(probe, work)):
                counts[verdict] += 1
                if verdict == "survived":
                    print(f"{name}:{line}: {stmt}", flush=True)
    print(f"# {len(work)} mutants in {', '.join(names)}: {counts['killed']} "
          f"killed, {counts['timeout']} timed out, {counts['survived']} "
          f"survived ({time.monotonic() - start:.0f} s, {args.jobs} jobs, "
          f"{timeout:.0f} s timeout)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
