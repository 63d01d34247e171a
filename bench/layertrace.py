"""Per-layer tracing of ``acmchar`` from outside the package.

``Tracer.install()`` replaces, in place, every public function of each
``acmchar`` module and every public method of the classes those modules
define, plus ``__init__``, ``__add__``, ``__sub__``, ``__neg__`` and
``__str__``.  Every module attribute bound to a wrapped function is
patched, so re-exports (``acmchar.upper``) and cross-module imports
(``codim3.decompose``, ``growth.upper``, ``enumeration.binom``) go through
the wrapper too.

Not wrapped: ``IntFun.__call__`` (wrapping it roughly doubles the cost of
the codim-3 analysis), the generated ``__eq__``/``__hash__``/``__repr__``
that dict and set lookups call, ``__bool__``, and private helpers.  Their
time counts as self time of the wrapped caller.

Each wrapper counts calls, self time (its duration minus the time of the
wrapped calls it made) and calls that raised.  For ``upper`` and
``enumerate_positive_characters`` it also counts calls whose bound
arguments already occurred since the tracer was created.

Run as a script, it traces the ``acmchar`` CLI: the arguments are the
CLI's, the CLI's output is unchanged, and the trace report goes to stderr
as the last line, prefixed with ``REPORT_PREFIX``.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("intfun", "binomial", "growth", "characters", "codim3",
          "enumeration", "cli")
WRAPPED_DUNDERS = frozenset({"__init__", "__add__", "__sub__", "__neg__",
                             "__str__"})
# qualified function name -> name of its repeat-ratio counter
REPEAT_COUNTERS = {
    "enumeration.enumerate_positive_characters": "enumeration.positive_chars",
    "binomial.upper": "binomial.upper",
}
REPORT_PREFIX = "LAYERTRACE "


class Tracer:
    def __init__(self):
        self.functions: dict[str, list] = {}   # name -> [calls, self_s, errors]
        self.repeats: dict[str, list] = {}     # counter -> [calls, repeats]
        self._seen: dict[str, set] = {}
        self._child_time = [0.0]
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Zero the counters; the argument history for repeats is kept."""
        for rec in self.functions.values():
            rec[:] = [0, 0.0, 0]
        for rec in self.repeats.values():
            rec[:] = [0, 0]

    def add_self_time(self, name: str, seconds: float) -> None:
        self.functions.setdefault(name, [0, 0.0, 0])[1] += seconds

    def report(self) -> dict:
        return {"functions": self.functions, "repeats": self.repeats}

    def _wrap(self, name: str, fn):
        rec = self.functions.setdefault(name, [0, 0.0, 0])
        stack = self._child_time
        counter = REPEAT_COUNTERS.get(name)
        if counter is not None:
            sig = inspect.signature(fn)
            seen = self._seen.setdefault(counter, set())
            rep = self.repeats.setdefault(counter, [0, 0])

        def wrapper(*args, **kwargs):
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                key = tuple(bound.arguments.values())
                rep[0] += 1
                if key in seen:
                    rep[1] += 1
                else:
                    seen.add(key)
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                rec[2] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                nested = stack.pop()
                stack[-1] += elapsed
                rec[0] += 1
                rec[1] += elapsed - nested

        return functools.update_wrapper(wrapper, fn)

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in WRAPPED_DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, (classmethod, staticmethod)):
                new = type(member)(self._wrap(name, member.__func__))
            elif isinstance(member, property):
                new = property(self._wrap(name, member.fget), member.fset,
                               member.fdel, member.__doc__)
            elif inspect.isfunction(member):
                new = self._wrap(name, member)
            else:
                continue
            self._patch(cls, attr, new)

    def install(self) -> None:
        """Wrap every layer of the imported ``acmchar`` package."""
        package = importlib.import_module("acmchar")
        modules = {layer: importlib.import_module(f"acmchar.{layer}")
                   for layer in LAYERS}
        wrappers = {}   # id(original) -> (original, wrapper)
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif (inspect.isfunction(inspect.unwrap(obj))
                      and not attr.startswith("_")):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for module in (package, *modules.values()):
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, attr, hit[1])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _trace_cli() -> int:
    """Run the acmchar CLI on sys.argv[1:] with every layer traced.  The
    package import is counted as self time of the cli layer."""
    start = perf_counter()
    import acmchar.cli
    import_s = perf_counter() - start
    tracer = Tracer()
    tracer.install()
    tracer.add_self_time("cli.<import>", import_s)
    code = 0
    try:
        acmchar.cli.main()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    sys.stderr.write(REPORT_PREFIX + json.dumps(tracer.report()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(_trace_cli())
