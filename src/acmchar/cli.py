"""Command-line surface.

Functions are written "(v0,v1,...)" (offset 0) or as JSON objects
{"offset": int, "values": [...]}.  Output is human-readable by default,
JSON with --json.  Exit codes: 0 success, 1 domain error, 2 usage error.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import (
    IntFun,
    biliaison,
    check_prop36_bounds,
    curve_invariants,
    decompose,
    decompose_codim3,
    gamma_from_h,
    gamma_from_resolution,
    h_from_gamma,
    is_macaulay,
    lex_oracle,
    macaulay_expand,
    quadric_check,
    resolution_char,
    s1_via_cor37,
    surface_invariants,
    upper,
)
from .codim3 import _integral
from .enumeration import _curve_rows, _split, _witness_text, _write_json


class _LiteralError(Exception):
    """Unparseable function literal (a usage error, not a domain error)."""


def _parse_fun(text: str) -> IntFun:
    s = text.strip()
    try:
        if s.startswith("{"):
            return IntFun.from_json(json.loads(s))
        return IntFun.parse(s)
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise _LiteralError(str(exc)) from exc


def _emit(args, human: str, payload: dict) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


def _emit_fun(args, f: IntFun) -> None:
    _emit(args, str(f), f.to_json())


def _cmd_expand(args):
    exp = macaulay_expand(args.alpha, args.index)
    _emit(args, f"{args.alpha} = {exp}",
          {"value": args.alpha, "index": args.index,
           "terms": [list(t) for t in exp.terms]})


def _cmd_upper(args):
    val = upper(args.alpha, args.index)
    _emit(args, str(val), {"result": val})


def _cmd_growth(args):
    test = lex_oracle if args.verb == "lex-oracle" else is_macaulay
    ok = test(_parse_fun(args.function))
    _emit(args, "true" if ok else "false", {"macaulay": ok})


def _cmd_decompose(args):
    dec = decompose(_parse_fun(args.function))
    human = "\n".join(f"h_{i} = {p}" for i, p in enumerate(dec.parts))
    human += f"\nr = {dec.r}  s0 = {dec.s0}"
    _emit(args, human, {"parts": [p.to_json() for p in dec.parts],
                        "r": dec.r, "s0": dec.s0})


def _cmd_convert(args):
    convert = h_from_gamma if args.verb == "gamma-to-h" else gamma_from_h
    _emit_fun(args, convert(_parse_fun(args.function)))


def _cmd_analyze_codim3(args):
    gamma = _parse_fun(args.function)
    dec = decompose_codim3(gamma)
    s0 = dec.s0
    s1 = s1_via_cor37(dec, s0)
    payload = {
        "s0": s0,
        "s1": s1,
        "r": dec.r,
        "decomposition": [p.to_json() for p in dec.parts],
        "bounds_ok": check_prop36_bounds(gamma, dec),
        "integral_screen": _integral(gamma.values, s0, s1),
    }
    if dec.r >= 1:
        payload["s1_from_decomposition"] = s1
    lines = [f"s0 = {s0}  s1 = {s1}  r = {dec.r}"]
    lines += [f"gamma_{i} = {p}" for i, p in enumerate(dec.parts)]
    lines.append(f"interval bounds: {'ok' if payload['bounds_ok'] else 'violated'}")
    lines.append(f"integral screen: {'pass' if payload['integral_screen'] else 'fail'}")
    _emit(args, "\n".join(lines), payload)


def _cmd_quadric_check(args):
    q = quadric_check(_parse_fun(args.function))
    human = f"valid t={q.t} s={q.s}" if q.valid else "invalid"
    _emit(args, human, {"valid": q.valid, "t": q.t, "s": q.s})


def _cmd_invariants(args):
    if args.curve is not None:
        inv = curve_invariants(_parse_fun(args.curve))
        _emit(args, f"d={inv.d} g={inv.g}", {"d": inv.d, "g": inv.g})
    else:
        inv = surface_invariants(_parse_fun(args.surface))
        _emit(args, f"d={inv.d} delta={inv.delta} pa={inv.p_a}",
              {"d": inv.d, "delta": inv.delta, "p_a": inv.p_a})


def _cmd_biliaison(args):
    _emit_fun(args, biliaison(_parse_fun(args.gamma_x),
                              _parse_fun(args.gamma_y), args.height))


def _cmd_resolution(args):
    step = gamma_from_resolution if args.inverse else resolution_char
    _emit_fun(args, step(_parse_fun(args.function), args.codim))


def _cmd_enumerate(args):
    beyond, listed = _split(_curve_rows(args.max_degree, not args.degenerate))
    if args.json:
        _write_json(sys.stdout, beyond, listed)
        return

    def show(d, g, witnesses):
        print(f"{d} {g} {len(witnesses)}")
        for w in witnesses if args.verbose else ():
            print("  " + _witness_text(w))

    for row in listed:
        show(*row)
    if beyond:
        print("beyond the classical list:")
    for row in beyond:
        show(*row)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acmchar",
        description="Exact calculus of postulation characters and "
                    "Macaulay Hilbert functions.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--json", action="store_true", help="JSON output")
        p.set_defaults(fn=fn)
        return p

    p = add("expand", _cmd_expand, help="binomial expansion of an integer")
    p.add_argument("alpha", type=int)
    p.add_argument("index", type=int)

    p = add("upper", _cmd_upper, help="Macaulay growth bound alpha^<i>")
    p.add_argument("alpha", type=int)
    p.add_argument("index", type=int)

    for name, fn, hlp in [
        ("growth", _cmd_growth, "check the Macaulay growth conditions"),
        ("lex-oracle", _cmd_growth, "lex-segment certification"),
        ("decompose", _cmd_decompose, "layer decomposition of an O-sequence"),
        ("gamma-to-h", _cmd_convert, "character to h-vector"),
        ("h-to-gamma", _cmd_convert, "h-vector to character"),
        ("analyze-codim3", _cmd_analyze_codim3, "full codim-3 report"),
        ("quadric-check", _cmd_quadric_check, "quadric shape test"),
    ]:
        p = add(name, fn, help=hlp)
        p.add_argument("function", help='e.g. "(1,3,4)" or JSON')

    p = add("invariants", _cmd_invariants, help="degree/genus invariants")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--curve", help="curve character")
    grp.add_argument("--surface", help="surface character")

    p = add("biliaison", _cmd_biliaison, help="height-h biliaison update")
    p.add_argument("gamma_x")
    p.add_argument("gamma_y")
    p.add_argument("height", type=int)

    p = add("resolution", _cmd_resolution, help="resolution rank character")
    p.add_argument("function")
    p.add_argument("--codim", type=int, required=True)
    p.add_argument("--inverse", action="store_true",
                   help="recover the character from the rank function")

    p = add("enumerate", _cmd_enumerate, help="enumerate ACM curve pairs")
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--degenerate", action="store_true",
                   help="include single-component (hyperplane) characters")
    p.add_argument("--verbose", action="store_true", help="dump witnesses")

    return parser


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        args.fn(args)
    except _LiteralError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()  # a closed pipe shows here, not at exit
    except BrokenPipeError:
        # the reader stopped early: end quietly, and send what is still
        # buffered to devnull so that the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
