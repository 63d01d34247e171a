"""Independent reference answers for the benchmark, built on the standard
library only.  Nothing here imports ``acmchar``: the Macaulay bound uses
``math.comb`` with bisection, O-sequences come from a separate recursion,
and characters are plain ``(offset, values)`` pairs.

A function is stored as ``(offset, values)`` with no leading or trailing
zeros; ``()`` values mean the zero function (offset 0).
"""
from __future__ import annotations

from math import comb

# The one pair of degree <= 10 that is a genuine O-sequence character but
# absent from the classical list: h = (1,3,1,1,1,1,1,1).
BEYOND_CLASSICAL = frozenset({(10, 21)})


# -- Macaulay expansions ----------------------------------------------------


def _largest_m(rem: int, k: int) -> int:
    """Largest m >= k with C(m, k) <= rem (rem >= 1), by doubling and
    bisection over math.comb."""
    lo, hi = k, 2 * k + 1
    while comb(hi, k) <= rem:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if comb(mid, k) <= rem:
            lo = mid
        else:
            hi = mid
    return lo


def expansion(alpha: int, i: int) -> list[list[int]]:
    """The i-binomial expansion of alpha >= 1 as [[m_i, i], [m_{i-1}, i-1], ...]."""
    terms = []
    rem, k = alpha, i
    while rem > 0:
        m = _largest_m(rem, k)
        terms.append([m, k])
        rem -= comb(m, k)
        k -= 1
    return terms


def upper(alpha: int, i: int) -> int:
    """alpha^<i>, with 0^<i> = 0."""
    if alpha == 0:
        return 0
    return sum(comb(m + 1, k + 1) for m, k in expansion(alpha, i))


def is_o_sequence(h: list[int]) -> bool:
    """h(0) = 1, nonnegative values and h(n+1) <= h(n)^<n> for n >= 1."""
    if not h or h[0] != 1 or any(v < 0 for v in h):
        return False
    ext = list(h) + [0]
    return all(ext[n + 1] <= upper(ext[n], n) for n in range(1, len(h)))


def o_sequences(type_a: int, max_mass: int):
    """Every O-sequence (1, type_a, ...) with positive entries and total
    mass <= max_mass, as tuples."""
    stack = [(1, type_a)] if 1 + type_a <= max_mass else []
    while stack:
        h = stack.pop()
        yield h
        room = max_mass - sum(h)
        bound = min(upper(h[-1], len(h) - 1), room)
        for v in range(1, bound + 1):
            stack.append(h + (v,))


# -- characters -------------------------------------------------------------


def normalize(offset: int, values) -> tuple[int, tuple[int, ...]]:
    vals = list(values)
    start = 0
    while start < len(vals) and vals[start] == 0:
        start += 1
    end = len(vals)
    while end > start and vals[end - 1] == 0:
        end -= 1
    if start == end:
        return 0, ()
    return offset + start, tuple(vals[start:end])


def gamma_of_h(h) -> tuple[int, tuple[int, ...]]:
    """The character n -> h(n-1) - h(n) of an h-vector starting at 0."""
    ext = (0,) + tuple(h) + (0,)
    return normalize(0, [ext[n] - ext[n + 1] for n in range(len(h) + 1)])


def degree_genus(h) -> tuple[int, int]:
    """(d, g) of an ACM curve with h-vector h: d = sum h(n) and
    g = 1 + sum (n-1) h(n)."""
    return sum(h), 1 + sum((n - 1) * v for n, v in enumerate(h))


def recompose(parts) -> tuple[int, tuple[int, ...]]:
    """sum_i parts[i](n - i) for parts given as (offset, values)."""
    lo = min(off + i for i, (off, vals) in enumerate(parts) if vals)
    hi = max(off + i + len(vals) for i, (off, vals) in enumerate(parts) if vals)
    acc = [0] * (hi - lo)
    for i, (off, vals) in enumerate(parts):
        for j, v in enumerate(vals):
            acc[off + i + j - lo] += v
    return normalize(lo, acc)


def value_at(f, n: int) -> int:
    offset, vals = f
    return vals[n - offset] if 0 <= n - offset < len(vals) else 0


def positive_s0(f) -> int | None:
    """s0 of a positive character (-1 on [0, s0), >= 0 after, sum 0), or
    None when f is not one."""
    offset, vals = f
    if not vals or offset != 0 or sum(vals) != 0:
        return None
    s0 = 0
    while s0 < len(vals) and vals[s0] == -1:
        s0 += 1
    if s0 == 0 or any(v < 0 for v in vals[s0:]):
        return None
    return s0


def decomposition_fault(parts) -> str | None:
    """Why a list of components is not a valid nested decomposition, or
    None: every part is a positive character and part i ends below
    s0 of part i-1."""
    if not parts:
        return "no components"
    s0s = [positive_s0(p) for p in parts]
    for i, s0 in enumerate(s0s):
        if s0 is None:
            return f"component {i} is not a positive character"
    for i in range(1, len(parts)):
        offset, vals = parts[i]
        if offset + len(vals) - 1 >= s0s[i - 1]:
            return f"component {i} overlaps component {i - 1}"
    return None


def as_fun(obj) -> tuple[int, tuple[int, ...]]:
    """A JSON {"offset": n, "values": [...]} as a normalized pair."""
    return normalize(obj["offset"], obj["values"])


# -- workload references ----------------------------------------------------


def curve_characters(max_degree: int) -> dict:
    """Character -> (d, g) for every type-3 O-sequence of mass <= max_degree."""
    out = {}
    for h in o_sequences(3, max_degree):
        out[gamma_of_h(h)] = degree_genus(h)
    return out


def enumeration_faults(payload: dict, expected: dict) -> list[str]:
    """Compare ``enumerate --json`` output with ``curve_characters``."""
    faults = []
    seen = set()
    for key in ("pairs", "beyond_paper"):
        for entry in payload[key]:
            pair = (entry["d"], entry["g"])
            if (pair in BEYOND_CLASSICAL) != (key == "beyond_paper"):
                faults.append(f"{pair} listed under {key}")
            for wit in entry["witnesses"]:
                parts = [as_fun(p) for p in wit]
                why = decomposition_fault(parts)
                if why:
                    faults.append(f"{pair}: {why}")
                    continue
                gamma = recompose(parts)
                if gamma in seen:
                    faults.append(f"{pair}: duplicate witness character {gamma}")
                seen.add(gamma)
                if expected.get(gamma) != pair:
                    faults.append(f"{pair}: witness recomposes to {gamma}, "
                                  f"which is {expected.get(gamma)}")
    missing = len(set(expected) - seen)
    if missing:
        faults.append(f"{missing} characters missing")
    return faults


def analysis_fault(gamma, answer: dict) -> str | None:
    """Check one ``analyze-codim3`` payload for the character gamma: the
    decomposition is nested, recomposes to gamma and has r = s0 - 1; s0,
    s1 and the Prop 3.6 bounds match; s1 from the decomposition (r >= 1)
    equals s1; and the integral screen agrees with its rule,
    gamma(n) >= min(0, n - s0 - s1 + 1) for n >= s1."""
    s0 = 0
    while value_at(gamma, s0) == -(s0 + 1):
        s0 += 1
    s1 = s0
    while value_at(gamma, s1) <= -s0:
        s1 += 1
    offset, vals = gamma
    screen = all(value_at(gamma, n) >= min(0, n - s0 - s1 + 1)
                 for n in range(s1, offset + len(vals)))
    parts = [as_fun(p) for p in answer["decomposition"]]
    why = decomposition_fault(parts)
    if why:
        return why
    if recompose(parts) != gamma:
        return f"decomposition recomposes to {recompose(parts)}"
    got = (answer["s0"], answer["s1"], answer["r"], answer["bounds_ok"])
    if got != (s0, s1, s0 - 1, True):
        return f"(s0, s1, r, bounds_ok) = {got}, expected {(s0, s1, s0 - 1, True)}"
    if answer.get("s1_from_decomposition") != (s1 if s0 >= 2 else None):
        return f"s1_from_decomposition = {answer.get('s1_from_decomposition')}, expected {s1}"
    if answer["integral_screen"] != screen:
        return f"integral_screen = {answer['integral_screen']}, expected {screen}"
    return None


def growth_fault(query: list, answer) -> str | None:
    """Check one growth answer: ["upper", alpha, i] -> int,
    ["expand", alpha, i] -> terms, ["macaulay", h, planted] -> bool."""
    kind = query[0]
    if kind == "upper":
        want = upper(query[1], query[2])
    elif kind == "expand":
        want = expansion(query[1], query[2])
    else:
        want = not query[2]
        if is_o_sequence(query[1]) != want:
            return "planted answer disagrees with the oracle"
    if answer != want:
        return f"{query[0]}: got {answer!r}, expected {want!r}"
    return None
