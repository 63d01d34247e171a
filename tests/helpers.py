"""Shared enumeration helpers for the test suite."""
from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement, product
from math import comb
import os
from pathlib import Path
import resource
import subprocess
import sys

import acmchar
from acmchar import (
    Codim3Decomposition,
    DGEntry,
    DGTable,
    IntFun,
    MacaulayFn,
    binom,
    char_s0,
    decompose,
    gamma_from_h,
    h_from_gamma,
    is_macaulay,
    is_positive_character,
    quadric_check,
    s0_of,
    surface_invariants,
    upper,
)
from acmchar.growth import HIGHER_TYPE, NOT_MACAULAY, TYPE0, TYPE1, TYPE2
from acmchar.intfun import _quote

# address space of a child that makes one call; Python with acmchar.cli
# imported maps about 18 MB
CHILD_CAP_BYTES = 256 << 20


def run_capped(*argv):
    """``python *argv`` on this package under an address-space cap, so a
    call that builds a list as long as an offset stops with MemoryError
    instead of taking gigabytes."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (CHILD_CAP_BYTES,) * 2)

    env = {**os.environ, "PYTHONPATH": str(Path(acmchar.__file__).parents[1])}
    return subprocess.run([sys.executable, *argv], env=env, preexec_fn=cap,
                          capture_output=True, text=True, timeout=60)


def greedy_stepwise(alpha, i):
    """Oracle for ``binomial._greedy(alpha, i, 0)``: each top searched from
    scratch, up from k by doubling and then by bisection, with no bracket
    from the term before and no closed form, as the library once did."""
    terms = []
    rem, k = alpha, i
    while rem > k:
        lo, step = k, 1  # C(k,k) = 1 <= rem
        while comb(lo + step, k) <= rem:
            lo, step = lo + step, 2 * step
        hi = lo + step  # C(lo,k) <= rem < C(hi,k)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if comb(mid, k) <= rem:
                lo = mid
            else:
                hi = mid
        terms.append((lo, k))
        rem -= comb(lo, k)
        k -= 1
    return terms, rem


def macaulay_functions(type_a, max_mass):
    """All finitely supported Macaulay functions with h(1) = type_a and
    total mass at most max_mass, generated through the growth recursion."""
    out = []

    def extend(prefix, mass):
        out.append(IntFun(0, tuple(prefix)))
        n = len(prefix) - 1
        bound = min(upper(prefix[-1], n), max_mass - mass)
        for v in range(1, bound + 1):
            extend(prefix + [v], mass + v)

    if type_a == 0:
        out.append(IntFun(0, (1,)))
    elif 1 + type_a <= max_mass:
        extend([1, type_a], 1 + type_a)
    return out


def growth_box(a, length):
    """Every (1, a, x_2, ..., x_{length-1}) with 0 <= x_n <= C(a+n-1, n) + 1:
    every value up to one past the generic one, trailing zeros included."""
    return [(1, a, *xs) for xs in product(
        *(range(binom(a + n - 1, n) + 2) for n in range(2, length)))]


def small_characters(max_pos, bound):
    """All nonzero functions supported on [0, max_pos] with entries in
    [-bound, bound] and total sum zero."""
    out = []
    for vals in product(range(-bound, bound + 1), repeat=max_pos + 1):
        if any(vals) and sum(vals) == 0:
            out.append(IntFun(0, vals))
    return out


def random_intfun(rng, max_len=8, lo=-5, hi=5, offset=0):
    """A random finitely supported function starting at the offset."""
    length = rng.randint(1, max_len)
    return IntFun(offset, tuple(rng.randint(lo, hi) for _ in range(length)))


def random_character(rng, max_len=8, lo=-5, hi=5, offset=0):
    """A random function with total sum zero (balanced by one extra entry)."""
    f = random_intfun(rng, max_len, lo, hi, offset)
    tail = f.sup() + 1 if not f.is_zero() else offset
    return f - IntFun(tail, (f.total(),))


def random_nonneg(rng, max_len=8, hi=9, offset=0):
    """A random nonnegative finitely supported function."""
    length = rng.randint(1, max_len)
    return IntFun(offset, tuple(rng.randint(0, hi) for _ in range(length)))


def positive_rules(gamma):
    """Oracle for ``is_positive_character``, read directly off the values:
    a nonzero character vanishing in negative degrees, -1 on [0, s0) with
    s0 >= 1, and nonnegative from s0 on."""
    if gamma.is_zero():
        return False
    if not gamma.is_character() or gamma.inf() < 0 or gamma(0) != -1:
        return False
    s0 = 0
    while gamma(s0) == -1:
        s0 += 1
    return all(gamma(n) >= 0 for n in range(s0, gamma.sup() + 1))


def greedy_parts(gamma):
    """Oracle for ``decompose_codim3``: peel positive components off the
    front of a codim-3 character directly, without the h-vector.

    At each step N is the least n whose strict upper tail sums to at most
    n; the head component is -1 below N, absorbs the tail surplus at N and
    copies gamma above N.
    """
    parts = []
    cur = gamma
    while not is_positive_character(cur):
        top = cur.sup()
        n = 0
        while sum(cur(m) for m in range(n + 1, top + 1)) > n:
            n += 1
        tail = sum(cur(m) for m in range(n + 1, top + 1))
        vals = [-1] * n + [n - tail] + [cur(m) for m in range(n + 1, top + 1)]
        g0 = IntFun(0, tuple(vals))
        parts.append(g0)
        cur = (cur - g0).shift(1)
    parts.append(cur)
    return tuple(parts)


def quadric_search(gamma):
    """Oracle for ``quadric_check`` on an s0 = 2 codim-3 character: search
    for the split point s directly on the shape of gamma.

    gamma is -2 on [1, t]; a valid s has gamma >= -1 strictly between t
    and s, gamma >= 0 from s on, and the tail sums bracket s.  Returns
    (valid, t, s) with s = -1 when no split point exists.
    """
    top = gamma.sup()
    t = 1
    while gamma(t + 1) == -2:
        t += 1
    for s in range(t + 1, top + 1):
        if any(gamma(m) < -1 for m in range(t + 1, s)):
            continue
        if any(gamma(m) < 0 for m in range(s, top + 1)):
            continue
        above = sum(gamma(m) for m in range(s + 1, top + 1))
        if above <= s <= above + gamma(s):
            return True, t, s
    return False, t, -1


def type12_shape_rules(h):
    """Oracle for ``type12_shape``: classify h by the explicit shapes of
    the Macaulay functions of type 0, 1 and 2, without the growth bound
    (``is_macaulay`` only decides the higher types)."""
    if h.is_zero():
        return TYPE0
    if h.inf() < 0 or h(0) != 1 or any(v < 0 for v in h.values):
        return NOT_MACAULAY
    a = h(1)
    top = h.sup()
    if a >= 3:
        return HIGHER_TYPE if is_macaulay(h) else NOT_MACAULAY
    if a == 0:
        # only (1) itself: nothing may revive after the zero in degree 1
        return TYPE0 if top == 0 else NOT_MACAULAY
    if a == 1:
        # decreasing, values in {0, 1}
        for n in range(top + 1):
            if h(n) not in (0, 1) or h(n + 1) > h(n):
                return NOT_MACAULAY
        return TYPE1
    # a == 2: h(n) = n + 1 up to some s0 > 1, then decreasing
    s0 = 0
    while h(s0) == s0 + 1:
        s0 += 1
    if h(s0) > s0 + 1:
        return NOT_MACAULAY
    for n in range(s0, top + 1):
        if h(n + 1) > h(n):
            return NOT_MACAULAY
    return TYPE2


# -- point-by-point oracles for the window scans ---------------------------
#
# The library scans each stored window once; these read the same rules one
# degree at a time through IntFun.__call__, as the library once did.


def is_macaulay_pointwise(h):
    """Oracle for ``is_macaulay``."""
    if h.is_zero() or h.inf() < 0 or h(0) != 1:
        return False
    if any(h(n) < 0 for n in range(h.sup() + 1)):
        return False
    return all(h(n + 1) <= upper(h(n), n) for n in range(1, h.sup() + 1))


def s0_of_pointwise(h):
    """Oracle for ``s0_of`` on an IntFun."""
    a = h(1)
    if a < 1:
        raise ValueError("s0 is undefined for functions of type 0")
    n = 0
    while h(n) >= binom(a + n - 1, n):
        n += 1
    return n


def char_s0_pointwise(gamma):
    """Oracle for ``char_s0``."""
    n = 0
    while gamma(n) == -1:
        n += 1
    return n


def necessary_pointwise(gamma, c):
    """Oracle for ``check_necessary`` as (ok, s0, failure)."""
    if gamma.total() != 0:
        return False, None, "values do not sum to zero"
    if gamma.is_zero():
        return False, None, "zero function"
    if gamma.inf() < 0:
        return False, None, "nonzero value in negative degree"
    if gamma(0) != -1:
        return False, 0, "value at degree 0 is not -1"
    s0 = 0
    while gamma(s0) == -binom(s0 + c - 2, c - 2):
        s0 += 1
    if gamma(s0) <= -binom(s0 + c - 2, c - 2):
        return False, s0, f"value at s0={s0} too negative"
    return True, s0, None


def checked_s0_pointwise(gamma, c):
    """s0 of gamma, or the library's ValueError for a rejected gamma."""
    ok, s0, failure = necessary_pointwise(gamma, c)
    if not ok:
        raise ValueError(f"not a codim-{c} ACM character: {failure}")
    return s0


def s1_pointwise(gamma, c, s0):
    """Oracle for the s1 scan of a checked gamma with the given s0."""
    for n in range(s0, gamma.sup() + 2):
        if gamma(n) > binom(n - s0 + c - 2, c - 2) - binom(n + c - 2, c - 2):
            return n
    return None


def prop36_pointwise(gamma, dec):
    """Oracle for ``check_prop36_bounds``."""
    if gamma.is_zero():
        return True
    r = dec.r
    top = gamma.sup()
    if any(gamma(n) < 0 for n in range(char_s0_pointwise(dec.parts[0]), top + 1)):
        return False
    if r >= 1:
        s0x = r + 1
        hi = char_s0_pointwise(dec.parts[r - 1]) + s0x - 2
        if any(gamma(n) < -s0x for n in range(s0x, hi)):
            return False
    for i in range(1, r):
        lo = char_s0_pointwise(dec.parts[i]) + i
        hi = char_s0_pointwise(dec.parts[i - 1]) + i - 1
        if any(gamma(n) < -i for n in range(lo, hi)):
            return False
    return True


def integral_screen_pointwise(gamma):
    """Oracle for ``integral_screen``."""
    s0 = checked_s0_pointwise(gamma, 3)
    s1 = s1_pointwise(gamma, 3, s0)
    top = max(gamma.sup(), s0 + s1)
    return all(gamma(n) >= min(0, n - s0 - s1 + 1) for n in range(s1, top + 1))


def integral_quadric_pointwise(gamma):
    """Oracle for ``integral_quadric_check``: the two-bound quadric screen,
    gamma(t+1) >= -1 and gamma(n) >= 0 for n >= t + 2, point by point,
    behind ``quadric_check``'s guard."""
    if not quadric_check(gamma).valid:
        raise ValueError("character fails the quadric shape test")
    t = 1
    while gamma(t + 1) == -2:
        t += 1
    return gamma(t + 1) >= -1 and all(gamma(n) >= 0
                                      for n in range(t + 2, gamma.sup() + 1))


def validate_stepwise(parts, type_a):
    """Oracle for ``Decomposition.validate`` on IntFun layers, through
    ``is_macaulay``, ``s0_of`` and the IntFun methods, check by check."""
    if type(type_a) is not int:
        raise TypeError(f"not an integer: {_quote(type_a)}")
    if type_a < 2:
        raise ValueError("decomposition needs type >= 2")
    r, want = len(parts) - 1, type_a - 1
    if r < 1:
        raise ValueError("decomposition needs at least two layers")
    for i, p in enumerate(parts):
        if not is_macaulay(p):
            raise ValueError(f"layer {i} is not a Macaulay function")
        if i < r and p(1) != want:
            raise ValueError(f"layer {i} must have type {want}")
        if i == r and p(1) > want:
            raise ValueError(f"last layer must have type <= {want}")
    for i in range(1, r + 1):
        if parts[i].sup() >= s0_of(parts[i - 1]) - 1:
            raise ValueError(f"layer {i} overlaps layer {i - 1}")


def decompose_codim3_composed(gamma):
    """Oracle for ``decompose_codim3``'s parts and errors, composed of the
    public IntFun steps: h_from_gamma, MacaulayFn, decompose (its layers
    checked again by ``validate_stepwise``) and gamma_from_h per layer."""
    try:
        h = h_from_gamma(gamma)
    except ValueError as exc:
        raise ValueError(f"not a codim-3 ACM character: {exc}") from exc
    try:
        mf = MacaulayFn(h)
    except ValueError as exc:
        raise ValueError(
            "not a codim-3 ACM character: h-vector violates growth") from exc
    if mf.type_a > 3:
        raise ValueError(
            f"not a codim-3 ACM character: h-vector of type {mf.type_a}")
    if mf.type_a <= 2:
        return (gamma,)
    layers = decompose(mf).parts
    validate_stepwise(layers, mf.type_a)
    return tuple(map(gamma_from_h, layers))


def eval_polynomial(coeffs, n):
    """Horner evaluation at n of the coefficients, constant term first."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * n + c
    return acc


# -- enumeration oracles ----------------------------------------------------


def placed_positive_characters(d):
    """(s0, gamma) for every placement of s0 units on [s0, d] after -1 on
    [0, s0) whose degree is d: a raw search with no partition generator."""
    out = []
    for s0 in range(1, d + 1):
        for pos in combinations_with_replacement(range(s0, d + 1), s0):
            vals = [-1] * s0 + [pos.count(n) for n in range(s0, max(pos) + 1)]
            gamma = IntFun(0, tuple(vals))
            if gamma.degree() == d:
                out.append((s0, gamma))
    return out


def layer_lengths(d, high):
    """Strictly decreasing tuples of positive parts <= high summing to d,
    in descending order, built part by part.  The h-vector of a positive
    character peels into type-1 layers (1, ..., 1) of lengths
    l_0 > l_1 > ... > l_{s0-1}, layer i from degree i on, so these are the
    layer lengths of the positive characters of degree d with sup <= high."""
    if d == 0:
        yield ()
    for first in range(min(d, high), 0, -1):
        if first * (first + 1) // 2 < d:
            return  # distinct parts <= first sum to at most first (first + 1) / 2
        for rest in layer_lengths(d - first, first - 1):
            yield (first, *rest)


def layer_character(lengths):
    """The values, from degree 0, of the positive character whose h-vector
    has these layer lengths: -1 at each i and +1 at each i + l_i."""
    vals = [0] * (lengths[0] + 1)
    for i, l in enumerate(lengths):
        vals[i] -= 1
        vals[i + l] += 1
    return tuple(vals)


def layer_records(d, cap=None):
    """Oracle for the records of ``enumeration._positive_records``: the
    sorted (values, d, sup, s0, delta) of the positive characters of degree
    d with sup <= cap, read off the layer lengths l: sup = l_0, s0 = len(l)
    and delta = sum_i l_i (l_i + 2i - 4), the sum of (i + l_i)^2 - 4 (i + l_i)
    - (i^2 - 4i)."""
    return sorted((layer_character(ls), d, ls[0], len(ls),
                   sum(l * (l + 2 * i - 4) for i, l in enumerate(ls)))
                  for ls in layer_lengths(d, d if cap is None else cap))


def walk_acm_curves(max_degree, nondegenerate=True):
    """Oracle for ``enumerate_acm_curves``: the recursive walk by component
    degree, its components built from ``layer_lengths`` and their
    invariants computed from their IntFun, and each pair's witnesses sorted
    by (len(w), [p.values for p in w]) at the end."""
    if max_degree < (4 if nondegenerate else 1):
        raise ValueError("degree bound below the minimal curve degree")
    min_parts = 2 if nondegenerate else 1

    @cache
    def components(d_i):
        """(gamma, sup, s0, delta) per positive character of degree d_i."""
        chars = sorted((IntFun(0, layer_character(ls))
                        for ls in layer_lengths(d_i, d_i)),
                       key=lambda g: (len(g.values), g.values))
        return tuple((g, g.sup(), char_s0(g), surface_invariants(g).delta)
                     for g in chars)

    grouped = {}

    def extend(prefix, cap, d, twice):
        i = len(prefix)
        for d_i in range(1, max_degree - d + 1):
            for g, sup, s0, delta in components(d_i):
                if sup > cap:
                    break  # sorted by sup, so the rest exceed cap too
                parts = prefix + (g,)
                total = twice + delta + (2 * i + 1) * d_i
                if len(parts) >= min_parts:
                    grouped.setdefault((d + d_i, total // 2 + 1), []).append(parts)
                if s0 >= 2:  # only a component with s0 >= 2 can be followed
                    extend(parts, s0 - 1, d + d_i, total)

    extend((), max_degree, 0, 0)  # every support is <= the degree
    entries = []
    for (d, g) in sorted(grouped):
        wits = sorted(grouped[(d, g)],  # every part has offset 0
                      key=lambda w: (len(w), [p.values for p in w]))
        entries.append(DGEntry(d, g, tuple(map(Codim3Decomposition, wits))))
    return DGTable(tuple(entries))
