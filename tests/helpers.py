"""Shared enumeration helpers for the test suite."""
from itertools import product

from acmchar import IntFun, is_macaulay, is_positive_character, upper
from acmchar.growth import HIGHER_TYPE, NOT_MACAULAY, TYPE0, TYPE1, TYPE2


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
