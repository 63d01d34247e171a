"""Macaulay growth verification and the constructive decomposition of
finitely supported Macaulay functions.

A Macaulay function (O-sequence) has h(0) = 1 and h(n+1) <= h(n)^<n> for
all n >= 1.  An independent lex-segment monomial oracle certifies the same
property at small scale.  ``decompose`` splits a function of type a >= 2
into type-(a-1) layers shifted against each other.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement

from .binomial import binom, upper
from .intfun import IntFun


def is_macaulay(h: IntFun) -> bool:
    """True iff h is an O-sequence: h(0) = 1, values >= 0 and the Macaulay
    growth condition holds in every degree."""
    if h.is_zero():
        return False
    if h.inf() < 0 or h(0) != 1:
        return False
    if any(v < 0 for v in h.values):
        return False
    top = h.sup()
    for n in range(1, top + 1):
        if h(n + 1) > upper(h(n), n):
            return False
    return True


@dataclass(frozen=True)
class MacaulayFn:
    """A validated finitely supported Macaulay function."""

    h: IntFun

    def __post_init__(self):
        if not is_macaulay(self.h):
            raise ValueError(f"not a Macaulay function: {self.h}")

    @property
    def type_a(self) -> int:
        return self.h(1)

    def __call__(self, n: int) -> int:
        return self.h(n)


def s0_of(h: IntFun | MacaulayFn) -> int:
    """Least n with h(n) < C(a+n-1, n), a = h(1).  Always finite (> 1) for
    finitely supported input of type a >= 1."""
    f = h.h if isinstance(h, MacaulayFn) else h
    a = f(1)
    if a < 1:
        raise ValueError("s0 is undefined for functions of type 0")
    n = 0
    while f(n) >= binom(a + n - 1, n):
        n += 1
    return n


# -- lex-segment oracle ---------------------------------------------------

_ORACLE_MAX_TYPE = 4
_ORACLE_MAX_SUP = 8


@lru_cache(maxsize=None)
def _monomials(a: int, n: int) -> tuple[tuple[int, ...], ...]:
    """All degree-n exponent vectors in a variables, descending lex with
    x_1 > x_2 > ... > x_a."""
    if a == 0:
        return ((),) if n == 0 else ()
    out = []
    for combo in combinations_with_replacement(range(a), n):
        exp = [0] * a
        for v in combo:
            exp[v] += 1
        out.append(tuple(exp))
    out.sort(reverse=True)
    return tuple(out)


@lru_cache(maxsize=None)
def _product_indices(a: int, n: int) -> tuple[tuple[int, ...], ...]:
    """For each degree-n monomial, the indices of its products with each
    variable inside the degree-(n+1) list."""
    nxt = {m: i for i, m in enumerate(_monomials(a, n + 1))}
    table = []
    for exp in _monomials(a, n):
        row = []
        for v in range(a):
            prod = list(exp)
            prod[v] += 1
            row.append(nxt[tuple(prod)])
        table.append(tuple(row))
    return tuple(table)


def lex_oracle(h: IntFun) -> bool:
    """Certify h as a Hilbert function by explicit lex-segment construction.

    In a = h(1) variables, mark in each degree n the first
    count_n - h(n) monomials (descending lex) as belonging to the ideal;
    h is a Hilbert function iff every marked monomial stays marked after
    multiplication by any variable.
    """
    if h.is_zero() or h.inf() < 0 or h(0) != 1 or any(v < 0 for v in h.values):
        return False
    a = h(1)
    top = h.sup() + 1
    if a > _ORACLE_MAX_TYPE or h.sup() > _ORACLE_MAX_SUP:
        raise ValueError("input exceeds the oracle scale bound")
    marked = []
    for n in range(top + 1):
        count = len(_monomials(a, n))
        if h(n) > count:
            return False
        marked.append(count - h(n))
    for n in range(top):
        table = _product_indices(a, n)
        limit = marked[n + 1]
        for idx in range(marked[n]):
            for j in table[idx]:
                if j >= limit:
                    return False
    return True


# -- decomposition --------------------------------------------------------


@dataclass(frozen=True)
class _Layered:
    """Shared shape of both decompositions: parts p_0, ..., p_r that
    recompose as p_0 + p_1[-1] + ... + p_r[-r]."""

    parts: tuple[IntFun, ...]

    @property
    def r(self) -> int:
        return len(self.parts) - 1

    @property
    def s0(self) -> int:
        """s0 of the recomposed function, which is r + 1."""
        return self.r + 1

    def recompose(self) -> IntFun:
        total = IntFun()
        for i, p in enumerate(self.parts):
            total = total + p.shift(-i)
        return total


@dataclass(frozen=True)
class Decomposition(_Layered):
    """Layers h_0, ..., h_r with h = h_0 + h_1[-1] + ... + h_r[-r]."""

    def validate(self, type_a: int) -> None:
        """Check all structural invariants for a decomposition of a
        function of the given type."""
        if self.r < 1:
            raise ValueError("decomposition needs at least two layers")
        for i, p in enumerate(self.parts):
            if not is_macaulay(p):
                raise ValueError(f"layer {i} is not a Macaulay function")
            want = type_a - 1
            if i < self.r and p(1) != want:
                raise ValueError(f"layer {i} must have type {want}")
            if i == self.r and p(1) > want:
                raise ValueError(f"last layer must have type <= {want}")
        for i in range(1, self.r + 1):
            bound = s0_of(self.parts[i - 1]) - 1
            if self.parts[i].sup() >= bound:
                raise ValueError(f"layer {i} overlaps layer {i - 1}")


def decompose(h: IntFun | MacaulayFn) -> Decomposition:
    """Unique decomposition of a finitely supported Macaulay function of
    type a >= 2 into type-(a-1) layers; s0(h) equals r + 1."""
    mf = h if isinstance(h, MacaulayFn) else MacaulayFn(h)
    a = mf.type_a
    if a < 2:
        raise ValueError("decompose needs type >= 2 (see type12_shape)")
    parts: list[IntFun] = []
    cur = mf.h
    while True:
        n = 0
        while cur(n) >= binom(a + n - 2, n):
            n += 1
        top = max(n - 1, cur.sup())
        h0 = IntFun(0, tuple(binom(a + m - 2, m) if m < n else cur(m)
                             for m in range(top + 1)))
        hprime = (cur - h0).shift(1)
        parts.append(h0)
        if hprime(1) < a:
            parts.append(hprime)
            break
        # h0(0) = 1, so each peel strictly reduces the mass and the loop
        # terminates
        cur = hprime
    dec = Decomposition(tuple(parts))
    dec.validate(a)
    return dec


# -- shape classification for small types ---------------------------------

TYPE0 = "type0"
TYPE1 = "type1"
TYPE2 = "type2"
NOT_MACAULAY = "not-macaulay"
HIGHER_TYPE = "higher-type"


def type12_shape(h: IntFun) -> str:
    """Classify h as a Macaulay function of type 0, 1 or 2, of higher
    type, or not a Macaulay function (the zero function counts as type 0)."""
    if h.is_zero():
        return TYPE0
    if not is_macaulay(h):
        return NOT_MACAULAY
    return (TYPE0, TYPE1, TYPE2)[h(1)] if h(1) <= 2 else HIGHER_TYPE
