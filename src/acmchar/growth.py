"""Macaulay growth verification and the constructive decomposition of
finitely supported Macaulay functions.

A Macaulay function (O-sequence) has h(0) = 1 and h(n+1) <= h(n)^<n> for
all n >= 1.  An independent lex-segment monomial oracle certifies the same
property at small scale.  ``decompose`` splits a function of type a >= 2
into type-(a-1) layers shifted against each other.
"""
from __future__ import annotations

from itertools import combinations_with_replacement, count
from math import comb
import operator

from .binomial import _upper
from .intfun import IntFun, _Frozen, _quote, _require_ints


def is_macaulay(h: IntFun) -> bool:
    """True iff h is an O-sequence: h(0) = 1, values >= 0 and the Macaulay
    growth condition holds in every degree."""
    return h.offset == 0 and _is_o_sequence(h.values)


def _is_o_sequence(v: tuple[int, ...]) -> bool:
    """:func:`is_macaulay` on the values of a function from degree 0."""
    if not v or v[0] != 1 or min(v) < 0:
        return False
    # h(n+1) <= h(n)^<n> for 1 <= n < sup; h(sup+1) = 0 meets every bound
    return all(map(operator.le, v[2:], map(_upper, v[1:], count(1))))


class MacaulayFn(_Frozen):
    """A validated finitely supported Macaulay function."""

    __slots__ = ("h",)

    def __init__(self, h: IntFun):
        if not is_macaulay(h):
            raise ValueError(f"not a Macaulay function: {_quote(str(h))}")
        object.__setattr__(self, "h", h)

    @property
    def type_a(self) -> int:
        return self.h(1)

    def __call__(self, n: int) -> int:
        return self.h(n)


def s0_of(h: IntFun) -> int:
    """Least n with h(n) < C(a+n-1, n), a = h(1).  Always finite for
    finitely supported input of type a >= 1, and > 1 when h(0) >= 1."""
    off = h.offset  # h from degree 0 on; empty past offset 1, where h(1) = 0
    return _s0(h.values[-off:] if off <= 0 else (0, *h.values) if off == 1 else ())


def _s0(v: tuple[int, ...]) -> int:
    """:func:`s0_of` on the values of a function from degree 0."""
    a = v[1] if len(v) > 1 else 0
    if a < 1:
        raise ValueError("s0 is undefined for functions of type 0")
    # every bound C(a+n-1, n) is >= 1, so the scan stops by sup + 1
    for n, x in enumerate(v):
        if x < comb(a + n - 1, n):
            return n
    return len(v)


# -- lex-segment oracle ---------------------------------------------------

_ORACLE_MAX_TYPE = 4
_ORACLE_MAX_SUP = 8


def _monomials(a: int, n: int) -> tuple[tuple[int, ...], ...]:
    """All degree-n monomials in a variables as sorted tuples of variable
    indices, in descending lex order with x_1 > x_2 > ... > x_a: where two
    tuples first differ, the smaller index has the larger exponent and
    every earlier variable the same one."""
    return tuple(combinations_with_replacement(range(a), n))


def lex_oracle(h: IntFun) -> bool:
    """Certify h as a Hilbert function by explicit lex-segment construction.

    In a = h(1) variables, mark in each degree n the first
    count_n - h(n) monomials (descending lex) as belonging to the ideal;
    h is a Hilbert function iff they form an ideal: each unmarked
    monomial stays unmarked after division by any of its variables.
    """
    if h.is_zero() or h.inf() < 0 or h(0) != 1 or any(v < 0 for v in h.values):
        return False
    a = h(1)
    top = h.sup() + 1
    if a > _ORACLE_MAX_TYPE or h.sup() > _ORACLE_MAX_SUP:
        raise ValueError("input exceeds the oracle scale bound")
    monomials = [_monomials(a, n) for n in range(top + 1)]
    if any(h(n) > len(m) for n, m in enumerate(monomials)):
        return False
    unmarked = [set(m[::-1][:h(n)]) for n, m in enumerate(monomials)]
    # a sorted tuple stays sorted when one entry is dropped
    return all(s[:i] + s[i + 1:] in unmarked[n - 1] for n in range(1, top + 1)
               for s in unmarked[n] for i in range(n))


# -- decomposition --------------------------------------------------------


class _Layered(_Frozen):
    """Shared shape of both decompositions: parts p_0, ..., p_r that
    recompose as p_0 + p_1[-1] + ... + p_r[-r]."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[IntFun, ...]):
        object.__setattr__(self, "parts", parts)

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


class Decomposition(_Layered):
    """Layers h_0, ..., h_r with h = h_0 + h_1[-1] + ... + h_r[-r]."""

    __slots__ = ()

    def validate(self, type_a: int) -> None:
        """Check all structural invariants for a decomposition of a
        function of the given type."""
        _require_ints(type_a)
        if type_a < 2:
            raise ValueError("decomposition needs type >= 2")
        r, want = self.r, type_a - 1
        if r < 1:
            raise ValueError("decomposition needs at least two layers")
        # a layer off degree 0 is not an O-sequence, nor is ()
        layers = [() if p.offset else p.values for p in self.parts]
        for i, p in enumerate(layers):
            if not _is_o_sequence(p):
                raise ValueError(f"layer {i} is not a Macaulay function")
            t = p[1] if len(p) > 1 else 0
            if i < r and t != want:
                raise ValueError(f"layer {i} must have type {want}")
            if t > want:  # only i == r gets here: t != want raised for i < r
                raise ValueError(f"last layer must have type <= {want}")
        for i in range(1, r + 1):  # a layer's sup is len - 1
            if len(layers[i]) >= _s0(layers[i - 1]):
                raise ValueError(f"layer {i} overlaps layer {i - 1}")


def decompose(h: IntFun | MacaulayFn) -> Decomposition:
    """Unique decomposition of a finitely supported Macaulay function of
    type a >= 2 into type-(a-1) layers; s0(h) equals r + 1."""
    mf = h if isinstance(h, MacaulayFn) else MacaulayFn(h)
    a = mf.type_a
    if a < 2:
        raise ValueError("decompose needs type >= 2 (see type12_shape)")
    return Decomposition(tuple(IntFun(0, p) for p in _peel(mf.h.values, a)))


def _peel(v: tuple[int, ...], a: int) -> list[tuple[int, ...]]:
    """Layers of v = (1, a, ...), a >= 2, which must be an O-sequence: the
    peel builds the layers and checks nothing."""
    layers = []
    while True:
        # the remainder from degree 0; no layer exceeds C(a+m-1, m), so v[0] = 1
        low = []
        for x, g in zip(v, map(comb, count(a - 2), count())):  # C(a+m-2, m)
            if x < g:
                break
            low.append(g)
        layers.append((*low, *v[len(low):]))
        # (v - low).shift(1): low[0] = v[0], so each peel reduces the mass
        v = tuple(map(operator.sub, v[1:], low[1:]))
        while not v[-1]:  # strip as IntFun does; v[0] = 1 stops it
            v = v[:-1]
        if len(v) < 2 or v[1] < a:
            layers.append(v)
            return layers


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
