"""Character calculus: conversions between characters and h-vectors,
positivity, s0/s1, numeric invariants, resolution characters and
biliaison updates.

A character is a finitely supported integer function with total sum zero.
Characters of subschemes additionally vanish in negative degrees.
"""
from __future__ import annotations

from itertools import accumulate
import math
import operator

from .binomial import binom
from .intfun import ConstantTailError, IntFun, _Frozen, _require_ints, _require_type


# -- conversions ----------------------------------------------------------


def gamma_from_h(h: IntFun) -> IntFun:
    """The character -diff(h) attached to an h-vector."""
    v = h.values
    return IntFun(h.offset, tuple(map(operator.sub, (0,) + v, v + (0,))))


def h_from_gamma(gamma: IntFun) -> IntFun:
    """Inverse of :func:`gamma_from_h`: h(n) = -sum_{k<=n} gamma(k).

    Requires gamma to vanish in negative degrees and all prefix sums to be
    <= 0 (so the h-vector is nonnegative).
    """
    return IntFun(gamma.offset, _h_values(gamma))


def _h_values(gamma: IntFun) -> tuple[int, ...]:
    """The values of :func:`h_from_gamma` from gamma's offset to its sup - 1."""
    if gamma.offset < 0:  # the zero function is stored at offset 0
        raise ValueError("character does not vanish in negative degrees")
    if sum(gamma.values):
        raise ConstantTailError(gamma.total())
    h = tuple(accumulate(map(operator.neg, gamma.values[:-1])))
    if min(h, default=0) < 0:
        raise ValueError("not an h-vector: negative value")
    return h


# -- positivity and s0/s1 -------------------------------------------------


def char_s0(gamma: IntFun) -> int:
    """Least n >= 0 with gamma(n) != -1."""
    off = gamma.offset
    v = gamma.values[-off:] if off <= 0 else ()  # the values from degree 0 on
    for n, x in enumerate(v):
        if x != -1:
            return n
    return len(v)


def is_positive_character(gamma: IntFun) -> bool:
    """True iff gamma passes :func:`check_necessary` in codim 2 and is
    nonnegative from s0 on."""
    chk = check_necessary(gamma, 2)
    return chk.ok and min(gamma.values[chk.s0:], default=0) >= 0


class NecessaryCheck(_Frozen):
    __slots__ = ("ok", "s0", "failure")

    def __init__(self, ok: bool, s0: int | None, failure: str | None = None):
        _require_type(ok, (bool,), "a bool")
        if s0 is not None:
            _require_ints(s0)
        _require_type(failure, (str, type(None)), "a string or None")
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "s0", s0)
        object.__setattr__(self, "failure", failure)

    def __bool__(self) -> bool:
        return self.ok


def check_necessary(gamma: IntFun, codim: int) -> NecessaryCheck:
    """Verify the necessary conditions for gamma to be the postulation
    character of a pure codimension-``codim`` subscheme.

    The character must sum to zero, vanish in negative degrees, equal
    -C(n+c-2, c-2) below s0 and exceed -C(s0+c-2, c-2) at s0 (c = codim).
    Every nonempty subscheme has gamma(0) = -1, so s0 >= 1, and an accepted
    gamma is stored from degree 0.
    """
    _require_ints(codim)
    if codim < 1:
        raise ValueError("codim must be >= 1")
    v = gamma.values
    if sum(v):
        return NecessaryCheck(False, None, "values do not sum to zero")
    if not v:
        return NecessaryCheck(False, None, "zero function")
    if gamma.offset < 0:
        return NecessaryCheck(False, None, "nonzero value in negative degree")
    if gamma.offset or v[0] != -1:
        return NecessaryCheck(False, 0, "value at degree 0 is not -1")
    # the scan stops before len(v) = sup + 1: v sums to 0 with v[0] = -1, so
    # it holds a positive value, which no generic value (<= -1) is for c >= 2,
    # and for c = 1, where the generic value is 0 from n = 1 on, v[sup] != 0
    k, s0, x, g = codim - 2, 0, -1, -1
    while x == g:
        s0 += 1
        x = v[s0]
        g = -math.comb(s0 + k, k) if k >= 0 else 0
    if x <= g:
        return NecessaryCheck(False, s0, f"value at s0={s0} too negative")
    return NecessaryCheck(True, s0)


def s1_general(gamma: IntFun, codim: int) -> int:
    """Least n >= s0 where gamma exceeds the generic hypersurface defect
    C(n-s0+c-2, c-2) - C(n+c-2, c-2); s1 <= sup for every character that
    passes :func:`check_necessary`.

    For codim 2 this is the first positive value at or after s0; for
    codim 3 the first value > -s0.
    """
    _require_ints(codim)
    if codim < 2:
        raise ValueError("codim must be >= 2")
    return _s0_s1(gamma, codim)[1]


def _s0_s1(gamma: IntFun, c: int) -> tuple[int, int]:
    """(s0, s1) of gamma; ValueError unless it passes :func:`check_necessary`."""
    chk = check_necessary(gamma, c)
    if not chk:
        raise ValueError(f"not a codim-{c} ACM character: {chk.failure}")
    s0 = chk.s0
    # stops by sup: gamma (stored from degree 0) is -C(n+c-2, c-2) below s0,
    # so were it at or below the bound on [s0, sup] too, it would sum to at
    # most C(sup-s0+c-1, c-1) - C(sup+c-1, c-1), which is < 0 as s0 >= 1
    for n, v in enumerate(gamma.values[s0:], s0):
        if v > math.comb(n - s0 + c - 2, c - 2) - math.comb(n + c - 2, c - 2):
            return s0, n


# -- model characters -----------------------------------------------------


def hypersurface_char(d: int) -> IntFun:
    """Character of a degree-d hypersurface: -1 at 0 and +1 at d."""
    _require_ints(d)
    if d < 1:
        raise ValueError("degree must be >= 1")
    return IntFun(0, (-1,) + (0,) * (d - 1) + (1,))


def complete_intersection_char(s0: int, s1: int) -> IntFun:
    """Character of the complete intersection of hypersurfaces of degrees
    s0 <= s1: -1 on [0, s0), +1 on [s1, s0+s1)."""
    _require_ints(s0, s1)
    if s0 < 1 or s1 < s0:
        raise ValueError("need 1 <= s0 <= s1")
    return IntFun(0, (-1,) * s0) + IntFun(s1, (1,) * s0)


# -- biliaison and resolutions --------------------------------------------


# IntFun sums fill the gaps between windows with zeros, so these caps
# bound the time and the size of the output
MAX_BILIAISON_SPAN = 10**5
MAX_RESOLUTION_CODIM = 1000


def biliaison(gamma_x: IntFun, gamma_y: IntFun, h: int) -> IntFun:
    """Height-h elementary biliaison update on a support of character
    gamma_y: n -> gamma_x(n-h) + gamma_y#(n) - gamma_y#(n-h).

    Refuses when the three summands together span more than
    MAX_BILIAISON_SPAN degrees."""
    _require_ints(h)
    p = gamma_y.primitive()
    x, q = gamma_x.shift(-h), p.shift(-h)
    terms = [f for f in (x, p, q) if not f.is_zero()]
    if terms:
        span = max(f.sup() for f in terms) - min(f.inf() for f in terms) + 1
        if span > MAX_BILIAISON_SPAN:
            raise ValueError(f"biliaison spans {span} degrees, more than "
                             f"{MAX_BILIAISON_SPAN}")
    return x + p - q


def _check_codim(codim: int) -> None:
    _require_ints(codim)
    if codim < 2:
        raise ValueError("codim must be >= 2")
    if codim > MAX_RESOLUTION_CODIM:
        raise ValueError(f"codim must be <= {MAX_RESOLUTION_CODIM}")


def resolution_char(gamma: IntFun, codim: int) -> IntFun:
    """Alternating rank function of a graded free resolution: the
    (codim-1)-fold difference of the character."""
    _check_codim(codim)
    r = gamma
    for _ in range(codim - 1):
        r = r.diff()
    return r


def gamma_from_resolution(r: IntFun, codim: int) -> IntFun:
    """Inverse of :func:`resolution_char`: (codim-1)-fold primitive."""
    _check_codim(codim)
    g = r
    for _ in range(codim - 1):
        g = g.primitive()
    return g


def postulation_values(gamma: IntFun, m_dim: int, n: int) -> int:
    """h^0 I_X(n) - h^0 O_P(n) for a dimension-``m_dim`` subscheme with
    character gamma: sum_k C(n-k+M+1, M+1) gamma(k)."""
    _require_ints(m_dim, n)
    if m_dim < 0:
        raise ValueError("dimension must be >= 0")
    return sum(binom(n - k + m_dim + 1, m_dim + 1) * v for k, v in gamma.support())


# -- numeric invariants ---------------------------------------------------


class CurveInvariants(_Frozen):
    __slots__ = ("d", "g")

    def __init__(self, d: int, g: int):
        _require_ints(d, g)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "g", g)


class SurfaceInvariants(_Frozen):
    __slots__ = ("d", "delta", "p_a")

    def __init__(self, d: int, delta: int, p_a: int):
        _require_ints(d, delta, p_a)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "p_a", p_a)


def curve_invariants(gamma: IntFun) -> CurveInvariants:
    """Degree and arithmetic genus of a curve with character gamma."""
    d = gamma.degree()
    g = 1 + sum((k - 1) * (k - 2) // 2 * v for k, v in gamma.support())
    return CurveInvariants(d, g)


def surface_invariants(gamma: IntFun) -> SurfaceInvariants:
    """Degree, canonical-divisor degree and arithmetic genus of a surface
    with character gamma."""
    d = gamma.degree()
    delta = sum((k * k - 4 * k) * v for k, v in gamma.support())
    p_a = sum((k - 3) * (k - 2) * (k - 1) // 6 * v for k, v in gamma.support()) - 1
    return SurfaceInvariants(d, delta, p_a)


def hilbert_polynomial(gamma: IntFun, m_dim: int) -> tuple[Fraction, ...]:
    """Exact rational coefficients (constant term first) of the Hilbert
    polynomial P(n) = -sum_k (n-k+M+1)...(n-k+1)/(M+1)! gamma(k)."""
    from fractions import Fraction  # only here, so that no verb imports it
    _require_ints(m_dim)
    if m_dim < 0:
        raise ValueError("dimension must be >= 0")
    deg = m_dim + 1
    scaled = [0] * (deg + 1)  # (M+1)! P, exact in integers
    for k, v in gamma.support():
        # expand prod_{j=1..M+1} (n + (j - k)) into powers of n
        poly = [1]
        for j in range(1, deg + 1):
            poly = [(j - k) * p + q for p, q in zip(poly + [0], [0] + poly)]
        scaled = [s - v * p for s, p in zip(scaled, poly)]
    while len(scaled) > 1 and scaled[-1] == 0:
        scaled.pop()
    fact = math.factorial(deg)
    return tuple(Fraction(c, fact) for c in scaled)
