"""Character calculus: conversions between characters and h-vectors,
positivity, s0/s1, numeric invariants, resolution characters and
biliaison updates.

A character is a finitely supported integer function with total sum zero.
Characters of subschemes additionally vanish in negative degrees.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
import math
import operator

from .binomial import binom
from .intfun import ConstantTailError, IntFun


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
    if not gamma.is_zero() and gamma.inf() < 0:
        raise ValueError("character does not vanish in negative degrees")
    if gamma.total():
        raise ConstantTailError(gamma.total())
    h = tuple(accumulate(map(operator.neg, gamma.values)))
    if min(h, default=0) < 0:
        raise ValueError("not an h-vector: negative value")
    return IntFun(gamma.offset, h)


# -- positivity and s0/s1 -------------------------------------------------


def char_s0(gamma: IntFun) -> int:
    """Least n >= 0 with gamma(n) != -1."""
    for n, v in enumerate(gamma.window(0)):
        if v != -1:
            return n


def is_positive_character(gamma: IntFun) -> bool:
    """True iff gamma passes :func:`check_necessary` in codim 2 with
    s0 >= 1 and is nonnegative from s0 on."""
    chk = check_necessary(gamma, 2)
    return (chk.ok and chk.s0 >= 1
            and min(gamma.values[max(chk.s0 - gamma.offset, 0):], default=0) >= 0)


@dataclass(frozen=True)
class NecessaryCheck:
    ok: bool
    s0: int | None
    failure: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def check_necessary(gamma: IntFun, codim: int) -> NecessaryCheck:
    """Verify the necessary conditions for gamma to be the postulation
    character of a pure codimension-``codim`` subscheme.

    The character must sum to zero, vanish in negative degrees, equal
    -C(n+c-2, c-2) below s0 and exceed -C(s0+c-2, c-2) at s0 (c = codim).
    """
    if codim < 1:
        raise ValueError("codim must be >= 1")
    c = codim
    if not gamma.is_character():
        return NecessaryCheck(False, None, "values do not sum to zero")
    if gamma.is_zero():
        return NecessaryCheck(False, None, "zero function")
    if gamma.inf() < 0:
        return NecessaryCheck(False, None, "nonzero value in negative degree")
    # stops by sup + 1: there gamma is 0 and the generic value is <= -1
    # for c >= 2, and for c = 1 it is 0 from n = 1 on while gamma(sup) != 0
    for s0, v in enumerate(gamma.window(0)):
        if v != -binom(s0 + c - 2, c - 2):
            break
    if v <= -binom(s0 + c - 2, c - 2):
        return NecessaryCheck(False, s0, f"value at s0={s0} too negative")
    return NecessaryCheck(True, s0)


def s1_general(gamma: IntFun, codim: int) -> int:
    """Least n >= s0 where gamma exceeds the generic hypersurface defect
    C(n-s0+c-2, c-2) - C(n+c-2, c-2); s1 <= sup for every character that
    passes :func:`check_necessary`.

    For codim 2 this is the first positive value at or after s0; for
    codim 3 the first value > -s0.
    """
    if codim < 2:
        raise ValueError("codim must be >= 2")
    return _s1(gamma, codim, _checked_s0(gamma, codim))


def _checked_s0(gamma: IntFun, codim: int) -> int:
    """s0 of gamma; ValueError unless gamma passes :func:`check_necessary`."""
    chk = check_necessary(gamma, codim)
    if not chk:
        raise ValueError(f"not a codim-{codim} ACM character: {chk.failure}")
    return chk.s0


def _s1(gamma: IntFun, c: int, s0: int) -> int:
    """The scan behind :func:`s1_general`, for a checked gamma with s0."""
    # stops by sup: gamma is -C(n+c-2, c-2) below s0, so were it at or below
    # the bound on [s0, sup] too, it would sum to at most
    # C(sup-s0+c-1, c-1) - C(sup+c-1, c-1), which is < 0 for s0 >= 1; for
    # s0 = 0 the bound is 0, and a nonzero sum-zero gamma exceeds 0 somewhere
    for n, v in enumerate(gamma.window(s0, gamma.sup() + 1), s0):
        if v > math.comb(n - s0 + c - 2, c - 2) - math.comb(n + c - 2, c - 2):
            return n


# -- model characters -----------------------------------------------------


def hypersurface_char(d: int) -> IntFun:
    """Character of a degree-d hypersurface: -1 at 0 and +1 at d."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    return IntFun(0, (-1,) + (0,) * (d - 1) + (1,))


def complete_intersection_char(s0: int, s1: int) -> IntFun:
    """Character of the complete intersection of hypersurfaces of degrees
    s0 <= s1: -1 on [0, s0), +1 on [s1, s0+s1)."""
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
    if m_dim < 0:
        raise ValueError("dimension must be >= 0")
    return sum(binom(n - k + m_dim + 1, m_dim + 1) * v for k, v in gamma.support())


# -- numeric invariants ---------------------------------------------------


@dataclass(frozen=True)
class CurveInvariants:
    d: int
    g: int


@dataclass(frozen=True)
class SurfaceInvariants:
    d: int
    delta: int
    p_a: int


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
