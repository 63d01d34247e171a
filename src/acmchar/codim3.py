"""Codimension-3 character analysis: decomposition into positive
characters, interval bounds, the s1 shortcut, the integrality screen and
the quadric-case characterizations.
"""
from __future__ import annotations

from dataclasses import dataclass

from .characters import (
    _checked_s0,
    _s1,
    char_s0,
    check_necessary,
    gamma_from_h,
    h_from_gamma,
    hypersurface_char,
    is_positive_character,
)
from .growth import MacaulayFn, _Layered, decompose
from .intfun import IntFun


@dataclass(frozen=True)
class Codim3Decomposition(_Layered):
    """Positive characters gamma_0, ..., gamma_r with
    gamma = gamma_0 + gamma_1[-1] + ... + gamma_r[-r]."""

    def validate(self) -> None:
        for i, p in enumerate(self.parts):
            if not is_positive_character(p):
                raise ValueError(f"component {i} is not a positive character")
        for i in range(1, self.r + 1):
            if self.parts[i].sup() >= char_s0(self.parts[i - 1]):
                raise ValueError(f"component {i} overlaps component {i - 1}")


def decompose_codim3(gamma: IntFun) -> Codim3Decomposition:
    """Split a codim-3 postulation character into positive components.

    The h-vector layers of ``growth.decompose`` map through
    ``gamma_from_h`` to the components; degenerate characters (h-vector of
    type <= 2) are returned whole with r = 0.
    """
    _checked_s0(gamma, 3)
    try:
        h = h_from_gamma(gamma)
    except ValueError as exc:
        raise ValueError(f"not a codim-3 ACM character: {exc}") from exc
    try:
        mf = MacaulayFn(h)
    except ValueError as exc:
        raise ValueError(
            "not a codim-3 ACM character: h-vector violates growth") from exc
    if mf.type_a <= 2:
        return Codim3Decomposition((gamma,))
    return Codim3Decomposition(tuple(gamma_from_h(p) for p in decompose(mf).parts))


def s1_via_cor37(dec: Codim3Decomposition, s0: int) -> int:
    """s1 from the decomposition alone: s0(gamma_r) + s0 - 1."""
    if dec.r < 1:
        raise ValueError("shortcut needs a nondegenerate decomposition")
    return char_s0(dec.parts[-1]) + s0 - 1


def check_prop36_bounds(gamma: IntFun, dec: Codim3Decomposition) -> bool:
    """Interval lower bounds implied by the decomposition:
    gamma >= -s0(X) just after s0(X), >= -i on the layer-i window and
    >= 0 from s0(gamma_0) on.  Empty windows pass vacuously."""
    r = dec.r
    top = gamma.sup()
    for n in range(char_s0(dec.parts[0]), top + 1):
        if gamma(n) < 0:
            return False
    if r >= 1:
        s0x = r + 1
        for n in range(s0x, char_s0(dec.parts[r - 1]) + s0x - 2):
            if gamma(n) < -s0x:
                return False
        for i in range(1, r):
            lo = char_s0(dec.parts[i]) + i
            hi = char_s0(dec.parts[i - 1]) + i - 1
            for n in range(lo, hi):
                if gamma(n) < -i:
                    return False
    return True


def integral_screen(gamma: IntFun) -> bool:
    """Necessary (not sufficient) condition for gamma to come from an
    integral codim-3 ACM subscheme: gamma(n) >= min(0, n - s0 - s1 + 1)
    for n >= s1."""
    s0 = _checked_s0(gamma, 3)
    s1 = _s1(gamma, 3, s0)
    top = max(gamma.sup(), s0 + s1)
    for n in range(s1, top + 1):
        if gamma(n) < min(0, n - s0 - s1 + 1):
            return False
    return True


@dataclass(frozen=True)
class QuadricCheck:
    valid: bool
    t: int
    s: int

    def __bool__(self) -> bool:
        return self.valid


def quadric_check(gamma: IntFun) -> QuadricCheck:
    """Shape test for characters of nondegenerate codim-3 ACM subschemes
    on a quadric (s0 = 2): gamma is -2 on [1, t], >= -1 strictly between t
    and s, >= 0 from s on, and the tail sums bracket s."""
    chk = check_necessary(gamma, 3)
    if not chk or chk.s0 != 2:
        raise ValueError("quadric check needs a codim-3 character with s0 = 2")
    t = 1
    while gamma(t + 1) == -2:
        t += 1
    try:
        dec = decompose_codim3(gamma)
    except ValueError:
        return QuadricCheck(False, t, -1)
    return QuadricCheck(True, t, char_s0(dec.parts[0]))


def integral_quadric_check(gamma: IntFun) -> bool:
    """Sharper quadric-case screen for integral subschemes: only degree
    t + 1 may dip to -1, everything from t + 2 on is nonnegative."""
    q = quadric_check(gamma)
    if not q.valid:
        raise ValueError("character fails the quadric shape test")
    top = gamma.sup()
    if gamma(q.t + 1) < -1:
        return False
    return all(gamma(n) >= 0 for n in range(q.t + 2, top + 1))


def plane_union_char(d1: int, d2: int) -> IntFun:
    """Character of the union of two plane curves of degrees d1, d2 whose
    planes meet in one point, with the curves meeting in one point."""
    if d1 < 1 or d2 < 1:
        raise ValueError("degrees must be >= 1")
    return hypersurface_char(d1) + hypersurface_char(d2) + IntFun(0, (1, -2, 1))
