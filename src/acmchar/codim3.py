"""Codimension-3 character analysis: decomposition into positive
characters, interval bounds, the s1 shortcut, the integrality screen and
the quadric-case characterizations.
"""
from __future__ import annotations

import operator

from .characters import (
    _h_values,
    _s0_s1,
    char_s0,
    check_necessary,
    hypersurface_char,
    is_positive_character,
)
from .growth import _Layered, _is_o_sequence, _peel
from .intfun import IntFun, _Frozen, _require_ints, _require_type


class Codim3Decomposition(_Layered):
    """Positive characters gamma_0, ..., gamma_r with
    gamma = gamma_0 + gamma_1[-1] + ... + gamma_r[-r]."""

    __slots__ = ()

    def validate(self) -> None:
        for i, p in enumerate(self.parts):
            if not is_positive_character(p):
                raise ValueError(f"component {i} is not a positive character")
        for i in range(1, self.r + 1):
            if self.parts[i].sup() >= char_s0(self.parts[i - 1]):
                raise ValueError(f"component {i} overlaps component {i - 1}")


def decompose_codim3(gamma: IntFun) -> Codim3Decomposition:
    """Split a codim-3 postulation character into positive components.

    Checks only the defining condition: gamma = -diff(h) for an O-sequence
    h of type <= 3 (``check_necessary`` follows from it).  Macaulay's bound
    decides growth for every type; the peel then splits a type-3 h into
    layers, each layer's -diff is a component, and type <= 2 is returned whole.
    """
    try:
        v = _h_values(gamma)
    except ValueError as exc:
        raise ValueError(f"not a codim-3 ACM character: {exc}") from exc
    if gamma.offset or not _is_o_sequence(v):  # h(0) = 0 past offset 0
        raise ValueError("not a codim-3 ACM character: h-vector violates growth")
    a = v[1] if len(v) > 1 else 0
    if a > 3:
        raise ValueError(f"not a codim-3 ACM character: h-vector of type {a}")
    if a <= 2:
        return Codim3Decomposition((gamma,))
    return Codim3Decomposition(tuple(  # each layer's -diff
        IntFun(0, tuple(map(operator.sub, (0, *p), (*p, 0))))
        for p in _peel(v, 3)))


def s1_via_cor37(dec: Codim3Decomposition, s0: int) -> int:
    """Cor 3.7, at every r: s1 = s0(gamma_r) + s0 - 1, where s0 = r + 1."""
    _require_ints(s0)
    if s0 != dec.s0:
        raise ValueError(f"s0 must be {dec.s0} for this decomposition, not {s0}")
    return char_s0(dec.parts[-1]) + s0 - 1


def check_prop36_bounds(gamma: IntFun, dec: Codim3Decomposition) -> bool:
    """Interval lower bounds implied by the decomposition:
    gamma >= -s0(X) just after s0(X), >= -i on the layer-i window and
    >= 0 from s0(gamma_0) on.  Empty windows pass vacuously."""
    if gamma.is_zero():
        return True  # every bound is <= 0
    r, v, off = dec.r, gamma.values, gamma.offset
    s = list(map(char_s0, dec.parts[:max(r, 1)]))
    # (lo, hi, bound): gamma >= bound on [lo, hi); s0(X) = r + 1
    windows = [(s[0], off + len(v), 0)]
    if r >= 1:
        windows.append((r + 1, s[r - 1] + r - 1, -r - 1))
    windows += [(s[i] + i, s[i - 1] + i - 1, -i) for i in range(1, r)]
    # no bound is > 0, so the zeros outside the stored values meet them all
    return all(min(v[max(lo - off, 0):max(hi - off, 0)], default=0) >= bound
               for lo, hi, bound in windows)


def integral_screen(gamma: IntFun) -> bool:
    """Necessary (not sufficient) condition for gamma to come from an
    integral codim-3 ACM subscheme: gamma(n) >= min(0, n - s0 - s1 + 1)
    for n >= s1."""
    return _integral(gamma.values, *_s0_s1(gamma, 3))


def _integral(v: tuple[int, ...], s0: int, s1: int) -> bool:
    """``integral_screen`` on the values v, from degree 0, of a character
    with these s0 and s1."""
    t = s0 + s1 - 1  # s0 >= 1, so t >= s1
    # the bound is n - t < 0 on [s1, t) and 0 from t on, where v may end
    return (min(v[t:], default=0) >= 0
            and all(x >= n - t for n, x in enumerate(v[s1:t], s1)))


class QuadricCheck(_Frozen):
    __slots__ = ("valid", "t", "s")

    def __init__(self, valid: bool, t: int, s: int):
        _require_type(valid, (bool,), "a bool")
        _require_ints(t, s)
        object.__setattr__(self, "valid", valid)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "s", s)

    def __bool__(self) -> bool:
        return self.valid


def quadric_check(gamma: IntFun) -> QuadricCheck:
    """Shape test for characters of nondegenerate codim-3 ACM subschemes
    on a quadric (s0 = 2): gamma is -2 on [1, t], >= -1 strictly between t
    and s, >= 0 from s on, and the tail sums bracket s."""
    chk = check_necessary(gamma, 3)
    if not chk or chk.s0 != 2:
        raise ValueError("quadric check needs a codim-3 character with s0 = 2")
    # from degree 0, v[:2] = (-1, -2), so v[2:] sums to 3: a value > 0 ends the scan
    t = next(t for t, x in enumerate(gamma.values[2:], 1) if x != -2)
    try:
        dec = decompose_codim3(gamma)
    except ValueError:
        return QuadricCheck(False, t, -1)
    return QuadricCheck(True, t, char_s0(dec.parts[0]))


def integral_quadric_check(gamma: IntFun) -> bool:
    """:func:`integral_screen` behind the quadric guard, which supplies
    s0 = 2 and s1 = t + 1, so gamma is checked once.  gamma = -2 on
    [1, t] gives h(t) = 2t + 1 = C(t+1, t) + C(t, t-1), so growth (for t = 1,
    s0 = 2 alone) gives gamma(t+1) >= -2, hence >= -1 and s1 = t + 1: only
    degree t + 1 may dip to -1, and everything from t + 2 on is nonnegative."""
    q = quadric_check(gamma)
    if not q.valid:
        raise ValueError("character fails the quadric shape test")
    return _integral(gamma.values, 2, q.t + 1)


def plane_union_char(d1: int, d2: int) -> IntFun:
    """Character of the union of two plane curves of degrees d1, d2 whose
    planes meet in one point, with the curves meeting in one point."""
    _require_ints(d1, d2)  # before hypersurface_char's range check
    return hypersurface_char(d1) + hypersurface_char(d2) + IntFun(0, (1, -2, 1))
