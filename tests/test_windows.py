"""The window scans of the analyze-codim3 path against the point-by-point
oracles in ``helpers``: growth, s0/s1, the interval bounds and the
integrality screen, on functions with negative, zero and positive
offsets, on the zero function and on tampered decompositions."""
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from acmchar import (
    Codim3Decomposition,
    ConstantTailError,
    IntFun,
    binom,
    char_s0,
    check_necessary,
    check_prop36_bounds,
    decompose_codim3,
    enumerate_acm_curves,
    enumerate_positive_characters,
    gamma_from_h,
    h_from_gamma,
    integral_screen,
    is_macaulay,
    s0_of,
    s1_general,
)

from helpers import (
    char_s0_pointwise,
    checked_s0_pointwise,
    integral_screen_pointwise,
    is_macaulay_pointwise,
    macaulay_functions,
    necessary_pointwise,
    prop36_pointwise,
    s0_of_pointwise,
    s1_pointwise,
)

OFFSETS = st.integers(min_value=-4, max_value=4)

# every shape, the zero function included
intfuns = st.builds(
    IntFun, OFFSETS,
    st.lists(st.integers(min_value=-5, max_value=5), max_size=8).map(tuple))

# nonnegative, starting with 1: mostly near-misses of an O-sequence
hvectors = st.builds(
    lambda off, tail: IntFun(off, (1, *tail)),
    st.sampled_from([-1, 0, 0, 0, 1]),
    st.lists(st.integers(min_value=0, max_value=12), max_size=7))


@st.composite
def characters(draw, codim=3):
    """Sum-zero functions that follow the generic codim-c values up to a
    drawn s0, then run free; some are shifted off degree 0."""
    s0 = draw(st.integers(min_value=0, max_value=4))
    vals = [-binom(n + codim - 2, codim - 2) for n in range(s0)]
    vals += draw(st.lists(st.integers(min_value=-s0 - 1, max_value=4),
                          min_size=1, max_size=6))
    vals.append(-sum(vals))
    return IntFun(draw(st.sampled_from([-1, 0, 0, 0, 2])), tuple(vals))


@lru_cache(maxsize=None)
def _curves():
    """Every character witnessed by enumerate_acm_curves(16)."""
    return tuple(sorted({w.recompose() for e in enumerate_acm_curves(16).entries
                         for w in e.witnesses}, key=lambda g: (g.offset, g.values)))


curves = st.sampled_from(_curves())
gammas = st.one_of(intfuns, characters(), curves,
                   st.builds(lambda g, d: g.shift(d), curves, OFFSETS))

HYP = settings(derandomize=True, deadline=None, max_examples=200)


def same(f, oracle, *args):
    """f(*args) == oracle(*args), or both raise the same error."""
    try:
        want = oracle(*args)
    except ValueError as exc:
        with pytest.raises(type(exc)) as info:
            f(*args)
        assert str(info.value) == str(exc)
        return
    assert f(*args) == want


class TestGrowth:
    @HYP
    @given(st.one_of(intfuns, hvectors))
    def test_is_macaulay(self, h):
        assert is_macaulay(h) == is_macaulay_pointwise(h)

    @pytest.mark.parametrize("type_a", range(5))
    def test_is_macaulay_on_every_generated_function(self, type_a):
        hs = macaulay_functions(type_a, 14)
        assert hs
        for h in hs:
            assert is_macaulay(h) and is_macaulay_pointwise(h)
            # one more in the top degree, or one past it
            for bump in (IntFun(h.sup(), (1,)), IntFun(h.sup() + 1, (1,))):
                assert is_macaulay(h + bump) == is_macaulay_pointwise(h + bump)

    @HYP
    @given(st.one_of(intfuns, hvectors))
    def test_s0_of(self, h):
        same(s0_of, s0_of_pointwise, h)


class TestScans:
    @HYP
    @given(gammas, st.integers(min_value=1, max_value=4))
    def test_check_necessary(self, gamma, c):
        chk = check_necessary(gamma, c)
        assert (chk.ok, chk.s0, chk.failure) == necessary_pointwise(gamma, c)

    @HYP
    @given(gammas)
    def test_char_s0(self, gamma):
        assert char_s0(gamma) == char_s0_pointwise(gamma)

    @HYP
    @given(st.one_of(gammas, characters(2)), st.integers(min_value=2, max_value=4))
    def test_s1(self, gamma, c):
        same(s1_general, lambda g, c: s1_pointwise(g, c, checked_s0_pointwise(g, c)),
             gamma, c)

    @HYP
    @given(st.data())
    def test_s1_at_most_sup(self, data):
        """The s1 scan stops at sup: no checked character needs more."""
        c = data.draw(st.integers(min_value=2, max_value=4))
        gamma = data.draw(st.one_of(gammas, characters(c)))
        if check_necessary(gamma, c):
            assert s1_general(gamma, c) <= gamma.sup()

    def test_s1_at_most_sup_to_degree_24(self):
        """Every codim-3 character of degree <= 24 (every witness of the
        degenerate enumeration) and every positive character of degree
        <= 24 as a codim-2 character."""
        table = enumerate_acm_curves(24, nondegenerate=False)
        codim3 = [w.recompose() for e in table.entries for w in e.witnesses]
        codim2 = [g for d in range(1, 25) for g in enumerate_positive_characters(d)]
        assert len(codim3) > 3000 and len(codim2) > 700
        for c, chars in ((3, codim3), (2, codim2)):
            for gamma in chars:
                assert s1_general(gamma, c) <= gamma.sup(), (c, gamma)

    @HYP
    @given(gammas)
    def test_integral_screen(self, gamma):
        same(integral_screen, integral_screen_pointwise, gamma)

    def test_scans_see_passing_characters_off_degree_zero(self):
        """A positive offset passes check_necessary with s0 = 0, so the
        screens run on windows that do not start at 0."""
        gamma = IntFun(2, (1, -2, 1))
        assert check_necessary(gamma, 3).s0 == 0
        assert s1_general(gamma, 3) == s1_pointwise(gamma, 3, 0) == 2
        assert integral_screen(gamma) == integral_screen_pointwise(gamma)


class TestIntervalBounds:
    @HYP
    @given(st.data())
    def test_tampered_decompositions(self, data):
        gamma = data.draw(gammas)
        try:
            parts = list(decompose_codim3(gamma).parts)
        except ValueError:
            parts = [gamma]
        # replace one part (or none), then append up to two
        k = data.draw(st.integers(min_value=0, max_value=len(parts)))
        if k < len(parts):
            parts[k] = data.draw(st.one_of(intfuns, st.just(parts[k].shift(1))))
        parts += data.draw(st.lists(st.one_of(intfuns, curves), max_size=2))
        dec = Codim3Decomposition(tuple(parts))
        # and perhaps the character itself
        gamma = gamma + data.draw(st.builds(lambda n, d: IntFun(n, (d,)),
                                            st.integers(-2, 12), st.integers(-3, 3)))
        assert check_prop36_bounds(gamma, dec) == prop36_pointwise(gamma, dec)

    def test_every_curve_decomposition(self):
        for gamma in _curves():
            dec = decompose_codim3(gamma)
            assert check_prop36_bounds(gamma, dec) == prop36_pointwise(gamma, dec)


class TestConversionErrors:
    def test_nonzero_sum_is_a_constant_tail(self):
        with pytest.raises(ConstantTailError) as info:
            h_from_gamma(IntFun(0, (-1, -1, 3)))
        assert info.value.tail == 1
        assert str(info.value) == "non-character input: constant tail 1"

    def test_negative_degrees_are_reported_first(self):
        gamma = IntFun(-1, (-1, 2))  # nonzero sum as well
        with pytest.raises(ValueError) as info:
            h_from_gamma(gamma)
        assert not isinstance(info.value, ConstantTailError)
        assert str(info.value) == "character does not vanish in negative degrees"

    @HYP
    @given(st.one_of(curves, characters()), st.integers(min_value=0, max_value=6))
    def test_roundtrip_on_shifted_characters(self, gamma, d):
        shifted = gamma.shift(-d)
        try:
            h = h_from_gamma(shifted)
        except ValueError:
            return
        assert h.offset >= 0 and min(h.values, default=0) >= 0
        assert gamma_from_h(h) == shifted
        assert h == -shifted.primitive()

    def test_roundtrip_on_far_shifted_character(self):
        gamma = IntFun(10**9, (-1, -1, -1, 3))
        assert gamma_from_h(h_from_gamma(gamma)) == gamma
