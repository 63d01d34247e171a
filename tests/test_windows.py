"""The scans of the analyze-codim3 path against the point-by-point
oracles in ``helpers``: growth, s0/s1, the layer peel and its checks,
the interval bounds and the integrality screen, on functions with
negative, zero and positive offsets (as far as 10**6 from degree 0), on
the zero function and on tampered decompositions."""
from functools import lru_cache
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from acmchar import (
    Codim3Decomposition,
    ConstantTailError,
    Decomposition,
    IntFun,
    binom,
    char_s0,
    check_necessary,
    check_prop36_bounds,
    decompose,
    decompose_codim3,
    enumerate_acm_curves,
    enumerate_positive_characters,
    gamma_from_h,
    h_from_gamma,
    integral_screen,
    is_macaulay,
    is_positive_character,
    s0_of,
    s1_general,
)

from helpers import (
    char_s0_pointwise,
    checked_s0_pointwise,
    decompose_codim3_composed,
    growth_box,
    integral_screen_pointwise,
    is_macaulay_pointwise,
    macaulay_functions,
    necessary_pointwise,
    prop36_pointwise,
    s0_of_pointwise,
    s1_pointwise,
    validate_stepwise,
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

    def test_scans_refuse_characters_off_degree_zero(self):
        """gamma(0) = -1 for every nonempty subscheme, so a sum-zero gamma
        with another value at degree 0 fails the check there, and the
        screens refuse it, as decompose_codim3 does."""
        failure = "value at degree 0 is not -1"
        message = f"^not a codim-3 ACM character: {failure}$"
        for gamma in (IntFun(2, (1, -2, 1)), IntFun(0, (1, -1)),
                      IntFun(0, (-2, 1, 1)), IntFun(1, (-1, 1))):
            for c in (1, 2, 3, 4):
                chk = check_necessary(gamma, c)
                assert (chk.ok, chk.s0, chk.failure) == (False, 0, failure)
            assert not is_positive_character(gamma)
            for screen in (lambda g: s1_general(g, 3), integral_screen):
                with pytest.raises(ValueError, match=message):
                    screen(gamma)
            with pytest.raises(ValueError):
                decompose_codim3(gamma)

    @pytest.mark.parametrize("screen", [lambda g: s1_general(g, 3), integral_screen],
                             ids=["s1_general", "integral_screen"])
    def test_scans_start_at_a_far_offset(self, screen):
        """A character stored from a far offset is 0 at degree 0: it is
        refused at once, without walking the zeros below its values."""
        gamma = IntFun(10**7, (-1, 1))
        start = time.perf_counter()
        with pytest.raises(ValueError, match="value at degree 0 is not -1$"):
            screen(gamma)
        assert time.perf_counter() - start < 1.0


def outcome(f, *args):
    """f(*args), or the exact type and message of the ValueError or
    TypeError it raises."""
    try:
        return f(*args)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


@lru_cache(maxsize=None)
def _macaulay():
    """Every Macaulay function of type 2 to 4 and mass <= 12."""
    return tuple(h for a in (2, 3, 4) for h in macaulay_functions(a, 12)
                 if h(1) == a)


# near an O-sequence, stored at degree 0 or 1
layers = st.builds(lambda off, tail: IntFun(off, (1, *tail)),
                   st.sampled_from([0, 0, 1]),
                   st.lists(st.integers(min_value=0, max_value=4), max_size=4))


@st.composite
def tampered_layers(draw):
    """The layers of a real decomposition, kept, with one moved to degree
    1 or dropped, with a layer inserted (a drawn one, or one of its own or
    of another decomposition's), or with two swapped; and a type near the
    true one."""
    h, other = draw(st.lists(st.sampled_from(_macaulay()), min_size=2, max_size=2))
    parts = list(decompose(h).parts)
    i, j = draw(st.lists(st.integers(min_value=0, max_value=len(parts) - 1),
                         min_size=2, max_size=2))
    mode = draw(st.sampled_from(["keep", "shift", "drop", "insert", "swap"]))
    if mode == "shift":
        parts[i] = parts[i].shift(-1)
    elif mode == "drop":
        del parts[i]
    elif mode == "insert":
        pool = parts + list(decompose(other).parts)
        parts.insert(i, draw(st.one_of(layers, st.sampled_from(pool))))
    elif mode == "swap":
        parts[i], parts[j] = parts[j], parts[i]
    return parts, h(1) + draw(st.sampled_from([-1, 0, 0, 0, 0, 1]))


class TestPeel:
    """decompose_codim3 peels value tuples; the composition of the public
    IntFun steps in ``helpers`` gives the same parts or the same error."""

    def test_decompose_codim3_to_degree_24(self):
        """Every codim-3 character of degree <= 24, its shifts by +-1 and
        two seeded one-unit moves of each."""
        table = enumerate_acm_curves(24, nondegenerate=False)
        chars = [w.recompose() for e in table.entries for w in e.witnesses]
        rng = random.Random(18)
        inputs = []
        for gamma in chars:
            inputs += [gamma, gamma.shift(1), gamma.shift(-1)]
            for _ in range(2):
                i, j = rng.sample(range(gamma.sup() + 2), 2)
                inputs.append(gamma + IntFun(i, (1,)) - IntFun(j, (1,)))
        accepted = 0
        for gamma in inputs:
            want = outcome(decompose_codim3_composed, gamma)
            got = outcome(lambda g: decompose_codim3(g).parts, gamma)
            assert got == want, gamma
            accepted += type(want) is tuple and type(want[0]) is IntFun
        assert len(chars) > 3000 and len(chars) < accepted < len(inputs)

    def test_decompose_codim3_on_a_growth_box(self):
        """Every h = (1, 3, x_2, ..., x_5) with 0 <= x_n <= C(n+2, 2) + 1,
        O-sequences and violations of growth alike."""
        hs = growth_box(3, 6)
        assert len(hs) == 37536
        for h in hs:
            gamma = gamma_from_h(IntFun(0, h))
            assert (outcome(lambda g: decompose_codim3(g).parts, gamma)
                    == outcome(decompose_codim3_composed, gamma)), h

    @HYP
    @given(gammas)
    def test_decompose_codim3(self, gamma):
        assert (outcome(lambda g: decompose_codim3(g).parts, gamma)
                == outcome(decompose_codim3_composed, gamma))

    @settings(HYP, max_examples=400)
    @given(st.one_of(tampered_layers(),
                     st.tuples(st.lists(layers, max_size=4),
                               st.integers(min_value=0, max_value=4))))
    def test_validate(self, case):
        """The same checks in the same order: the first failure's message
        is the same."""
        parts, type_a = tuple(case[0]), case[1]
        assert (outcome(Decomposition(parts).validate, type_a)
                == outcome(validate_stepwise, parts, type_a))


FAR_OFFSETS = (-10**6, -1, 1, 10**6)


def at_far_offsets(*vals):
    """vals stored from each far offset and, for a negative offset, also
    from degree 0 on, behind a 7 stored at the offset."""
    fs = [IntFun(off, vals) for off in FAR_OFFSETS]
    return fs + [IntFun(off, (7,) + (0,) * (-off - 1) + vals)
                 for off in FAR_OFFSETS if off < 0]


def timed(f, *args):
    """f(*args), which must return or raise within 1 s."""
    start = time.perf_counter()
    try:
        return f(*args)
    finally:
        assert time.perf_counter() - start < 1.0


class TestFarOffsets:
    """The index arithmetic of the scans, next to degree 0 and far from
    it, against the point-by-point oracles."""

    VALUES = [(-1, -1, 2), (-1, -2, -3, 6), (-1,), (4, -1), (-1, -1, -1)]

    @pytest.mark.parametrize("vals", VALUES)
    def test_char_s0(self, vals):
        for gamma in at_far_offsets(*vals):
            assert timed(char_s0, gamma) == char_s0_pointwise(gamma)

    @pytest.mark.parametrize("vals", VALUES + [(-1, -1, 1, 1), (-1, 1)])
    def test_check_necessary(self, vals):
        for gamma in at_far_offsets(*vals) + [IntFun(0, vals)]:
            for c in (1, 2, 3, 4):
                chk = timed(check_necessary, gamma, c)
                assert (chk.ok, chk.s0, chk.failure) == necessary_pointwise(gamma, c)

    @pytest.mark.parametrize("vals", [(1, 3, 6, 4), (1, 2, 3), (1,), (3, 1)])
    def test_s0_of(self, vals):
        for h in at_far_offsets(*vals):
            same(lambda h: timed(s0_of, h), s0_of_pointwise, h)


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
