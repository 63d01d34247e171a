"""Character calculus: conversions, positivity, s1, model characters,
biliaison, resolutions and numeric invariants."""
import random
from fractions import Fraction

import pytest

from acmchar import (
    IntFun,
    biliaison,
    char_s0,
    check_necessary,
    complete_intersection_char,
    curve_invariants,
    gamma_from_h,
    gamma_from_resolution,
    h_from_gamma,
    hilbert_polynomial,
    hypersurface_char,
    is_positive_character,
    postulation_values,
    resolution_char,
    s1_general,
    surface_invariants,
)

from helpers import (
    eval_polynomial,
    macaulay_functions,
    random_character,
    random_intfun,
    random_nonneg,
)


def F(*vals):
    return IntFun(0, tuple(vals))


class TestConversions:
    def test_gamma_from_h_example(self):
        assert gamma_from_h(F(1, 3, 4)) == F(-1, -2, -1, 4)

    def test_h_from_gamma_example(self):
        assert h_from_gamma(F(-1, -2, -1, 4)) == F(1, 3, 4)

    def test_roundtrip_on_random_h(self):
        rng = random.Random(11)
        for _ in range(200):
            h = random_nonneg(rng)
            assert h_from_gamma(gamma_from_h(h)) == h

    def test_h_from_gamma_rejects_negative_degree_support(self):
        with pytest.raises(ValueError):
            h_from_gamma(IntFun(-1, (-1, 1)))

    def test_h_from_gamma_rejects_positive_prefix(self):
        with pytest.raises(ValueError):
            h_from_gamma(F(1, -1))


class TestPositivity:
    def test_examples(self):
        assert is_positive_character(F(-1, -1, 2))
        assert is_positive_character(F(-1, -1, -1, 1, 2))
        assert not is_positive_character(F(-1, -2, -1, 4))
        assert not is_positive_character(F(-1, 1, -1, 1))
        assert not is_positive_character(IntFun())
        assert not is_positive_character(F(-1, 2))  # sum nonzero

    def test_char_s0(self):
        assert char_s0(F(-1, -1, 2)) == 2
        assert char_s0(F(-1, -1, -1, 3)) == 3
        assert char_s0(F(-2, 2)) == 0


class TestNecessaryCheck:
    def test_codim2_accepts_and_reports_s0(self):
        chk = check_necessary(F(-1, -1, 0, 2), 2)
        assert chk and chk.s0 == 2

    def test_codim3_prefix_pattern(self):
        # below s0 the values must follow -(n+1)
        chk = check_necessary(F(-1, -2, -1, 4), 3)
        assert chk and chk.s0 == 2
        bad = check_necessary(F(-1, -3, 4), 3)
        assert not bad and "too negative" in bad.failure

    def test_rejects_nonzero_sum(self):
        assert not check_necessary(F(-1, 2), 3)

    def test_rejects_negative_degree_support(self):
        assert not check_necessary(IntFun(-2, (-1, 0, 1)), 3)

    @pytest.mark.parametrize("codim", [0, -1])
    def test_codim_must_be_positive(self, codim):
        with pytest.raises(ValueError, match="codim must be >= 1"):
            check_necessary(F(-1, 1), codim)


class TestS1:
    def test_codim2_first_positive(self):
        gamma = gamma_from_h(F(1, 2, 2, 1))  # (-1,-1,0,1,1)
        assert s1_general(gamma, 2) == 3

    def test_codim3_first_above_minus_s0(self):
        assert s1_general(F(-1, -2, -1, 4), 3) == 2
        assert s1_general(F(-1, -2, -3, 2, 4), 3) == 3

    def test_complete_intersection_jump(self):
        for s0 in range(1, 5):
            for s1 in range(s0, 6):
                gamma = complete_intersection_char(s0, s1)
                assert s1_general(gamma, 2) == s1

    def test_rejects_codim_below_two(self):
        with pytest.raises(ValueError, match="^codim must be >= 2$"):
            s1_general(F(-1, 1), 1)


class TestModelCharacters:
    def test_hypersurface(self):
        assert hypersurface_char(3) == F(-1, 0, 0, 1)
        assert curve_invariants(hypersurface_char(3)).d == 3

    def test_complete_intersection(self):
        assert complete_intersection_char(2, 3) == F(-1, -1, 0, 1, 1)
        assert complete_intersection_char(2, 2) == F(-1, -1, 1, 1)

    def test_complete_intersection_degree(self):
        for s0 in range(1, 6):
            for s1 in range(s0, 7):
                gamma = complete_intersection_char(s0, s1)
                assert curve_invariants(gamma).d == s0 * s1

    def test_rejects_bad_degrees(self):
        with pytest.raises(ValueError):
            hypersurface_char(0)
        for s0, s1 in [(3, 2), (0, 0), (-1, 3)]:
            with pytest.raises(ValueError, match="need 1 <= s0 <= s1"):
                complete_intersection_char(s0, s1)


class TestBiliaison:
    def test_height_one_on_hyperplane(self):
        # adding a plane section of degree s shifts and bumps at 0 and s
        gx = F(-1, -2, -1, 4)
        for s in range(1, 7):
            gy = hypersurface_char(s)
            out = biliaison(gx, gy, 1)
            expect = gx.shift(-1) + F(-1) + IntFun(s, (1,))
            assert out == expect

    def test_up_then_down_is_identity(self):
        rng = random.Random(23)
        for _ in range(100):
            gx = random_character(rng)
            gy = random_character(rng)
            assert biliaison(biliaison(gx, gy, 1), gy, -1) == gx

    def test_heights_compose(self):
        rng = random.Random(29)
        for _ in range(100):
            gx = random_character(rng)
            gy = random_character(rng)
            two_steps = biliaison(biliaison(gx, gy, 1), gy, 1)
            assert two_steps == biliaison(gx, gy, 2)

    def test_degree_change(self):
        gx = F(-1, -2, -1, 4)
        gy = hypersurface_char(2)
        out = biliaison(gx, gy, 1)
        assert curve_invariants(out).d == curve_invariants(gx).d + 2


class TestResolution:
    def test_example(self):
        gamma = F(-1, -2, -1, 4)
        assert resolution_char(gamma, 3) == F(-1, 0, 2, 4, -9, 4)

    def test_roundtrip(self):
        rng = random.Random(31)
        for _ in range(100):
            gamma = random_character(rng)
            for c in (2, 3, 4):
                r = resolution_char(gamma, c)
                assert gamma_from_resolution(r, c) == gamma

    def test_codim2_is_single_difference(self):
        gamma = F(-1, -1, 2)
        assert resolution_char(gamma, 2) == gamma.diff()

    def test_rejects_codim_below_two(self):
        with pytest.raises(ValueError):
            resolution_char(F(-1, 1), 1)


class TestPostulation:
    def test_curve_values(self):
        gamma = F(-1, -2, -1, 4)
        # h^0 I(n) - h^0 O(n) at M = 1
        assert postulation_values(gamma, 1, 1) == -5
        assert postulation_values(gamma, 1, 0) == -1
        assert postulation_values(gamma, 1, -1) == 0

    @pytest.mark.parametrize("call, args", [(postulation_values, (-1, 2)),
                                            (hilbert_polynomial, (-1,))])
    def test_dimension_must_be_nonnegative(self, call, args):
        with pytest.raises(ValueError, match="dimension must be >= 0"):
            call(F(-1, 1), *args)

    def test_zero_function_keeps_its_constant_term(self):
        for m in range(4):
            assert hilbert_polynomial(IntFun(), m) == (Fraction(0),)

    def test_tail_is_negative_hilbert_polynomial(self):
        gamma = F(-1, -2, -1, 4)
        coeffs = hilbert_polynomial(gamma, 1)
        for n in range(4, 12):
            assert postulation_values(gamma, 1, n) == -eval_polynomial(coeffs, n)

    def test_hilbert_polynomial_in_every_dimension(self):
        """From n = sup - M - 1 on, every binomial in postulation_values is
        the polynomial it expands to; one step lower, C(-1, M + 1) is 0."""
        rng = random.Random(41)
        checked = 0
        for _ in range(400):
            gamma = random_intfun(rng, offset=rng.randint(-3, 8))
            if gamma.is_zero():
                continue
            m = rng.randint(0, 5)
            coeffs = hilbert_polynomial(gamma, m)
            for n in range(gamma.sup() - m - 1, gamma.sup() + 6):
                assert (postulation_values(gamma, m, n)
                        == -eval_polynomial(coeffs, n)), (gamma, m, n)
                checked += 1
        assert checked > 3000


class TestInvariants:
    def test_named_curves(self):
        inv = curve_invariants(F(-1, -2, -1, 4))
        assert (inv.d, inv.g) == (8, 4)
        inv = curve_invariants(F(-1, -2, -2, 5))
        assert (inv.d, inv.g) == (9, 5)
        inv = curve_invariants(F(-1, -2, -3, 6))
        assert (inv.d, inv.g) == (10, 6)

    def test_twisted_cubic(self):
        inv = curve_invariants(F(-1, -1, 2))
        assert (inv.d, inv.g) == (3, 0)

    def test_plane_curve_genus(self):
        for d in range(1, 8):
            inv = curve_invariants(hypersurface_char(d))
            assert inv.d == d
            assert inv.g == (d - 1) * (d - 2) // 2

    def test_surface_example(self):
        si = surface_invariants(F(-1, -1, -1, 3))
        assert (si.d, si.delta, si.p_a) == (6, -2, 0)

    def test_surface_degree_two(self):
        si = surface_invariants(F(-1, 0, 1))
        assert (si.d, si.delta) == (2, -4)

    def test_plane_in_four_space(self):
        si = surface_invariants(F(-1, 1))
        assert (si.d, si.delta) == (1, -3)

    def test_hilbert_polynomial_curve(self):
        coeffs = hilbert_polynomial(F(-1, -2, -1, 4), 1)
        assert coeffs == (Fraction(-3), Fraction(8))
        assert eval_polynomial(coeffs, 5) == 37

    def test_hilbert_polynomial_matches_invariants(self):
        rng = random.Random(37)
        for _ in range(60):
            h = random_nonneg(rng, max_len=6, hi=6)
            if h.is_zero():
                continue
            gamma = gamma_from_h(h)
            inv = curve_invariants(gamma)
            coeffs = hilbert_polynomial(gamma, 1)
            if inv.d == 0:
                continue
            assert coeffs[-1] == inv.d
            assert eval_polynomial(coeffs, 0) == 1 - inv.g

    def test_h_mass_equals_degree(self):
        for h in macaulay_functions(3, 10):
            gamma = gamma_from_h(h)
            assert curve_invariants(gamma).d == h.total()
