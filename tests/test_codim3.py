"""Codimension-3 analysis: decomposition into positive characters,
interval bounds, integrality screens and the quadric-case tests."""
import pytest

from acmchar import (
    Codim3Decomposition,
    IntFun,
    QuadricCheck,
    char_s0,
    check_necessary,
    check_prop36_bounds,
    curve_invariants,
    decompose_codim3,
    enumerate_acm_curves,
    gamma_from_h,
    h_from_gamma,
    complete_intersection_char,
    integral_quadric_check,
    integral_screen,
    is_macaulay,
    is_positive_character,
    plane_union_char,
    quadric_check,
    s1_general,
    s1_via_cor37,
)

from acmchar import binomial, codim3, growth

from helpers import integral_quadric_pointwise, macaulay_functions, small_characters


def F(*vals):
    return IntFun(0, tuple(vals))


class TestDecomposeCodim3:
    def test_example_with_two_components(self):
        dec = decompose_codim3(F(-1, -2, -1, 4))
        assert dec.r == 1
        assert dec.parts == (F(-1, -1, -1, 3), F(-1, 0, 1))
        assert dec.recompose() == F(-1, -2, -1, 4)

    def test_three_component_example(self):
        dec = decompose_codim3(F(-1, -2, -3, 6))
        assert dec.r == 2
        assert dec.parts == (F(-1, -1, -1, 3), F(-1, -1, 2), F(-1, 1))

    def test_peeled_remainder_loses_its_trailing_zero(self):
        # h = (1, 3, 3) peels to (1, 2, 3) and (1, 0), stripped to (1)
        dec = decompose_codim3(F(-1, -2, 0, 3))
        assert dec.parts == (F(-1, -1, -1, 3), F(-1, 1))

    @pytest.mark.parametrize("gamma, built", [((-1, -2, -1, 4), 2),
                                              ((-1, -2, -3, 6), 3),
                                              ((-1, -2, -3, -4, 10), 4),
                                              ((-1, -1, 2), 0)])
    def test_builds_one_intfun_per_component(self, monkeypatch, gamma, built):
        """The h-vector and its layers stay value tuples: the only IntFuns
        built are the r + 1 components, and none for a degenerate
        character, which is returned as it came.  Macaulay's bound decides
        growth, once and on h, for every type; the peel checks nothing."""
        gamma = F(*gamma)
        calls, bounded = [], []
        init, is_o_sequence = IntFun.__init__, codim3._is_o_sequence

        def counted(self, *args):
            calls.append(args)
            init(self, *args)

        def counted_bound(v):
            bounded.append(v)
            return is_o_sequence(v)

        monkeypatch.setattr(IntFun, "__init__", counted)
        monkeypatch.setattr(growth, "_is_o_sequence", counted_bound)
        monkeypatch.setattr(codim3, "_is_o_sequence", counted_bound)
        dec = decompose_codim3(gamma)
        assert len(calls) == built == (dec.r + 1 if dec.r else 0)
        assert bounded == [h_from_gamma(gamma).values]
        if not built:
            assert dec.parts[0] is gamma

    def test_rejects_growth_the_peel_would_miss(self):
        """The peel of h = (1, 3, 6, 11, 15) raises nothing but drops mass,
        as 11 > 6^<2> = 10: growth is decided before the peel runs."""
        with pytest.raises(ValueError) as info:
            decompose_codim3(gamma_from_h(F(1, 3, 6, 11, 15)))
        assert str(info.value) == ("not a codim-3 ACM character: "
                                   "h-vector violates growth")

    def test_degenerate_character_kept_whole(self):
        gamma = F(-1, -1, 2)  # h-vector of type 2
        dec = decompose_codim3(gamma)
        assert dec.r == 0 and dec.parts == (gamma,)

    def test_rejects_invalid_character(self):
        with pytest.raises(ValueError):
            decompose_codim3(F(-1, 2))  # sum nonzero
        with pytest.raises(ValueError):
            decompose_codim3(F(-1, -4, 5))  # too negative at s0

    @pytest.mark.parametrize("literal, reason", [
        ("(0)", "h-vector violates growth"),
        ("(-1,2)", "non-character input: constant tail 1"),
        ("(-1,-3,4)", "h-vector of type 4"),
        ("(-1,-2,-4,7)", "h-vector violates growth"),
        ("(-1,0,1)@-1", "character does not vanish in negative degrees"),
        ("(1,-1)", "not an h-vector: negative value"),
        ("(-1,1,-1,1)", "h-vector violates growth"),
    ])
    def test_reason_comes_from_the_h_vector(self, literal, reason):
        with pytest.raises(ValueError) as info:
            decompose_codim3(IntFun.parse(literal))
        assert str(info.value) == f"not a codim-3 ACM character: {reason}"

    def test_accepts_exactly_the_checked_o_sequence_characters(self):
        """The defining condition alone decides: decompose_codim3 succeeds
        iff gamma passes check_necessary and h_from_gamma(gamma) is an
        O-sequence, on every function of small_characters(7, 2), checked
        or not."""
        accepted = 0
        for gamma in small_characters(7, 2):
            try:
                want = bool(check_necessary(gamma, 3)) and is_macaulay(h_from_gamma(gamma))
            except ValueError:
                want = False
            try:
                dec = decompose_codim3(gamma)
            except ValueError:
                assert not want, gamma
                continue
            assert want and dec.recompose() == gamma, gamma
            accepted += 1
        assert accepted == 286

    def test_rejects_growth_violation(self):
        # h-vector (1, 3, 7) grows too fast
        with pytest.raises(ValueError):
            decompose_codim3(gamma_from_h(F(1, 3, 7)))

    def test_components_are_positive_and_nested(self):
        for h in macaulay_functions(3, 12):
            if h(1) != 3:
                continue
            dec = decompose_codim3(gamma_from_h(h))
            for p in dec.parts:
                assert is_positive_character(p)
            for i in range(1, dec.r + 1):
                assert dec.parts[i].sup() < char_s0(dec.parts[i - 1])

    def test_recompose_is_identity_on_universe(self):
        for h in macaulay_functions(3, 12):
            gamma = gamma_from_h(h)
            assert decompose_codim3(gamma).recompose() == gamma

    def test_a_warm_pass_up_to_degree_24_expands_nothing(self, monkeypatch):
        """The analyze-d24 benchmark times the library calls of
        ``analyze-codim3 --json`` on the 2,322 curve characters of degree
        <= 24 after one untimed pass.  That pass leaves every growth bound
        the analysis asks for in ``binomial._upper``'s cache, so the timed
        passes compute no greedy expansion and do not see its cost."""
        def analysis(gamma):
            chk = check_necessary(gamma, 3)
            dec = decompose_codim3(gamma)
            s1_general(gamma, 3)
            check_prop36_bounds(gamma, dec)
            integral_screen(gamma)
            if dec.r >= 1:
                s1_via_cor37(dec, chk.s0)

        expanded = []
        greedy = binomial._greedy
        monkeypatch.setattr(binomial, "_greedy",
                            lambda *args: expanded.append(args) or greedy(*args))
        binomial._upper.cache_clear()
        gammas = [gamma_from_h(h) for h in macaulay_functions(3, 24)]
        for gamma in gammas:
            analysis(gamma)
        cold = len(expanded)
        for gamma in gammas:
            analysis(gamma)
        assert len(gammas) == 2322
        assert cold > 0 and len(expanded) == cold

    def test_validate_rejects_overlap(self):
        with pytest.raises(ValueError):
            Codim3Decomposition((F(-1, -1, 2), F(-1, 0, 1))).validate()

    def test_validate_rejects_a_component_that_is_not_positive(self):
        with pytest.raises(ValueError, match="component 0 is not a positive"):
            Codim3Decomposition((F(-1, 2, -1),)).validate()


class TestS1Shortcut:
    def test_example(self):
        gamma = F(-1, -2, -1, 4)
        dec = decompose_codim3(gamma)
        assert s1_via_cor37(dec, 2) == 2
        assert s1_general(gamma, 3) == 2

    def test_holds_at_r_zero(self):
        """At r = 0, s0 = 1 and s1 = s0(gamma_0)."""
        gamma = F(-1, -1, 2)
        dec = decompose_codim3(gamma)
        assert (dec.r, dec.s0) == (0, 1)
        assert s1_via_cor37(dec, 1) == s1_general(gamma, 3) == 2

    @pytest.mark.parametrize("s0", [2.5, 2.0, True, "2", None])
    def test_refuses_a_non_integer_s0(self, s0):
        dec = decompose_codim3(F(-1, -2, 0, 3))
        with pytest.raises(TypeError) as info:
            s1_via_cor37(dec, s0)
        assert str(info.value) == f"not an integer: {s0!r}"

    @pytest.mark.parametrize("s0", [7, 1, 3, 0, -2])
    def test_refuses_an_s0_not_its_own(self, s0):
        """s0 of a nondegenerate codim-3 character is r + 1 = dec.s0, so
        any other s0 would make a wrong s1."""
        dec = decompose_codim3(F(-1, -2, 0, 3))
        assert (dec.s0, s1_via_cor37(dec, 2)) == (2, 2)
        with pytest.raises(ValueError) as info:
            s1_via_cor37(dec, s0)
        assert str(info.value) == f"s0 must be 2 for this decomposition, not {s0}"

    def test_agrees_with_scan_on_universe(self):
        """Cor 3.7, s1 = s0(gamma_r) + r, holds at every r, r = 0
        included, where ``analyze-codim3`` reads s1 off it too."""
        for a in range(4):
            for h in macaulay_functions(a, 12):
                gamma = gamma_from_h(h)
                dec = decompose_codim3(gamma)
                assert dec.s0 == check_necessary(gamma, 3).s0
                assert s1_via_cor37(dec, dec.s0) == s1_general(gamma, 3)


class TestIntervalBounds:
    def test_pass_on_decomposable_characters(self):
        for h in macaulay_functions(3, 12):
            if h(1) != 3:
                continue
            gamma = gamma_from_h(h)
            dec = decompose_codim3(gamma)
            assert check_prop36_bounds(gamma, dec)

    def test_fails_on_tampered_tail(self):
        gamma = F(-1, -2, -1, 4)
        dec = decompose_codim3(gamma)
        tampered = gamma + IntFun(4, (-1,)) + IntFun(5, (1,))
        assert not check_prop36_bounds(tampered, dec)

    def test_fails_just_after_s0(self):
        """With r = 1 the only window that sees this tampered decomposition
        is gamma >= -s0(X) = -2 on [2, s0(gamma_0)) = [2, 4), where
        gamma(2) = -3."""
        gamma = F(-1, -2, -3, 6)
        dec = Codim3Decomposition((F(-1, -1, -1, -1, 4), F(-1, 1)))
        assert not check_prop36_bounds(gamma, dec)

    def test_zero_function_passes(self):
        # every bound is <= 0, so the zero function meets them all
        for gamma in (F(-1, -2, -1, 4), F(-1, 1)):
            assert check_prop36_bounds(IntFun(), decompose_codim3(gamma))


class TestIntegralScreen:
    def test_passes_canonical_examples(self):
        assert integral_screen(F(-1, -2, -1, 4))
        assert integral_screen(F(-1, -2, -2, 5))
        assert integral_screen(F(-1, -2, -3, 6))

    def test_fails_late_dip(self):
        # s0 = s1 = 2, so the floor is 0 from degree 3: the -1 at 4 breaks it
        gamma = F(-1, -2, -1, 3, -1, 2)
        assert check_necessary(gamma, 3)
        assert not integral_screen(gamma)

    def test_fails_dip_below_the_slope(self):
        # s0 = s1 = 3: the floor n - 5 is -1 at degree 4, where gamma is -2
        gamma = F(-1, -2, -3, 0, -2, 4, 4)
        assert check_necessary(gamma, 3)
        assert not integral_screen(gamma)

    def test_allows_shallow_dip_inside_window(self):
        # floor is -1 at n = s1, so a single mild dip is tolerated
        gamma = F(-1, -2, -1, 3, 1)
        assert check_necessary(gamma, 3)
        assert integral_screen(gamma)

    def test_rejects_invalid_character(self):
        with pytest.raises(ValueError):
            integral_screen(F(-1, 2))  # sum nonzero


class TestQuadric:
    def test_shape_and_parameters(self):
        q = quadric_check(F(-1, -2, -2, 1, 4))
        assert q.valid and (q.t, q.s) == (2, 4)

    def test_single_minus_two(self):
        q = quadric_check(F(-1, -2, -1, 4))
        assert q.valid and q.t == 1

    def test_needs_s0_two(self):
        with pytest.raises(ValueError):
            quadric_check(F(-1, -1, 2))
        with pytest.raises(ValueError):
            quadric_check(F(-1, -2, -3, 6))
        # s0 = 2, but h = (1, 3, 7) breaks growth, so it is no character
        with pytest.raises(ValueError, match="needs a codim-3 character"):
            quadric_check(F(-1, -2, -4, 7))

    def test_truth_is_validity(self):
        assert quadric_check(F(-1, -2, -1, 4))
        # h = (1, 3, 2, 4) breaks growth: 4 > 2^<2> = 2
        q = quadric_check(F(-1, -2, 1, -2, 4))
        assert not q and q == QuadricCheck(False, 1, -1)

    def test_invalid_shape(self):
        gamma = F(-1, -2, 1, -2, 4)
        if check_necessary(gamma, 3):
            assert not quadric_check(gamma).valid

    def test_integral_variant_restricts_dips(self):
        assert integral_quadric_check(F(-1, -2, -1, 4))
        # a -1 above t + 1 disqualifies integrality
        gamma = F(-1, -2, -1, 3, -1, 2)
        if quadric_check(gamma).valid:
            assert not integral_quadric_check(gamma)

    def test_quadric_characters_from_enumeration(self):
        table = enumerate_acm_curves(9)
        for entry in table.entries:
            for w in entry.witnesses:
                gamma = w.recompose()
                if check_necessary(gamma, 3).s0 != 2:
                    continue
                q = quadric_check(gamma)
                assert q.valid, str(gamma)


class TestPlaneUnion:
    def test_character_shape(self):
        gamma = plane_union_char(2, 2)
        assert gamma == F(-1, 0, 1) + F(-1, 0, 1) + F(1, -2, 1)

    def test_is_valid_codim3_character(self):
        for d1 in range(1, 5):
            for d2 in range(1, 5):
                gamma = plane_union_char(d1, d2)
                assert gamma.is_character()
                assert curve_invariants(gamma).d == d1 + d2

    def test_degree_and_genus_of_two_planes_meeting(self):
        # joined at a single point, the arithmetic genera simply add
        from acmchar import binom
        for a in range(1, 6):
            for b in range(1, 6):
                inv = curve_invariants(plane_union_char(a, b))
                assert inv.g == binom(a - 1, 2) + binom(b - 1, 2)

    def test_rejects_degree_zero(self):
        for d1, d2 in [(0, 3), (3, 0), (-1, 1)]:
            with pytest.raises(ValueError, match="degree must be >= 1"):
                plane_union_char(d1, d2)

    def test_checks_both_types_before_either_range(self):
        """Both degrees' types are checked before either range, so a
        non-integer degree is named even when the other is out of range."""
        with pytest.raises(TypeError) as info:
            plane_union_char(0, 2.0)
        assert str(info.value) == "not an integer: 2.0"


class TestMinimalDegreeBound:
    def test_degree_vs_s0(self):
        from acmchar import binom
        table = enumerate_acm_curves(10)
        for entry in table.entries:
            for w in entry.witnesses:
                gamma = w.recompose()
                s0 = check_necessary(gamma, 3).s0
                assert entry.d >= binom(s0 + 2, 3)


class TestScreenHierarchy:
    def test_integral_quadric_implies_integral_screen(self):
        # the quadric screen never passes where the general integrality
        # floor fails (it is that floor behind the quadric guard)
        table = enumerate_acm_curves(10)
        for entry in table.entries:
            for w in entry.witnesses:
                gamma = w.recompose()
                if check_necessary(gamma, 3).s0 != 2:
                    continue
                if quadric_check(gamma).valid and integral_quadric_check(gamma):
                    assert integral_screen(gamma), str(gamma)


class TestIntegralQuadricIsIntegralScreen:
    def test_agrees_with_the_two_bound_oracle(self):
        # every codim-3 ACM character of degree <= 24, hyperplane case included
        table = enumerate_acm_curves(24, nondegenerate=False)
        chars = [w.recompose() for e in table.entries for w in e.witnesses]
        assert len(chars) == 3083
        quadric = [g for g in chars if check_necessary(g, 3).s0 == 2]
        assert len(quadric) == 1800
        outcomes = set()
        for gamma in quadric:
            q = quadric_check(gamma)
            assert q.valid, str(gamma)
            # growth keeps gamma(t+1) >= -2 and t's choice off -2: s1 = t + 1
            assert gamma(q.t + 1) >= -1, str(gamma)
            assert s1_general(gamma, 3) == q.t + 1, str(gamma)
            expected = integral_quadric_pointwise(gamma)
            assert integral_screen(gamma) == expected, str(gamma)
            assert integral_quadric_check(gamma) == expected, str(gamma)
            outcomes.add(expected)
        assert outcomes == {True, False}

    def test_failed_shape_raises_as_before(self):
        failed = [g for g in small_characters(5, 3)
                  if (chk := check_necessary(g, 3)) and chk.s0 == 2
                  and not quadric_check(g).valid]
        assert len(failed) == 120
        for gamma in failed:
            for screen in (integral_quadric_check, integral_quadric_pointwise):
                with pytest.raises(ValueError) as info:
                    screen(gamma)
                assert str(info.value) == "character fails the quadric shape test"

    @pytest.mark.parametrize("gamma", [F(-1, -1, 2), F(-1, -2, -3, 6), F(-1, 2, -1)])
    def test_needs_a_character_with_s0_two(self, gamma):
        with pytest.raises(ValueError) as info:
            integral_quadric_check(gamma)
        assert str(info.value) == "quadric check needs a codim-3 character with s0 = 2"
