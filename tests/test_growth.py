"""Growth verification, the lex-segment oracle and layer decomposition of
Macaulay functions."""
import pytest

from acmchar import (
    Decomposition,
    IntFun,
    MacaulayFn,
    decompose,
    h_from_gamma,
    is_macaulay,
    lex_oracle,
    s0_of,
    type12_shape,
)
from acmchar import growth
from acmchar.growth import (
    HIGHER_TYPE,
    NOT_MACAULAY,
    TYPE0,
    TYPE1,
    TYPE2,
    _is_o_sequence,
    _peel,
)

from helpers import growth_box, macaulay_functions


def F(*vals):
    return IntFun(0, tuple(vals))


class TestIsMacaulay:
    def test_accepts_known_sequences(self):
        for vals in [(1,), (1, 1, 1), (1, 2, 3, 2), (1, 3), (1, 3, 4),
                     (1, 3, 6), (1, 3, 5, 3), (1, 4, 10, 20)]:
            assert is_macaulay(F(*vals)), vals

    def test_rejects_bad_sequences(self):
        assert not is_macaulay(IntFun())
        assert not is_macaulay(F(2, 1))
        assert not is_macaulay(F(1, -1, 1))
        assert not is_macaulay(F(1, 2, 4))  # 4 > upper(2,1) = 3
        assert not is_macaulay(F(1, 1, 2))  # type 1 cannot grow
        assert not is_macaulay(IntFun(-1, (1, 1, 1)))

    def test_no_revival_after_zero(self):
        assert not is_macaulay(F(1, 2, 0, 1))

    def test_validated_wrapper(self):
        mf = MacaulayFn(F(1, 3, 4))
        assert mf.type_a == 3 and mf(2) == 4
        with pytest.raises(ValueError):
            MacaulayFn(F(1, 2, 4))


class TestS0:
    def test_examples(self):
        assert s0_of(F(1, 1)) == 2
        assert s0_of(F(1, 2, 3, 2)) == 3
        assert s0_of(F(1, 3, 6, 3)) == 3
        assert s0_of(F(1, 3, 4)) == 2

    def test_undefined_for_type_zero(self):
        with pytest.raises(ValueError):
            s0_of(F(1))

    def test_matches_decomposition_layer_count(self):
        for h in macaulay_functions(3, 11):
            if h(1) == 3:
                assert s0_of(h) == decompose(h).r + 1


class TestLexOracle:
    def test_agrees_with_growth_on_samples(self):
        samples = [(1, 3, 4), (1, 3, 6, 3), (1, 2, 4), (1, 3, 5, 8),
                   (1, 4, 3, 5), (1, 1, 1, 1), (1, 2, 3, 4, 3)]
        for vals in samples:
            h = F(*vals)
            assert lex_oracle(h) == is_macaulay(h), vals

    def test_rejects_negative_values_and_bad_start(self):
        assert not lex_oracle(F(1, 2, -1))
        assert not lex_oracle(F(2, 1))
        assert not lex_oracle(IntFun())
        assert not lex_oracle(IntFun(-1, (1, 1, 2, 1)))  # h(-1) = 1

    def test_scale_bound_enforced(self):
        with pytest.raises(ValueError):
            lex_oracle(F(1, 5, 5))
        with pytest.raises(ValueError):
            lex_oracle(F(1, 1, 1, 1, 1, 1, 1, 1, 1, 1))

    def test_value_above_monomial_count_fails(self):
        assert not lex_oracle(F(1, 2, 4))

    def test_agrees_with_growth_at_type_4(self):
        """Type 4 is the oracle's largest: every type-4 Macaulay function
        of mass <= 16 within the scale bound, and each of them raised by
        one in a single degree from 2 to min(sup + 1, 8)."""
        base = [h for h in macaulay_functions(4, 16) if h.sup() <= 8]
        bumped = [h + IntFun(n, (1,)) for h in base
                  for n in range(2, min(h.sup() + 1, 8) + 1)]
        assert (len(base), len(bumped)) == (197, 933)
        assert sum(not is_macaulay(h) for h in bumped) == 293
        for h in base + bumped:
            assert lex_oracle(h) == is_macaulay(h), h


class TestDecompose:
    def test_small_examples(self):
        assert decompose(F(1, 3)).parts == (F(1, 2), F(1))
        assert decompose(F(1, 3, 4)).parts == (F(1, 2, 3), F(1, 1))
        assert decompose(F(1, 3, 6)).parts == (F(1, 2, 3), F(1, 2), F(1))
        assert decompose(F(1, 3, 3)).parts == (F(1, 2, 3), F(1))

    def test_peel_strips_its_remainders(self):
        """The layers stay value tuples, canonical as IntFun stores them:
        the remainder (1, 0) of h = (1, 3, 3) loses its zero."""
        assert _peel((1, 3, 3), 3) == [(1, 2, 3), (1,)]
        assert _peel((1, 3, 6, 4, 1), 3) == [(1, 2, 3, 4, 1), (1, 2), (1,)]

    @pytest.mark.parametrize("a, length, size, grown", [
        (2, 7, 15120, 120), (3, 6, 37536, 813), (4, 5, 9768, 941)])
    def test_peel_builds_checked_layers(self, a, length, size, grown):
        """The peel checks nothing, so its precondition is checked here:
        the layers of every O-sequence in the box pass every check of
        ``Decomposition.validate`` and recompose to it."""
        box = growth_box(a, length)
        vs = [v for v in box if _is_o_sequence(v)]
        assert (len(box), len(vs)) == (size, grown)
        for v in vs:
            dec = Decomposition(tuple(IntFun(0, p) for p in _peel(v, a)))
            dec.validate(a)
            assert dec.recompose() == IntFun(0, v), v

    def test_checks_h_once(self, monkeypatch):
        """MacaulayFn decides growth; the peel adds no check of its own."""
        checked, is_o_sequence = [], growth._is_o_sequence

        def counted(v):
            checked.append(v)
            return is_o_sequence(v)

        monkeypatch.setattr(growth, "_is_o_sequence", counted)
        assert len(decompose(F(1, 3, 6, 4, 1)).parts) == 3
        assert checked == [(1, 3, 6, 4, 1)]

    def test_layer_shifts_recompose(self):
        dec = decompose(F(1, 3, 6))
        total = IntFun()
        for i, p in enumerate(dec.parts):
            total = total + p.shift(-i)
        assert total == F(1, 3, 6)

    def test_needs_type_at_least_two(self):
        with pytest.raises(ValueError, match=r"^decompose needs type >= 2 "):
            decompose(F(1, 1, 1))

    def test_rejects_non_macaulay(self):
        with pytest.raises(ValueError):
            decompose(F(1, 3, 7))

    def test_type_two_universe(self):
        for h in macaulay_functions(2, 12):
            if h(1) != 2:
                continue
            dec = decompose(h)
            assert dec.recompose() == h
            assert dec.s0 == s0_of(h)
            for p in dec.parts[:-1]:
                assert p(1) == 1
            assert dec.parts[-1](1) <= 1

    def test_layer_s0_strictly_decreasing(self):
        for h in macaulay_functions(3, 12):
            if h(1) != 3:
                continue
            dec = decompose(h)
            s0s = [s0_of(p) for p in dec.parts if p(1) >= 1]
            assert all(a > b for a, b in zip(s0s, s0s[1:]))

    @pytest.mark.parametrize("gamma, layers", [((-1, -2, -3, 6), 3),
                                               ((-1, -2, -3, -4, 10), 4)])
    def test_builds_one_intfun_per_layer(self, monkeypatch, gamma, layers):
        """The remainders between the layers are peeled as value tuples:
        the only IntFuns built are the returned layers."""
        h = h_from_gamma(F(*gamma))
        built, init = [], IntFun.__init__

        def counted(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(IntFun, "__init__", counted)
        dec = decompose(h)
        assert len(dec.parts) == layers
        assert len(built) == layers

    def test_validate_flags_broken_layers(self):
        with pytest.raises(ValueError):
            Decomposition((F(1, 2), F(1, 1))).validate(3)  # overlap
        with pytest.raises(ValueError):
            Decomposition((F(1, 3), F(1))).validate(3)  # wrong layer type
        with pytest.raises(ValueError):
            Decomposition((F(1, 2, 3),)).validate(3)  # single layer
        with pytest.raises(ValueError, match="last layer must have type <= 2"):
            Decomposition((F(1, 2, 3), F(1, 3))).validate(3)

    @pytest.mark.parametrize("type_a", [3.0, True])
    def test_validate_rejects_a_type_that_is_not_an_int(self, type_a):
        with pytest.raises(TypeError, match=f"not an integer: {type_a!r}"):
            Decomposition((F(1, 2, 3), F(1, 1))).validate(type_a)

    @pytest.mark.parametrize("type_a", [0, 1])
    def test_validate_needs_type_two(self, type_a):
        """Checked before any layer, whose own checks would fail first."""
        for parts in [(F(1, 2, 3), F(1, 1)), (F(1), F(1))]:
            with pytest.raises(ValueError, match="decomposition needs type >= 2"):
                Decomposition(parts).validate(type_a)


class TestMinimalMass:
    def test_type_a_function_with_s0_s_has_mass_at_least_binom(self):
        # mass >= C(a+s-1, s-1) when h(n) is full up to s0
        from acmchar import binom
        for h in macaulay_functions(3, 14):
            if h(1) != 3:
                continue
            s = s0_of(h)
            assert h.total() >= binom(3 + s - 1, s - 1)


class TestType12Shape:
    def test_classification(self):
        assert type12_shape(IntFun()) == TYPE0
        assert type12_shape(F(1)) == TYPE0
        assert type12_shape(F(1, 1, 1)) == TYPE1
        assert type12_shape(F(1, 2, 3, 2, 2)) == TYPE2
        assert type12_shape(F(1, 3, 4)) == HIGHER_TYPE
        assert type12_shape(F(1, 2, 4)) == NOT_MACAULAY
        assert type12_shape(F(2, 1)) == NOT_MACAULAY

    def test_type2_shape_rejects_regrowth_after_drop(self):
        assert type12_shape(F(1, 2, 2, 3)) == NOT_MACAULAY

    def test_agrees_with_is_macaulay_for_small_types(self):
        for a in (0, 1, 2):
            for h in macaulay_functions(a, 10):
                shape = type12_shape(h)
                assert shape != NOT_MACAULAY
                assert is_macaulay(h)
