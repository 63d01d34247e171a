"""Finitely supported integer functions: canonical form, calculus ops,
serialization."""
import random

import pytest
from hypothesis import given, settings, strategies as st

import acmchar as ac
from acmchar import ConstantTailError, IntFun, indicator

from helpers import run_capped

intfuns = st.builds(
    IntFun,
    st.integers(min_value=-6, max_value=6),
    st.lists(st.integers(min_value=-9, max_value=9), max_size=8).map(tuple),
)


# windows up to 2 * 10**6 apart
far_intfuns = st.builds(
    IntFun,
    st.integers(min_value=-10**6, max_value=10**6),
    st.lists(st.integers(min_value=-9, max_value=9), max_size=8).map(tuple),
)


def window(*fs):
    """Every n in the windows of the fs, with one step beyond each end."""
    return sorted({n for f in fs if not f.is_zero()
                   for n in range(f.inf() - 1, f.sup() + 2)})


class TestCanonicalForm:
    def test_trims_leading_and_trailing_zeros(self):
        f = IntFun(2, (0, 0, 5, 0, -1, 0))
        assert f.offset == 4
        assert f.values == (5, 0, -1)

    def test_zero_function_is_unique(self):
        assert IntFun(7, (0, 0)) == IntFun()
        assert IntFun().is_zero()

    def test_semantic_equality_and_hash(self):
        a = IntFun(0, (0, 1, 2, 0))
        b = IntFun(1, (1, 2))
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_call_outside_window_is_zero(self):
        f = IntFun(-1, (3, 4))
        assert (f(-2), f(-1), f(0), f(1)) == (0, 3, 4, 0)

    @given(intfuns)
    def test_no_zero_endpoints(self, f):
        if not f.is_zero():
            assert f.values[0] != 0 and f.values[-1] != 0


class TestIntegerEntries:
    @pytest.mark.parametrize("offset, values", [
        (0, (1, 2.9, 1)),
        (0, (1, 2.0)),
        (0, (True, -1)),
        (0, ("0", 1)),
        (0.0, (1,)),
        (False, (1,)),
        ("1", (1,)),
    ])
    def test_rejects_non_integers(self, offset, values):
        with pytest.raises(TypeError):
            IntFun(offset, values)


class TestQueries:
    def test_sup_inf_total_degree(self):
        f = IntFun(0, (-1, -2, -1, 4))
        assert f.inf() == 0 and f.sup() == 3
        assert f.total() == 0
        assert f.degree() == -2 - 2 + 12
        assert f.is_character()

    def test_zero_has_no_support_bounds(self):
        assert IntFun().sup() is None
        assert IntFun().inf() is None

    def test_support_iterates_window(self):
        f = IntFun(1, (2, 0, 3))
        assert list(f.support()) == [(1, 2), (2, 0), (3, 3)]

    def test_indicator(self):
        e = indicator(4)
        assert e(4) == 1 and e.total() == 1 and e.sup() == 4


class TestCalculus:
    def test_diff_example(self):
        h = IntFun(0, (1, 3, 4))
        assert h.diff() == IntFun(0, (1, 2, 1, -4))

    @given(intfuns)
    def test_diff_sums_to_zero(self, f):
        assert f.diff().is_character()

    @given(intfuns)
    def test_primitive_inverts_diff(self, f):
        assert f.diff().primitive() == f

    @given(intfuns)
    def test_diff_inverts_primitive_for_characters(self, f):
        g = f.diff()  # always a character
        assert g.primitive().diff() == g

    @given(far_intfuns)
    def test_diff_pointwise(self, f):
        d = f.diff()
        assert all(d(n) == f(n) - f(n - 1) for n in window(f))
        assert d.is_zero() or (d.inf() >= f.inf() and d.sup() <= f.sup() + 1)

    @given(far_intfuns)
    def test_primitive_is_prefix_sums(self, f):
        c = f + IntFun((f.sup() or 0) + 1, (-f.total(),))
        p = c.primitive()
        if c.is_zero():
            assert p.is_zero()
            return
        sums = {n: sum(c(k) for k in range(c.inf(), n + 1)) for n in window(c)}
        assert all(p(n) == v for n, v in sums.items())
        assert p.inf() >= c.inf() and p.sup() < c.sup()

    def test_primitive_rejects_nonzero_sum(self):
        with pytest.raises(ConstantTailError) as info:
            IntFun(0, (1, 2)).primitive()
        assert info.value.tail == 3

    def test_shift_moves_argument(self):
        f = IntFun(0, (1, 2))
        g = f.shift(-3)
        assert g(3) == 1 and g(4) == 2 and g(0) == 0

    @given(intfuns, st.integers(min_value=-5, max_value=5))
    def test_shift_roundtrip(self, f, d):
        assert f.shift(d).shift(-d) == f


class TestArithmetic:
    @given(intfuns, intfuns)
    def test_add_pointwise(self, f, g):
        s = f + g
        lo, hi = -20, 20
        assert all(s(n) == f(n) + g(n) for n in range(lo, hi))

    @settings(max_examples=40, deadline=None)
    @given(far_intfuns, far_intfuns)
    def test_add_and_sub_pointwise_far_apart(self, f, g):
        s, t = f + g, f - g
        for n in window(f, g):
            assert s(n) == f(n) + g(n) and t(n) == f(n) - g(n)
        for h in (s, t):
            # every nonzero value lies in the two windows, none in the gap
            nonzero = len(h.values) - h.values.count(0)
            assert nonzero == sum(1 for n in window(f, g) if h(n))

    def test_zero_operand_at_a_far_offset(self):
        """A zero operand leaves f or -f as it is: the sum fills no gap
        between f's window and offset 0, which at offset 10**9 (literals
        accept it) would be a list of 10**9 entries."""
        code = ("import time; from acmchar import IntFun; "
                "f, z = IntFun(10**9, (-1, 1)), IntFun(); "
                "t = time.perf_counter(); out = [f + z, z + f, z - f, f - z]; "
                "print(time.perf_counter() - t, *out)")
        proc = run_capped("-c", code)
        assert proc.returncode == 0, proc.stderr
        elapsed, *out = proc.stdout.split()
        assert float(elapsed) < 1.0
        assert out == ["(-1,1)@1000000000", "(-1,1)@1000000000",
                       "(1,-1)@1000000000", "(-1,1)@1000000000"]

    @given(intfuns)
    def test_sub_self_is_zero(self, f):
        assert (f - f).is_zero()

    @given(intfuns)
    def test_neg_involution(self, f):
        assert -(-f) == f


class TestSerialization:
    @given(intfuns)
    def test_json_roundtrip(self, f):
        assert IntFun.from_json(f.to_json()) == f

    def test_parse_positional(self):
        assert IntFun.parse("(-1,-2,-1,4)") == IntFun(0, (-1, -2, -1, 4))
        assert IntFun.parse(" ( 1, 3 ,4 ) ") == IntFun(0, (1, 3, 4))

    def test_parse_unicode_minus(self):
        assert IntFun.parse("(−1,1)") == IntFun(0, (-1, 1))

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            IntFun.parse("(1,x)")
        for bad in ["(1", "1)"]:  # one parenthesis is not the zero function
            with pytest.raises(ValueError, match="malformed function literal"):
                IntFun.parse(bad)

    def test_str_pads_from_zero(self):
        assert str(IntFun(2, (5,))) == "(0,0,5)"
        assert str(IntFun()) == "(0)"

    def test_str_negative_offset_keeps_offset(self):
        assert str(IntFun(-1, (1, 2))) == "(1,2)@-1"

    def test_str_uses_offset_form_beyond_padding(self):
        assert str(IntFun(16, (5,))) == "(" + "0," * 16 + "5)"
        assert str(IntFun(17, (5, -1))) == "(5,-1)@17"
        assert str(IntFun(10**6, (1,))) == "(1)@1000000"

    def test_parse_offset_form(self):
        assert IntFun.parse("(0,0,1)@-2") == IntFun(0, (1,))
        assert IntFun.parse(" (1, 2) @ 3 ") == IntFun(3, (1, 2))
        assert IntFun.parse("(−1,1)@−1") == IntFun(-1, (-1, 1))
        for bad in ["(1,2)@", "(1,2)@x", "(1,2)@1@2", "(1,2)@1.5"]:
            with pytest.raises(ValueError):
                IntFun.parse(bad)

    def test_parse_str_roundtrip(self):
        rng = random.Random(7)
        assert IntFun.parse(str(IntFun())) == IntFun()
        for _ in range(200):
            f = IntFun(rng.randint(-40, 40),
                       tuple(rng.randint(-3, 3) for _ in range(5)))
            assert IntFun.parse(str(f)) == f


def _integer_parameters():
    """(name, call, args) for every public function and record with an
    integer parameter; each int in args is one parameter to probe.  The
    base call of ``upper`` caches (3, 1), which equals the probes (3.0, 1)
    and (3, True)."""
    gamma = IntFun(0, (-1, -2, 0, 3))  # codim 3, s0 = 2, r = 1
    return [
        ("IntFun", IntFun, (0, (1,))),
        ("IntFun.values", lambda *v: IntFun(0, v), (1, 2)),
        ("IntFun.shift", IntFun(0, (1, 2)).shift, (1,)),
        ("IntFun.__call__", IntFun(0, (1, 2)), (1,)),
        ("indicator", indicator, (1,)),
        ("binom", ac.binom, (5, 2)),
        ("macaulay_expand", ac.macaulay_expand, (5, 2)),
        ("upper", ac.upper, (3, 1)),
        ("MacaulayExpansion", lambda *t: ac.MacaulayExpansion((t,)), (5, 2)),
        ("Decomposition.validate",
         ac.decompose(IntFun(0, (1, 3, 3))).validate, (3,)),
        ("hypersurface_char", ac.hypersurface_char, (2,)),
        ("complete_intersection_char", ac.complete_intersection_char, (2, 3)),
        ("biliaison", ac.biliaison, (gamma, gamma, 1)),
        ("check_necessary", ac.check_necessary, (gamma, 3)),
        ("s1_general", ac.s1_general, (gamma, 3)),
        ("resolution_char", ac.resolution_char, (gamma, 3)),
        ("gamma_from_resolution", ac.gamma_from_resolution,
         (ac.resolution_char(gamma, 3), 3)),
        ("postulation_values", ac.postulation_values, (gamma, 1, 2)),
        ("hilbert_polynomial", ac.hilbert_polynomial, (gamma, 1)),
        ("s1_via_cor37", ac.s1_via_cor37, (ac.decompose_codim3(gamma), 2)),
        ("plane_union_char", ac.plane_union_char, (2, 3)),
        ("enumerate_positive_characters", ac.enumerate_positive_characters,
         (4, 1, 4)),
        ("enumerate_acm_curves", ac.enumerate_acm_curves, (4,)),
        ("NecessaryCheck", ac.NecessaryCheck, (True, 2)),
        ("CurveInvariants", ac.CurveInvariants, (3, 0)),
        ("SurfaceInvariants", ac.SurfaceInvariants, (3, -3, 0)),
        ("QuadricCheck", ac.QuadricCheck, (True, 1, 3)),
        ("DGEntry", ac.DGEntry, (3, 0, ())),
    ]


@pytest.mark.parametrize("bad", [True, 3.0, -1.5], ids=repr)
@pytest.mark.parametrize("call, args, position", [
    pytest.param(call, args, i, id=f"{name}-{i}")
    for name, call, args in _integer_parameters()
    for i, x in enumerate(args) if type(x) is int])
def test_every_integer_parameter_refuses_non_integers(call, args, position, bad):
    """Each public integer parameter raises the one TypeError of
    intfun._require_ints before any range check can raise a ValueError."""
    call(*args)  # the probe's base call is valid
    args = args[:position] + (bad,) + args[position + 1:]
    with pytest.raises(TypeError) as info:
        call(*args)
    assert str(info.value) == f"not an integer: {bad!r}"


@pytest.mark.parametrize("call, bad, what", [
    pytest.param(call, bad, what, id=f"{name}-{bad!r}")
    for name, call, what, bads in [
        ("NecessaryCheck.ok", lambda x: ac.NecessaryCheck(x, 2), "a bool",
         [1, 0, None, "True", 1.0]),
        ("NecessaryCheck.failure", lambda x: ac.NecessaryCheck(False, 2, x),
         "a string or None", [0, False, b"too negative", ("too negative",)]),
        ("QuadricCheck.valid", lambda x: ac.QuadricCheck(x, 1, 3), "a bool",
         [1, 0, None, "True", 1.0]),
    ]
    for bad in bads])
def test_record_flags_refuse_other_types(call, bad, what):
    """The records' truth values are exactly bool and a failure is exactly
    str or None, by the rule ``_require_ints`` keeps for their ints."""
    with pytest.raises(TypeError) as info:
        call(bad)
    assert str(info.value) == f"not {what}: {bad!r}"

