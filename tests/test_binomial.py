"""Binomial coefficients, greedy binomial expansions and the growth
operator."""
import math

import pytest
from hypothesis import given, strategies as st

from acmchar import MacaulayExpansion, binom, binomial, macaulay_expand, upper
from acmchar.binomial import MAX_EXPANSION_TERMS, _greedy, _upper

from helpers import greedy_stepwise


class TestBinom:
    def test_matches_math_comb_on_grid(self):
        for n in range(65):
            for p in range(n + 1):
                assert binom(n, p) == math.comb(n, p)

    def test_zero_below_diagonal(self):
        assert binom(3, 5) == 0
        assert binom(0, 1) == 0

    def test_degenerate_column(self):
        assert binom(-1, -1) == 1
        assert binom(0, -1) == 0
        assert binom(5, -1) == 0
        assert binom(-3, -1) == 0

    def test_rejects_smaller_p(self):
        with pytest.raises(ValueError):
            binom(5, -2)
        with pytest.raises(ValueError, match="binom undefined for p = -2 < -1"):
            binom(-5, -2)  # n < p too, where C(n, p) would read 0

    def test_pascal_rule_with_degenerate_column(self):
        for n in range(0, 20):
            for p in range(0, n + 1):
                assert binom(n, p) == binom(n - 1, p) + binom(n - 1, p - 1)


class TestExpansion:
    def test_known_expansion(self):
        exp = macaulay_expand(25, 3)
        assert exp.terms == ((6, 3), (3, 2), (2, 1))
        assert str(exp) == "C(6,3) + C(3,2) + C(2,1)"

    def test_last_index_must_be_positive(self):
        with pytest.raises(ValueError, match="last index must be >= 1"):
            MacaulayExpansion(((3, 1), (2, 0)))

    def test_exact_binomial_is_single_term(self):
        assert macaulay_expand(binom(9, 4), 4).terms == ((9, 4),)

    @given(st.integers(min_value=1, max_value=10**40),
           st.integers(min_value=1, max_value=12))
    def test_reconstruction(self, alpha, i):
        exp = macaulay_expand(alpha, i)
        assert exp.value == alpha
        exp.validate()
        assert exp.terms[0][1] == i

    def test_huge_alpha_recomposes_exactly(self):
        exp = macaulay_expand(10**20, 2)
        (m2, k2), (m1, k1) = exp.terms
        assert (k2, k1) == (2, 1)
        assert math.comb(m2, 2) + math.comb(m1, 1) == 10**20
        # greedy: the leading term is the largest that fits
        assert math.comb(m2 + 1, 2) > 10**20

    def test_chain_is_strict_and_contiguous(self):
        exp = macaulay_expand(100, 5)
        ms = [m for m, _ in exp.terms]
        ks = [k for _, k in exp.terms]
        assert ms == sorted(ms, reverse=True) and len(set(ms)) == len(ms)
        assert ks == list(range(ks[0], ks[-1] - 1, -1))

    def test_ends_in_unit_terms(self):
        # once the remainder is at most the index, every term is C(k,k)
        assert macaulay_expand(5, 10).terms == (
            (10, 10), (9, 9), (8, 8), (7, 7), (6, 6))

    def test_answers_at_the_term_bound(self):
        exp = macaulay_expand(MAX_EXPANSION_TERMS, MAX_EXPANSION_TERMS)
        assert len(exp.terms) == MAX_EXPANSION_TERMS
        assert exp.terms[-1] == (1, 1)

    def test_refuses_one_term_past_the_bound(self):
        n = MAX_EXPANSION_TERMS + 1
        with pytest.raises(ValueError, match=str(MAX_EXPANSION_TERMS)):
            macaulay_expand(n, n)
        # upper lifts every unit term to 1 without listing them
        assert upper(n, n) == n

    def test_rejects_nonpositive_input(self):
        with pytest.raises(ValueError):
            macaulay_expand(0, 3)
        with pytest.raises(ValueError):
            macaulay_expand(5, 0)

    def test_invalid_term_chain_rejected(self):
        with pytest.raises(ValueError):
            MacaulayExpansion(((3, 3), (3, 2)))
        with pytest.raises(ValueError):
            MacaulayExpansion(((5, 3), (4, 1)))
        with pytest.raises(ValueError):
            MacaulayExpansion(((2, 3),))
        with pytest.raises(ValueError):
            MacaulayExpansion(())

    def test_list_terms_become_tuples(self):
        """Terms given as lists are stored as tuples, so the record is
        hashable and equals the one built from tuples."""
        listed = MacaulayExpansion([[4, 2], [1, 1]])
        built = MacaulayExpansion(((4, 2), (1, 1)))
        assert listed == built
        assert hash(listed) == hash(built)

    @pytest.mark.parametrize("terms", [
        ((6.9, 3), (3.5, 2), (2, True)),
        ((6, 3), (3, 2), (2, True)),
        (("6", 3),),
        (("9" * 100000, 2),),
    ])
    def test_non_integer_terms_rejected(self, terms):
        with pytest.raises(TypeError, match="not an integer") as info:
            MacaulayExpansion(terms)
        assert len(str(info.value)) < 100  # a long value is quoted briefly


class TestGreedy:
    """``_greedy`` bisects each top after the first inside the bracket the
    term before sets, and takes closed forms at k <= 2; the step-by-step
    oracle searches every top from scratch."""

    @given(st.integers(min_value=0, max_value=10**60 - 1),
           st.integers(min_value=1, max_value=64))
    def test_matches_the_stepwise_oracle(self, alpha, i):
        assert _greedy(alpha, i, 0) == greedy_stepwise(alpha, i)

    def test_matches_the_stepwise_oracle_on_small_values(self):
        for alpha in range(2001):
            for i in range(1, 9):
                assert _greedy(alpha, i, 0) == greedy_stepwise(alpha, i)

    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_closed_form_edges(self, i):
        """rem one below, at and one above C(m,2), where 8 rem + 1 is the
        square (2m-1)**2; at i = 3 also as the remainder after C(m+1,3)."""
        ms = [*range(2, 200), *(10**e + d for e in range(3, 16) for d in (-1, 0, 1))]
        for m in ms:
            for rem in (math.comb(m, 2) - 1, math.comb(m, 2), math.comb(m, 2) + 1):
                alphas = [rem] if i < 3 else [rem, math.comb(m + 1, 3) + rem]
                for alpha in alphas:
                    assert _greedy(alpha, i, 0) == greedy_stepwise(alpha, i)

    @pytest.mark.parametrize("alpha, i", [
        (10**50, 30), (10**12, 5), (25, 3), (10**20, 2), (10**20, 1), (5, 10)])
    def test_each_top_after_the_first_is_bisected_in_its_bracket(
            self, monkeypatch, alpha, i):
        """Only a first term with k >= 3 is searched from below; after the
        term (m, k+1) a top at k >= 3 is bisected in [k+1, m), and k <= 2
        search nothing."""
        searched, bisected = [], []
        bisect = binomial._bisect_top

        def search_spy(rem, k):
            searched.append(k)
            return greedy_stepwise(rem, k)[0][0][0]

        def bisect_spy(rem, k, lo, hi):
            bisected.append((k, lo, hi))
            return bisect(rem, k, lo, hi)

        monkeypatch.setattr(binomial, "_largest_top", search_spy)
        monkeypatch.setattr(binomial, "_bisect_top", bisect_spy)
        terms, rem = greedy_stepwise(alpha, i)
        assert _greedy(alpha, i, 0) == (terms, rem)
        assert searched == ([i] if terms and i >= 3 else [])
        assert bisected == [(k, k + 1, m) for (m, _), (_, k) in zip(terms, terms[1:])
                            if k >= 3]


class TestUpper:
    def test_zero_maps_to_zero(self):
        assert upper(0, 3) == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            upper(-1, 2)

    @pytest.mark.parametrize("i", [0, -3])
    def test_zero_checks_its_index(self, i):
        with pytest.raises(ValueError, match="i must be >= 1"):
            upper(0, i)

    def test_rejects_non_integers_without_caching_them(self):
        """A float equal to an int would otherwise be cached under the
        int's key and answer every later call with a float, and a float or
        bool equal to a cached int would get that int's answer."""
        for alpha, i in [(2.0, 1), (True, 3), (1e20, 2), (5, 2.0), (25.0, 3)]:
            upper(int(alpha), int(i))  # the equal int is cached first
            with pytest.raises(TypeError, match="not an integer"):
                upper(alpha, i)
        with pytest.raises(TypeError, match="not an integer"):
            macaulay_expand(2.5, 1)
        assert type(upper(2, 1)) is int
        assert upper(2, 1) == 3

    @pytest.mark.parametrize("call, alpha, i", [
        (upper, -1.5, 2), (upper, -2, 1.0), (upper, -2, -1.0),
        (macaulay_expand, -2.5, 1), (macaulay_expand, 0.0, 1),
        (macaulay_expand, -1, 0.5),
    ])
    def test_checks_the_type_before_the_sign(self, call, alpha, i):
        """A negative float is refused as a non-integer, as a positive
        one is, not by the sign checks."""
        with pytest.raises(TypeError, match="not an integer"):
            call(alpha, i)

    @pytest.mark.parametrize("call", [upper, macaulay_expand])
    @pytest.mark.parametrize("alpha, i", [("9" * 100000, 2), (5, "9" * 100000)],
                             ids=["long-alpha", "long-index"])
    def test_long_non_integer_is_quoted_briefly(self, call, alpha, i):
        with pytest.raises(TypeError, match="not an integer") as info:
            call(alpha, i)
        assert len(str(info.value)) < 100

    def test_cache_is_bounded(self):
        """The cache keeps at most 2**16 entries, about ten times what one
        growth-bigint child fills, so a long-lived process cannot grow it
        without end.  upper(n, n) = n has no expansion term to compute."""
        bound = _upper.cache_info().maxsize
        assert bound == 2**16
        for n in range(10**6, 10**6 + bound + 100):
            assert upper(n, n) == n
        assert _upper.cache_info().currsize == bound

    def test_small_values(self):
        # row h(n) -> max h(n+1) at n = 1 is a*(a+1)/2
        for a in range(1, 10):
            assert upper(a, 1) == a * (a + 1) // 2
        assert upper(3, 2) == 4
        assert upper(6, 2) == 10

    def test_growth_of_25_in_degree_3(self):
        # the expansion terms C(7,4) + C(4,3) + C(3,2) sum to 42, which is
        # also the count reached by an explicit lex-segment ideal in five
        # variables, so 42 is the exact bound here
        assert upper(25, 3) == 35 + 4 + 3 == 42

    def test_matches_the_lifted_expansion(self):
        for alpha in range(1, 401):
            for i in range(1, 45):
                lifted = sum(binom(m + 1, k + 1)
                             for m, k in macaulay_expand(alpha, i).terms)
                assert upper(alpha, i) == lifted

    def test_monotone_in_alpha(self):
        for i in range(1, 9):
            prev = upper(0, i)
            for alpha in range(1, 500):
                cur = upper(alpha, i)
                assert cur >= prev
                prev = cur

    def test_additivity_when_last_index_above_one(self):
        # splitting the expansion after the first chunk adds the bounds
        for alpha in range(1, 400):
            for i in range(2, 7):
                exp = macaulay_expand(alpha, i)
                for cut in range(1, len(exp.terms)):
                    head = sum(binom(m, k) for m, k in exp.terms[:cut])
                    tail = alpha - head
                    j = exp.terms[cut][1]
                    if tail > 0:
                        assert upper(alpha, i) == upper(head, i) + upper(tail, j)

    def test_dominates_actual_growth_of_binomial_rows(self):
        # C(a+n-1, n) -> C(a+n, n+1) realizes the bound exactly
        for a in range(1, 8):
            for n in range(1, 8):
                assert upper(binom(a + n - 1, n), n) == binom(a + n, n + 1)
