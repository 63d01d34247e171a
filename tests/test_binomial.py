"""Binomial coefficients, greedy binomial expansions and the growth
operator."""
import math

import pytest
from hypothesis import given, strategies as st

from acmchar import MacaulayExpansion, binom, macaulay_expand, upper


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

    def test_pascal_rule_with_degenerate_column(self):
        for n in range(0, 20):
            for p in range(0, n + 1):
                assert binom(n, p) == binom(n - 1, p) + binom(n - 1, p - 1)


class TestExpansion:
    def test_known_expansion(self):
        exp = macaulay_expand(25, 3)
        assert exp.terms == ((6, 3), (3, 2), (2, 1))
        assert str(exp) == "C(6,3) + C(3,2) + C(2,1)"

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

    @pytest.mark.parametrize("terms", [
        ((6.9, 3), (3.5, 2), (2, True)),
        ((6, 3), (3, 2), (2, True)),
        (("6", 3),),
    ])
    def test_non_integer_terms_rejected(self, terms):
        with pytest.raises(TypeError, match="not an integer"):
            MacaulayExpansion(terms)


class TestUpper:
    def test_zero_maps_to_zero(self):
        assert upper(0, 3) == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            upper(-1, 2)

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
