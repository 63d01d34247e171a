"""The library's single routes against the independent routes kept here
as oracles: the direct greedy peel of a character, the direct quadric
split-point search, the growth-recursion generator of h-vectors, the
explicit type-0/1/2 shape rules, the direct positivity rule and the
exponent vectors of the lex tables."""
from functools import lru_cache
from itertools import product

import pytest

from acmchar import (
    Codim3Decomposition,
    IntFun,
    check_necessary,
    curve_invariants,
    decompose_codim3,
    enumerate_acm_curves,
    gamma_from_h,
    is_positive_character,
    quadric_check,
    type12_shape,
)
from acmchar.growth import _monomials

from helpers import (
    greedy_parts,
    macaulay_functions,
    positive_rules,
    quadric_search,
    small_characters,
    type12_shape_rules,
)


@lru_cache(maxsize=None)
def _universe():
    """Every character witnessed by enumerate_acm_curves(24), then every
    codim-3 character among small_characters(7, 2)."""
    chars = {w.recompose()
             for e in enumerate_acm_curves(24).entries for w in e.witnesses}
    chars.update(g for g in small_characters(7, 2) if check_necessary(g, 3))
    return tuple(sorted(chars, key=lambda g: (g.offset, g.values)))


@lru_cache(maxsize=None)
def _decompositions():
    """(gamma, decompose_codim3(gamma)) for each decomposable gamma."""
    out = []
    for gamma in _universe():
        try:
            out.append((gamma, decompose_codim3(gamma)))
        except ValueError:
            pass
    return tuple(out)


def test_universe_is_not_trivial():
    decs = _decompositions()
    assert len(decs) > 2322
    assert any(dec.r == 0 for _, dec in decs)
    assert max(dec.r for _, dec in decs) >= 3


def test_greedy_peel_matches_decompose_codim3():
    for gamma, dec in _decompositions():
        assert greedy_parts(gamma) == dec.parts, gamma


def test_every_decomposition_validates():
    for gamma, dec in _decompositions():
        assert type(dec) is Codim3Decomposition
        dec.validate()
        assert dec.recompose() == gamma


def test_decomposition_s0_is_the_character_s0():
    for gamma, dec in _decompositions():
        assert dec.s0 == check_necessary(gamma, 3).s0, gamma


def test_quadric_search_matches_quadric_check():
    quadrics = [g for g in _universe() if check_necessary(g, 3).s0 == 2]
    assert len(quadrics) > 1000
    assert any(not quadric_search(g)[0] for g in quadrics)
    for gamma in quadrics:
        q = quadric_check(gamma)
        assert (q.valid, q.t, q.s) == quadric_search(gamma), gamma


def _small_functions(offset):
    """Every window of length <= 6 with values in -1..3 starting at the
    offset: 19,530 functions."""
    for length in range(1, 7):
        for vals in product(range(-1, 4), repeat=length):
            yield IntFun(offset, vals)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_shape_rules_match_type12_shape(offset):
    for h in _small_functions(offset):
        assert type12_shape(h) == type12_shape_rules(h), h


def test_positive_rules_match_is_positive_character():
    positive = 0
    for offset in (-1, 0, 1):
        for gamma in _small_functions(offset):
            ok = is_positive_character(gamma)
            assert ok == positive_rules(gamma), gamma
            positive += ok
    assert positive > 50


@pytest.mark.parametrize("codim", [1, 2, 3, 4])
def test_s0_is_at_most_one_past_the_support(codim):
    """Why check_necessary needs no stop in its s0 scan: a nonzero
    character vanishing in negative degrees has its s0 by sup + 1."""
    checked = 0
    for offset in (-1, 0, 1):
        for gamma in _small_functions(offset):
            if (gamma.is_character() and not gamma.is_zero()
                    and gamma.inf() >= 0):
                assert check_necessary(gamma, codim).s0 <= gamma.sup() + 1
                checked += 1
    assert checked > 1000


def _exponents(a, monomial):
    return tuple(monomial.count(v) for v in range(a))


def test_monomials_are_descending_lex():
    for a in range(5):
        for n in range(7):
            exps = [_exponents(a, m) for m in _monomials(a, n)]
            every = [e for e in product(range(n + 1), repeat=a) if sum(e) == n]
            assert sorted(exps) == sorted(every), (a, n)
            assert all(x > y for x, y in zip(exps, exps[1:])), (a, n)


@pytest.mark.parametrize("max_degree, nondegenerate, types, count", [
    (20, True, (3,), 820),
    (16, False, (0, 1, 2, 3), 424),
])
def test_witnesses_are_the_macaulay_characters(max_degree, nondegenerate,
                                               types, count):
    """Each character has one witness, with the (d, g) of its entry, and
    the witnessed characters are exactly those of the Macaulay h-vectors
    of the given types and mass <= max_degree."""
    seen = set()
    table = enumerate_acm_curves(max_degree, nondegenerate=nondegenerate)
    for entry in table.entries:
        for w in entry.witnesses:
            gamma = w.recompose()
            assert gamma not in seen, w
            seen.add(gamma)
            inv = curve_invariants(gamma)
            assert (inv.d, inv.g) == (entry.d, entry.g), w
    expect = {gamma_from_h(h)
              for a in types for h in macaulay_functions(a, max_degree)}
    assert len(expect) == count
    assert seen == expect
