"""The library's single routes against the independent routes kept here
as oracles: the direct greedy peel of a character, the direct quadric
split-point search, the growth-recursion generator of h-vectors and the
explicit type-0/1/2 shape rules."""
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
    quadric_check,
    type12_shape,
)

from helpers import (
    greedy_parts,
    macaulay_functions,
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


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_shape_rules_match_type12_shape(offset):
    for length in range(1, 7):
        for vals in product(range(-1, 4), repeat=length):
            h = IntFun(offset, vals)
            assert type12_shape(h) == type12_shape_rules(h), h


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
