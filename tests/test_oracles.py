"""The library's single decomposition route against the independent
routes kept here as oracles: the direct greedy peel of a character and
the direct quadric split-point search."""
from functools import lru_cache

from acmchar import (
    Codim3Decomposition,
    check_necessary,
    decompose_codim3,
    enumerate_acm_curves,
    quadric_check,
)

from helpers import greedy_parts, quadric_search, small_characters


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


def test_quadric_search_matches_quadric_check():
    quadrics = [g for g in _universe() if check_necessary(g, 3).s0 == 2]
    assert len(quadrics) > 1000
    assert any(not quadric_search(g)[0] for g in quadrics)
    for gamma in quadrics:
        q = quadric_check(gamma)
        assert (q.valid, q.t, q.s) == quadric_search(gamma), gamma

