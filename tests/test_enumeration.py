"""Enumeration of positive characters and of admissible ACM curve
characters with (degree, genus) bookkeeping."""
import hashlib
import io
import json
from itertools import combinations_with_replacement, product

import pytest

from acmchar import (
    Codim3Decomposition,
    DGEntry,
    DGTable,
    IntFun,
    REFERENCE_PAIRS_DEG10,
    char_s0,
    curve_invariants,
    dg_from_components,
    decompose_codim3,
    enumerate_acm_curves,
    enumerate_positive_characters,
    gamma_from_h,
    h_from_gamma,
    is_macaulay,
    is_positive_character,
    lex_oracle,
    surface_invariants,
)
from acmchar.cli import run
from acmchar.enumeration import _components, _part_json, _partitions

from helpers import placed_positive_characters, walk_acm_curves


def F(*vals):
    return IntFun(0, tuple(vals))


def brute_positive_characters(max_pos, max_entry):
    """Reference enumeration by raw search over bounded windows: the
    positive characters found there, bucketed by degree."""
    found = {}
    for vals in product(range(-1, max_entry + 1), repeat=max_pos + 1):
        g = IntFun(0, vals)
        if is_positive_character(g):
            found.setdefault(g.degree(), set()).add(g)
    return found


class TestPositiveCharacters:
    def test_degree_one(self):
        assert enumerate_positive_characters(1) == [F(-1, 1)]

    def test_degree_two(self):
        assert set(enumerate_positive_characters(2)) == {F(-1, 0, 1)}

    def test_degree_three(self):
        assert set(enumerate_positive_characters(3)) == {
            F(-1, 0, 0, 1), F(-1, -1, 2)}

    def test_matches_raw_search(self):
        by_degree = brute_positive_characters(7, 3)
        for d in range(1, 8):
            expect = by_degree.get(d, set())
            got = set(enumerate_positive_characters(d))
            assert got == expect, d

    def test_all_outputs_are_positive_characters(self):
        for d in range(1, 11):
            for g in enumerate_positive_characters(d):
                assert is_positive_character(g)
                assert g.degree() == d

    def test_min_s0_and_sup_filters(self):
        for g in enumerate_positive_characters(6, min_s0=2):
            assert char_s0(g) >= 2
        for g in enumerate_positive_characters(6, max_sup=3):
            assert g.sup() <= 3

    def test_support_bound_keeps_a_prefix(self):
        """Sorted by window length, the characters with support <= cap
        come first, in the same order as without the bound."""
        for d in range(1, 17):
            every = enumerate_positive_characters(d)
            for cap in range(1, d + 1):
                assert enumerate_positive_characters(d, max_sup=cap) == [
                    g for g in every if g.sup() <= cap], (d, cap)

    def test_rejects_degree_below_one(self):
        with pytest.raises(ValueError):
            enumerate_positive_characters(0)

    def test_partitions_match_raw_search(self):
        """The pruned generator lists every non-increasing tuple with
        entries in [low, high] and the given sum, in descending order."""
        for total, parts, low in product(range(13), range(5), range(4)):
            for high in range(low - 1, total + 2):
                every = [c[::-1] for c in combinations_with_replacement(
                    range(low, high + 1), parts) if sum(c) == total]
                got = list(_partitions(total, parts, low, high))
                assert got == sorted(every, reverse=True), (total, parts, low, high)

    def test_matches_unit_placements(self):
        """Every min_s0 and max_sup, against a raw placement of units."""
        for d in range(1, 13):
            placed = placed_positive_characters(d)
            for min_s0, max_sup in product(range(-1, 6), [None, *range(-1, d + 2)]):
                want = sorted((g for s0, g in placed if s0 >= min_s0
                               and (max_sup is None or g.sup() <= max_sup)),
                              key=lambda g: (len(g.values), g.values))
                got = enumerate_positive_characters(d, min_s0, max_sup)
                assert got == want, (d, min_s0, max_sup)

    def test_deterministic_order(self):
        a = enumerate_positive_characters(7)
        b = enumerate_positive_characters(7)
        assert a == b


class TestWalk:
    @pytest.mark.parametrize("nondegenerate", [True, False])
    def test_matches_recursive_walk(self, nondegenerate):
        """Entries and the order of each pair's witnesses equal those of the
        recursive walk that sorts its witnesses."""
        for max_degree in range(4 if nondegenerate else 1, 25):
            got = enumerate_acm_curves(max_degree, nondegenerate)
            assert got == walk_acm_curves(max_degree, nondegenerate), max_degree

    def test_component_table_reads_invariants_off_positions(self):
        table = _components(40)
        assert len(table) == sum(len(enumerate_positive_characters(d))
                                 for d in range(1, 41))
        for g, d_i, sup, s0, delta in table:
            assert (d_i, sup, s0, delta) == (
                g.degree(), g.sup(), char_s0(g), surface_invariants(g).delta), g
        values = [c[0].values for c in table]
        assert values == sorted(values)


class TestDgFromComponents:
    def test_agrees_with_direct_invariants(self):
        table = enumerate_acm_curves(10)
        for entry in table.entries:
            for w in entry.witnesses:
                inv = dg_from_components(w)
                assert (inv.d, inv.g) == (entry.d, entry.g)
                direct = curve_invariants(w.recompose())
                assert inv == direct


class TestCurveTable:
    def test_degree_four(self):
        table = enumerate_acm_curves(4)
        assert table.pairs() == [(4, 0)]

    def test_degree_five(self):
        table = enumerate_acm_curves(5)
        assert set(table.pairs()) == {(4, 0), (5, 1)}

    def test_degree_ten_covers_reference(self):
        table = enumerate_acm_curves(10)
        listed, beyond = table.split()
        assert {(e.d, e.g) for e in listed} == REFERENCE_PAIRS_DEG10
        assert [(e.d, e.g) for e in beyond] == [(10, 21)]

    def test_every_witness_is_valid(self):
        table = enumerate_acm_curves(10)
        for entry in table.entries:
            for w in entry.witnesses:
                w.validate()
                gamma = w.recompose()
                h = h_from_gamma(gamma)
                assert is_macaulay(h)
                assert lex_oracle(h)
                # and the canonical decomposition returns this witness
                assert decompose_codim3(gamma).parts == w.parts

    def test_nondegenerate_requires_two_components(self):
        table = enumerate_acm_curves(8)
        for entry in table.entries:
            for w in entry.witnesses:
                assert w.r >= 1

    def test_degenerate_mode_adds_plane_curves(self):
        table = enumerate_acm_curves(4, nondegenerate=False)
        pairs = set(table.pairs())
        assert (3, 1) in pairs  # plane cubic
        assert (1, 0) in pairs and (2, 0) in pairs

    def test_rejects_bound_below_minimum(self):
        with pytest.raises(ValueError):
            enumerate_acm_curves(3)
        with pytest.raises(ValueError):
            enumerate_acm_curves(0, nondegenerate=False)

    def test_one_witness_per_character(self):
        table = enumerate_acm_curves(10)
        seen = set()
        for entry in table.entries:
            for w in entry.witnesses:
                gamma = w.recompose()
                assert gamma not in seen
                seen.add(gamma)

    def test_deterministic_json(self):
        a = json.dumps(enumerate_acm_curves(9).to_json(), sort_keys=True)
        b = json.dumps(enumerate_acm_curves(9).to_json(), sort_keys=True)
        assert a == b

    def test_json_schema_keys(self):
        doc = enumerate_acm_curves(5).to_json()
        assert set(doc) == {"pairs", "beyond_paper"}
        for block in doc.values():
            for item in block:
                assert set(item) == {"d", "g", "witnesses"}
                for wit in item["witnesses"]:
                    for fn in wit:
                        IntFun.from_json(fn)

    def test_pairs_sorted(self):
        table = enumerate_acm_curves(10)
        assert table.pairs() == sorted(table.pairs())


def F_at(offset, *vals):
    return IntFun(offset, tuple(vals))


class TestPartEncoding:
    PARTS = [IntFun(), F(-1, 1), F_at(-3, -2, 0, 7), F_at(5, 1), F_at(-1, -4),
             F(10**30, -(10**40)), F_at(-(10**20), 3, -3), F_at(10**25, -1)]

    def test_part_string_is_json_dumps(self):
        for p in self.PARTS:
            assert _part_json(p) == json.dumps(p.to_json(), sort_keys=True), p

    @staticmethod
    def written(table):
        out = io.StringIO()
        table.write_json(out)
        return out.getvalue()

    def test_write_json_with_offsets(self):
        parts = self.PARTS
        table = DGTable((
            DGEntry(4, 0, (Codim3Decomposition((parts[2], parts[3])),
                           Codim3Decomposition((parts[5],)))),
            DGEntry(10, 21, (Codim3Decomposition((parts[0], parts[6], parts[2])),)),
            DGEntry(11, -7, (Codim3Decomposition((parts[4], parts[7])),)),
        ))
        listed, beyond = table.split()
        assert listed and beyond
        assert self.written(table) == json.dumps(table.to_json(), sort_keys=True) + "\n"

    def test_write_json_with_equal_distinct_parts(self):
        a, b = F_at(2, 1, -1), F_at(2, 1, -1)
        assert a == b and a is not b
        table = DGTable((DGEntry(5, 1, (Codim3Decomposition((a, b)),
                                        Codim3Decomposition((b, F(-1, 1), a)))),))
        assert self.written(table) == json.dumps(table.to_json(), sort_keys=True) + "\n"

    def test_write_json_of_empty_table(self):
        assert self.written(DGTable(())) == '{"beyond_paper": [], "pairs": []}\n'


# sha256 of json.dumps(enumerate_acm_curves(D).to_json(), sort_keys=True)
GOLDEN_JSON = {
    4: "7aaa0b755749daabff2d6256c866aca4d54f33f2cbad7b86f29daa0bd069b009",
    5: "617db87edea78faaef38f484089ff259f377b0bb55fa269f93165cbbbba7eeb8",
    6: "3bcdb0c52ae3515a4700d05067ed89e985de6215e531eb4c5ec5a7c8a094d729",
    7: "8557a6d235f70679cc88c364f90c1c55fd79742f8f2352d7fad7058ba6ac9967",
    8: "4a9ef0bd52b250687abf7f2bd40331c08fa407751c87d2a6c56819a168f47291",
    9: "9874a9241cace831ac8dc0101a55aa262e579546f84d0a36a0fea355bfb494cf",
    10: "b0c85147523b31d951e72980e9fa607718a763b99d0d3abbe3b106fff0e46d2b",
    11: "cc9fac08b967201da823ecedea8604a5666457111d740bbed6339b37d332b1fc",
    12: "104693348ff100ae79752cbbe49ea0c4504cb4a80870e9d6b140dc78038d4ed8",
    13: "4b1776756d76367824afa87803046f390da2cc99dbfae3878c68276d62af00fa",
    14: "a60e5d392e4bc9f871cd7f36cfc0df6bc8d42e936b30d31cc50ef29433815347",
    15: "ce50ad393fce6422b7d5011d35af2b14af34d2a869d4d6b6f7466baa7a4cb0dc",
    16: "79ffbb259924952072c394c2267e823f462c268691960af98ad7e54f9f82d472",
}

# sha256 of the stdout of ``enumerate --max-degree D --verbose --degenerate``
GOLDEN_VERBOSE_DEGENERATE = {
    4: "b2c7c79c0903b83f9e26d5dd0c2b2a01ef6950d6c23e4db276033025716d14fe",
    5: "b68fb726d5dcd7ee5efd6749fe61ddb753455d783ac55ead2528262ccda4cf51",
    6: "424a723c7d27cf21fa0b83d77bfddbb34a20a59dbfab4fccffe57aa9190b7ab3",
    7: "66b36ace65c850af31c5ee5497f4990899bf113d30736139947715313c3e406b",
    8: "abacff8a20cd16d78f75fbfa44b0d71c199b10ef5ef86decc0c1115779e8e38c",
    9: "33284aa7f10082d7fc55aeb9a2007c19daa49a6543c6e1f8ad2aa8744aeaf6c2",
    10: "12ecb59852a6c0d7beb3b71466254e91e7b01d294499bd2429538f336b35671d",
}


class TestGoldenOutput:
    """The enumerator's output is fixed byte for byte: a faster enumerator
    must reproduce these digests exactly."""

    @pytest.mark.parametrize("max_degree", sorted(GOLDEN_JSON))
    def test_json_digest(self, max_degree):
        text = json.dumps(enumerate_acm_curves(max_degree).to_json(),
                          sort_keys=True)
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == GOLDEN_JSON[max_degree]

    @pytest.mark.parametrize("max_degree", sorted(GOLDEN_VERBOSE_DEGENERATE))
    def test_verbose_degenerate_digest(self, capsys, max_degree):
        code = run(["enumerate", "--max-degree", str(max_degree),
                    "--verbose", "--degenerate"])
        assert code == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == GOLDEN_VERBOSE_DEGENERATE[max_degree]


class TestCrossChecks:
    def test_every_positive_char_gives_type_le_two_h(self):
        for d in range(1, 11):
            for g in enumerate_positive_characters(d):
                h = h_from_gamma(g)
                assert is_macaulay(h)
                assert h(1) <= 2
