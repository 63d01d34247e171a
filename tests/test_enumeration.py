"""Enumeration of positive characters and of admissible ACM curve
characters with (degree, genus) bookkeeping."""
import gc
import hashlib
import io
import json
import random
import time
from itertools import combinations, islice, product

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
    decompose,
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
from acmchar.enumeration import (
    _curve_rows,
    _positive_records,
    _split,
    _write_json,
)

from helpers import (
    layer_character,
    layer_lengths,
    layer_records,
    placed_positive_characters,
    walk_acm_curves,
)


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
        for args in [(0,), (-3,), (0, 1, 3), (-1, 2, -5)]:
            with pytest.raises(ValueError) as info:
                enumerate_positive_characters(*args)
            assert str(info.value) == "degree must be >= 1", args

    @pytest.mark.parametrize("args, bad", [
        ((True,), True), ((3, 1.5), 1.5), ((2, 1, 2.5), 2.5), ((5, 1, 2.5), 2.5),
        ((10.0,), 10.0), ((-1.5,), -1.5), ((0, True), True),
        ((3, 1, False), False),
    ], ids=repr)
    def test_refuses_non_integers(self, args, bad):
        with pytest.raises(TypeError) as info:
            enumerate_positive_characters(*args)
        assert str(info.value) == f"not an integer: {bad!r}"

    def test_partitions_match_raw_search(self):
        """The oracle's pruned recursion lists every partition of d into
        distinct positive parts <= high, as decreasing tuples in descending
        order."""
        for d in range(15):
            for high in range(-1, d + 2):
                every = [c[::-1] for k in range(d + 1)
                         for c in combinations(range(1, high + 1), k)
                         if sum(c) == d]
                got = list(layer_lengths(d, high))
                assert got == sorted(every, reverse=True), (d, high)

    def test_layer_lengths_are_the_peeled_h_vector(self):
        """The h-vector of each generated character peels into the type-1
        layers (1,) * l_i, l_i = n_i - i for its numerical character n
        (the positions of its positive values, with multiplicity, in
        descending order); with one layer it is that layer."""
        count = 0
        for d, records in zip(range(1, 25), _positive_records()):
            for v, _, sup, s0, _ in records:
                n = sorted((k for k, x in enumerate(v) if x > 0
                            for _ in range(x)), reverse=True)
                ls = [n_i - i for i, n_i in enumerate(n)]
                assert (len(ls), ls[0], sum(ls)) == (s0, sup, d), v
                h = h_from_gamma(IntFun(0, v))
                if s0 == 1:
                    assert h == IntFun(0, (1,) * d), v
                else:
                    assert decompose(h).parts == tuple(
                        IntFun(0, (1,) * l) for l in ls), v
                count += 1
        assert count == 761 == sum(len(layer_records(d)) for d in range(1, 25))

    def test_records_match_the_layer_oracle(self):
        """Built from lower degrees, each degree's records equal the sorted
        records read off the layer lengths, d <= 40 (and, capped by sup,
        d <= 24)."""
        for d, records in zip(range(1, 41), _positive_records()):
            assert records == layer_records(d), d
        for cap in range(1, 9):
            for d, records in zip(range(1, 25), _positive_records(cap)):
                assert records == layer_records(d, cap), (d, cap)

    def test_records_aimed_at_a_degree_match_the_layer_oracle(self):
        """Aimed at degree d, the records built for d are all of them, and
        each lower degree e keeps every record that some of them has as
        its last layers, and none whose next layer, longer than its sup,
        would overshoot d."""
        for d in range(1, 25):
            for cap in range(1, d + 1):
                *lower, records = islice(_positive_records(cap, d), d)
                assert records == layer_records(d, cap), (d, cap)
                grown = {ls[i:] for ls in layer_lengths(d, cap)
                         for i in range(1, len(ls))}
                for e, rows in enumerate(lower, 1):
                    assert {r[0] for r in rows} >= {
                        layer_character(ls) for ls in grown if sum(ls) == e}
                    assert all(r[2] < d - e for r in rows), (d, cap, e)

    @pytest.mark.parametrize("cap", [3, 8, 24])
    def test_aimed_at_a_staircase_only_staircases_are_kept(self, cap):
        """Aimed at d = cap (cap + 1) / 2, whose one character of sup <= cap
        is the staircase cap, ..., 1, each lower degree keeps at most the
        staircase s, ..., 1 of its own degree."""
        top = cap * (cap + 1) // 2
        for d, rows in zip(range(1, top + 1), _positive_records(cap, top)):
            assert [r[0] for r in rows] == [
                layer_character(range(s, 0, -1)) for s in range(1, cap + 1)
                if s * (s + 1) // 2 == d], d

    @pytest.mark.parametrize("cap", [20, 24])
    def test_cap_at_its_bound_is_instant(self, cap):
        """At d = cap (cap + 1) / 2 the staircase cap, ..., 1 is the one
        character: the lower degrees keep only what can reach d."""
        start = time.perf_counter()
        assert enumerate_positive_characters(cap * (cap + 1) // 2, max_sup=cap) == [
            IntFun(0, layer_character(range(cap, 0, -1)))]
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("d, cap", [(1000, 3), (10**12, 3), (10**11, -10**6)])
    def test_small_cap_at_a_large_degree_is_instant(self, d, cap):
        """Characters of sup <= cap have degree <= cap (cap + 1) / 2 (none
        at all for cap < 1): no degree past that is built."""
        start = time.perf_counter()
        assert enumerate_positive_characters(d, max_sup=cap) == []
        assert time.perf_counter() - start < 1

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

    def test_leaves_no_cyclic_garbage(self):
        """The walk builds no reference cycle, so its components and tail
        rows go as soon as the call returns, and each degree's rows as soon
        as the streamed output has written them."""
        gc.collect()
        gc.disable()
        try:
            table = enumerate_acm_curves(16)
            assert gc.collect() == 0
            for nondegenerate in (True, False):
                rows = sum(1 for _ in _curve_rows(16, nondegenerate))
                assert gc.collect() == 0
                assert rows == len(enumerate_acm_curves(16, nondegenerate).entries)
            _write_json(io.StringIO(), *_split(_curve_rows(16)))
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert table.entries

    def test_first_row_comes_before_the_rest_are_built(self):
        """Components and tail rows are built a degree at a time, never
        sized by the bound."""
        for nondegenerate in (True, False):
            start = time.perf_counter()
            first = next(_curve_rows(10_000, nondegenerate))
            assert time.perf_counter() - start < 1
            assert first == next(_curve_rows(4, nondegenerate))

    def test_component_table_reads_invariants_off_positions(self):
        table = []
        for d, records in zip(range(1, 41), _positive_records()):
            values = [c[0] for c in records]
            assert values == sorted(values)
            table += records
        assert len(table) == sum(len(layer_records(d)) for d in range(1, 41))
        for v, d_i, sup, s0, delta in table:
            g = IntFun(0, v)
            assert g.values == v
            assert (d_i, sup, s0, delta) == (
                g.degree(), g.sup(), char_s0(g), surface_invariants(g).delta), g


class TestDgFromComponents:
    def test_agrees_with_direct_invariants(self):
        for nondegenerate in (True, False):
            table = enumerate_acm_curves(20, nondegenerate)
            assert table.pairs() == [(e.d, e.g) for e in table.entries]
            for entry in table.entries:
                for w in entry.witnesses:
                    inv = dg_from_components(w)
                    assert (inv.d, inv.g) == (entry.d, entry.g)
                    assert inv == curve_invariants(w.recompose())


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

    @pytest.mark.parametrize("args, bad", [
        ((True, False), True), ((10.5,), 10.5), ((24.0,), 24.0),
        ((-2.5,), -2.5), ((1.0, False), 1.0),
    ], ids=repr)
    def test_refuses_non_integers(self, args, bad):
        with pytest.raises(TypeError) as info:
            enumerate_acm_curves(*args)
        assert str(info.value) == f"not an integer: {bad!r}"

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


class TestPartEncoding:
    @staticmethod
    def stream(beyond, listed):
        """The stream writer's text for two lists of (d, g, witnesses)
        rows of (first, tail) values tuples."""
        out = io.StringIO()
        _write_json(out, beyond, listed)
        return out.getvalue()

    @classmethod
    def written(cls, table):
        """The stream writer's text for the two parts of the table's
        split(), each witness fed as (first, tail) values tuples: every part
        of an enumerated table is canonical, from degree 0."""
        rows = lambda entries: [
            (e.d, e.g, [(w.parts[0].values, tuple(p.values for p in w.parts[1:]))
                        for w in e.witnesses]) for e in entries]
        listed, beyond = table.split()
        return cls.stream(rows(beyond), rows(listed))

    @staticmethod
    def dumped(table):
        return json.dumps(table.to_json(), sort_keys=True) + "\n"

    def test_part_string_is_json_dumps(self):
        """A canonical values tuple (nonzero at both ends) is written as
        json.dumps(IntFun(0, v).to_json(), sort_keys=True), first or in a
        tail."""
        for v in [(-1, 1), (-1, 0, 0, 1), (-1, -1, 2), (5,),
                  (10**30, -(10**40)), (-(10**20), 0, 3)]:
            f = IntFun(0, v)
            assert (f.offset, f.values) == (0, v)
            part = json.dumps(f.to_json(), sort_keys=True)
            assert self.stream([], [(4, 0, [(v, ()), (v, (v, v))])]) == (
                '{"beyond_paper": [], "pairs": [{"d": 4, "g": 0, "witnesses": '
                f'[[{part}], [{part}, {part}, {part}]]}}]}}\n'), v

    def test_write_json_with_large_values(self):
        big, neg = F(10**30, -(10**40)), F(-(10**20), 3, -3)
        table = DGTable((
            DGEntry(4, 0, (Codim3Decomposition((big, F(-1, 1))),
                           Codim3Decomposition((F(-1, 0, 1),)))),
            DGEntry(10, 21, (Codim3Decomposition((neg, big, F(-1, 1))),)),
            DGEntry(11, -7, (Codim3Decomposition((F(-1, -1, 2), neg)),)),
        ))
        listed, beyond = table.split()
        assert listed and beyond
        assert self.written(table) == self.dumped(table)

    def test_write_json_with_equal_distinct_parts(self):
        a, b = F(-1, 0, 1), F(-1, 0, 1)
        assert a.values == b.values and a.values is not b.values
        table = DGTable((DGEntry(5, 1, (Codim3Decomposition((a, b)),
                                        Codim3Decomposition((b, F(-1, 1), a)))),))
        assert self.written(table) == self.dumped(table)

    def test_write_json_with_shared_tails(self):
        """One tail object under several witnesses, and an equal tail that
        is another object beside it: each is written as its own parts."""
        a, b, c = (-1, 1), (-1, 0, 1), (-1, -1, 2)
        shared = (b, a)
        twin = tuple(list(shared))
        assert twin == shared and twin is not shared
        beyond = [(10, 21, [(c, twin), (a, shared)])]
        listed = [(5, 1, [(b, shared), (c, shared), (c, (c, a))]),
                  (6, 3, [(c, twin), (b, shared), (a, ())])]
        doc = lambda rows: [{"d": d, "g": g, "witnesses": [
            [IntFun(0, v).to_json() for v in (first, *tail)]
            for first, tail in wits]} for d, g, wits in rows]
        assert self.stream(beyond, listed) == json.dumps(
            {"beyond_paper": doc(beyond), "pairs": doc(listed)},
            sort_keys=True) + "\n"

    def test_write_json_of_empty_table(self):
        assert self.written(DGTable(())) == '{"beyond_paper": [], "pairs": []}\n'

    def test_write_json_of_entries_out_of_order(self):
        """The stream writer keeps split()'s parts whatever the order of
        the entries: (5, 99) is beyond the list even after a pair of
        degree 11."""
        dec = Codim3Decomposition((F(-1, -1, 2), F(-1, 1)))
        table = DGTable((DGEntry(11, 0, (dec,)), DGEntry(5, 99, (dec,))))
        assert json.loads(self.written(table))["beyond_paper"][0]["g"] == 99
        assert self.written(table) == self.dumped(table)

    def test_table_write_json_matches_the_stream(self):
        table = enumerate_acm_curves(13, nondegenerate=False)
        out = io.StringIO()
        table.write_json(out)
        assert out.getvalue() == self.written(table)

    @pytest.mark.parametrize("seed", range(5))
    def test_write_json_of_shuffled_tables(self, seed):
        entries = list(enumerate_acm_curves(13, nondegenerate=False).entries)
        random.Random(seed).shuffle(entries)
        table = DGTable(tuple(entries))
        assert self.written(table) == self.dumped(table)


class TestSplit:
    @pytest.mark.parametrize("nondegenerate", [True, False])
    @pytest.mark.parametrize("max_degree", [10, 11, 16])
    def test_reads_ahead_one_row_past_the_list(self, max_degree, nondegenerate):
        """_split pulls the rows up to the first of degree > 10 and no
        more, and gives the two parts of the table's split() in order."""
        pulled = []

        def counted():
            for row in _curve_rows(max_degree, nondegenerate):
                pulled.append(row)
                yield row

        beyond, listed = _split(counted())
        assert sum(row[0] > 10 for row in pulled) == (max_degree > 10)
        want_listed, want_beyond = enumerate_acm_curves(
            max_degree, nondegenerate).split()
        assert [(d, g) for d, g, _ in beyond] == [(e.d, e.g) for e in want_beyond]
        assert [(d, g) for d, g, _ in listed] == [(e.d, e.g) for e in want_listed]
        assert len(pulled) == len(want_listed) + len(want_beyond)


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
