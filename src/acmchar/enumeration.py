"""Exhaustive generation of positive characters and of admissible
codimension-3 ACM curve characters up to a degree bound, with
(degree, genus) bookkeeping.
"""
from __future__ import annotations

import json
from itertools import chain, groupby

from .characters import CurveInvariants, surface_invariants
from .codim3 import Codim3Decomposition
from .intfun import IntFun, _Frozen, _require_ints

# (degree, genus) pairs classically listed for nondegenerate ACM curves of
# degree <= 10; the enumerator reports anything extra separately.
REFERENCE_PAIRS_DEG10 = frozenset({
    (4, 0), (5, 1), (6, 2), (6, 3), (7, 3), (7, 4), (7, 6),
    (8, 4), (8, 5), (8, 6), (8, 7), (8, 10),
    (9, 5), (9, 6), (9, 7), (9, 8), (9, 9), (9, 11), (9, 15),
    (10, 6), (10, 7), (10, 8), (10, 9), (10, 10), (10, 12), (10, 13), (10, 16),
})
REFERENCE_MAX_DEGREE = 10


def _layer_lengths(d: int, high: int):
    """Strictly decreasing tuples of positive parts <= high summing to d,
    in descending order.  The h-vector of a positive character peels into
    type-1 layers (1, ..., 1) of lengths l_0 > l_1 > ... > l_{s0-1} (layer
    i from degree i on), so gamma has -1 at each i and +1 at each i + l_i:
    these positions are its numerical character, and sup = l_0."""
    if d == 0:
        yield ()
    for first in range(min(d, high), 0, -1):
        if first * (first + 1) // 2 < d:
            return  # distinct parts <= first sum to at most first (first + 1) / 2
        for rest in _layer_lengths(d - first, first - 1):
            yield (first, *rest)


def _character(lengths: tuple[int, ...]) -> IntFun:
    """The positive character whose h-vector has these layer lengths."""
    vals = [0] * (lengths[0] + 1)
    for i, l in enumerate(lengths):
        vals[i] -= 1
        vals[i + l] += 1
    return IntFun(0, tuple(vals))


def _degree_components(d: int) -> list[tuple[IntFun, int, int, int, int]]:
    """(gamma, d, sup, s0, delta) per positive character of degree d, in
    values order, read off its layer lengths l: sup = l_0, s0 = len(l) and
    delta = sum_i l_i (l_i + 2i - 4), the sum of (i + l_i)^2 - 4 (i + l_i)
    - (i^2 - 4i)."""
    return sorted(((_character(ls), d, ls[0], len(ls),
                    sum(l * (l + 2 * i - 4) for i, l in enumerate(ls)))
                   for ls in _layer_lengths(d, d)), key=lambda c: c[0].values)


def enumerate_positive_characters(d: int, min_s0: int = 1,
                                  max_sup: int | None = None) -> list[IntFun]:
    """All positive characters of degree d with s0 >= min_s0 and support
    bounded by max_sup, sorted by (len(values), values)."""
    high = d if max_sup is None else max_sup
    _require_ints(d, min_s0, high)
    if d < 1:
        raise ValueError("degree must be >= 1")
    return sorted((_character(ls) for ls in _layer_lengths(d, high)
                   if len(ls) >= min_s0),
                  key=lambda g: (len(g.values), g.values))


def dg_from_components(dec: Codim3Decomposition) -> CurveInvariants:
    """Degree and genus of the curve from its surface components:
    d = sum d_i and 2g - 2 = sum (delta_i + (2i+1) d_i).

    Each summand is even: delta_i = sum (k^2 - 4k) gamma_i(k) has the
    parity of d_i = sum k gamma_i(k), because k^2 - 4k = k (mod 2)."""
    inv = [surface_invariants(p) for p in dec.parts]
    twice = sum(si.delta + (2 * i + 1) * si.d for i, si in enumerate(inv))
    return CurveInvariants(sum(si.d for si in inv), twice // 2 + 1)


def _part_json(p: IntFun) -> str:
    """json.dumps(p.to_json(), sort_keys=True): json writes ints as str()."""
    return f'{{"offset": {p.offset}, "values": [{", ".join(map(str, p.values))}]}}'


def _beyond(d: int, g: int) -> bool:
    """Whether (d, g) is missing from the reference list for its degree."""
    return d <= REFERENCE_MAX_DEGREE and (d, g) not in REFERENCE_PAIRS_DEG10


def _split(rows):
    """(beyond, listed) for (d, g, ...) rows in (d, g) order: the list of
    rows whose pair is missing from the reference list, and an iterator
    over the rest in order.  Only the rows up to the first of degree >
    REFERENCE_MAX_DEGREE are read ahead; the rest pass as they come."""
    held, later = [], iter(rows)
    for row in later:
        held.append(row)
        if row[0] > REFERENCE_MAX_DEGREE:
            break
    beyond = [row for row in held if _beyond(row[0], row[1])]
    return beyond, chain((row for row in held if not _beyond(row[0], row[1])),
                         later)


def _write_json(out, beyond, listed) -> None:
    """Write json.dumps({"beyond_paper": [...], "pairs": [...]},
    sort_keys=True) and a newline for the two parts of a split, as
    (d, g, witnesses) rows, each witness a tuple of parts."""
    # keyed by id(p): an int key skips the field-tuple __hash__ an IntFun
    # key runs per lookup.  No id is reused while parts are still looked up:
    # _curve_rows keeps every component it has built until it is exhausted
    memo: dict[int, str] = {}
    part = lambda p: memo.get(id(p)) or memo.setdefault(id(p), _part_json(p))
    for head, part_rows in (('{"beyond_paper": [', beyond),
                            ('], "pairs": [', listed)):
        out.write(head)
        for n, (d, g, witnesses) in enumerate(part_rows):
            wits = ", ".join(f"[{', '.join(map(part, w))}]" for w in witnesses)
            out.write(f'{", " if n else ""}{{"d": {d}, "g": {g}, '
                      f'"witnesses": [{wits}]}}')
    out.write("]}\n")


class DGEntry(_Frozen):
    __slots__ = ("d", "g", "witnesses")

    def __init__(self, d: int, g: int,
                 witnesses: tuple[Codim3Decomposition, ...]):
        _require_ints(d, g)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "witnesses", witnesses)


class DGTable(_Frozen):
    __slots__ = ("entries",)

    def __init__(self, entries: tuple[DGEntry, ...]):
        object.__setattr__(self, "entries", entries)

    def pairs(self) -> list[tuple[int, int]]:
        return [(e.d, e.g) for e in self.entries]

    def split(self):
        """Partition entries into (listed, beyond): an entry is 'beyond'
        when its degree is covered by the reference list but its pair is
        missing from it."""
        listed, beyond = [], []
        for e in self.entries:
            (beyond if _beyond(e.d, e.g) else listed).append(e)
        return listed, beyond

    def to_json(self) -> dict:
        listed, beyond = self.split()
        dump = lambda entries: [{"d": e.d, "g": e.g, "witnesses": [
            [p.to_json() for p in w.parts] for w in e.witnesses]} for e in entries]
        return {"pairs": dump(listed), "beyond_paper": dump(beyond)}

    def write_json(self, out) -> None:
        """Write json.dumps(self.to_json(), sort_keys=True) and a newline."""
        out.write(json.dumps(self.to_json(), sort_keys=True) + "\n")


def _curve_rows(max_degree: int, nondegenerate: bool = True):
    """Yield the (d, g, witnesses) of ``enumerate_acm_curves`` in (d, g)
    order, a degree at a time, each witness a tuple of parts.

    A witness of degree d is a first component gamma_0 of degree d_0 and a
    tail of degree e = d - d_0 whose first part has sup <= s0(gamma_0) - 1.
    tails[k][e] lists, in values order, (parts, share) for the tails of
    degree e with first sup <= k, share being what they add to 2g - 2 from
    position 1 on.  Cap k is asked for only with e <= d - (k + 1)(k + 2)/2,
    as d_0 >= s0 (s0 + 1) / 2, so each degree adds one row per cap.  With
    first components in values order too, grouping by (2g - 2, number of
    parts) puts each pair's witnesses in order."""
    _require_ints(max_degree)
    if max_degree < (4 if nondegenerate else 1):
        raise ValueError("degree bound below the minimal curve degree")
    firsts = []  # every component of degree <= d, in values order
    followers = []  # followers[k]: the components with sup <= k
    tails = []
    for d in range(1, max_degree + 1):
        firsts = sorted(firsts + _degree_components(d), key=lambda c: c[0].values)
        k = len(tails)
        if (k + 1) * (k + 2) // 2 == d:  # the first d with a tail row for cap k
            followers.append([c for c in firsts if c[2] <= k])  # all of degree < d
            tails.append([])
        for k, rows in enumerate(tails):
            e, row = len(rows), [] if rows else [((), 0)]
            for g, d_i, _, s0, delta in followers[k]:
                if d_i <= e:  # g at position 1 adds delta + 3 d_i, and
                    # the rest, one position later than in its row, 2 (e - d_i)
                    share = delta + d_i + 2 * e
                    row += [((g, *parts), share + t)
                            for parts, t in tails[s0 - 1][e - d_i]]
            rows.append(row)
        groups: dict[tuple[int, int], list] = {}
        for g, d_i, _, s0, delta in firsts:
            if d_i == d and nondegenerate:
                continue
            base = delta + d_i
            for parts, t in tails[s0 - 1][d - d_i]:
                groups.setdefault((base + t, len(parts)), []).append((g, *parts))
        for twice, keys in groupby(sorted(groups), key=lambda key: key[0]):
            yield d, twice // 2 + 1, [w for key in keys for w in groups.pop(key)]


def enumerate_acm_curves(max_degree: int, nondegenerate: bool = True) -> DGTable:
    """All (degree, genus) pairs of codim-3 ACM curve characters of degree
    <= max_degree, with witnessing decompositions.

    Each character recomposes from exactly one chain (gamma_0, ..., gamma_r)
    of positive characters, each with support below the s0 >= 2 of the one
    before, and d and 2g - 2 sum over the components as in
    ``dg_from_components``.  Nondegenerate curves have r >= 1;
    ``nondegenerate=False`` adds the single-component (hyperplane) case.
    """
    return DGTable(tuple(
        DGEntry(d, g, tuple(map(Codim3Decomposition, wits)))
        for d, g, wits in _curve_rows(max_degree, nondegenerate)))
