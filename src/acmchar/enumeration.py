"""Exhaustive generation of positive characters and of admissible
codimension-3 ACM curve characters up to a degree bound, with
(degree, genus) bookkeeping.
"""
from __future__ import annotations

import json
from itertools import chain, count, groupby, islice

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


def _positive_records(cap: int | None = None, reach: int = 0):
    """Yield, for d = 1, 2, ... (up to 1 + ... + cap, the last with any),
    the records (values, d, sup, s0, delta), in values order, of the
    positive characters of degree d with sup <= cap (if d < reach, of those
    that can grow to degree reach).  The h-vector of one peels into type-1
    layers of lengths l_0 > ... > l_{s0-1}, layer i from degree i on: gamma
    is -1 at each i and +1 at each i + l_i (its numerical character), and
    sup = l_0.  Less its first layer, it is one of degree e = d - l_0 and
    sup < l_0 (the empty one if e = 0) a degree up, which adds 2e to delta."""
    table = [[((), 0, -1, 0, 0)]]  # table[e]: the records of degree e
    for d in count(1) if cap is None else range(1, max(cap, 0) * (cap + 1) // 2 + 1):
        rows = []
        for l0 in range(d if cap is None else min(d, cap), 0, -1):
            if l0 * (l0 + 1) // 2 < d:
                break  # distinct parts <= l0 sum to at most l0 (l0 + 1) / 2
            if d < reach and not l0 < reach - d <= (cap - l0) * (cap + l0 + 1) // 2:
                continue  # no distinct parts in (l0, cap] sum to reach - d
            e = d - l0
            for v, _, sup, s0, delta in table[e]:
                if sup < l0:
                    rows.append(((-1, *v[:-1], v[-1] + 1) if sup == l0 - 1
                                 else (-1, *v, *(0,) * (l0 - sup - 2), 1),
                                 d, l0, s0 + 1, delta + l0 * (l0 - 4) + 2 * e))
        rows.sort()  # the values are distinct, so they alone decide
        table.append(rows)
        yield rows


def enumerate_positive_characters(d: int, min_s0: int = 1,
                                  max_sup: int | None = None) -> list[IntFun]:
    """All positive characters of degree d with s0 >= min_s0 and support
    bounded by max_sup, sorted by (len(values), values)."""
    high = d if max_sup is None else max_sup
    _require_ints(d, min_s0, high)
    if d < 1:
        raise ValueError("degree must be >= 1")
    found = [r[0] for r in next(islice(_positive_records(high, d), d - 1, None), ())
             if r[3] >= min_s0]
    return [IntFun(0, v) for v in sorted(found, key=lambda v: (len(v), v))]


def dg_from_components(dec: Codim3Decomposition) -> CurveInvariants:
    """Degree and genus of the curve from its surface components:
    d = sum d_i and 2g - 2 = sum (delta_i + (2i+1) d_i).

    Each summand is even: delta_i = sum (k^2 - 4k) gamma_i(k) has the
    parity of d_i = sum k gamma_i(k), because k^2 - 4k = k (mod 2)."""
    inv = [surface_invariants(p) for p in dec.parts]
    twice = sum(si.delta + (2 * i + 1) * si.d for i, si in enumerate(inv))
    return CurveInvariants(sum(si.d for si in inv), twice // 2 + 1)


def _by_id(make):
    """make(x) once per object x, keyed by id(x): _curve_rows keeps all it
    yields until it is done, so no id is reused while its rows are read."""
    memo = {}
    return lambda x: memo.get(id(x)) or memo.setdefault(id(x), make(x))


def _witness_text(witness) -> str:
    """A (first, tail) witness, each part as str(IntFun(0, values))."""
    return " ".join(f"({','.join(map(str, v))})" for v in (witness[0], *witness[1]))


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
    sort_keys=True) and a newline for a split's two parts of (d, g, [(first,
    tail), ...]) rows, each component's and tail's text made once."""
    part = _by_id(lambda v: '{"offset": 0, "values": ' + repr(list(v)) + "}")
    tail = _by_id(lambda t: "".join([", " + part(v) for v in t]))
    for head, part_rows in (('{"beyond_paper": [', beyond),
                            ('], "pairs": [', listed)):
        out.write(head)
        for n, (d, g, witnesses) in enumerate(part_rows):
            wits = ", ".join([f"[{part(v)}{tail(t)}]" for v, t in witnesses])
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
    order, a degree at a time, each witness (first values, tuple of the rest).

    A witness of degree d is a first component gamma_0 of degree d_0 and a
    tail of degree e = d - d_0 whose first part has sup <= s0(gamma_0) - 1.
    tails[k][e] lists, in values order, (tail, share) for the tails of
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
    for d, records in zip(range(1, max_degree + 1), _positive_records()):
        firsts = sorted(firsts + records)
        k = len(tails)
        if (k + 1) * (k + 2) // 2 == d:  # the first d with a tail row for cap k
            followers.append([c for c in firsts if c[2] <= k])  # all of degree < d
            tails.append([])
        for k, rows in enumerate(tails):
            e, row = len(rows), [] if rows else [((), 0)]
            for v, d_i, _, s0, delta in followers[k]:
                if d_i <= e:  # v at position 1 adds delta + 3 d_i, and
                    # the rest, one position later than in its row, 2 (e - d_i)
                    share = delta + d_i + 2 * e
                    row += [((v, *tail), share + t)
                            for tail, t in tails[s0 - 1][e - d_i]]
            rows.append(row)
        groups: dict[tuple[int, int], list] = {}
        for v, d_i, _, s0, delta in firsts:
            if d_i == d and nondegenerate:
                continue
            base = delta + d_i
            for tail, t in tails[s0 - 1][d - d_i]:
                groups.setdefault((base + t, len(tail)), []).append((v, tail))
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
    first = _by_id(lambda v: (IntFun(0, v),))  # (f,) + parts: one concatenation
    parts = _by_id(lambda t: tuple(first(v)[0] for v in t))
    return DGTable(tuple(
        DGEntry(d, g, tuple(Codim3Decomposition(first(v) + parts(t))
                            for v, t in wits))
        for d, g, wits in _curve_rows(max_degree, nondegenerate)))
