"""Exhaustive generation of positive characters and of admissible
codimension-3 ACM curve characters up to a degree bound, with
(degree, genus) bookkeeping.
"""
from __future__ import annotations

from .characters import CurveInvariants, surface_invariants
from .codim3 import Codim3Decomposition
from .intfun import IntFun, _Frozen, _quote

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


def _components(max_degree: int) -> list[tuple[IntFun, int, int, int, int]]:
    """(gamma, d_i, sup, s0, delta) per positive character of degree
    d_i <= max_degree, in values order, read off its layer lengths l:
    d_i = sum l, sup = l_0, s0 = len(l) and delta = sum_i l_i (l_i + 2i - 4),
    the sum of (i + l_i)^2 - 4 (i + l_i) - (i^2 - 4i)."""
    table = []
    for d_i in range(1, max_degree + 1):
        for ls in _layer_lengths(d_i, d_i):
            delta = sum(l * (l + 2 * i - 4) for i, l in enumerate(ls))
            table.append((_character(ls), d_i, ls[0], len(ls), delta))
    return sorted(table, key=lambda c: c[0].values)


def enumerate_positive_characters(d: int, min_s0: int = 1,
                                  max_sup: int | None = None) -> list[IntFun]:
    """All positive characters of degree d with s0 >= min_s0 and support
    bounded by max_sup, sorted by (len(values), values)."""
    high = d if max_sup is None else max_sup
    bad = [x for x in (d, min_s0, high) if type(x) is not int]
    if bad:
        raise TypeError(f"not an integer: {_quote(bad[0])}")
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


class DGEntry(_Frozen):
    __slots__ = ("d", "g", "witnesses")

    def __init__(self, d: int, g: int,
                 witnesses: tuple[Codim3Decomposition, ...]):
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
            missing = (e.d <= REFERENCE_MAX_DEGREE
                       and (e.d, e.g) not in REFERENCE_PAIRS_DEG10)
            (beyond if missing else listed).append(e)
        return listed, beyond

    def to_json(self) -> dict:
        listed, beyond = self.split()
        dump = lambda entries: [{"d": e.d, "g": e.g, "witnesses": [
            [p.to_json() for p in w.parts] for w in e.witnesses]} for e in entries]
        return {"pairs": dump(listed), "beyond_paper": dump(beyond)}

    def write_json(self, out) -> None:
        """Write json.dumps(self.to_json(), sort_keys=True) and a newline."""
        listed, beyond = self.split()
        # keyed by id(p): an int key skips the field-tuple __hash__ an IntFun
        # key runs per lookup, and self holds every part, so no id is reused
        memo: dict[int, str] = {}
        part = lambda p: memo.get(id(p)) or memo.setdefault(id(p), _part_json(p))
        for head, entries in (('{"beyond_paper": [', beyond),
                              ('], "pairs": [', listed)):
            out.write(head)
            for n, e in enumerate(entries):
                wits = ", ".join(f"[{', '.join(map(part, w.parts))}]"
                                 for w in e.witnesses)
                out.write(f'{", " if n else ""}{{"d": {e.d}, "g": {e.g}, '
                          f'"witnesses": [{wits}]}}')
        out.write("]}\n")


def enumerate_acm_curves(max_degree: int, nondegenerate: bool = True) -> DGTable:
    """All (degree, genus) pairs of codim-3 ACM curve characters of degree
    <= max_degree, with witnessing decompositions.

    Each character recomposes from exactly one chain (gamma_0, ..., gamma_r)
    of positive characters, each with support below the s0 >= 2 of the one
    before, and d and 2g - 2 sum over the components as in
    ``dg_from_components``.  Nondegenerate curves have r >= 1;
    ``nondegenerate=False`` adds the single-component (hyperplane) case.
    """
    if type(max_degree) is not int:
        raise TypeError(f"not an integer: {_quote(max_degree)}")
    if max_degree < (4 if nondegenerate else 1):
        raise ValueError("degree bound below the minimal curve degree")
    table = _components(max_degree)
    # below[cap]: the components with sup <= cap, still in values order
    below = [[c for c in table if c[2] <= cap]
             for cap in range(max(c[3] for c in table))]

    grouped: dict[tuple[int, int], list[tuple[IntFun, ...]]] = {}
    # a level lists the (parts, d, 2g - 2, children) of the chains of i parts
    # that can be followed, in witness order: it extends the level before in
    # order through values-ordered children, and levels come by length
    level = [((), 0, 0, table)]
    while level:
        chains, level = level, []
        for prefix, d, twice, children in chains:
            i, budget = len(prefix), max_degree - d
            for g, d_i, _, s0, delta in children:
                if d_i > budget:
                    continue
                parts = prefix + (g,)
                total = twice + delta + (2 * i + 1) * d_i
                if i or not nondegenerate:
                    grouped.setdefault((d + d_i, total), []).append(parts)
                if s0 >= 2:  # only a component with s0 >= 2 can be followed
                    level.append((parts, d + d_i, total, below[s0 - 1]))
    return DGTable(tuple(
        DGEntry(d, twice // 2 + 1,
                tuple(map(Codim3Decomposition, grouped.pop((d, twice)))))
        for d, twice in sorted(grouped)))
