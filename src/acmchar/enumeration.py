"""Exhaustive generation of positive characters and of admissible
codimension-3 ACM curve characters up to a degree bound, with
(degree, genus) bookkeeping.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby, starmap
from operator import itemgetter

from .characters import CurveInvariants, surface_invariants
from .codim3 import Codim3Decomposition
from .intfun import IntFun

# (degree, genus) pairs classically listed for nondegenerate ACM curves of
# degree <= 10; the enumerator reports anything extra separately.
REFERENCE_PAIRS_DEG10 = frozenset({
    (4, 0), (5, 1), (6, 2), (6, 3), (7, 3), (7, 4), (7, 6),
    (8, 4), (8, 5), (8, 6), (8, 7), (8, 10),
    (9, 5), (9, 6), (9, 7), (9, 8), (9, 9), (9, 11), (9, 15),
    (10, 6), (10, 7), (10, 8), (10, 9), (10, 10), (10, 12), (10, 13), (10, 16),
})
REFERENCE_MAX_DEGREE = 10


def _partitions(total: int, parts: int, low: int, high: int):
    """Non-increasing tuples of the given length with entries in
    [low, high] summing to total."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(min(total - low * (parts - 1), high), low - 1, -1):
        if total - first > first * (parts - 1):
            return  # the rest cannot fit below first, nor below a smaller one
        for rest in _partitions(total - first, parts - 1, low, first):
            yield (first,) + rest


def _unit_positions(d: int, min_s0: int = 1, max_sup: int | None = None):
    """(s0, positions) per positive character of degree d with s0 >= min_s0
    and sup <= max_sup: -1 on [0, s0) plus units at p_1 >= ... >= p_s0 >= s0,
    a partition of d + s0(s0-1)/2 into s0 parts >= s0, with sup = p_1 <= d."""
    cap = d if max_sup is None else max_sup
    s0 = max(min_s0, 1)
    while s0 * (s0 + 1) // 2 <= d and s0 <= cap:
        for positions in _partitions(d + s0 * (s0 - 1) // 2, s0, s0, cap):
            yield s0, positions
        s0 += 1


def _character(s0: int, positions: tuple[int, ...]) -> IntFun:
    """The positive character with parameter s0 and these unit positions."""
    vals = [-1] * s0 + [0] * (positions[0] - s0 + 1)
    for p in positions:
        vals[p] += 1
    return IntFun(0, tuple(vals))


def _components(max_degree: int) -> list[tuple[IntFun, int, int, int, int]]:
    """(gamma, d_i, sup, s0, delta) per positive character of degree
    d_i <= max_degree, in values order, read off its unit positions p:
    sup = p_1 and delta = sum p (p - 4) - sum_{k<s0} (k^2 - 4k), where the
    last sum is s0 (s0 - 1) (2 s0 - 13) / 6."""
    table = []
    for d_i in range(1, max_degree + 1):
        for s0, pos in _unit_positions(d_i):
            delta = sum(p * (p - 4) for p in pos) - s0 * (s0 - 1) * (2 * s0 - 13) // 6
            table.append((_character(s0, pos), d_i, pos[0], s0, delta))
    return sorted(table, key=lambda c: c[0].values)


def enumerate_positive_characters(d: int, min_s0: int = 1,
                                  max_sup: int | None = None) -> list[IntFun]:
    """All positive characters of degree d with s0 >= min_s0 and support
    bounded by max_sup, sorted by (len(values), values)."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    return sorted(starmap(_character, _unit_positions(d, min_s0, max_sup)),
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


@dataclass(frozen=True)
class DGEntry:
    d: int
    g: int
    witnesses: tuple[Codim3Decomposition, ...]


@dataclass(frozen=True)
class DGTable:
    entries: tuple[DGEntry, ...]

    def pairs(self) -> list[tuple[int, int]]:
        return [(e.d, e.g) for e in self.entries]

    def split(self, reference=REFERENCE_PAIRS_DEG10,
              reference_max_degree: int = REFERENCE_MAX_DEGREE):
        """Partition entries into (listed, beyond): an entry is 'beyond'
        when its degree is covered by the reference list but its pair is
        missing from it."""
        listed, beyond = [], []
        for e in self.entries:
            missing = e.d <= reference_max_degree and (e.d, e.g) not in reference
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
        # keyed by id(p): an int key skips the dataclass __hash__ an IntFun
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
    if max_degree < (4 if nondegenerate else 1):
        raise ValueError("degree bound below the minimal curve degree")
    table = _components(max_degree)
    # below[cap]: the components with sup <= cap, still in values order
    below = [[c for c in table if c[2] <= cap]
             for cap in range(max(c[3] for c in table))]

    grouped: dict[tuple[int, int, int], list[tuple[IntFun, ...]]] = {}

    def extend(prefix: tuple[IntFun, ...], children, d: int, twice: int):
        i = len(prefix)
        budget = max_degree - d
        for g, d_i, _, s0, delta in children:
            if d_i > budget:
                continue
            parts = prefix + (g,)
            total = twice + delta + (2 * i + 1) * d_i
            if i or not nondegenerate:
                grouped.setdefault((d + d_i, total, i + 1), []).append(parts)
            if s0 >= 2:  # only a component with s0 >= 2 can be followed
                extend(parts, below[s0 - 1], d + d_i, total)

    # a depth-first walk over children in values order reaches the chains
    # of each length in (len(w), [p.values for p in w]) order
    extend((), table, 0, 0)
    return DGTable(tuple(
        DGEntry(d, twice // 2 + 1,
                tuple(Codim3Decomposition(w) for k in keys for w in grouped.pop(k)))
        for (d, twice), keys in groupby(sorted(grouped), itemgetter(0, 1))))
