"""Exhaustive generation of positive characters and of admissible
codimension-3 ACM curve characters up to a degree bound, with
(degree, genus) bookkeeping.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .characters import (
    CurveInvariants,
    char_s0,
    surface_invariants,
)
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


def _partitions(total: int, parts: int, low: int, high: int | None):
    """Non-increasing tuples of the given length with entries in
    [low, high] summing to total."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    top = total - low * (parts - 1)
    if high is not None:
        top = min(top, high)
    for first in range(top, low - 1, -1):
        for rest in _partitions(total - first, parts - 1, low, first):
            yield (first,) + rest


def enumerate_positive_characters(d: int, min_s0: int = 1,
                                  max_sup: int | None = None) -> list[IntFun]:
    """All positive characters of degree d with s0 >= min_s0 and support
    bounded by max_sup, in a deterministic canonical order.

    A positive character with parameter s0 is -1 on [0, s0) and places s0
    nonnegative units at positions >= s0; the unit positions form a
    partition of d + s0(s0-1)/2 into s0 parts >= s0.
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    out = []
    s0 = max(min_s0, 1)
    while s0 * (s0 + 1) // 2 <= d and (max_sup is None or s0 <= max_sup):
        weight = d + s0 * (s0 - 1) // 2
        for positions in _partitions(weight, s0, s0, max_sup):
            top = positions[0]
            vals = [-1] * s0 + [0] * (top - s0 + 1)
            for p in positions:
                vals[p] += 1
            out.append(IntFun(0, tuple(vals)))
        s0 += 1
    out.sort(key=lambda g: (len(g.values), g.values))
    return out


def dg_from_components(dec: Codim3Decomposition) -> CurveInvariants:
    """Degree and genus of the curve from its surface components:
    d = sum d_i and 2g - 2 = sum (delta_i + (2i+1) d_i).

    Each summand is even: delta_i = sum (k^2 - 4k) gamma_i(k) has the
    parity of d_i = sum k gamma_i(k), because k^2 - 4k = k (mod 2)."""
    d = 0
    twice = 0
    for i, part in enumerate(dec.parts):
        si = surface_invariants(part)
        d += si.d
        twice += si.delta + (2 * i + 1) * si.d
    return CurveInvariants(d, twice // 2 + 1)


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
            if e.d <= reference_max_degree and (e.d, e.g) not in reference:
                beyond.append(e)
            else:
                listed.append(e)
        return listed, beyond

    def to_json(self) -> dict:
        listed, beyond = self.split()

        def dump(entries):
            return [{"d": e.d, "g": e.g,
                     "witnesses": [[p.to_json() for p in w.parts]
                                   for w in e.witnesses]}
                    for e in entries]

        return {"pairs": dump(listed), "beyond_paper": dump(beyond)}


def enumerate_acm_curves(max_degree: int, nondegenerate: bool = True) -> DGTable:
    """All (degree, genus) pairs of codim-3 ACM curve characters of degree
    <= max_degree, with witnessing decompositions.

    Each character is the recomposition of exactly one chain
    (gamma_0, ..., gamma_r) of positive characters with s0 >= 2 before the
    last slot and each support below the previous s0 (the codim-3
    decomposition is unique), so chains are grouped by (d, g) directly,
    with d and 2g - 2 summed over the components as in
    ``dg_from_components``.  Nondegenerate curves have at least two
    components (r >= 1); passing ``nondegenerate=False`` adds the
    single-component (hyperplane) case.
    """
    if max_degree < (4 if nondegenerate else 1):
        raise ValueError("degree bound below the minimal curve degree")
    min_parts = 2 if nondegenerate else 1

    @cache
    def components(d_i: int, cap: int | None):
        """(gamma, s0, delta) for each positive character of degree d_i
        with support <= cap, built once per call."""
        return tuple((g, char_s0(g), surface_invariants(g).delta)
                     for g in enumerate_positive_characters(d_i, max_sup=cap))

    grouped: dict[tuple[int, int], list[Codim3Decomposition]] = {}

    def extend(prefix: tuple[IntFun, ...], cap: int | None, d: int, twice: int):
        i = len(prefix)
        for d_i in range(1, max_degree - d + 1):
            for g, s0, delta in components(d_i, cap):
                parts = prefix + (g,)
                total = twice + delta + (2 * i + 1) * d_i
                if len(parts) >= min_parts:
                    grouped.setdefault((d + d_i, total // 2 + 1), []).append(
                        Codim3Decomposition(parts))
                if s0 >= 2:  # only a component with s0 >= 2 can be followed
                    extend(parts, s0 - 1, d + d_i, total)

    extend((), None, 0, 0)
    entries = []
    for (d, g) in sorted(grouped):
        wits = sorted(grouped[(d, g)],
                      key=lambda w: (len(w.parts),
                                     [(p.offset, p.values) for p in w.parts]))
        entries.append(DGEntry(d, g, tuple(wits)))
    return DGTable(tuple(entries))
