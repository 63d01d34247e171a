"""Binomial coefficients, Macaulay i-binomial expansions and the growth
operator alpha -> alpha^<i>.

The binomial convention here extends C(n,p) to p = -1, where C(n,-1) is 1
for n = -1 and 0 otherwise.  With this convention Pascal's rule holds for
all n > p >= 0.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb


def binom(n: int, p: int) -> int:
    """C(n, p) with the degenerate column p = -1 admitted."""
    if p < -1:
        raise ValueError(f"binom undefined for p = {p} < -1")
    if p == -1:
        return 1 if n == -1 else 0
    return comb(n, p) if n >= p else 0


@dataclass(frozen=True)
class MacaulayExpansion:
    """The unique representation alpha = C(m_i,i) + C(m_{i-1},i-1) + ... +
    C(m_j,j) with m_i > m_{i-1} > ... > m_j >= j >= 1."""

    terms: tuple[tuple[int, int], ...]

    def __post_init__(self):
        terms = tuple((m, k) for m, k in self.terms)
        bad = [x for t in terms for x in t if type(x) is not int]
        if bad:
            raise TypeError(f"not an integer: {bad[0]!r}")
        object.__setattr__(self, "terms", terms)
        self.validate()

    def validate(self):
        if not self.terms:
            raise ValueError("expansion must have at least one term")
        ms = [m for m, _ in self.terms]
        ks = [k for _, k in self.terms]
        if ks[-1] < 1:
            raise ValueError("last index must be >= 1")
        for a, b in zip(ms, ms[1:]):
            if a <= b:
                raise ValueError("m-chain must be strictly decreasing")
        for a, b in zip(ks, ks[1:]):
            if b != a - 1:
                raise ValueError("indices must form a contiguous descending run")
        for m, k in self.terms:
            if m < k:
                raise ValueError("need m_k >= k in every term")

    @property
    def value(self) -> int:
        return sum(binom(m, k) for m, k in self.terms)

    def __str__(self) -> str:
        return " + ".join(f"C({m},{k})" for m, k in self.terms)


def _largest_top(rem: int, k: int) -> int:
    """Largest m >= k with C(m,k) <= rem (rem >= 1): exponential search
    for an upper bracket, then bisection."""
    lo, step = k, 1  # C(k,k) = 1 <= rem
    while comb(lo + step, k) <= rem:
        lo, step = lo + step, 2 * step
    hi = lo + step  # C(lo,k) <= rem < C(hi,k)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if comb(mid, k) <= rem:
            lo = mid
        else:
            hi = mid
    return lo


def _greedy(alpha: int, i: int) -> tuple[list[tuple[int, int]], int]:
    """The greedy i-binomial terms (m, k) of alpha >= 1 while the
    remainder rem exceeds k, and that remainder.  From there every term is
    C(k,k) = 1, so the expansion ends in rem such terms."""
    if i <= 0:
        raise ValueError("i must be >= 1")
    terms = []
    rem = alpha
    k = i
    while rem > k:
        m = _largest_top(rem, k)
        terms.append((m, k))
        rem -= comb(m, k)
        k -= 1
    return terms, rem


def macaulay_expand(alpha: int, i: int) -> MacaulayExpansion:
    """Greedy i-binomial expansion of alpha >= 1."""
    if alpha <= 0:
        raise ValueError("alpha must be >= 1")
    terms, rem = _greedy(alpha, i)
    k = i - len(terms)
    terms += [(n, n) for n in range(k, k - rem, -1)]
    return MacaulayExpansion(tuple(terms))


@lru_cache(maxsize=None)
def upper(alpha: int, i: int) -> int:
    """The Macaulay growth bound alpha^<i> (with 0^<i> = 0): each term
    C(m,k) of the expansion lifts to C(m+1,k+1), and each C(k,k) to 1."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    if alpha == 0:
        return 0
    terms, rem = _greedy(alpha, i)
    return sum(comb(m + 1, k + 1) for m, k in terms) + rem
