"""Binomial coefficients, Macaulay i-binomial expansions and the growth
operator alpha -> alpha^<i>.

The binomial convention here extends C(n,p) to p = -1, where C(n,-1) is 1
for n = -1 and 0 otherwise.  With this convention Pascal's rule holds for
all n > p >= 0.
"""
from __future__ import annotations

from functools import lru_cache
from math import comb, isqrt

from .intfun import _Frozen, _require_ints

# an expansion can have min(alpha, i) terms; macaulay_expand refuses past this
MAX_EXPANSION_TERMS = 10**5


def binom(n: int, p: int) -> int:
    """C(n, p) with the degenerate column p = -1 admitted."""
    _require_ints(n, p)
    if p < -1:
        raise ValueError(f"binom undefined for p = {p} < -1")
    if p == -1:
        return 1 if n == -1 else 0
    return comb(n, p) if n >= p else 0


class MacaulayExpansion(_Frozen):
    """The unique representation alpha = C(m_i,i) + C(m_{i-1},i-1) + ... +
    C(m_j,j) with m_i > m_{i-1} > ... > m_j >= j >= 1."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[tuple[int, int], ...]):
        terms = tuple((m, k) for m, k in terms)
        _require_ints(*(x for t in terms for x in t))
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
    return _bisect_top(rem, k, lo, lo + step)


def _bisect_top(rem: int, k: int, lo: int, hi: int) -> int:
    """Largest m with C(m,k) <= rem, given C(lo,k) <= rem < C(hi,k)."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if comb(mid, k) <= rem:
            lo = mid
        else:
            hi = mid
    return lo


def _greedy(alpha: int, i: int, least: int) -> tuple[list[tuple[int, int]], int]:
    """The greedy i-binomial terms (m, k) of alpha >= least while the
    remainder rem exceeds k, and that remainder.  From there every term is
    C(k,k) = 1, so the expansion ends in rem such terms.  Its callers check
    types first, so a negative float is refused as a non-integer too.

    After the term (m, k), rem < C(m+1,k) - C(m,k) = C(m,k-1), and while
    the loop runs C(k,k-1) = k <= rem, so the next top lies in [k, m) and
    is found by bisection there; only the first term is searched from
    below.  At k = 2 the top is (1 + isqrt(8 rem + 1)) // 2, the largest
    m with m(m-1)/2 <= rem, and at k = 1 it is rem itself."""
    if alpha < least:
        raise ValueError(f"alpha must be >= {least}")
    if i <= 0:
        raise ValueError("i must be >= 1")
    terms = []
    rem = alpha
    k = i
    m = 0  # no term yet
    while rem > k:
        if k == 1:
            m = rem
        elif k == 2:
            m = (1 + isqrt(8 * rem + 1)) // 2
        elif m:
            m = _bisect_top(rem, k, k + 1, m)
        else:
            m = _largest_top(rem, k)
        terms.append((m, k))
        rem -= comb(m, k)
        k -= 1
    return terms, rem


def macaulay_expand(alpha: int, i: int) -> MacaulayExpansion:
    """Greedy i-binomial expansion of alpha >= 1."""
    _require_ints(alpha, i)
    terms, rem = _greedy(alpha, i, 1)
    if len(terms) + rem > MAX_EXPANSION_TERMS:
        raise ValueError(f"expansion has more than {MAX_EXPANSION_TERMS} terms")
    k = i - len(terms)
    terms += [(n, n) for n in range(k, k - rem, -1)]
    return MacaulayExpansion(tuple(terms))


def upper(alpha: int, i: int) -> int:
    """The Macaulay growth bound alpha^<i> (with 0^<i> = 0): each term
    C(m,k) of the expansion lifts to C(m+1,k+1), and each C(k,k) to 1."""
    _require_ints(alpha, i)  # before the cache, where 25.0 would find 25
    return _upper(alpha, i)


@lru_cache(maxsize=2**16)
def _upper(alpha: int, i: int) -> int:
    """:func:`upper` on ints, cached up to a bound no workload reaches."""
    terms, rem = _greedy(alpha, i, 0)
    return sum(comb(m + 1, k + 1) for m, k in terms) + rem
