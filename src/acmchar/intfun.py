"""Finitely supported integer functions on Z.

An ``IntFun`` stores a window of values together with the index of the
first one; everything outside the window is zero.  The representation is
canonical (no leading or trailing zeros), so ``==`` is semantic equality
and instances can be used as dict keys.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
import operator

# largest offset that __str__ writes as leading zeros
_MAX_PADDING = 16


class ConstantTailError(ValueError):
    """A primitive was requested for a function whose values do not sum to
    zero, so the result would be constant (nonzero) for large arguments."""

    def __init__(self, tail: int):
        super().__init__(f"non-character input: constant tail {tail}")
        self.tail = tail


@dataclass(frozen=True)
class IntFun:
    offset: int = 0
    values: tuple[int, ...] = field(default=())

    def __post_init__(self):
        vals = tuple(self.values)
        off = self.offset
        # exact type test: floats, bools and strings are rejected, not coerced
        if not {type(off), *map(type, vals)} <= {int}:
            bad = next(x for x in (off, *vals) if type(x) is not int)
            raise TypeError(f"not an integer: {bad!r}")
        # strip leading zeros, shifting the offset
        start = 0
        while start < len(vals) and vals[start] == 0:
            start += 1
        end = len(vals)
        while end > start and vals[end - 1] == 0:
            end -= 1
        if start == end:
            off, vals = 0, ()
        else:
            off, vals = off + start, vals[start:end]
        object.__setattr__(self, "offset", off)
        object.__setattr__(self, "values", vals)

    # -- basic queries ----------------------------------------------------

    def __call__(self, n: int) -> int:
        i = n - self.offset
        if 0 <= i < len(self.values):
            return self.values[i]
        return 0

    def is_zero(self) -> bool:
        return not self.values

    def sup(self) -> int | None:
        """Largest n with f(n) != 0, or None for the zero function."""
        if not self.values:
            return None
        return self.offset + len(self.values) - 1

    def inf(self) -> int | None:
        """Smallest n with f(n) != 0, or None for the zero function."""
        if not self.values:
            return None
        return self.offset

    def total(self) -> int:
        return sum(self.values)

    def degree(self) -> int:
        """Weighted sum  sum_n n*f(n)."""
        return sum((self.offset + i) * v for i, v in enumerate(self.values))

    def is_character(self) -> bool:
        return self.total() == 0

    def support(self):
        """Iterate over (n, f(n)) for the stored window."""
        return enumerate(self.values, self.offset)

    # -- calculus ---------------------------------------------------------

    def diff(self) -> "IntFun":
        """First difference  n -> f(n) - f(n-1); always a character."""
        v = self.values
        return IntFun(self.offset, tuple(map(operator.sub, v + (0,), (0,) + v)))

    def primitive(self) -> "IntFun":
        """Prefix sums  n -> sum_{k<=n} f(k).

        Only defined (finitely supported) when the values sum to zero;
        otherwise raises :class:`ConstantTailError` carrying the tail value.
        """
        tail = self.total()
        if tail != 0:
            raise ConstantTailError(tail)
        return IntFun(self.offset, tuple(accumulate(self.values)))

    def shift(self, d: int) -> "IntFun":
        """The function  n -> f(n + d)."""
        if not self.values:
            return self
        return IntFun(self.offset - d, self.values)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "IntFun") -> "IntFun":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        lo = min(self.offset, other.offset)
        hi = max(self.offset + len(self.values), other.offset + len(other.values))
        vals = [0] * (hi - lo)
        for f in (self, other):
            for i, v in enumerate(f.values, f.offset - lo):
                vals[i] += v
        return IntFun(lo, tuple(vals))

    def __neg__(self) -> "IntFun":
        return IntFun(self.offset, tuple(-v for v in self.values))

    def __sub__(self, other: "IntFun") -> "IntFun":
        return self + (-other)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {"offset": self.offset, "values": list(self.values)}

    @classmethod
    def from_json(cls, obj: dict) -> "IntFun":
        return cls(obj["offset"], tuple(obj["values"]))

    @classmethod
    def from_values(cls, *values: int, offset: int = 0) -> "IntFun":
        return cls(offset, tuple(values))

    @classmethod
    def parse(cls, text: str) -> "IntFun":
        """Parse the compact positional form "(v0,v1,...)", whose window
        starts at 0, or "(v0,v1,...)@n", whose window starts at n."""
        # tolerate unicode minus
        s, at, start = text.strip().replace("−", "-").partition("@")
        try:
            offset = int(start) if at else 0
            s = s.strip()
            if s.startswith("(") and s.endswith(")"):
                s = s[1:-1]
            if not s.strip():
                return cls()
            vals = tuple(int(p.strip()) for p in s.split(","))
        except ValueError as exc:
            raise ValueError(f"malformed function literal: {text!r}") from exc
        return cls(offset, vals)

    def __str__(self) -> str:
        """Positional form padded from 0 for offsets from 0 to
        _MAX_PADDING, and the "(...)@offset" form otherwise, so the output
        grows with the window, not with the offset."""
        if not self.values:
            return "(0)"
        body = ",".join(str(v) for v in self.values)
        if 0 <= self.offset <= _MAX_PADDING:
            return "(" + "0," * self.offset + body + ")"
        return f"({body})@{self.offset}"


def indicator(a: int) -> IntFun:
    """The function that is 1 at a and 0 elsewhere."""
    return IntFun(a, (1,))
