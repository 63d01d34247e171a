"""Finitely supported integer functions on Z.

An ``IntFun`` stores a window of values together with the index of the
first one; everything outside the window is zero.  The representation is
canonical (no leading or trailing zeros), so ``==`` is semantic equality
and instances can be used as dict keys.
"""
from __future__ import annotations

from itertools import accumulate
import operator

# largest offset that __str__ writes as leading zeros
_MAX_PADDING = 16


def _quote(x) -> str:
    """repr of x, cut to 40 characters so that error messages stay short."""
    r = repr(x)
    return r if len(r) <= 40 else f"{r[:40]}... ({len(r)} characters)"


def _require_ints(*xs) -> None:
    """Raise TypeError naming the first x whose type is not exactly int:
    floats, bools and strings are rejected, never coerced or truncated."""
    for x in xs:
        if type(x) is not int:
            raise TypeError(f"not an integer: {_quote(x)}")


def _require_type(x, kinds: tuple[type, ...], what: str) -> None:
    """The rule of :func:`_require_ints` for the records' other fields:
    raise TypeError naming x unless its type is exactly one of kinds."""
    if type(x) not in kinds:
        raise TypeError(f"not {what}: {_quote(x)}")


class ConstantTailError(ValueError):
    """A primitive was requested for a function whose values do not sum to
    zero, so the result would be constant (nonzero) for large arguments."""

    def __init__(self, tail: int):
        super().__init__(f"non-character input: constant tail {tail}")
        self.tail = tail


class _Frozen:
    """Base of the package's immutable records.  A record's fields are the
    __slots__ along its class chain, in order, and its __init__ stores each
    with object.__setattr__.  Records compare (within one class), hash,
    print and pickle by their fields, as frozen dataclasses do."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(f for c in reversed(cls.__mro__)
                            for f in vars(c).get("__slots__", ()))

    def _astuple(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # pickle and copy rebuild through __init__, not the blocked __setattr__
        return type(self), self._astuple()


class IntFun(_Frozen):
    __slots__ = ("offset", "values")

    def __init__(self, offset: int = 0, values: tuple[int, ...] = ()):
        vals = tuple(values)
        # one set test on the fast path; the helper only names the bad value
        if not {type(offset), *map(type, vals)} <= {int}:
            _require_ints(offset, *vals)
        # strip leading zeros, shifting the offset
        start = 0
        while start < len(vals) and vals[start] == 0:
            start += 1
        end = len(vals)
        while end > start and vals[end - 1] == 0:
            end -= 1
        if start == end:
            offset, vals = 0, ()
        else:
            offset, vals = offset + start, vals[start:end]
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "values", vals)

    # -- basic queries ----------------------------------------------------

    def __call__(self, n: int) -> int:
        _require_ints(n)
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
        _require_ints(d)
        return IntFun(self.offset - d, self.values)

    # -- arithmetic -------------------------------------------------------

    def _merge(self, other: "IntFun", op) -> "IntFun":
        """self op other, op in (operator.add, operator.sub), in one list."""
        if other.is_zero():
            return self
        if self.is_zero():
            return other if op is operator.add else -other
        a, b = self.values, other.values
        lo = min(self.offset, other.offset)
        vals = [0] * (max(self.offset + len(a), other.offset + len(b)) - lo)
        i, j = self.offset - lo, other.offset - lo
        vals[i:i + len(a)] = a
        vals[j:j + len(b)] = map(op, vals[j:j + len(b)], b)
        return IntFun(lo, tuple(vals))

    def __add__(self, other: "IntFun") -> "IntFun":
        return self._merge(other, operator.add)

    def __neg__(self) -> "IntFun":
        return IntFun(self.offset, tuple(-v for v in self.values))

    def __sub__(self, other: "IntFun") -> "IntFun":
        return self._merge(other, operator.sub)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {"offset": self.offset, "values": list(self.values)}

    @classmethod
    def from_json(cls, obj: dict) -> "IntFun":
        return cls(obj["offset"], tuple(obj["values"]))

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
            raise ValueError(f"malformed function literal: {_quote(text)}") from exc
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
