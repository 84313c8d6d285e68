"""Exact rational scalars, closed intervals, and normalized interval unions.

Everything geometric in this package is built from the types here. All
arithmetic is exact: endpoints are arbitrary-precision rationals and floats
are refused at the boundary, so set equalities certify algebraic identities
instead of approximating them.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Union

from .errors import NonPositiveDenominator, OutOfRange, ParseError, ZeroRatio

Rational = Fraction

RationalLike = Union[Fraction, int, str]

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:\s*/\s*\d+)?$")


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact rational.

    Floats are rejected so rounding error cannot leak into set constructions.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("expected a rational value, got bool")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def parse_rational(text: str) -> Fraction:
    """Parse the literal format "p/q" or "n" used by the CLI and JSON reports."""
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ParseError(f"not a rational literal: {text!r}")
    num, slash, den = s.partition("/")
    if slash:
        d = int(den)
        if d == 0:
            raise ParseError(f"zero denominator: {text!r}")
        return Fraction(int(num), d)
    return Fraction(int(num))


def format_rational(value: Fraction) -> str:
    """Render as "p/q", or plain "n" for integers; a numeral longer than the
    interpreter's int-to-str digit limit raises OutOfRange."""
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError as exc:
        raise OutOfRange(f"numeral too long to print: {exc}") from None


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with rational endpoints; lo == hi is a point."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", as_rational(self.lo))
        object.__setattr__(self, "hi", as_rational(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: "
                             f"{format_rational(self.lo)} > {format_rational(self.hi)}")

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x: RationalLike) -> bool:
        x = as_rational(x)
        return self.lo <= x <= self.hi

    def contains_interval(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def intersects(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def intersection(self, other: "Interval") -> Optional["Interval"]:
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        return Interval(lo, hi) if lo <= hi else None

    def open_intersects(self, other: "Interval") -> bool:
        """True when the two open interiors meet; degenerate intervals never do."""
        return max(self.lo, other.lo) < min(self.hi, other.hi)

    def affine(self, r: RationalLike, c: RationalLike) -> "Interval":
        """Exact image under x -> r*x + c; a negative r swaps the endpoints."""
        r = as_rational(r)
        c = as_rational(c)
        a = r * self.lo + c
        b = r * self.hi + c
        return Interval(a, b) if r >= 0 else Interval(b, a)

    def __str__(self) -> str:
        return f"[{format_rational(self.lo)}, {format_rational(self.hi)}]"


class IntervalSet:
    """Finite union of closed intervals kept sorted, disjoint, and merged.

    Touching parts are merged (closed-set semantics), so consecutive parts
    always satisfy prev.hi < next.lo. Construction normalizes any input and
    is therefore idempotent.
    """

    __slots__ = ("parts", "_los")

    def __init__(self, intervals: Iterable[Interval] = ()):
        merged: list[Interval] = []
        for iv in sorted(intervals, key=lambda i: (i.lo, i.hi)):
            if merged and iv.lo <= merged[-1].hi:
                if iv.hi > merged[-1].hi:
                    merged[-1] = Interval(merged[-1].lo, iv.hi)
            else:
                merged.append(iv)
        self.parts: tuple[Interval, ...] = tuple(merged)
        self._los = [iv.lo for iv in self.parts]

    @property
    def is_empty(self) -> bool:
        return not self.parts

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.parts)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntervalSet) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return "IntervalSet({" + ", ".join(str(p) for p in self.parts) + "})"

    @property
    def total_length(self) -> Fraction:
        return sum((p.length for p in self.parts), Fraction(0))

    def hull(self) -> Optional[Interval]:
        if not self.parts:
            return None
        return Interval(self.parts[0].lo, self.parts[-1].hi)

    def _index_at(self, x: Fraction) -> Optional[int]:
        idx = bisect_right(self._los, x) - 1
        if idx >= 0 and self.parts[idx].hi >= x:
            return idx
        return None

    def contains(self, x: RationalLike) -> bool:
        return self._index_at(as_rational(x)) is not None

    def part_containing(self, x: RationalLike) -> Optional[Interval]:
        idx = self._index_at(as_rational(x))
        return None if idx is None else self.parts[idx]

    def gap_containing(self, x: RationalLike) -> Optional[Interval]:
        """Open gap between consecutive parts that contains x, if any."""
        x = as_rational(x)
        idx = bisect_right(self._los, x) - 1
        if idx < 0 or idx + 1 >= len(self.parts):
            return None
        left, right = self.parts[idx], self.parts[idx + 1]
        if left.hi < x < right.lo:
            return Interval(left.hi, right.lo)
        return None

    def gaps(self) -> tuple[Interval, ...]:
        """Open gaps between consecutive parts, as endpoint pairs."""
        return tuple(Interval(a.hi, b.lo) for a, b in zip(self.parts, self.parts[1:]))

    def subset_of(self, other: "IntervalSet") -> bool:
        """Exact containment: every part sits inside a single part of `other`."""
        for p in self.parts:
            host = other.part_containing(p.lo)
            if host is None or not host.contains_interval(p):
                return False
        return True

    def intersect(self, window: Interval) -> "IntervalSet":
        clipped = []
        for p in self.parts:
            cut = p.intersection(window)
            if cut is not None:
                clipped.append(cut)
        return IntervalSet(clipped)

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet((*self.parts, *other.parts))

    def complement_within(self, window: Interval) -> "IntervalSet":
        """Closure of window minus this set (open complement, then closed hulls)."""
        inside = self.intersect(window)
        pieces: list[Interval] = []
        cursor = window.lo
        for p in inside.parts:
            if p.lo > cursor:
                pieces.append(Interval(cursor, p.lo))
            cursor = max(cursor, p.hi)
        if cursor < window.hi:
            pieces.append(Interval(cursor, window.hi))
        return IntervalSet(pieces)


def interval_quotient(dividend: Interval, divisor: Interval) -> Interval:
    """Exact set quotient {x/y : x in dividend, y in divisor}; divisor must be positive."""
    if divisor.lo <= 0:
        raise NonPositiveDenominator(
            f"divisor interval must have positive lower endpoint, got {divisor}")
    return Interval(dividend.lo / divisor.hi, dividend.hi / divisor.lo)


def affine_image(s: IntervalSet, r: RationalLike, c: RationalLike) -> IntervalSet:
    """Exact image {r*x + c : x in s}, re-normalized."""
    r = as_rational(r)
    c = as_rational(c)
    if r == 0:
        raise ZeroRatio("affine ratio must be nonzero")
    return IntervalSet(p.affine(r, c) for p in s.parts)
