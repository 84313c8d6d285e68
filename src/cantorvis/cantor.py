"""The two-branch Cantor system: basic intervals, windows, and membership.

For 0 < lam < 1/2 the attractor of {x -> lam*x, x -> lam*x + 1 - lam} is a
Cantor set whose rank-n pieces are the 2^n map compositions applied to
[0, 1]; every rank-n enumeration of them in the package runs on their
integer lattice, `_lattice`. Every enumeration states its depth and its
item count to `ensure_work`, which refuses it before the work instead of
silently materializing 2^n intervals.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .errors import DepthBudgetExceeded, NotBasicEndpoints, OutOfRange
from .exact import Interval, IntervalSet, RationalLike, as_rational, format_rational

UNIT = Interval(0, 1)

# An orbit closure keeps every node it reaches: its point, a parent pointer
# and a queue slot, about 240 bytes at lambda = 2/5, t = 1/2. The node
# ceiling keeps one closure within 256 MiB; it is also the item ceiling.
CLOSURE_MEMORY_BYTES = 256 * 2**20
NODE_BYTES = 240
MAX_BUDGET = CLOSURE_MEMORY_BYTES // NODE_BYTES
MAX_DEPTH = 24


def ensure_work(what: str, n: int, items: Union[int, Callable[[], int]] = 1) -> None:
    """Refuse an enumeration of depth n outside [0, MAX_DEPTH] or of more than
    MAX_BUDGET items. A callable `items` is called only once the depth has
    passed, so that counting 4^(n-1) items is never itself unbounded work."""
    if n < 0:
        raise OutOfRange(f"depth must be nonnegative, got {n}")
    if n > MAX_DEPTH:
        raise DepthBudgetExceeded(
            f"{what} at depth {n} exceeds the depth ceiling {MAX_DEPTH}")
    count = items() if callable(items) else items
    if count > MAX_BUDGET:
        raise DepthBudgetExceeded(
            f"{what} at depth {n} exceeds the item ceiling {MAX_BUDGET} ({count} items)")


def validated_lambda(lam: RationalLike) -> Fraction:
    """lam as a Fraction, checked to lie in (0, 1/2)."""
    lam = as_rational(lam)
    if not Fraction(0) < lam < Fraction(1, 2):
        raise OutOfRange(f"lambda must lie in (0, 1/2), got {format_rational(lam)}")
    return lam


@dataclass(frozen=True)
class IfsMap:
    """Orientation-preserving contraction x -> ratio*x + shift, 0 < ratio < 1."""

    ratio: Fraction
    shift: Fraction

    def __post_init__(self):
        object.__setattr__(self, "ratio", as_rational(self.ratio))
        object.__setattr__(self, "shift", as_rational(self.shift))
        if not Fraction(0) < self.ratio < Fraction(1):
            raise OutOfRange(
                f"contraction ratio must lie in (0, 1), got {format_rational(self.ratio)}")

    def apply(self, x: RationalLike) -> Fraction:
        return self.ratio * as_rational(x) + self.shift

    def apply_interval(self, iv: Interval) -> Interval:
        return iv.affine(self.ratio, self.shift)

    def invert(self, y: RationalLike) -> Fraction:
        return (as_rational(y) - self.shift) / self.ratio


@dataclass(frozen=True)
class CantorParams:
    """Contraction ratio of the two-branch system; must satisfy 0 < lam < 1/2."""

    lam: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lam", validated_lambda(self.lam))

    @property
    def low_map(self) -> IfsMap:
        return IfsMap(self.lam, Fraction(0))

    @property
    def high_map(self) -> IfsMap:
        return IfsMap(self.lam, 1 - self.lam)

    @property
    def maps(self) -> tuple[IfsMap, IfsMap]:
        return (self.low_map, self.high_map)


@dataclass(frozen=True)
class Coding:
    """Finite branch word; digits index the owning system's maps from 1."""

    digits: tuple[int, ...]
    alphabet: int = 2

    def __post_init__(self):
        for d in self.digits:
            if not 1 <= d <= self.alphabet:
                raise OutOfRange(f"digit {d} outside alphabet 1..{self.alphabet}")

    def interval(self, params: CantorParams) -> Interval:
        """Image of [0, 1] under the branch composition named by the digits.

        The first digit names the outermost map, so the last digit acts first.
        """
        iv = UNIT
        for d in reversed(self.digits):
            iv = params.maps[d - 1].apply_interval(iv)
        return iv


def _children(params: CantorParams, iv: Interval) -> tuple[Interval, Interval]:
    # both end-subintervals of proportion lam
    t = iv.length * params.lam
    return (Interval(iv.lo, iv.lo + t), Interval(iv.hi - t, iv.hi))


def refine_to_depth(params: CantorParams, iv: Interval, depth: int) -> list[Interval]:
    """The 2^depth descendants of `iv` after `depth` refinement rounds, in
    order: the `Fraction` reference that tests hold `_lattice` to."""
    parts = [iv]
    for _ in range(depth):
        nxt: list[Interval] = []
        for p in parts:
            nxt.extend(_children(params, p))
        parts = nxt
    return parts


def _lattice(lam: Fraction, n: int) -> tuple[list[int], list[int]]:
    """The integer lattice (widths, shifts) of the rank-n basic intervals.

    With lam = p/q and D = q^n, a rank-k basic interval is [L/D, (L + w_k)/D]
    with w_k = widths[k] = p^k * q^(n-k); its children start at L and at
    L + shifts[k], shifts[k] = w_k - w_(k+1), which exceeds the sum of all
    later shifts since lam < 1/2."""
    p, q = lam.numerator, lam.denominator
    widths = [p ** k * q ** (n - k) for k in range(n + 1)]
    return widths, [w - child for w, child in zip(widths, widths[1:])]


def _lattice_lows(shifts: Sequence[int], low: int = 0) -> list[int]:
    """The lows of the descendants of the interval starting at `low` after one
    refinement round per shift, in increasing order."""
    lows = [low]
    for shift in shifts:
        lows = [x for lo in lows for x in (lo, lo + shift)]
    return lows


def _is_lattice_low(shifts: Sequence[int], x: Fraction) -> bool:
    """Whether x is the low of a rank-n basic interval; greedy is exact, as
    each shift exceeds the sum of all later ones."""
    for shift in shifts:
        if x >= shift:
            x -= shift
    return x == 0


def basic_intervals(params: CantorParams, n: int) -> IntervalSet:
    """Exact union of all 2^n rank-n basic intervals.

    For lam < 1/2 the pieces are pairwise disjoint, so the result has
    exactly 2^n parts and total length (2*lam)^n.
    """
    ensure_work("basic-interval enumeration", n, lambda: 2 ** n)
    return window_gn(params, 0, 1, n)


def refine_tilde(params: CantorParams, iv: Interval) -> IntervalSet:
    """Replace [a, a+t] by its two end-subintervals of proportion lam."""
    return IntervalSet(_children(params, iv))


def endpoint_rank(params: CantorParams, x: RationalLike,
                  max_rank: int) -> Optional[int]:
    """Smallest k <= max_rank such that x is an endpoint of a rank-k basic
    interval: the step at which the inverse walk of `membership` reaches 0 or 1."""
    return membership(params, x, max_rank).rank


def window_gn(params: CantorParams, a: RationalLike, b: RationalLike, n: int) -> IntervalSet:
    """Union of the rank-n basic intervals contained in [a, b].

    The bounds are validated on the lattice before any enumeration: `a` must
    be a left endpoint and `b` a right endpoint of basic intervals of rank
    <= n, that is, `a` and `b` minus the rank-n width must be rank-n lows.
    Successive windows nest: every rank-(n+1) part lies inside a rank-n part.
    """
    lo = as_rational(a)
    hi = as_rational(b)
    if not lo < hi:
        raise OutOfRange(f"window must satisfy A < B, got "
                         f"{format_rational(lo)} >= {format_rational(hi)}")
    ensure_work("window enumeration", n, lambda: 2 ** n)
    widths, shifts = _lattice(params.lam, n)
    d, w = widths[0], widths[n]
    if not _is_lattice_low(shifts, lo * d):
        raise NotBasicEndpoints(
            f"{format_rational(lo)} is not a left endpoint of any rank <= {n} basic interval")
    if not _is_lattice_low(shifts, hi * d - w):
        raise NotBasicEndpoints(
            f"{format_rational(hi)} is not a right endpoint of any rank <= {n} basic interval")
    lows = _lattice_lows(shifts)
    lows = lows[bisect_left(lows, lo * d):bisect_right(lows, hi * d - w)]
    return IntervalSet._from_merged(
        [Interval(Fraction(x, d), Fraction(x + w, d)) for x in lows])


class Membership(Enum):
    IN = "In"
    OUT = "Out"
    UNKNOWN_AT_DEPTH = "UnknownAtDepth"


@dataclass(frozen=True)
class MembershipResult:
    """Finite-depth membership verdict for a rational point.

    IN certificates are exact: either the point peels to a corner of [0, 1]
    (an endpoint, `rank` set) or its inverse orbit revisits a value
    (`cycle_entry`/`cycle_period` set), which pins an eventually periodic
    branch expansion that never leaves the construction.
    """

    status: Membership
    depth: int
    rank: Optional[int] = None
    escaped_at: Optional[int] = None
    cycle_entry: Optional[int] = None
    cycle_period: Optional[int] = None


def membership(params: CantorParams, x: RationalLike, n: int) -> MembershipResult:
    """Classify a rational point against the attractor at depth n.

    OUT means the point leaves the rank-k cover for some k <= n. IN is
    certified exactly (endpoint or periodic inverse orbit). Verdicts are
    monotone: IN/OUT never flip as n grows, UNKNOWN_AT_DEPTH can only resolve.
    """
    lam = params.lam
    y = as_rational(x)
    seen: dict[Fraction, int] = {}
    for step in range(n + 1):
        if y < 0 or y > 1:
            return MembershipResult(Membership.OUT, n, escaped_at=step)
        if y == 0 or y == 1:
            return MembershipResult(Membership.IN, n, rank=step)
        if y in seen:
            return MembershipResult(Membership.IN, n, cycle_entry=seen[y],
                                    cycle_period=step - seen[y])
        seen[y] = step
        if step == n:
            break
        if y <= lam:
            y = y / lam
        elif y >= 1 - lam:
            y = (y - (1 - lam)) / lam
        else:
            # strictly inside the middle gap at this rank
            return MembershipResult(Membership.OUT, n, escaped_at=step + 1)
    return MembershipResult(Membership.UNKNOWN_AT_DEPTH, n)
