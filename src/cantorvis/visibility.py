"""Ratio-set structure and visibility of lines through the Cantor square.

A slope alpha >= 0 is visible when alpha avoids the quotient set
{x/y : x, y in the attractor, y != 0}. That set decomposes into geometric
scalings of a single core window, which this module computes either exactly
(lam >= 1/3, where the core is one interval) or as a certified outer cover
obtained from finite-rank quotients. Classification of the three parameter
regimes, the thickness test, and a box-counting slope estimator round out
the toolkit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from statistics import linear_regression
from typing import Optional, Sequence

from .cantor import CantorParams, endpoint_rank, ensure_depth, validated_lambda
from .errors import (InsufficientScales, LengthMismatch, NegativeSlope,
                     NonPositiveDenominator, OutOfRange)
from .exact import (Interval, IntervalSet, RationalLike, affine_image,
                    as_rational, format_rational)


# ---------------------------------------------------------------------------
# regime classification
# ---------------------------------------------------------------------------

class RegimeTag(Enum):
    REGIME1_V_EMPTY = "Regime1_Vempty"
    REGIME2_EXACT_GAPS = "Regime2_ExactGaps"
    REGIME3A_INTERIOR_BOTH_SIDES = "Regime3a_InteriorBothSides"
    REGIME3B_NULL_COMPLEMENT = "Regime3b_NullComplement"


@dataclass(frozen=True)
class Regime:
    tag: RegimeTag
    at_one_third: bool
    at_one_quarter: bool
    discriminant: Fraction  # lam^2 - 3*lam + 1; <= 0 exactly in regime 1


def regime_classify(lam: RationalLike) -> Regime:
    """Classify lambda by exact algebraic tests.

    The irrational threshold between the all-covered and gapped regimes is
    handled through the sign of lam^2 - 3*lam + 1, never through a decimal
    constant, so rational boundary cases are decided exactly.
    """
    lam = validated_lambda(lam)
    disc = lam * lam - 3 * lam + 1
    if disc <= 0:
        tag = RegimeTag.REGIME1_V_EMPTY
    elif lam >= Fraction(1, 3):
        tag = RegimeTag.REGIME2_EXACT_GAPS
    elif lam > Fraction(1, 4):
        tag = RegimeTag.REGIME3A_INTERIOR_BOTH_SIDES
    else:
        tag = RegimeTag.REGIME3B_NULL_COMPLEMENT
    return Regime(tag, lam == Fraction(1, 3), lam == Fraction(1, 4), disc)


# ---------------------------------------------------------------------------
# the four-piece quotient refinement identity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Key2Parts:
    """The four sub-quotients produced by refining both operand intervals once,
    together with the unrefined quotient they must union back to."""

    lam: Fraction
    a: Fraction  # dividend interval starts at a
    b: Fraction  # divisor interval starts at b
    t: Fraction  # common length
    parts: tuple[Interval, Interval, Interval, Interval]
    full: Interval

    def overlap_margins(self) -> dict[str, Fraction]:
        """Signed slack between consecutive sub-quotients; all nonnegative
        exactly when the four pieces chain into the full interval."""
        j1, j2, j3, j4 = self.parts
        return {
            "s1-r2": j1.hi - j2.lo,
            "s2-r3": j2.hi - j3.lo,
            "s3-r4": j3.hi - j4.lo,
            "r3-r2": j3.lo - j2.lo,
        }


def key2_subintervals(lam: RationalLike, i: Interval, j: Interval) -> Key2Parts:
    """Quotients of the once-refined pieces of two equal-length intervals.

    With i = [a, a+t] and j = [b, b+t], refining each into its two
    lam-proportioned end pieces yields four pairwise quotients whose
    endpoints are written out exactly; `full` is the quotient of the
    unrefined pair, [a/(b+t), (a+t)/b].
    """
    lam = validated_lambda(lam)
    t = i.length
    if t != j.length:
        raise LengthMismatch(
            f"operand intervals must have equal length, got {i} and {j}")
    if t == 0:
        raise LengthMismatch("operand intervals must have positive length")
    if j.lo <= 0:
        raise NonPositiveDenominator(
            f"divisor interval must have positive lower endpoint, got {j}")
    if j.lo < i.lo:
        raise OutOfRange(
            f"divisor interval must not start before the dividend, got {i} and {j}")
    a, b = i.lo, j.lo
    lt = lam * t
    parts = (
        Interval(a / (b + t), (a + lt) / (b + t - lt)),
        Interval(a / (b + lt), (a + lt) / b),
        Interval((a + t - lt) / (b + t), (a + t) / (b + t - lt)),
        Interval((a + t - lt) / (b + lt), (a + t) / b),
    )
    full = Interval(a / (b + t), (a + t) / b)
    return Key2Parts(lam, a, b, t, parts, full)


def key2_check(lam: RationalLike, i: Interval, j: Interval) -> bool:
    """True iff the four refined sub-quotients union exactly to the full quotient."""
    pieces = key2_subintervals(lam, i, j)
    return IntervalSet(pieces.parts) == IntervalSet([pieces.full])


def _window_lattice(lam: Fraction, n: int) -> tuple[int, list[int], int]:
    """Rank-n window pieces on the integer lattice of denominator D = q^n.

    With lam = p/q, every rank-n piece inside [1-lam, 1] is [L/D, (L+w)/D]
    for an integer L and the common width w = p^n, so refinement is integer
    arithmetic. Returns (D, lows, w) with lows in increasing order, the
    left-to-right order of `window_pieces`.
    """
    p, q = lam.numerator, lam.denominator
    lows = [(q - p) * q ** (n - 1)]
    width = p * q ** (n - 1)
    for _ in range(n - 1):
        child = width * p // q  # exact: width is p^k * q^(n-k) with k < n
        shift = width - child
        lows = [x for lo in lows for x in (lo, lo + shift)]
        width = child
    return q ** n, lows, width


def window_pieces(lam: RationalLike, n: int) -> list[Interval]:
    """Rank-n basic intervals inside the window [1-lam, 1] (2^(n-1) pieces)."""
    lam = validated_lambda(lam)
    if n < 1:
        raise OutOfRange(f"rank must be >= 1, got {n}")
    d, lows, w = _window_lattice(lam, n)
    return [Interval(Fraction(lo, d), Fraction(lo + w, d)) for lo in lows]


def key2_scan(lam: RationalLike, n_max: int) -> Optional[tuple[int, Interval, Interval]]:
    """First (rank, i, j) at which the refinement identity fails over the
    window [1-lam, 1], scanning ranks 1..n_max; None when every pair passes.

    Scanning stops at the first failing rank instead of continuing, since
    deeper ranks inherit nothing once the union identity breaks.
    """
    lam = validated_lambda(lam)
    for n in range(1, n_max + 1):
        pieces = window_pieces(lam, n)
        for x in range(len(pieces)):
            for y in range(x, len(pieces)):
                if not key2_check(lam, pieces[x], pieces[y]):
                    return n, pieces[x], pieces[y]
    return None


# ---------------------------------------------------------------------------
# quotient core cover and the scaled ratio-set structure
# ---------------------------------------------------------------------------

def _ratio_keys(d: int, nums: Sequence[int], dens: Sequence[int]) -> list[int]:
    """Integer order keys floor(d^2 * x / y) of the ratios x/y.

    The key of nums[i] / dens[j] is at index j * len(nums) + i. Keys order
    the ratios exactly when every y is a positive integer at most d (see
    `quotient_core_cover`).
    """
    scale = d * d
    scaled = [scale * x for x in nums]
    return [sx // y for y in dens for sx in scaled]


def _merge_closed(lo_keys: Sequence[int], hi_keys: Sequence[int]) -> list[tuple[int, int]]:
    """Merge the closed intervals [lo_keys[f], hi_keys[f]] into disjoint parts.

    One sort by lower key and one linear pass; touching intervals merge, as
    in `IntervalSet`. Each part is returned as (f, g): the index giving its
    lower end and the index giving its upper end.
    """
    merged: list[tuple[int, int]] = []
    top = None
    for f in sorted(range(len(lo_keys)), key=lo_keys.__getitem__):
        if top is None or lo_keys[f] > top:
            merged.append((f, f))
            top = hi_keys[f]
        elif hi_keys[f] > top:
            merged[-1] = (merged[-1][0], f)
            top = hi_keys[f]
    return merged


def quotient_core_cover(lam: RationalLike, n: int,
                        budget: Optional[int] = None) -> IntervalSet:
    """Certified outer cover of the window quotient at rank n.

    Quotients all ordered pairs of rank-n basic intervals inside [1-lam, 1]
    (4^(n-1) pairs) and normalizes the union. The result contains the true
    quotient set of the window at every rank and is nonincreasing in n; for
    lam >= 1/3 it is exactly [1-lam, 1/(1-lam)] at every rank.

    The pairs are formed on the integer lattice of `_window_lattice`: with
    D = q^n the pieces are [L_i/D, H_i/D], so pair (i, j) has the quotient
    [L_i/H_j, H_i/L_j]. Its denominators are at most D, and L_j >=
    (1-lam)*D > 0. Sorting and merging use the integer key floor(K*x/y)
    with K = D^2 (`_ratio_keys`). The key is exact: two distinct fractions
    with denominators at most D differ by at least 1/D^2, so their keys keep
    their order, and equal fractions get equal keys, so touching parts still
    merge. One sort and one linear merge follow, and a Fraction is built
    only for the endpoints of the merged parts.
    """
    lam = validated_lambda(lam)
    if n < 1:
        raise OutOfRange(f"depth must be >= 1, got {n}")
    ensure_depth(n, budget, what=f"pair quotients (4^{n - 1} pairs)")
    d, lows, w = _window_lattice(lam, n)
    highs = [lo + w for lo in lows]
    size = len(lows)
    parts = []
    for f, g in _merge_closed(_ratio_keys(d, lows, highs), _ratio_keys(d, highs, lows)):
        j, i = divmod(f, size)
        lo = Fraction(lows[i], highs[j])
        j, i = divmod(g, size)
        parts.append(Interval(lo, Fraction(highs[i], lows[j])))
    return IntervalSet(parts)


@dataclass(frozen=True)
class RatioSetStructure:
    """The ratio set as geometric scalings of a core window.

    The full set is {0} together with lam^k * core over all integers k; this
    object materializes the scales k in [k_min, k_max]. `exact` marks the
    single-interval core available for lam >= 1/3; otherwise `core` is an
    outer cover at the requested rank.
    """

    lam: Fraction
    core: IntervalSet
    k_min: int
    k_max: int
    exact: bool

    def scaled(self, k: int) -> IntervalSet:
        return affine_image(self.core, self.lam ** k, 0)

    def scaled_union(self) -> IntervalSet:
        parts: list[Interval] = []
        for k in range(self.k_min, self.k_max + 1):
            parts.extend(self.scaled(k).parts)
        return IntervalSet(parts)


def exact_core(lam: RationalLike) -> Interval:
    """The single-interval quotient core [1-lam, 1/(1-lam)], exact for lam >= 1/3."""
    lam = validated_lambda(lam)
    return Interval(1 - lam, 1 / (1 - lam))


def _core(lam: Fraction, n: int) -> tuple[IntervalSet, bool]:
    """The core window and whether it is exact: `exact_core` for lam >= 1/3,
    the rank-n `quotient_core_cover` below."""
    if lam >= Fraction(1, 3):
        return IntervalSet([exact_core(lam)]), True
    return quotient_core_cover(lam, n), False


def ratio_set_structure(lam: RationalLike, k_window: int,
                        n: int = 6) -> RatioSetStructure:
    lam = validated_lambda(lam)
    if k_window < 0:
        raise OutOfRange(f"scale window must be nonnegative, got {k_window}")
    core, exact = _core(lam, n)
    return RatioSetStructure(lam, core, -k_window, k_window, exact)


# ---------------------------------------------------------------------------
# visibility queries
# ---------------------------------------------------------------------------

class Visibility(Enum):
    VISIBLE = "Visible"
    NOT_VISIBLE = "NotVisible"
    UNKNOWN_AT_DEPTH = "UnknownAtDepth"


@dataclass(frozen=True)
class VisibilityAnswer:
    """Three-valued answer with its certificate.

    NOT_VISIBLE carries either a scaled core interval containing alpha or an
    exact endpoint-ratio pair; VISIBLE carries the certified open gap. The
    UNKNOWN verdict means the outer cover contains alpha at the searched
    depth but no exact witness was found: we refuse to guess.
    """

    status: Visibility
    reason: str
    scale_k: Optional[int] = None
    core: Optional[Interval] = None
    gap: Optional[Interval] = None  # open interval
    witness: Optional[tuple[Fraction, Fraction]] = None  # (x, y) with x/y == alpha


def _scale_bracket(alpha: Fraction, lam: Fraction, lo: Fraction, hi: Fraction,
                   max_steps: int):
    """Walk alpha through the scaled family {lam^k [lo, hi]} exactly.

    Returns ("in", k, None) when alpha lands in lam^k [lo, hi]; ("gap", k, g)
    with g the open gap between two consecutive scaled copies containing
    alpha; ("unknown", None, None) when the walk exceeds max_steps.
    """
    k = 0
    s = alpha
    steps = 0
    if s < lo:
        while s < lo:
            steps += 1
            if steps > max_steps:
                return "unknown", None, None
            s = s / lam
            k += 1
        if s <= hi:
            return "in", k, None
        return "gap", k, Interval(lam ** k * hi, lam ** (k - 1) * lo)
    if s > hi:
        while s > hi:
            steps += 1
            if steps > max_steps:
                return "unknown", None, None
            s = s * lam
            k -= 1
        if s >= lo:
            return "in", k, None
        return "gap", k, Interval(lam ** (k + 1) * hi, lam ** k * lo)
    return "in", 0, None


def _endpoint_ratio_witness(lam: Fraction, target: Fraction,
                            n: int) -> Optional[tuple[Fraction, Fraction]]:
    """Search rank-n window endpoints for an exact pair with quotient `target`."""
    params = CantorParams(lam)
    window = Interval(1 - lam, 1)
    d, lows, w = _window_lattice(lam, n)
    margin = n + 16  # products may be endpoints of somewhat deeper rank
    for num in sorted({*lows, *(lo + w for lo in lows)}):
        e = Fraction(num, d)
        x = target * e
        if window.contains(x) and endpoint_rank(params, x, margin) is not None:
            return x, e
        y = e / target
        if window.contains(y) and endpoint_rank(params, y, margin) is not None:
            return e, y
    return None


def visible_query(lam: RationalLike, alpha: RationalLike, n: int = 8,
                  k_window: int = 8) -> VisibilityAnswer:
    """Decide whether the line of slope alpha misses the square off the origin.

    For lam >= 1/3 the scaled-core structure is exact and every positive
    alpha is decided. For lam < 1/3 the cover certifies VISIBLE outside it;
    inside it an exact endpoint-ratio witness is required for NOT_VISIBLE,
    otherwise the verdict stays UNKNOWN_AT_DEPTH.
    """
    lam = validated_lambda(lam)
    if k_window < 0:
        raise OutOfRange(f"scale window must be nonnegative, got {k_window}")
    alpha = as_rational(alpha)
    if alpha < 0:
        raise NegativeSlope(f"slope must be nonnegative, got {format_rational(alpha)}")
    if alpha == 0:
        # 0 is a quotient of attractor points (numerator 0), so the axis is blocked
        return VisibilityAnswer(Visibility.NOT_VISIBLE, "zero-slope")
    max_steps = max(32, 4 * (k_window + 8))
    core, exact = _core(lam, n)
    hull = core.hull()
    kind, k, gap = _scale_bracket(alpha, lam, hull.lo, hull.hi, max_steps)
    if kind == "unknown":
        return VisibilityAnswer(Visibility.UNKNOWN_AT_DEPTH, "scale-search-exhausted")
    if kind == "gap":
        # for the exact core, reachable only when consecutive scaled cores are
        # disjoint, i.e. lam*hi < lo, which is exactly a positive discriminant
        return VisibilityAnswer(Visibility.VISIBLE,
                                "structure-gap" if exact else "scale-gap", gap=gap)
    if exact:
        scaled = Interval(lam ** k * hull.lo, lam ** k * hull.hi)
        return VisibilityAnswer(Visibility.NOT_VISIBLE, "ratio-structure",
                                scale_k=k, core=scaled)
    scaled_alpha = alpha / lam ** k
    part = core.part_containing(scaled_alpha)
    if part is None:
        inner = core.gap_containing(scaled_alpha)
        gap = Interval(lam ** k * inner.lo, lam ** k * inner.hi)
        return VisibilityAnswer(Visibility.VISIBLE, "cover-gap", scale_k=k, gap=gap)
    scaled_part = Interval(lam ** k * part.lo, lam ** k * part.hi)
    pair = _endpoint_ratio_witness(lam, scaled_alpha, n)
    if pair is not None:
        num, den = pair
        m_num = max(k, 0)
        m_den = max(-k, 0)
        witness = (lam ** m_num * num, lam ** m_den * den)
        return VisibilityAnswer(Visibility.NOT_VISIBLE, "endpoint-ratio",
                                scale_k=k, core=scaled_part, witness=witness)
    return VisibilityAnswer(Visibility.UNKNOWN_AT_DEPTH, "no-witness-at-depth",
                            scale_k=k, core=scaled_part)


@dataclass(frozen=True)
class VisibleSet:
    """Certified visible gaps on a scale window.

    `gaps` lists open intervals: their interiors are visible, the endpoints
    belong to the (closed) ratio structure. `exact` is set for lam >= 1/3;
    below 1/3 the gaps are an inner approximation (complement of the outer
    cover), still certified but not maximal.
    """

    lam: Fraction
    k_window: int
    exact: bool
    regime: Regime
    gaps: tuple[Interval, ...]


def visible_set(lam: RationalLike, k_window: int, n: int = 6) -> VisibleSet:
    """Certified visible gaps adjacent to the scaled cores with |k| <= k_window.

    The union is built over scales |k| <= k_window + 1 so that every reported
    gap is delimited on both sides; scales beyond the window cannot reach
    into these gaps because consecutive scaled hulls are disjoint outside
    the all-covered regime. In that regime the result is empty.

    Disjointness also orders the union: the core's hull is [1-lam,
    1/(1-lam)], and lam/(1-lam) < 1-lam exactly when the discriminant is
    positive, so the scaled copies, taken from the largest k down, are
    already sorted and disjoint, and the gaps are read off in one pass
    without a merge.
    """
    lam = validated_lambda(lam)
    if k_window < 0:
        raise OutOfRange(f"scale window must be nonnegative, got {k_window}")
    regime = regime_classify(lam)
    if regime.tag is RegimeTag.REGIME1_V_EMPTY:
        return VisibleSet(lam, k_window, True, regime, ())
    base, exact = _core(lam, n)
    gaps: list[Interval] = []
    top: Optional[Fraction] = None
    for k in range(k_window + 1, -(k_window + 2), -1):
        r = lam ** k
        for part in base.parts:
            lo = r * part.lo
            if top is not None:
                gaps.append(Interval(top, lo))
            top = r * part.hi
    return VisibleSet(lam, k_window, exact, regime, tuple(gaps))


def thickness_condition(lam: RationalLike) -> bool:
    """Exact test lam^2 > lam*(1-2*lam)^2, the interval-guarantee inequality."""
    lam = validated_lambda(lam)
    return lam > (1 - 2 * lam) ** 2


# ---------------------------------------------------------------------------
# box-counting slope estimation
# ---------------------------------------------------------------------------

def box_count(cover: IntervalSet, scale: RationalLike) -> int:
    """Minimal number of grid-aligned closed boxes of the given width covering
    the set; boxes are [j*s, (j+1)*s] and the count is exact."""
    s = as_rational(scale)
    if s <= 0:
        raise OutOfRange(f"scale must be positive, got {format_rational(s)}")
    count = 0
    last: Optional[int] = None
    for part in cover.parts:
        start = part.lo if last is None else max(part.lo, (last + 1) * s)
        if start > part.hi:
            continue
        j0 = math.floor(start / s)
        j1 = max(j0, math.ceil(part.hi / s) - 1)
        count += j1 - j0 + 1
        last = j1
    return count


@dataclass(frozen=True)
class BoxDimEstimate:
    slope: float
    intercept: float
    max_residual: float
    scales: tuple[Fraction, ...]
    counts: tuple[int, ...]


def box_dim_estimate(covers: Sequence[tuple[RationalLike, IntervalSet]]) -> BoxDimEstimate:
    """Least-squares slope of log(box count) against -log(scale).

    Box counts are exact; only the final fit is floating point. The maximum
    residual is reported so callers can bound the fit quality instead of
    trusting the slope blindly.
    """
    if len(covers) < 3:
        raise InsufficientScales(f"need at least 3 scales, got {len(covers)}")
    scales = [as_rational(s) for s, _ in covers]
    for prev, cur in zip(scales, scales[1:]):
        if not cur < prev:
            raise InsufficientScales("scales must be strictly decreasing")
    counts = [box_count(cover, s) for s, (_, cover) in zip(scales, covers)]
    if any(c <= 0 for c in counts):
        raise InsufficientScales("every cover must be nonempty")
    xs = [-math.log(float(s)) for s in scales]
    ys = [math.log(c) for c in counts]
    slope, intercept = linear_regression(xs, ys)
    max_residual = max(abs(y - (slope * x + intercept)) for x, y in zip(xs, ys))
    return BoxDimEstimate(slope, intercept, max_residual,
                          tuple(scales), tuple(counts))
