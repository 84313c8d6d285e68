"""Projection dynamics for slicing the Cantor square along a fixed slope.

Under the interval assumption, the oblique projection of the square is the
attractor [-t, 1] of four affine contractions (t is the slope, kept
rational). Points in the overlaps of consecutive map images admit more than
one inverse branch; a slice through the square at offset a hits a single
point exactly when a has a unique branch coding. Orbit searches track how
the overlap endpoints travel under the inverse maps, which is the raw
material for the graph-directed construction in `gds`.

Hole-hit convention: an orbit "hits the hole" when a proper inverse image
(word length >= 1) lands in some half-open overlap [a_i, b_i). The right
endpoints stay safe, which keeps the endpoints' own closures meaningful;
degenerate (single-point) overlaps never count as holes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterable, Optional

from .cantor import CantorParams, IfsMap, UNIT, refine_to_depth, validated_lambda
from .errors import NotIntervalAttractor, OutOfAttractor, OutOfRange
from .exact import Interval, IntervalSet, RationalLike, as_rational, format_rational


@dataclass(frozen=True)
class ProjectionIfs:
    """The four-map projection system on [-t, 1].

    `effective` lists the 1-based labels kept after removing coincident maps
    (t == 1 makes two shifts collide); `degenerate` marks that reduction.
    `build_projection_ifs` computes the attractor's images (`map_images[j - 1]`
    under map j), the effective labels in image `order` and the overlap regions.
    """

    lam: Fraction
    slope_t: Fraction
    maps: tuple[IfsMap, IfsMap, IfsMap, IfsMap]
    attractor: Interval
    effective: tuple[int, ...]
    degenerate: bool
    map_images: tuple[Interval, Interval, Interval, Interval]
    order: tuple[int, ...]
    regions: OverlapRegions

    def map_for(self, label: int) -> IfsMap:
        return self.maps[label - 1]

    def image(self, label: int) -> Interval:
        return self.map_images[label - 1]

    def images(self) -> tuple[tuple[int, Interval], ...]:
        return tuple((label, self.map_images[label - 1]) for label in self.effective)

    def sorted_labels(self) -> tuple[int, ...]:
        return self.order

    def labels_at(self, x: Fraction) -> tuple[int, ...]:
        """The effective labels, in label order, whose image contains x."""
        return tuple(label for label in self.effective
                     if self.map_images[label - 1].contains(x))

    def inverse(self, label: int, x: RationalLike) -> Fraction:
        return self.map_for(label).invert(x)


def build_projection_ifs(lam: RationalLike, t: RationalLike) -> ProjectionIfs:
    """Construct the projection system and certify the interval assumption.

    The four images must union exactly to [-t, 1]; otherwise the projection
    is not an interval and NotIntervalAttractor is raised. For t >= 1 the
    closed-form overlap endpoints are cross-checked against the generic
    pairwise intersections.
    """
    lam = validated_lambda(lam)
    t = as_rational(t)
    if t <= 0:
        raise OutOfRange(f"slope must be positive, got {format_rational(t)}")
    shifts = (-(1 - lam) * t, (1 - lam) * (1 - t), Fraction(0), 1 - lam)
    maps = tuple(IfsMap(lam, s) for s in shifts)
    attractor = Interval(-t, 1)
    images = tuple(m.apply_interval(attractor) for m in maps)
    if IntervalSet(images) != IntervalSet([attractor]):
        raise NotIntervalAttractor(
            f"images do not cover [{format_rational(-t)}, 1] at "
            f"lambda={format_rational(lam)}, t={format_rational(t)}")
    effective = [label for label, m in enumerate(maps, start=1)
                 if m not in maps[:label - 1]]
    degenerate = len(effective) < 4
    if degenerate:
        warnings.warn(
            f"coincident maps at t={format_rational(t)}: reduced to labels {effective}",
            RuntimeWarning, stacklevel=2)
    order = tuple(sorted(effective, key=lambda l: (images[l - 1].lo, l)))
    regions: list[OverlapRegion] = []
    for left, right in zip(order, order[1:]):
        inter = images[left - 1].intersection(images[right - 1])
        if inter is None:
            raise RuntimeError("image chain broken; covering check should prevent this")
        regions.append(OverlapRegion(inter, left, right))
    if not degenerate and t >= 1:
        # closed forms valid for t >= 1, where the images sort in label order
        expected = (
            Interval(1 - lam - t, lam - (1 - lam) * t),
            Interval(-lam * t, 1 - (1 - lam) * t),
            Interval(1 - lam - lam * t, lam),
        )
        computed = tuple(r.interval for r in regions)
        if computed != expected:
            raise RuntimeError(
                f"overlap formulas disagree with pairwise intersections: "
                f"{computed} vs {expected}")
    return ProjectionIfs(lam, t, maps, attractor, tuple(effective), degenerate,
                         images, order, OverlapRegions(tuple(regions)))


@dataclass(frozen=True)
class OverlapRegion:
    interval: Interval
    left_label: int
    right_label: int

    @property
    def degenerate(self) -> bool:
        return self.interval.length == 0


@dataclass(frozen=True)
class OverlapRegions:
    """Intersections of consecutive (left-endpoint sorted) map images; `holes`
    holds the intervals of the nondegenerate ones."""

    regions: tuple[OverlapRegion, ...]
    holes: tuple[Interval, ...] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "holes", tuple(
            r.interval for r in self.regions if not r.degenerate))

    def hole_set(self) -> IntervalSet:
        """Closed union of the nondegenerate overlaps."""
        return IntervalSet(self.holes)

    def hits(self, x: RationalLike) -> bool:
        """Half-open hole membership: lo <= x < hi on nondegenerate regions."""
        x = as_rational(x)
        return any(h.lo <= x < h.hi for h in self.holes)

    def endpoints(self) -> tuple[tuple[str, Fraction], ...]:
        out: list[tuple[str, Fraction]] = []
        for idx, r in enumerate(self.regions, start=1):
            out.append((f"a{idx}", r.interval.lo))
            out.append((f"b{idx}", r.interval.hi))
        return tuple(out)


def overlap_regions(ifs: ProjectionIfs) -> OverlapRegions:
    """Consecutive-pair image intersections, sorted left to right.

    Point overlaps are kept and flagged degenerate. Because all images have
    equal length, any non-consecutive intersection is contained in the
    consecutive ones, so this union is the full multi-branch region.
    """
    return ifs.regions


def admissible_branches(ifs: ProjectionIfs, x: RationalLike) -> tuple[int, ...]:
    """Labels j with x in the j-th image; at least one inside the attractor,
    two or more exactly on the overlap region."""
    return ifs.labels_at(_attractor_point(ifs, x))


def _attractor_point(ifs: ProjectionIfs, x: RationalLike) -> Fraction:
    x = as_rational(x)
    if not ifs.attractor.contains(x):
        raise OutOfAttractor(
            f"{format_rational(x)} outside [{format_rational(ifs.attractor.lo)}, 1]")
    return x


class OrbitStatus(Enum):
    HITS_HOLE = "HitsHole"
    FINITE_CLOSURE = "FiniteClosure"
    BUDGET_EXCEEDED = "BudgetExceeded"


Parents = dict[Fraction, Optional[tuple[Fraction, int]]]


def _word(parents: Parents, point: Fraction) -> tuple[int, ...]:
    labels: list[int] = []
    while parents[point] is not None:
        point, label = parents[point]
        labels.append(label)
    return tuple(reversed(labels))


@dataclass
class OrbitClosure:
    """Breadth-first closure of a point under all admissible inverse branches.

    `parents` holds one parent pointer per point (see `inverse_closure`), and
    `word(p)` follows them to a shortest branch word sending the start to p.
    `witness_to_hole` is the first hole-hitting word in breadth-first order;
    `saturated` records whether the closure is complete, which HITS_HOLE
    alone does not imply.
    """

    start: Fraction
    status: OrbitStatus
    witness_to_hole: Optional[tuple[int, ...]]
    visited: tuple[Fraction, ...]
    parents: Parents
    saturated: bool

    def word(self, point: Fraction) -> tuple[int, ...]:
        """A shortest branch word sending the start to `point`; () for the start."""
        return _word(self.parents, point)


def inverse_closure(ifs: ProjectionIfs, seeds: Iterable[Fraction],
                    budget: int = 10_000,
                    ) -> tuple[Parents, Optional[tuple[int, ...]], bool]:
    """Close the seeds under every admissible inverse branch, breadth first.

    Returns (parents, witness, saturated). The keys of `parents` are the
    closure. Each maps to the parent pointer (q, label) by which the search
    first reached it as the label-inverse image of q, or to None for a seed;
    following the pointers spells a shortest branch word from a seed. Branches
    are taken in label order, so results are deterministic. Hole hits are
    checked on every proper image, revisits included, and `witness` is the
    first hole-hitting word in breadth-first order; the seeds themselves never
    count. Exploration continues through hole hits; it stops only at
    saturation or when a new point would grow the closure past `budget`
    points, which leaves `saturated` False.
    """
    if budget < 1:
        raise OutOfRange(f"budget must be positive, got {budget}")
    parents: Parents = dict.fromkeys(seeds)
    queue = list(parents)  # grows while the loop walks it: breadth-first order
    witness: Optional[tuple[int, ...]] = None
    for y in queue:
        for label in ifs.labels_at(y):
            z = ifs.inverse(label, y)
            if witness is None and ifs.regions.hits(z):
                witness = _word(parents, y) + (label,)
            if z not in parents:
                if len(parents) >= budget:
                    return parents, witness, False
                parents[z] = (y, label)
                queue.append(z)
    return parents, witness, True


def orbit_search(ifs: ProjectionIfs, x: RationalLike,
                 budget: int = 10_000) -> OrbitClosure:
    """The inverse closure of the single point x (see `inverse_closure`)."""
    x = _attractor_point(ifs, x)
    parents, witness, saturated = inverse_closure(ifs, (x,), budget)
    if witness is not None:
        status = OrbitStatus.HITS_HOLE
    elif not saturated:
        status = OrbitStatus.BUDGET_EXCEEDED
    else:
        status = OrbitStatus.FINITE_CLOSURE
    return OrbitClosure(start=x, status=status, witness_to_hole=witness,
                        visited=tuple(sorted(parents)), parents=parents,
                        saturated=saturated)


class Verdict(Enum):
    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class EndpointReport:
    label: str
    point: Fraction
    orbit: OrbitClosure


@dataclass(frozen=True)
class Prop1Report:
    """Per-endpoint hole-return check.

    `holds` requires every overlap endpoint's orbit to hit the hole. FALSE is
    definite (some endpoint's full closure avoids the hole); UNKNOWN means at
    least one undecided endpoint ran out of budget.
    """

    endpoints: tuple[EndpointReport, ...]
    verdict: Verdict

    @property
    def holds(self) -> bool:
        return self.verdict is Verdict.TRUE

    def failing(self) -> tuple[EndpointReport, ...]:
        return tuple(e for e in self.endpoints
                     if e.orbit.status is not OrbitStatus.HITS_HOLE)


@dataclass(frozen=True)
class Prop2Report:
    """Per-endpoint finite-closure check.

    TRUE certifies every endpoint closure finite (saturated within budget)
    and returns their union, the cut points for the graph construction.
    Budgets cannot certify infiniteness, so the only other verdict is
    UNKNOWN.
    """

    endpoints: tuple[EndpointReport, ...]
    verdict: Verdict
    closure_union: tuple[Fraction, ...]

    @property
    def holds(self) -> bool:
        return self.verdict is Verdict.TRUE


def _endpoint_orbits(ifs: ProjectionIfs, budget: int) -> tuple[EndpointReport, ...]:
    return tuple(EndpointReport(label, point, orbit_search(ifs, point, budget))
                 for label, point in ifs.regions.endpoints())


def _prop1_report(reports: tuple[EndpointReport, ...]) -> Prop1Report:
    statuses = [r.orbit.status for r in reports]
    if all(s is OrbitStatus.HITS_HOLE for s in statuses):
        verdict = Verdict.TRUE
    elif any(s is OrbitStatus.FINITE_CLOSURE for s in statuses):
        verdict = Verdict.FALSE
    else:
        verdict = Verdict.UNKNOWN
    return Prop1Report(reports, verdict)


def _prop2_report(reports: tuple[EndpointReport, ...]) -> Prop2Report:
    union: set[Fraction] = set()
    for r in reports:
        union.update(r.orbit.visited)
    verdict = Verdict.TRUE if all(r.orbit.saturated for r in reports) else Verdict.UNKNOWN
    return Prop2Report(reports, verdict, tuple(sorted(union)))


def prop1_check(ifs: ProjectionIfs, budget: int = 10_000) -> Prop1Report:
    return _prop1_report(_endpoint_orbits(ifs, budget))


def prop2_check(ifs: ProjectionIfs, budget: int = 10_000) -> Prop2Report:
    return _prop2_report(_endpoint_orbits(ifs, budget))


def coding_count(ifs: ProjectionIfs, a: RationalLike, n: int) -> int:
    """Number of admissible depth-n branch words for the offset a.

    A count of 1 at every tested depth is the finite-depth unique-coding
    certificate; counts only reveal multiplicity, never hide it, since a
    second coding shows up as soon as the orbit can branch.
    """
    a = _attractor_point(ifs, a)
    if n < 0:
        raise OutOfRange(f"depth must be nonnegative, got {n}")
    memo: dict[tuple[Fraction, int], int] = {}

    def count(x: Fraction, depth: int) -> int:
        if depth == 0:
            return 1
        key = (x, depth)
        cached = memo.get(key)
        if cached is not None:
            return cached
        total = 0
        for label in ifs.labels_at(x):
            total += count(ifs.inverse(label, x), depth - 1)
        memo[key] = total
        return total

    return count(a, n)


def slice_count_2d(lam: RationalLike, t: RationalLike, a: RationalLike, n: int) -> int:
    """Rank-n product cells whose oblique projection contains the offset a.

    Brute-force upper-bound oracle for the slice multiplicity: counts pairs
    of rank-n basic intervals (X, Y) with a in [Y.lo - t*X.hi, Y.hi - t*X.lo],
    pruning subtrees whose projection already misses a. Offsets outside
    [-t, 1] yield 0.
    """
    params = CantorParams(lam)
    t = as_rational(t)
    if t <= 0:
        raise OutOfRange(f"slope must be positive, got {format_rational(t)}")
    if n < 0:
        raise OutOfRange(f"depth must be nonnegative, got {n}")
    a = as_rational(a)

    def count(x_iv: Interval, y_iv: Interval, depth: int) -> int:
        if not (y_iv.lo - t * x_iv.hi <= a <= y_iv.hi - t * x_iv.lo):
            return 0
        if depth == n:
            return 1
        total = 0
        for x_child in refine_to_depth(params, x_iv, 1):
            for y_child in refine_to_depth(params, y_iv, 1):
                total += count(x_child, y_child, depth + 1)
        return total

    return count(UNIT, UNIT, 0)


def survivor_cover(ifs: ProjectionIfs, n: int) -> IntervalSet:
    """Closed complement of the depth-n hole preimages inside the attractor.

    The union of all branch images of the hole up to depth n is built
    recursively with normalization at every level, so the interval count
    tracks the survivor structure instead of exploding with 4^n words. The
    complement outer-approximates the unique-coding set and box-counts at
    scale lam^n track its growth rate.
    """
    if n < 0:
        raise OutOfRange(f"depth must be nonnegative, got {n}")
    hole = ifs.regions.hole_set()
    removed = hole
    for _ in range(n):
        mapped = [ifs.map_for(label).apply_interval(part)
                  for label in ifs.effective for part in removed.parts]
        removed = IntervalSet((*hole.parts, *mapped))
    return removed.complement_within(ifs.attractor)
