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

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

# the budget ceiling and the memory bound it comes from live in `cantor`
from .cantor import (CLOSURE_MEMORY_BYTES, MAX_BUDGET, NODE_BYTES, IfsMap, _lattice,
                     ensure_work, validated_lambda)
from .errors import NotIntervalAttractor, OutOfAttractor, OutOfRange
from .exact import (Interval, IntervalSet, RationalLike, _merge_closed, as_rational,
                    format_rational)


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

    def labels_at(self, x: Fraction) -> tuple[int, ...]:
        """The effective labels, in label order, whose image contains x."""
        return tuple(label for label in self.effective
                     if self.map_images[label - 1].contains(x))

    def inverse(self, label: int, x: RationalLike) -> Fraction:
        return self.map_for(label).invert(x)


def validated_slope(t: RationalLike) -> Fraction:
    """t as a Fraction, checked to be positive."""
    t = as_rational(t)
    if t <= 0:
        raise OutOfRange(f"slope must be positive, got {format_rational(t)}")
    return t


def build_projection_ifs(lam: RationalLike, t: RationalLike) -> ProjectionIfs:
    """Construct the projection system and certify the interval assumption.

    The four images must union exactly to [-t, 1]; otherwise the projection
    is not an interval and NotIntervalAttractor is raised. For t >= 1 the
    closed-form overlap endpoints are cross-checked against the generic
    pairwise intersections.
    """
    lam = validated_lambda(lam)
    t = validated_slope(t)
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
    holds the intervals of the nondegenerate ones. All images have equal
    length, so these regions make up the full multi-branch region."""

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

    The fields are what the search found. `parents` holds one parent pointer
    per point (see `inverse_closure`); its keys are the closure, and `word(p)`
    follows them to a shortest branch word sending the start to p.
    `witness_to_hole` is the first hole-hitting word in breadth-first order;
    `saturated` records whether the closure is complete, which HITS_HOLE
    alone does not imply. `status` and the sorted `visited` are read off
    these fields, the sort only when `visited` is first read.
    """

    start: Fraction
    parents: Parents
    witness_to_hole: Optional[tuple[int, ...]]
    saturated: bool

    @property
    def status(self) -> OrbitStatus:
        if self.witness_to_hole is not None:
            return OrbitStatus.HITS_HOLE
        return OrbitStatus.FINITE_CLOSURE if self.saturated else OrbitStatus.BUDGET_EXCEEDED

    @cached_property
    def visited(self) -> tuple[Fraction, ...]:
        """The closure's points in increasing order."""
        return tuple(sorted(self.parents))

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
    points, which leaves `saturated` False. The budget must lie in
    [1, MAX_BUDGET], which bounds the closure's memory.
    """
    if not 1 <= budget <= MAX_BUDGET:
        raise OutOfRange(f"budget must lie in [1, {MAX_BUDGET}], got {budget}")
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
    return OrbitClosure(x, *inverse_closure(ifs, (x,), budget))


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

    @property
    def verdict(self) -> Verdict:
        statuses = [e.orbit.status for e in self.endpoints]
        if all(s is OrbitStatus.HITS_HOLE for s in statuses):
            return Verdict.TRUE
        if any(s is OrbitStatus.FINITE_CLOSURE for s in statuses):
            return Verdict.FALSE
        return Verdict.UNKNOWN

    @property
    def holds(self) -> bool:
        return self.verdict is Verdict.TRUE

    def failing(self) -> tuple[EndpointReport, ...]:
        return tuple(e for e in self.endpoints
                     if e.orbit.status is not OrbitStatus.HITS_HOLE)


@dataclass(frozen=True)
class Prop2Report:
    """Per-endpoint finite-closure check.

    TRUE certifies every endpoint closure finite (saturated within budget).
    Budgets cannot certify infiniteness, so the only other verdict is
    UNKNOWN. `closure_union`, the sorted union of the endpoint closures and
    under TRUE the cut points for the graph construction, is built when it
    is first read.
    """

    endpoints: tuple[EndpointReport, ...]

    @property
    def verdict(self) -> Verdict:
        return (Verdict.TRUE if all(e.orbit.saturated for e in self.endpoints)
                else Verdict.UNKNOWN)

    @property
    def holds(self) -> bool:
        return self.verdict is Verdict.TRUE

    @cached_property
    def closure_union(self) -> tuple[Fraction, ...]:
        return tuple(sorted(set().union(*(e.orbit.parents for e in self.endpoints))))


def _endpoint_orbits(ifs: ProjectionIfs, budget: int) -> tuple[EndpointReport, ...]:
    return tuple(EndpointReport(label, point, orbit_search(ifs, point, budget))
                 for label, point in ifs.regions.endpoints())


def prop1_check(ifs: ProjectionIfs, budget: int = 10_000) -> Prop1Report:
    return Prop1Report(_endpoint_orbits(ifs, budget))


def prop2_check(ifs: ProjectionIfs, budget: int = 10_000) -> Prop2Report:
    return Prop2Report(_endpoint_orbits(ifs, budget))


def coding_count(ifs: ProjectionIfs, a: RationalLike, n: int) -> int:
    """Number of admissible depth-n branch words for the offset a.

    A count of 1 at every tested depth is the finite-depth unique-coding
    certificate; counts only reveal multiplicity, never hide it, since a
    second coding shows up as soon as the orbit can branch.

    Each level maps the points k inverse steps reach to their word counts;
    the points of the levels expanded so far are the enumeration's items.
    """
    a = _attractor_point(ifs, a)
    ensure_work("coding enumeration", n)
    level = {a: 1}
    items = 0
    for _ in range(n):
        items += len(level)
        ensure_work("coding enumeration", n, items)
        nxt: dict[Fraction, int] = {}
        for x, words in level.items():
            for label in ifs.labels_at(x):
                z = ifs.inverse(label, x)
                nxt[z] = nxt.get(z, 0) + words
        level = nxt
    return sum(level.values())


def slice_count_2d(lam: RationalLike, t: RationalLike, a: RationalLike, n: int) -> int:
    """Rank-n product cells whose oblique projection contains the offset a.

    Brute-force upper-bound oracle for the slice multiplicity: counts pairs
    of rank-n basic intervals (X, Y) with a in [Y.lo - t*X.hi, Y.hi - t*X.lo],
    refining only the cells whose projection still contains a. Offsets
    outside [-t, 1] yield 0.

    The cells live on the rank-n lattice of `cantor._lattice`: for lam = p/q
    and D = q^n, a depth-k basic interval is [x/D, (x + w_k)/D] for an
    integer origin x, and its children have the origins x and x + shift_k.
    With t = r/s and a = u/v the offset test is multiplied through by D*s*v.
    The cells built over all levels are the enumeration's items.
    """
    lam = validated_lambda(lam)
    t = validated_slope(t)
    a = as_rational(a)
    ensure_work("slice-cell enumeration", n)
    widths, shifts = _lattice(lam, n)
    r, s = t.numerator, t.denominator
    u, v = a.numerator, a.denominator
    target = u * s * widths[0]
    cells = [(0, 0)]
    items = 1
    for depth in range(n + 1):
        width = widths[depth]
        cells = [(x, y) for x, y in cells
                 if v * (s * y - r * (x + width)) <= target <= v * (s * (y + width) - r * x)]
        if depth == n:
            break
        items += 4 * len(cells)
        ensure_work("slice-cell enumeration", n, items)
        step = shifts[depth]
        cells = [(xc, yc) for x, y in cells
                 for xc in (x, x + step) for yc in (y, y + step)]
    return len(cells)


def _survivor_levels(ifs: ProjectionIfs,
                     depths: Sequence[int]) -> Iterator[tuple[int, list[tuple[int, int]]]]:
    """The depth-n survivor covers of `survivor_cover` on integer lattices,
    for each of the sorted nonnegative `depths`, in one pass.

    With lam = p/q and b the least common denominator of the holes, the map
    shifts and the attractor, every endpoint of the depth-k removed set is
    an integer over d = b*q^k. A map x -> lam*x + c sends the lattice point
    X over b*q^(k-1) to p*X + (b*c)*q^k over d. So each level is one list of
    integer pairs, one sort and one merge. Yields (d, survivors): the merged
    parts of the attractor minus the removed set, as integers over d.
    The depths are checked on the call, the pieces of each level as it is built.
    """
    for n in depths:
        ensure_work("survivor levels", n)
    return _levels(ifs, depths)


def _levels(ifs: ProjectionIfs,
            depths: Sequence[int]) -> Iterator[tuple[int, list[tuple[int, int]]]]:
    p, q = ifs.lam.numerator, ifs.lam.denominator
    holes = ifs.regions.holes
    shifts = [ifs.map_for(label).shift for label in ifs.effective]
    b = math.lcm(ifs.attractor.lo.denominator,
                 *(x.denominator for h in holes for x in (h.lo, h.hi)),
                 *(c.denominator for c in shifts))
    hole_pairs = [(int(h.lo * b), int(h.hi * b)) for h in holes]
    offsets = [int(c * b) for c in shifts]
    removed = _merged(hole_pairs)
    d, level, items = b, 0, 0
    for n in depths:
        while level < n:
            level += 1
            d *= q
            items += len(hole_pairs) + len(offsets) * len(removed)
            ensure_work("survivor levels", n, items)
            scale = d // b
            pieces = [(lo * scale, hi * scale) for lo, hi in hole_pairs]
            for c in offsets:
                shift = c * scale
                pieces.extend([(p * lo + shift, p * hi + shift) for lo, hi in removed])
            removed = _merged(pieces)
        yield d, _complement(removed, int(ifs.attractor.lo * d), d)


def _merged(pairs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The integer pairs [lo, hi] merged into sorted disjoint parts."""
    los = [lo for lo, _ in pairs]
    his = [hi for _, hi in pairs]
    return [(los[f], his[g]) for f, g in _merge_closed(los, his)]


def _complement(removed: list[tuple[int, int]], lo: int, hi: int) -> list[tuple[int, int]]:
    """Closure of [lo, hi] minus the merged parts `removed`, which lie inside
    it (the holes do, and every map sends the attractor into itself). A
    removed single point leaves no cut."""
    ends = [lo]
    for a, b in removed:
        if a < b:
            ends += (a, b)
    ends.append(hi)
    return [(a, b) for a, b in zip(ends[::2], ends[1::2]) if a < b]


def survivor_cover(ifs: ProjectionIfs, n: int) -> IntervalSet:
    """Closed complement of the depth-n hole preimages inside the attractor.

    The removed set is the hole together with every branch image of the
    depth-(n-1) removed set. Levels 0..n are built on integer lattices with
    one sort and merge each (see `_survivor_levels`), so the part count
    tracks the survivor structure instead of exploding with 4^n words; only
    the parts of the result become fractions. The complement
    outer-approximates the unique-coding set and box-counts at scale lam^n
    track its growth rate.
    """
    ((d, survivors),) = _survivor_levels(ifs, (n,))
    return IntervalSet._from_merged(
        [Interval(Fraction(lo, d), Fraction(hi, d)) for lo, hi in survivors])
