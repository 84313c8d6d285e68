"""The integer-lattice slice kernels against the Fraction constructions.

The survivor oracle is the direct recursion: the removed set at depth n is the
hole together with every branch image of the depth-(n-1) removed set,
normalized as an `IntervalSet` at every level, and the survivor cover is its
closed complement in the attractor. The box-count oracle counts grid boxes
with `Fraction` floors and ceilings, and the slice-count oracle refines
product cells with `refine_to_depth`.
"""

import math
import warnings
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorvis.cantor import CantorParams, UNIT, basic_intervals, refine_to_depth
from cantorvis.errors import InsufficientScales, OutOfRange
from cantorvis.exact import Interval, IntervalSet
from cantorvis.gds import univoque_dimension_estimate
from cantorvis.slices import (_merged, build_projection_ifs, coding_count,
                              slice_count_2d, survivor_cover)
from cantorvis.visibility import box_count, box_dim_estimate, quotient_core_cover
from draws import interval_systems

MAX_DEPTH = 8

# lambda = 1/3 at several slopes, a system without holes, the degenerate
# t = 1, and lambda = p/q with p > 1 at slopes in both interval bands
SYSTEMS = [(F(1, 3), F(1, 2)), (F(1, 3), F(2, 3)), (F(1, 3), F(3)), (F(1, 3), F(3, 5)),
           (F(1, 4), F(1, 2)), (F(1, 3), F(1)),
           (F(3, 10), F(1, 2)), (F(3, 10), F(2)), (F(7, 25), F(1, 2)), (F(3, 8), F(2))]


def projection(lam, t):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # t = 1 is reduced
        return build_projection_ifs(lam, t)


def oracle_survivors(ifs, n):
    """The survivor covers at depths 0..n, by Fraction recursion."""
    hole = ifs.regions.hole_set()
    removed = hole
    covers = [removed.complement_within(ifs.attractor)]
    for _ in range(n):
        mapped = [ifs.map_for(label).apply_interval(part)
                  for label in ifs.effective for part in removed.parts]
        removed = IntervalSet((*hole.parts, *mapped))
        covers.append(removed.complement_within(ifs.attractor))
    return covers


_ORACLE: dict = {}


def oracle(lam, t):
    if (lam, t) not in _ORACLE:
        ifs = projection(lam, t)
        _ORACLE[lam, t] = (ifs, oracle_survivors(ifs, MAX_DEPTH))
    return _ORACLE[lam, t]


def test_systems_cover_the_cases():
    kinds = set()
    for lam, t in SYSTEMS:
        ifs, _ = oracle(lam, t)
        kinds.add("degenerate" if ifs.degenerate else
                  "no-hole" if not ifs.regions.holes else
                  "p>1" if lam.numerator > 1 else "1/q")
    assert kinds == {"degenerate", "no-hole", "p>1", "1/q"}


@pytest.mark.parametrize("lam, t", SYSTEMS)
def test_survivor_cover_matches_oracle(lam, t):
    ifs, covers = oracle(lam, t)
    for n in range(MAX_DEPTH + 1):
        assert survivor_cover(ifs, n) == covers[n], n


@pytest.mark.parametrize("lam, t", SYSTEMS)
@pytest.mark.parametrize("depths", [(6, 7, 8), (8, 6, 7), (0, 1, 2, 3), (5, 2, 8, 3)])
def test_univoque_estimate_matches_oracle(lam, t, depths):
    ifs, covers = oracle(lam, t)
    expected = box_dim_estimate([(lam ** n, covers[n]) for n in sorted(depths)])
    assert univoque_dimension_estimate(ifs, depths) == expected


@pytest.mark.parametrize("depths, error", [
    ((), InsufficientScales), ((6, 7), InsufficientScales),
    ((6, 7, 7), InsufficientScales), ((3, 3, 3), InsufficientScales),
    ((-1, 6, 7), OutOfRange), ((7, -2), OutOfRange)])
def test_univoque_estimate_errors(depths, error):
    with pytest.raises(error):
        univoque_dimension_estimate(projection(F(1, 3), F(1, 2)), depths)


def test_negative_survivor_depth_is_out_of_range():
    with pytest.raises(OutOfRange):
        survivor_cover(projection(F(1, 3), F(1, 2)), -1)


# -- box counts ---------------------------------------------------------------------

def oracle_box_count(cover, s):
    count, last = 0, None
    for part in cover.parts:
        start = part.lo if last is None else max(part.lo, (last + 1) * s)
        if start > part.hi:
            continue
        j0 = math.floor(start / s)
        j1 = max(j0, math.ceil(part.hi / s) - 1)
        count += j1 - j0 + 1
        last = j1
    return count


SMALL_COVERS = [
    IntervalSet([Interval(0, 1)]),
    IntervalSet([Interval(F(1, 4), F(1, 2))]),
    IntervalSet([Interval(F(1, 10), F(1, 5)), Interval(F(3, 10), F(2, 5))]),
    IntervalSet([Interval(F(1, 2), F(1, 2))]),
    IntervalSet([Interval(F(-3, 7), F(-1, 5)), Interval(F(1, 3), F(1, 3)),
                 Interval(F(1, 2), F(5, 4))]),
    IntervalSet(),
]


@pytest.mark.parametrize("cover", SMALL_COVERS)
@pytest.mark.parametrize("scale", [F(1), F(1, 2), F(1, 3), F(1, 4), F(2, 9), F(7, 100)])
def test_box_count_matches_oracle_on_small_covers(cover, scale):
    assert box_count(cover, scale) == oracle_box_count(cover, scale)


@pytest.mark.parametrize("lam", [F(1, 4), F(1, 5), F(2, 7)])
def test_box_count_matches_oracle_on_basic_and_quotient_covers(lam):
    for n in range(1, 7):
        for cover in (basic_intervals(CantorParams(lam), n), quotient_core_cover(lam, n)):
            for scale in (lam ** n, lam ** (n - 1), F(1, 7) ** n):
                assert box_count(cover, scale) == oracle_box_count(cover, scale)


def test_box_count_keeps_the_shared_edge_box():
    # the second part starts past box 0 but ends on its right edge, so the
    # count takes box 1 too; the lattice count keeps that rule
    cover = IntervalSet([Interval(0, F(1, 10)), Interval(F(1, 2), 1)])
    assert box_count(cover, 1) == oracle_box_count(cover, F(1)) == 2


# -- the merge ----------------------------------------------------------------------

integer_pairs = st.lists(st.tuples(st.integers(-30, 30), st.integers(0, 8)).map(
    lambda lw: (lw[0], lw[0] + lw[1])), max_size=12)


@settings(max_examples=200, deadline=None)
@given(integer_pairs)
def test_merged_matches_interval_set(pairs):
    expected = [(p.lo, p.hi) for p in IntervalSet(Interval(a, b) for a, b in pairs)]
    assert _merged(pairs) == expected


def test_merged_joins_touching_and_point_parts():
    assert _merged([(5, 7), (0, 2), (2, 3), (3, 3), (7, 7), (9, 9)]) == [
        (0, 3), (5, 7), (9, 9)]


# -- slice counts -------------------------------------------------------------------

def oracle_slice_count(lam, t, a, n):
    params = CantorParams(lam)

    def count(x_iv, y_iv, depth):
        if not y_iv.lo - t * x_iv.hi <= a <= y_iv.hi - t * x_iv.lo:
            return 0
        if depth == n:
            return 1
        return sum(count(x, y, depth + 1)
                   for x in refine_to_depth(params, x_iv, 1)
                   for y in refine_to_depth(params, y_iv, 1))

    return count(UNIT, UNIT, 0)


@pytest.mark.parametrize("lam, t", [(F(1, 3), F(1, 2)), (F(3, 10), F(2)),
                                    (F(7, 25), F(1, 2)), (F(1, 5), F(7, 3))])
def test_slice_count_matches_product_cell_oracle(lam, t):
    for j in range(0, 41):
        a = -t - F(1, 10) + (F(6, 5) + t) * F(j, 40)  # a little past both ends
        for n in (0, 1, 3, 5):
            assert slice_count_2d(lam, t, a, n) == oracle_slice_count(lam, t, a, n), (a, n)


@st.composite
def interval_regime_queries(draw):
    """An interval system (`draws.interval_systems`; t = 1 is excluded there,
    where distinct cells share one coding), a on a grid of [-t, 1], and n <= 6."""
    lam, t = draw(interval_systems())
    a = -t + (1 + t) * F(draw(st.integers(0, 48)), 48)
    return lam, t, a, draw(st.integers(0, 6))


@settings(max_examples=150, deadline=None)
@given(interval_regime_queries())
def test_coding_count_equals_slice_count(query):
    lam, t, a, n = query
    ifs = projection(lam, t)
    assert coding_count(ifs, a, n) == slice_count_2d(lam, t, a, n)
