"""The integer-lattice cover kernel against the pairwise Fraction enumeration.

The oracle is the direct construction: refine the window [1-lam, 1] with
`refine_to_depth`, take `interval_quotient` of every ordered pair of pieces,
and normalize with `IntervalSet`. Scaled unions use `affine_image` and a
re-sorting `IntervalSet`, as the visible-gap computation once did. The
other rank-n sets on the same lattice, `basic_intervals` and `window_gn`,
are held to `refine_to_depth` of [0, 1] in the same tests.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorvis.cantor import (UNIT, CantorParams, Coding, basic_intervals, refine_to_depth,
                              window_gn)
from cantorvis.exact import Interval, IntervalSet, affine_image, interval_quotient
from cantorvis.visibility import (RegimeTag, _merge_closed, _ratio_keys,
                                  exact_core, quotient_core_cover,
                                  regime_classify, visible_set, window_pieces)
from draws import lambdas

BIG = F(1000000000000000000000000000001, 5000000000000000000000000000007)

# two lambdas from each regime: 1 (V empty), 2 (exact gaps), 3a, 3b
REGIME_LAMBDAS = [F(2, 5), F(39, 100), F(1, 3), F(7, 20), F(3, 10), F(2, 7),
                  F(1, 4), F(1, 5), F(23, 97)]


def oracle_pieces(lam, n):
    return refine_to_depth(CantorParams(lam), Interval(1 - lam, 1), n - 1)


def oracle_cover(lam, n):
    pieces = oracle_pieces(lam, n)
    return IntervalSet([interval_quotient(a, b) for a in pieces for b in pieces])


def assert_rank_n_sets_match_oracle(lam, n):
    """`basic_intervals`, and `window_gn` on the window [f_w(0), f_v(1)] with
    w = 122 and v = 211 cut to length min(n, 3), against `refine_to_depth`."""
    params = CantorParams(lam)
    pieces = refine_to_depth(params, UNIT, n)
    assert basic_intervals(params, n) == IntervalSet(pieces)
    w, v = (1, 2, 2)[:min(n, 3)], (2, 1, 1)[:min(n, 3)]
    window = Interval(Coding(w).interval(params).lo, Coding(v).interval(params).hi)
    inside = [p for p in pieces if window.contains_interval(p)]
    assert window_gn(params, window.lo, window.hi, n) == IntervalSet(inside)


def oracle_gaps(lam, k_window, n):
    if regime_classify(lam).tag is RegimeTag.REGIME1_V_EMPTY:
        return ()
    base = IntervalSet([exact_core(lam)]) if lam >= F(1, 3) else oracle_cover(lam, n)
    parts = []
    for k in range(-(k_window + 1), k_window + 2):
        parts.extend(affine_image(base, lam ** k, 0).parts)
    return IntervalSet(parts).gaps()


def test_regime_lambdas_cover_every_regime():
    tags = {regime_classify(lam).tag for lam in REGIME_LAMBDAS}
    assert tags == set(RegimeTag)


@pytest.mark.parametrize("lam", REGIME_LAMBDAS)
def test_cover_matches_oracle(lam):
    for n in range(1, 8):
        assert window_pieces(lam, n) == oracle_pieces(lam, n)
        assert quotient_core_cover(lam, n) == oracle_cover(lam, n), n
        assert_rank_n_sets_match_oracle(lam, n)


def test_cover_matches_oracle_for_a_31_digit_lambda():
    for n in range(1, 6):
        assert window_pieces(BIG, n) == oracle_pieces(BIG, n)
        assert quotient_core_cover(BIG, n) == oracle_cover(BIG, n), n
        assert_rank_n_sets_match_oracle(BIG, n)


@pytest.mark.parametrize("lam", REGIME_LAMBDAS)
def test_visible_gaps_match_oracle(lam):
    for k_window in range(4):
        for n in (1, 4, 6):
            assert visible_set(lam, k_window, n=n).gaps == oracle_gaps(lam, k_window, n)


@settings(max_examples=60, deadline=None)
@given(lam=lambdas, n=st.integers(1, 5))
def test_random_lambda_cover_matches_oracle(lam, n):
    assert window_pieces(lam, n) == oracle_pieces(lam, n)
    assert quotient_core_cover(lam, n) == oracle_cover(lam, n)
    assert_rank_n_sets_match_oracle(lam, n)


@settings(max_examples=40, deadline=None)
@given(lam=lambdas, k_window=st.integers(0, 3), n=st.integers(1, 4))
def test_random_lambda_visible_gaps_match_oracle(lam, k_window, n):
    assert visible_set(lam, k_window, n=n).gaps == oracle_gaps(lam, k_window, n)


# -- the floor key and the merge ---------------------------------------------------

def key(x, d):
    """The kernel's key of the fraction x, written as a ratio with denominator <= d."""
    return _ratio_keys(d, [x.numerator], [x.denominator])[0]


def farey(d, top=2):
    """Every fraction in [0, top] with denominator at most d, once each."""
    return sorted({F(a, b) for b in range(1, d + 1) for a in range(top * b + 1)})


@pytest.mark.parametrize("d", [1, 2, 7, 24])
def test_key_is_strictly_monotone_on_the_farey_set(d):
    values = farey(d)
    keys = [key(x, d) for x in values]
    assert all(a < b for a, b in zip(keys, keys[1:]))


def test_key_keeps_the_closest_distinct_fractions_apart():
    # neighbours with denominators d and d - 1 differ by exactly 1/(d(d-1)),
    # the least distance between distinct fractions of denominator <= d
    d = 5 ** 8
    a, b = F(1, d), F(1, d - 1)
    assert b - a == F(1, d * (d - 1))
    assert key(a, d) < key(b, d)
    # both denominators equal to d: adjacent numerators
    c = F(d - 1, d)
    assert key(c, d) < key(c + F(1, d), d)


def test_equal_quotients_from_different_pairs_get_equal_keys():
    # 2/4 == 3/6 == 4/8 as ratios of different lattice points
    keys = _ratio_keys(8, [2, 3, 4], [4, 6, 8])
    assert keys[0 * 3 + 0] == keys[1 * 3 + 1] == keys[2 * 3 + 2]
    assert len(set(keys)) == len({F(x, y) for y in (4, 6, 8) for x in (2, 3, 4)})


def merged_by_key(intervals, d):
    """Normalize Fraction intervals through the kernel's keys and merge."""
    lo_keys = [key(iv.lo, d) for iv in intervals]
    hi_keys = [key(iv.hi, d) for iv in intervals]
    return [Interval(intervals[f].lo, intervals[g].hi)
            for f, g in _merge_closed(lo_keys, hi_keys)]


def test_merge_joins_touching_parts_and_keeps_near_misses_apart():
    d = 97
    a, b = F(1, d), F(1, d - 1)  # 1/(d(d-1)) apart
    intervals = [
        Interval(F(1, 3), F(1, 2)), Interval(F(1, 2), F(2, 3)),    # touch at 1/2
        Interval(F(2, 3), F(2, 3)),                                # point at the seam
        Interval(F(3, 4), F(3, 4)), Interval(F(6, 8), F(7, 9)),    # equal ends
        Interval(F(0), a), Interval(b, F(1, 4)),                   # nearest miss
        Interval(F(9, 10), F(1)), Interval(F(1), F(1)),            # touch at 1
    ]
    got = merged_by_key(intervals, d)
    assert got == list(IntervalSet(intervals).parts)
    assert got == [Interval(F(0), a), Interval(b, F(1, 4)), Interval(F(1, 3), F(2, 3)),
                   Interval(F(3, 4), F(7, 9)), Interval(F(9, 10), F(1))]


fractions_up_to_30 = st.builds(F, st.integers(0, 60), st.integers(1, 30))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(fractions_up_to_30, fractions_up_to_30), max_size=12))
def test_merge_matches_interval_set(ends):
    intervals = [Interval(min(x, y), max(x, y)) for x, y in ends]
    assert merged_by_key(intervals, 30) == list(IntervalSet(intervals).parts)
