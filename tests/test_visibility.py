import math
import random
import time
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorvis.cantor import CantorParams, Membership, basic_intervals, membership
from cantorvis.errors import (DepthBudgetExceeded, InsufficientScales, LengthMismatch,
                              NegativeSlope, NonPositiveDenominator,
                              OutOfRange)
from cantorvis.exact import Interval, IntervalSet, interval_quotient
from cantorvis.visibility import (RegimeTag, Visibility, box_count,
                                  box_dim_estimate, exact_core, key2_check,
                                  key2_scan, key2_subintervals,
                                  quotient_core_cover, ratio_set_structure,
                                  regime_classify, thickness_condition,
                                  visible_query, visible_set, window_pieces)


class TestRegimes:
    @pytest.mark.parametrize("lam,tag", [
        (F(2, 5), RegimeTag.REGIME1_V_EMPTY),
        (F(19, 50), RegimeTag.REGIME2_EXACT_GAPS),
        (F(7, 20), RegimeTag.REGIME2_EXACT_GAPS),
        (F(1, 3), RegimeTag.REGIME2_EXACT_GAPS),
        (F(3, 10), RegimeTag.REGIME3A_INTERIOR_BOTH_SIDES),
        (F(1, 4), RegimeTag.REGIME3B_NULL_COMPLEMENT),
        (F(1, 5), RegimeTag.REGIME3B_NULL_COMPLEMENT),
    ])
    def test_classification(self, lam, tag):
        assert regime_classify(lam).tag is tag

    def test_discriminant_sign_rule(self):
        # 19/50 sits just below the irrational threshold: the exact sign decides
        r = regime_classify(F(19, 50))
        assert r.discriminant == F(11, 2500)
        assert r.discriminant > 0
        assert regime_classify(F(2, 5)).discriminant == F(-1, 25)

    def test_boundary_flags(self):
        assert regime_classify(F(1, 3)).at_one_third
        assert regime_classify(F(1, 4)).at_one_quarter
        assert not regime_classify(F(3, 10)).at_one_third

    @pytest.mark.parametrize("bad", [F(0), F(1, 2), F(7, 10)])
    def test_range(self, bad):
        with pytest.raises(OutOfRange):
            regime_classify(bad)


class TestKey2:
    def test_printed_endpoints_third(self):
        window = Interval(F(2, 3), 1)
        pieces = key2_subintervals(F(1, 3), window, window)
        j1, j2, j3, j4 = pieces.parts
        assert j1 == Interval(F(2, 3), F(7, 8))
        assert j2 == Interval(F(6, 7), F(7, 6))
        assert pieces.full == Interval(F(2, 3), F(3, 2))
        assert pieces.overlap_margins()["s1-r2"] == F(1, 56)

    def test_parts_are_pair_quotients(self):
        # the closed forms must agree with refining both operands and quotienting
        lam = F(2, 5)
        i = Interval(F(3, 5), F(4, 5))
        j = Interval(F(4, 5), 1)
        pieces = key2_subintervals(lam, i, j)
        lt = lam * i.length
        i1 = Interval(i.lo, i.lo + lt)
        i2 = Interval(i.hi - lt, i.hi)
        j1 = Interval(j.lo, j.lo + lt)
        j2 = Interval(j.hi - lt, j.hi)
        assert pieces.parts == (interval_quotient(i1, j2), interval_quotient(i1, j1),
                                interval_quotient(i2, j2), interval_quotient(i2, j1))

    def test_holds_at_one_third(self):
        window = Interval(F(2, 3), 1)
        assert key2_check(F(1, 3), window, window) is True

    def test_holds_rank_two_two_fifths(self):
        pieces = window_pieces(F(2, 5), 2)
        assert key2_check(F(2, 5), pieces[0], pieces[1]) is True
        assert key2_check(F(2, 5), pieces[0], pieces[0]) is True

    def test_fails_at_one_fifth(self):
        window = Interval(F(4, 5), 1)
        assert key2_check(F(1, 5), window, window) is False
        pieces = key2_subintervals(F(1, 5), window, window)
        assert len(IntervalSet(pieces.parts)) >= 2

    def test_degenerate_rejected(self):
        pt = Interval(F(2, 3), F(2, 3))
        with pytest.raises(LengthMismatch):
            key2_subintervals(F(1, 3), pt, pt)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            key2_subintervals(F(1, 3), Interval(F(2, 3), 1), Interval(F(2, 3), F(3, 4)))

    def test_nonpositive_divisor(self):
        with pytest.raises(NonPositiveDenominator):
            key2_subintervals(F(1, 3), Interval(-1, 0), Interval(-1, 0))

    def test_misordered_operands(self):
        with pytest.raises(OutOfRange):
            key2_subintervals(F(1, 3), Interval(F(2, 3), 1), Interval(F(1, 3), F(2, 3)))

    def test_scan_clean_above_third(self):
        assert key2_scan(F(1, 3), 4) is None
        assert key2_scan(F(19, 50), 3) is None

    def test_scan_reports_first_failure(self):
        failure = key2_scan(F(1, 5), 3)
        assert failure is not None
        rank, i, j = failure
        assert rank == 1
        assert key2_check(F(1, 5), i, j) is False

    def test_randomized_window_pairs_hold(self):
        # equal-length basic intervals with b >= a >= 1-lam, lam in [1/3, 1/2)
        rng = random.Random(42)
        for _ in range(100):
            q = rng.randrange(7, 200)
            p = rng.randrange((q + 2) // 3, (q - 1) // 2 + 1)
            lam = F(p, q)
            if not F(1, 3) <= lam < F(1, 2):
                continue
            pieces = window_pieces(lam, rng.randrange(1, 5))
            x = rng.randrange(len(pieces))
            y = rng.randrange(x, len(pieces))
            assert key2_check(lam, pieces[x], pieces[y]) is True


class TestQuotientCover:
    def test_stabilized_at_one_third(self):
        for n in range(1, 6):
            assert quotient_core_cover(F(1, 3), n) == IntervalSet(
                [Interval(F(2, 3), F(3, 2))])

    def test_one_fifth_rank_two(self):
        got = quotient_core_cover(F(1, 5), 2)
        assert got == IntervalSet([
            Interval(F(4, 5), F(7, 8)),
            Interval(F(20, 21), F(21, 20)),
            Interval(F(8, 7), F(5, 4)),
        ])
        assert got.total_length == F(47, 168)
        assert got.total_length < F(5, 4) - F(4, 5)

    @pytest.mark.parametrize("lam", [F(1, 5), F(1, 4), F(3, 10)])
    def test_monotone_nonincreasing(self, lam):
        prev = quotient_core_cover(lam, 1)
        for n in range(2, 6):
            cur = quotient_core_cover(lam, n)
            assert cur.subset_of(prev)
            assert cur.total_length <= prev.total_length
            prev = cur

    @pytest.mark.parametrize("lam", [F(1, 5), F(1, 4), F(3, 10)])
    def test_sandwich_endpoint_ratios(self, lam):
        # finite-rank endpoint quotients never escape the outer cover
        for n in (2, 3):
            cover = quotient_core_cover(lam, n)
            endpoints = set()
            for piece in window_pieces(lam, n):
                endpoints.update((piece.lo, piece.hi))
            for p in endpoints:
                for q in endpoints:
                    assert cover.contains(p / q)

    def test_depth_validation(self):
        with pytest.raises(OutOfRange):
            quotient_core_cover(F(1, 3), 0)


class TestRatioStructure:
    def test_scaled_union_one_third(self):
        s = ratio_set_structure(F(1, 3), 1)
        assert s.exact
        assert s.scaled_union() == IntervalSet([
            Interval(F(2, 9), F(1, 2)),
            Interval(F(2, 3), F(3, 2)),
            Interval(2, F(9, 2)),
        ])

    def test_disjoint_scales_regime_two(self):
        lam = F(7, 20)
        core = exact_core(lam)
        assert core == Interval(F(13, 20), F(20, 13))
        # top of the core sits below the bottom of the next scale up
        assert core.hi < core.lo / lam == F(13, 7)

    def test_overlapping_scales_regime_one(self):
        lam = F(2, 5)
        s = ratio_set_structure(lam, 2)
        union = s.scaled_union()
        # consecutive scalings glue into a single interval across the window
        assert len(union) == 1

    def test_outer_cover_below_third(self):
        s = ratio_set_structure(F(1, 5), 1, n=2)
        assert not s.exact
        assert len(s.core) == 3


class TestVisibleQuery:
    def test_diagonal_blocked(self):
        ans = visible_query(F(7, 20), 1)
        assert ans.status is Visibility.NOT_VISIBLE
        assert ans.scale_k == 0
        assert ans.core == Interval(F(13, 20), F(20, 13))

    def test_certified_gap(self):
        ans = visible_query(F(7, 20), F(17, 10))
        assert ans.status is Visibility.VISIBLE
        assert ans.gap == Interval(F(20, 13), F(13, 7))

    def test_regime_one_everything_blocked(self):
        ans = visible_query(F(2, 5), F(17, 10))
        assert ans.status is Visibility.NOT_VISIBLE
        assert ans.scale_k is not None

    def test_zero_slope_blocked(self):
        assert visible_query(F(1, 3), 0).status is Visibility.NOT_VISIBLE

    def test_negative_rejected(self):
        with pytest.raises(NegativeSlope):
            visible_query(F(1, 3), F(-1, 2))

    def test_negative_window_rejected(self):
        # as in visible_set and ratio_set_structure; it used to answer NotVisible
        with pytest.raises(OutOfRange, match="scale window must be nonnegative"):
            visible_query(F(1, 3), F(1, 2), k_window=-50)

    def test_window_ceiling(self):
        # one ceiling for the three callers; a report grows as k_window^2
        for call in (lambda k: visible_query(F(1, 3), F(1, 2), k_window=k),
                     lambda k: visible_set(F(7, 20), k),
                     lambda k: ratio_set_structure(F(1, 5), k, n=3)):
            with pytest.raises(OutOfRange, match="scale window must be at most 64, got 65"):
                call(65)
            call(64)

    def test_scale_gap_below_third(self):
        # 17/10 falls between the hull at scale 0 and the hull at scale -1
        ans = visible_query(F(1, 5), F(17, 10), n=3)
        assert ans.status is Visibility.VISIBLE
        assert ans.reason == "scale-gap"

    def test_cover_gap_below_third(self):
        ans = visible_query(F(1, 5), F(12, 13), n=2)
        assert ans.status is Visibility.VISIBLE
        assert ans.reason == "cover-gap"
        assert ans.gap == Interval(F(7, 8), F(20, 21))

    def test_endpoint_ratio_witness(self):
        # 5/6 = (4/5)/(24/25), a rank-2 endpoint quotient
        ans = visible_query(F(1, 5), F(5, 6), n=4)
        assert ans.status is Visibility.NOT_VISIBLE
        assert ans.reason == "endpoint-ratio"
        x, y = ans.witness
        assert x / y == F(5, 6)

    def test_unknown_inside_cover(self):
        ans = visible_query(F(1, 5), F(81, 100), n=3)
        assert ans.status is Visibility.UNKNOWN_AT_DEPTH
        # deeper covers expel the point and certify it visible
        assert visible_query(F(1, 5), F(81, 100), n=4).status is Visibility.VISIBLE

    def test_visible_stays_visible_deeper(self):
        for alpha in (F(17, 10), F(12, 13)):
            first = visible_query(F(1, 5), alpha, n=2)
            assert first.status is Visibility.VISIBLE
            for n in (3, 4, 5):
                assert visible_query(F(1, 5), alpha, n=n).status is Visibility.VISIBLE

    def test_scale_decomposition_witnesses(self):
        # x = lam^m x*, y = lam^k y* with window endpoints x*, y*:
        # the quotient always lands on the scaled structure at m - k
        lam = F(7, 20)
        rng = random.Random(9)
        pieces = window_pieces(lam, 3)
        endpoints = sorted({e for piece in pieces for e in (piece.lo, piece.hi)})
        core = exact_core(lam)
        for _ in range(100):
            xs = rng.choice(endpoints)
            ys = rng.choice(endpoints)
            m = rng.randrange(0, 5)
            k = rng.randrange(0, 5)
            ratio = (lam ** m * xs) / (lam ** k * ys)
            scaled = Interval(lam ** (m - k) * core.lo, lam ** (m - k) * core.hi)
            assert scaled.contains(ratio)
            ans = visible_query(lam, ratio)
            assert ans.status is Visibility.NOT_VISIBLE


class TestVisibleSet:
    def test_regime_one_empty(self):
        vs = visible_set(F(2, 5), 3)
        assert vs.gaps == ()
        assert vs.regime.tag is RegimeTag.REGIME1_V_EMPTY

    def test_adjacent_gaps_window_zero(self):
        vs = visible_set(F(7, 20), 0)
        assert vs.exact
        assert Interval(F(20, 13), F(13, 7)) in vs.gaps
        assert Interval(F(7, 13), F(13, 20)) in vs.gaps

    def test_one_third_window_one(self):
        vs = visible_set(F(1, 3), 1)
        assert Interval(F(1, 2), F(2, 3)) in vs.gaps
        assert Interval(F(3, 2), 2) in vs.gaps

    def test_gap_interiors_are_visible(self):
        vs = visible_set(F(1, 5), 1, n=3)
        assert not vs.exact
        for gap in vs.gaps:
            mid = (gap.lo + gap.hi) / 2
            assert visible_query(F(1, 5), mid, n=3).status is Visibility.VISIBLE


class TestThickness:
    @pytest.mark.parametrize("lam,expected", [
        (F(3, 10), True),
        (F(1, 5), False),
        (F(1, 4), False),  # exact equality fails the strict inequality
    ])
    def test_examples(self, lam, expected):
        assert thickness_condition(lam) is expected


class TestBoxDim:
    def test_box_count_single_interval(self):
        s = IntervalSet([Interval(0, 1)])
        assert box_count(s, F(1, 4)) == 4
        assert box_count(s, F(1, 3)) == 3

    def test_box_count_aligned_part_is_one_box(self):
        s = IntervalSet([Interval(F(1, 4), F(1, 2))])
        assert box_count(s, F(1, 4)) == 1

    def test_box_count_shares_boxes(self):
        s = IntervalSet([Interval(0, F(1, 10)), Interval(F(2, 10), F(3, 10))])
        # both parts fit inside the single box [0, 1/2]
        assert box_count(s, F(1, 2)) == 1

    def test_box_count_point(self):
        assert box_count(IntervalSet([Interval(F(1, 2), F(1, 2))]), F(1, 4)) == 1

    def test_interval_has_dimension_one(self):
        covers = [(F(1, 2) ** n, IntervalSet([Interval(0, 1)])) for n in range(2, 9)]
        est = box_dim_estimate(covers)
        assert abs(est.slope - 1.0) < 1e-9

    def test_cantor_control_slope(self):
        p = CantorParams(F(1, 4))
        covers = [(F(1, 4) ** n, basic_intervals(p, n)) for n in range(2, 9)]
        est = box_dim_estimate(covers)
        assert abs(est.slope - 0.5) < 1e-9
        assert est.max_residual < 1e-9

    @pytest.mark.parametrize("lam", [F(1, 5), F(1, 4), F(2, 7), F(3, 10),
                                     F(7, 20), F(1, 3), F(2, 5), F(23, 97)])
    def test_fit_matches_numpy_polyfit(self, lam):
        p = CantorParams(lam)
        families = [[(lam ** n, basic_intervals(p, n)) for n in range(2, 9)],
                    [(lam ** n, quotient_core_cover(lam, n)) for n in range(2, 6)]]
        for covers in families:
            est = box_dim_estimate(covers)
            xs = np.array([-math.log(float(s)) for s in est.scales])
            ys = np.log(np.array(est.counts, dtype=float))
            slope, intercept = np.polyfit(xs, ys, 1)
            residual = np.max(np.abs(ys - (slope * xs + intercept)))
            assert abs(est.slope - slope) < 1e-12
            assert abs(est.intercept - intercept) < 1e-12
            assert abs(est.max_residual - residual) < 1e-12

    def test_insufficient_scales(self):
        s = IntervalSet([Interval(0, 1)])
        with pytest.raises(InsufficientScales):
            box_dim_estimate([(F(1, 2), s), (F(1, 4), s)])
        with pytest.raises(InsufficientScales):
            box_dim_estimate([(F(1, 2), s), (F(1, 2), s), (F(1, 8), s)])


class TestCeilings:
    # each of these would run without bound if the ceilings missed it:
    # 2^39 window pieces, 2^39 pieces scanned pairwise, 4^(10^9 - 1) pairs
    @pytest.mark.parametrize("enumerate_", [
        lambda: window_pieces(F(1, 3), 40),
        lambda: key2_scan(F(1, 3), 40),
        lambda: quotient_core_cover(F(1, 5), 10**9)])
    def test_refused_before_enumeration(self, enumerate_):
        start = time.perf_counter()
        with pytest.raises(DepthBudgetExceeded, match="exceeds the depth ceiling 24$"):
            enumerate_()
        assert time.perf_counter() - start < 0.5

    def test_item_ceiling(self):
        # 4^10 pair quotients are admitted at n = 11, 4^11 are not
        with pytest.raises(DepthBudgetExceeded,
                           match=r"^pair quotients at depth 12 exceeds the item ceiling "
                                 r"1118481 \(4194304 items\)$"):
            quotient_core_cover(F(1, 5), 12)
        with pytest.raises(DepthBudgetExceeded, match="at depth 22 exceeds the item"):
            window_pieces(F(1, 3), 22)

    def test_exact_core_checks_the_depth(self):
        with pytest.raises(DepthBudgetExceeded, match="at depth 30 exceeds"):
            visible_query(F(2, 5), 1, n=30)
        with pytest.raises(OutOfRange, match="^depth must be nonnegative, got -1$"):
            visible_query(F(2, 5), 1, n=-1)
        assert visible_query(F(2, 5), 1, n=24).status is Visibility.NOT_VISIBLE


# perfbench's query slopes (`workloads.alphas`): a gap, endpoint ratios at
# scales 0 and 1, the diagonal, and two slopes near 1
def bench_alphas(lam):
    return (F(17, 10), 1 - lam, lam * (1 - lam), F(1), F(101, 97), F(9, 8))


LOW_LAMBDAS = sorted({F(p, q) for q in range(5, 41) for p in range(1, q)
                      if F(1, 5) <= F(p, q) < F(1, 3)})


@st.composite
def depth_queries(draw):
    """lambda = p/q in [1/5, 1/3) with q <= 40, a bench slope or a drawn
    rational alpha in [1/2, 2], and depths 1 <= n1 < n2 <= 7."""
    lam = draw(st.sampled_from(LOW_LAMBDAS))
    if draw(st.booleans()):
        alpha = draw(st.sampled_from(bench_alphas(lam)))
    else:  # mostly inside the core's hull [1 - lam, 1/(1 - lam)]
        den = draw(st.integers(50, 200))
        alpha = F(draw(st.integers(den // 2, 2 * den)), den)
    n2 = draw(st.integers(2, 7))
    return lam, alpha, draw(st.integers(1, n2 - 1)), n2


@settings(max_examples=100, deadline=None)
@given(depth_queries())
def test_verdicts_are_monotone_in_depth(query):
    lam, alpha, n1, n2 = query
    params = CantorParams(lam)
    shallow, deep = (visible_query(lam, alpha, n=n) for n in (n1, n2))
    if shallow.status is Visibility.VISIBLE:
        assert deep.status is Visibility.VISIBLE
        assert deep.gap.lo <= shallow.gap.lo and shallow.gap.hi <= deep.gap.hi
    if shallow.status is Visibility.NOT_VISIBLE:
        assert deep.status is Visibility.NOT_VISIBLE
    for ans in (shallow, deep):
        if ans.status is Visibility.NOT_VISIBLE:
            x, y = ans.witness
            assert x / y == alpha
            for point in (x, y):
                assert membership(params, point, 96).status is Membership.IN
