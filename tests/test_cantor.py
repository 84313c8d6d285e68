import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorvis.cantor import (UNIT, CantorParams, Coding, IfsMap, Membership,
                              basic_intervals, endpoint_rank, membership,
                              refine_tilde, refine_to_depth, window_gn)
from cantorvis.errors import (DepthBudgetExceeded, NotBasicEndpoints,
                              OutOfRange)
from cantorvis.exact import Interval, IntervalSet
from draws import lambdas


THIRD = CantorParams(F(1, 3))
QUARTER = CantorParams(F(1, 4))


class TestParams:
    @pytest.mark.parametrize("bad", [F(0), F(1, 2), F(3, 5), F(-1, 3)])
    def test_lambda_range(self, bad):
        with pytest.raises(OutOfRange):
            CantorParams(bad)

    def test_maps(self):
        f1, f2 = THIRD.maps
        assert f1.apply(1) == F(1, 3)
        assert f2.apply(0) == F(2, 3)

    def test_ifsmap_ratio_validated(self):
        with pytest.raises(OutOfRange):
            IfsMap(F(3, 2), F(0))


class TestBasicIntervals:
    def test_rank_zero_is_seed(self):
        assert basic_intervals(THIRD, 0) == IntervalSet([Interval(0, 1)])

    def test_rank_one(self):
        assert basic_intervals(THIRD, 1) == IntervalSet(
            [Interval(0, F(1, 3)), Interval(F(2, 3), 1)])

    def test_rank_two_quarter(self):
        got = basic_intervals(QUARTER, 2)
        assert got == IntervalSet([
            Interval(0, F(1, 16)), Interval(F(3, 16), F(1, 4)),
            Interval(F(3, 4), F(13, 16)), Interval(F(15, 16), 1)])

    @pytest.mark.parametrize("lam,n", [(F(1, 3), 6), (F(2, 5), 5), (F(1, 7), 4)])
    def test_counts_and_length(self, lam, n):
        p = CantorParams(lam)
        s = basic_intervals(p, n)
        assert len(s) == 2 ** n
        assert s.total_length == (2 * lam) ** n

    def test_nesting(self):
        for n in range(5):
            finer = basic_intervals(THIRD, n + 1)
            coarser = basic_intervals(THIRD, n)
            assert finer.subset_of(coarser)
            # each parent holds exactly two children
            for parent in coarser.parts:
                inside = [c for c in finer.parts if parent.contains_interval(c)]
                assert len(inside) == 2

    def test_budget_enforced(self):
        with pytest.raises(DepthBudgetExceeded):
            basic_intervals(THIRD, 25)
        with pytest.raises(DepthBudgetExceeded):
            basic_intervals(THIRD, 21)  # 2^21 parts exceed the item ceiling

    def test_env_override(self, monkeypatch):
        # the ceilings are fixed: the old override variable changes nothing
        monkeypatch.setenv("CANTOR_VIS_MAX_DEPTH", "3")
        assert len(basic_intervals(THIRD, 4)) == 16


class TestRefine:
    def test_window_piece(self):
        got = refine_tilde(THIRD, Interval(F(2, 3), 1))
        assert got == IntervalSet([Interval(F(2, 3), F(7, 9)),
                                   Interval(F(8, 9), 1)])

    def test_first_refinement(self):
        assert refine_tilde(QUARTER, Interval(0, 1)) == IntervalSet(
            [Interval(0, F(1, 4)), Interval(F(3, 4), 1)])

    def test_left_piece(self):
        assert refine_tilde(THIRD, Interval(0, F(1, 3))) == IntervalSet(
            [Interval(0, F(1, 9)), Interval(F(2, 9), F(1, 3))])


class TestWindow:
    def test_single_rank_one(self):
        got = window_gn(THIRD, F(2, 3), 1, 1)
        assert got == IntervalSet([Interval(F(2, 3), 1)])

    def test_rank_two_inside(self):
        got = window_gn(THIRD, F(2, 3), 1, 2)
        assert got == IntervalSet([Interval(F(2, 3), F(7, 9)),
                                   Interval(F(8, 9), 1)])

    def test_full_window(self):
        assert window_gn(THIRD, 0, 1, 2) == basic_intervals(THIRD, 2)

    def test_nesting(self):
        for n in range(1, 6):
            finer = window_gn(THIRD, F(2, 3), 1, n + 1)
            assert finer.subset_of(window_gn(THIRD, F(2, 3), 1, n))

    def test_rejects_non_endpoints(self):
        with pytest.raises(NotBasicEndpoints):
            window_gn(THIRD, F(1, 2), 1, 3)
        # 1/3 is a right endpoint, not a left one
        with pytest.raises(NotBasicEndpoints):
            window_gn(THIRD, F(1, 3), 1, 3)

    def test_rejects_misordered(self):
        with pytest.raises(OutOfRange):
            window_gn(THIRD, 1, F(2, 3), 2)


class TestEndpointRank:
    def test_corners(self):
        assert endpoint_rank(THIRD, 0, 0) == 0
        assert endpoint_rank(THIRD, 1, 0) == 0

    def test_rank_one(self):
        assert endpoint_rank(THIRD, F(2, 3), 5) == 1
        assert endpoint_rank(THIRD, F(1, 3), 5) == 1

    def test_non_endpoint(self):
        assert endpoint_rank(THIRD, F(1, 2), 10) is None

    def test_all_basic_endpoints_validate(self):
        for part in basic_intervals(THIRD, 5).parts:
            assert endpoint_rank(THIRD, part.lo, 5) is not None
            assert endpoint_rank(THIRD, part.hi, 5) is not None

    def test_periodic_point_has_no_rank(self):
        # membership certifies 7/10 by its cycle; the walk never reaches a corner
        assert membership(THIRD, F(7, 10), 10).cycle_period == 4
        assert endpoint_rank(THIRD, F(7, 10), 10) is None

    @settings(max_examples=60, deadline=None)
    @given(lam=lambdas, k=st.integers(0, 5))
    def test_rank_is_the_first_rank_of_each_endpoint(self, lam, k):
        params = CantorParams(lam)
        first: dict = {}
        for j in range(k + 1):
            for part in refine_to_depth(params, UNIT, j):
                first.setdefault(part.lo, j)
                first.setdefault(part.hi, j)
        cover = basic_intervals(params, k)
        assert {x for part in cover for x in (part.lo, part.hi)} == set(first)
        for x, j in first.items():
            assert endpoint_rank(params, x, k) == j
        for part in (*cover.parts, *cover.gaps()):
            assert endpoint_rank(params, (part.lo + part.hi) / 2, k) is None
        # the fixed point 1/(1 + lam) of f2 o f1 lies in K on a 2-cycle
        x = 1 / (1 + lam)
        assert membership(params, x, k + 2).cycle_period == 2
        assert endpoint_rank(params, x, k + 2) is None


class TestMembership:
    def test_middle_gap_is_out(self):
        res = membership(THIRD, F(1, 2), 1)
        assert res.status is Membership.OUT

    def test_endpoint_is_in(self):
        res = membership(THIRD, F(2, 3), 1)
        assert res.status is Membership.IN
        assert res.rank == 1

    def test_periodic_point_is_in(self):
        # 7/10 peels through the cycle 7/10 -> 1/10 -> 3/10 -> 9/10 -> 7/10,
        # an eventually periodic branch expansion that never escapes
        res = membership(THIRD, F(7, 10), 6)
        assert res.status is Membership.IN
        assert res.cycle_entry == 0 and res.cycle_period == 4

    def test_escape_is_out(self):
        res = membership(THIRD, F(11, 30), 6)
        assert res.status is Membership.OUT

    def test_outside_unit(self):
        assert membership(THIRD, F(3, 2), 3).status is Membership.OUT

    def test_unknown_until_resolved(self):
        # a point needing several peels before hitting the gap
        lam = F(9, 20)
        p = CantorParams(lam)
        x = F(1, 2)  # inside the (tiny) middle gap (9/20, 11/20) immediately
        assert membership(p, x, 2).status is Membership.OUT

    def test_monotone_verdicts(self):
        rng = random.Random(5)
        for _ in range(60):
            x = F(rng.randrange(0, 101), 100)
            verdicts = [membership(THIRD, x, n).status for n in range(0, 12)]
            resolved = None
            for v in verdicts:
                if resolved is None:
                    if v is not Membership.UNKNOWN_AT_DEPTH:
                        resolved = v
                else:
                    assert v is resolved


class TestCoding:
    def test_interval_composition(self):
        # first digit is the outermost map
        c = Coding((2, 1))
        assert c.interval(THIRD) == Interval(F(2, 3), F(7, 9))

    def test_digit_validation(self):
        with pytest.raises(OutOfRange):
            Coding((1, 3))
