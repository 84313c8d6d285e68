import random
import time
import warnings
from dataclasses import fields
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorvis import cantor
from cantorvis.errors import (DepthBudgetExceeded, NotIntervalAttractor, OutOfAttractor,
                              OutOfRange)
from cantorvis.exact import Interval, IntervalSet
from cantorvis.gds import univoque_dimension_estimate
from cantorvis.slices import (MAX_BUDGET, OrbitClosure, OrbitStatus, Prop1Report,
                              Prop2Report, Verdict, admissible_branches,
                              build_projection_ifs, coding_count,
                              inverse_closure, orbit_search, prop1_check,
                              prop2_check, slice_count_2d, survivor_cover)
from draws import interval_systems


def third_half():
    return build_projection_ifs(F(1, 3), F(1, 2))


class TestBuild:
    def test_images_third_half(self):
        ifs = third_half()
        assert ifs.attractor == Interval(F(-1, 2), 1)
        assert ifs.image(1) == Interval(F(-1, 2), 0)
        assert ifs.image(3) == Interval(F(-1, 6), F(1, 3))
        assert ifs.image(2) == Interval(F(1, 6), F(2, 3))
        assert ifs.image(4) == Interval(F(1, 2), 1)
        assert ifs.order == (1, 3, 2, 4)
        assert not ifs.degenerate

    def test_image_union_is_attractor(self):
        ifs = third_half()
        assert IntervalSet(img for _, img in ifs.images()) == IntervalSet([ifs.attractor])

    def test_printed_overlaps_steep(self):
        ifs = build_projection_ifs(F(3, 10), F(3, 2))
        regs = ifs.regions
        assert [r.interval for r in regs.regions] == [
            Interval(F(-4, 5), F(-3, 4)),
            Interval(F(-9, 20), F(-1, 20)),
            Interval(F(1, 4), F(3, 10)),
        ]
        # for t >= 1 the images sort in label order
        assert ifs.order == (1, 2, 3, 4)

    def test_not_interval_attractor(self):
        with pytest.raises(NotIntervalAttractor):
            build_projection_ifs(F(1, 5), 3)

    def test_degenerate_reduction_at_t_one(self):
        with pytest.warns(RuntimeWarning):
            ifs = build_projection_ifs(F(1, 3), 1)
        assert ifs.degenerate
        assert ifs.effective == (1, 2, 4)  # g3 coincides with g2
        assert len(ifs.regions.regions) == 2

    def test_param_validation(self):
        with pytest.raises(OutOfRange):
            build_projection_ifs(F(3, 5), F(1, 2))
        with pytest.raises(OutOfRange):
            build_projection_ifs(F(1, 3), 0)

    def test_random_valid_params_cover(self):
        rng = random.Random(17)
        built = 0
        while built < 25:
            lam = F(rng.randrange(26, 49), 100)
            low, high = 1 - 2 * lam, lam / (1 - 2 * lam)
            if rng.random() < 0.5:
                lo_b, hi_b = low, min(high, F(1))
            else:
                lo_b, hi_b = max((1 - 2 * lam) / lam, F(1)), 1 / (1 - 2 * lam)
            if lo_b > hi_b:
                continue
            u = F(rng.randrange(0, 65), 64)
            t = lo_b + (hi_b - lo_b) * u
            if t <= 0 or t == 1:
                continue
            ifs = build_projection_ifs(lam, t)
            assert IntervalSet(img for _, img in ifs.images()) == \
                IntervalSet([ifs.attractor])
            built += 1


class TestOverlaps:
    def test_three_regions_third_half(self):
        regs = third_half().regions
        assert [r.interval for r in regs.regions] == [
            Interval(F(-1, 6), 0),
            Interval(F(1, 6), F(1, 3)),
            Interval(F(1, 2), F(2, 3)),
        ]
        assert [(r.left_label, r.right_label) for r in regs.regions] == [
            (1, 3), (3, 2), (2, 4)]

    def test_half_open_hit_semantics(self):
        regs = third_half().regions
        assert regs.hits(F(-1, 6))
        assert regs.hits(F(1, 2))
        assert not regs.hits(0)          # right endpoints stay safe
        assert not regs.hits(F(2, 3))
        assert not regs.hits(F(1, 12))   # between regions

    def test_degenerate_point_overlaps_never_hit(self):
        # lam = 1/4, t = 1/2 tiles the attractor with touching images
        ifs = build_projection_ifs(F(1, 4), F(1, 2))
        regs = ifs.regions
        assert all(r.degenerate for r in regs.regions)
        assert regs.hole_set().is_empty
        for r in regs.regions:
            assert not regs.hits(r.interval.lo)


class TestBranches:
    def test_examples(self):
        ifs = third_half()
        assert admissible_branches(ifs, F(-1, 6)) == (1, 3)
        assert admissible_branches(ifs, 1) == (4,)
        assert admissible_branches(ifs, F(1, 12)) == (3,)

    def test_multiplicity_matches_overlaps(self):
        ifs = third_half()
        regs = ifs.regions
        rng = random.Random(23)
        for _ in range(200):
            x = F(-1, 2) + F(3, 2) * F(rng.randrange(0, 301), 300)
            branches = admissible_branches(ifs, x)
            in_overlap = any(r.interval.contains(x) for r in regs.regions)
            assert (len(branches) >= 2) == in_overlap

    def test_out_of_attractor(self):
        with pytest.raises(OutOfAttractor):
            admissible_branches(third_half(), F(-3, 5))


class TestOrbits:
    def test_hole_hit_with_shortest_witness(self):
        orbit = orbit_search(third_half(), F(-1, 6))
        assert orbit.status is OrbitStatus.HITS_HOLE
        assert orbit.witness_to_hole == (1,)
        assert orbit.saturated

    def test_finite_closure_of_zero(self):
        orbit = orbit_search(third_half(), 0)
        assert orbit.status is OrbitStatus.FINITE_CLOSURE
        assert orbit.visited == (F(0), F(1))

    def test_fixed_right_endpoint(self):
        orbit = orbit_search(third_half(), 1)
        assert orbit.status is OrbitStatus.FINITE_CLOSURE
        assert orbit.visited == (F(1),)

    def test_budget_exceeded(self):
        # at lam = 7/20 the inverse maps scale denominators by 20/7, so
        # generic orbits never repeat
        ifs = build_projection_ifs(F(7, 20), F(1, 2))
        orbit = orbit_search(ifs, F(1, 40), budget=30)
        assert not orbit.saturated

    def test_words_reconstruct_start(self):
        ifs = third_half()
        for start in (F(-1, 6), F(0), F(1, 3), F(1, 2)):
            orbit = orbit_search(ifs, start)
            assert orbit.word(start) == ()
            for point in orbit.visited:
                assert ifs.attractor.contains(point)
                value = point
                for label in reversed(orbit.word(point)):
                    value = ifs.map_for(label).apply(value)
                assert value == start

    def test_out_of_attractor(self):
        with pytest.raises(OutOfAttractor):
            orbit_search(third_half(), 2)

    @pytest.mark.parametrize("lam, t", [(F(1, 3), F(1, 2)), (F(1, 3), F(2, 3)),
                                        (F(1, 3), F(3)), (F(1, 4), F(2))])
    def test_multi_seed_closure_is_union_of_single_seeds(self, lam, t):
        ifs = build_projection_ifs(lam, t)
        seeds = [p for _, p in ifs.regions.endpoints()]
        seeds += [ifs.attractor.lo, F(0), F(1, 7)]
        parents, _, saturated = inverse_closure(ifs, seeds)
        assert saturated
        assert set(parents) == set().union(*(orbit_search(ifs, s).visited for s in seeds))
        for point in parents:
            # each pointer is one inverse branch step, and the chain ends at a seed
            value, link = point, parents[point]
            while link is not None:
                parent, label = link
                assert ifs.map_for(label).apply(value) == parent
                value, link = parent, parents[parent]
            assert value in seeds

    def test_multi_seed_closure_truncates_at_the_budget(self):
        ifs = build_projection_ifs(F(7, 20), F(1, 2))
        parents, _, saturated = inverse_closure(ifs, (F(0), F(1, 40)), budget=30)
        assert not saturated
        assert len(parents) == 30


# (lambda, t, start, budget, witness, closure size, saturated, largest point,
# its word, longest word), recorded when the closure still stored a word tuple
# per point, so a change to the breadth-first order or to the word read off
# the parent pointers shows here. Includes truncated closures with and without
# a witness and the degenerate t = 1 system.
ORBIT_TABLE = [
    ("1/3", "1/2", "-1/6", 10_000, (1,), 3, True, "1/2", (1,), 1),
    ("1/3", "1/2", "0", 10_000, None, 2, True, "1", (1,), 1),
    ("1/3", "3/5", "1/15", 10_000, (3,), 6, True, "1", (3, 3, 2), 3),
    ("1/3", "25/38", "-937/1520", 10_000, (1, 1, 1), 127, True, "1509/1520",
     (1, 1, 1, 2, 4, 3, 3, 4, 4, 3, 1, 4, 3), 27),
    ("1/3", "25/38", "-59/760", 10_000, (3, 1, 4), 127, True, "749/760",
     (3, 1, 4, 1, 4, 4, 1, 4, 2, 2, 4, 2, 4, 2, 2, 3, 1, 2, 4, 3, 3, 3, 2, 3, 3, 2), 37),
    ("3/10", "2/3", "-5/8", 300, (1, 1, 1, 4, 4, 1, 2), 300, False,
     "1142566172/1162261467", (1, 1, 1, 4, 4, 1, 2, 3, 4, 4, 2, 1, 4, 1, 3, 4, 4, 1), 25),
    ("3/10", "2/3", "-5/8", 20, (1, 1, 1, 4, 4, 1, 2), 20, False, "18170/19683",
     (1, 1, 1, 4, 4, 1, 2, 3), 11),
    ("3/10", "2/3", "-5/8", 6, None, 6, False, "71/81", (1, 1, 1), 5),
    ("7/20", "1/2", "1/40", 30, (3, 3), 30, False, "1", (1,), 8),
    ("2/5", "1/2", "-1/5", 2_000, (1,), 2000, False, "16345/16384",
     (1, 3, 4, 3, 3, 2, 2, 1, 2, 3, 3, 1, 3), 15),
    ("1/3", "1", "1/5", 10_000, None, 4, True, "3/5", (2,), 3),
    ("1/3", "1", "-1/3", 10_000, None, 3, True, "1", (1,), 1),
]


@pytest.mark.parametrize(
    "lam, t, start, budget, witness, size, saturated, far, far_word, longest",
    ORBIT_TABLE)
def test_orbit_table(lam, t, start, budget, witness, size, saturated, far,
                     far_word, longest):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # t = 1 reduces the maps
        ifs = build_projection_ifs(lam, t)
    orbit = orbit_search(ifs, start, budget)
    assert orbit.witness_to_hole == witness
    assert len(orbit.visited) == size
    assert orbit.saturated is saturated
    assert orbit.visited[-1] == F(far)
    assert orbit.word(F(far)) == far_word
    assert max(len(orbit.word(p)) for p in orbit.visited) == longest


def test_reports_store_only_what_the_search_found():
    assert [f.name for f in fields(OrbitClosure)] == [
        "start", "parents", "witness_to_hole", "saturated"]
    assert [f.name for f in fields(Prop1Report)] == ["endpoints"]
    assert [f.name for f in fields(Prop2Report)] == ["endpoints"]


@st.composite
def budget_pairs(draw):
    """An interval system (`draws.interval_systems`) and budgets b1 < b2 <= 400."""
    lam, t = draw(interval_systems())
    b2 = draw(st.integers(2, 400))
    return lam, t, draw(st.integers(1, b2 - 1)), b2


@settings(max_examples=40, deadline=None)
@given(budget_pairs())
def test_verdicts_are_monotone_in_budget(case):
    lam, t, b1, b2 = case
    ifs = build_projection_ifs(lam, t)
    small, large = (prop1_check(ifs, b).endpoints for b in (b1, b2))
    for lo, hi in zip(small, large):
        if lo.orbit.status is not OrbitStatus.BUDGET_EXCEEDED:
            assert hi.orbit.status is lo.orbit.status, lo.label
            assert hi.orbit.witness_to_hole == lo.orbit.witness_to_hole, lo.label
    for report in (Prop1Report, Prop2Report):
        verdict = report(small).verdict
        if verdict is not Verdict.UNKNOWN:
            assert report(large).verdict is verdict, report.__name__


class TestCeilings:
    @pytest.mark.parametrize("budget", [0, MAX_BUDGET + 1, 10**8])
    def test_budget_ceiling(self, budget):
        # 10^8 nodes of a non-closing orbit would take about 24 GB
        ifs = build_projection_ifs(F(2, 5), F(1, 2))
        message = rf"budget must lie in \[1, {MAX_BUDGET}\], got {budget}$"
        for search in (lambda: orbit_search(ifs, F(-1, 5), budget),
                       lambda: inverse_closure(ifs, (F(0),), budget),
                       lambda: prop2_check(ifs, budget)):
            with pytest.raises(OutOfRange, match=message):
                search()

    def test_depth_ceiling_comes_before_enumeration(self, monkeypatch):
        ifs = build_projection_ifs(F(9, 20), F(1, 2))
        with pytest.raises(DepthBudgetExceeded, match="at depth 40 exceeds"):
            coding_count(ifs, F(1, 5), 40)
        monkeypatch.setattr(cantor, "MAX_BUDGET", 50)
        message = r"at depth 12 exceeds the item ceiling 50 \(\d+ items\)$"
        for enumerate_ in (lambda: coding_count(ifs, F(1, 5), 12),
                           lambda: slice_count_2d(F(9, 20), F(1, 2), F(1, 5), 12),
                           lambda: survivor_cover(ifs, 12),
                           lambda: univoque_dimension_estimate(ifs, (2, 12, 3))):
            start = time.perf_counter()
            with pytest.raises(DepthBudgetExceeded, match=message):
                enumerate_()
            assert time.perf_counter() - start < 0.5
        assert coding_count(ifs, F(1, 5), 3) == slice_count_2d(F(9, 20), F(1, 2), F(1, 5), 3)

    def test_deepest_admitted_depth(self):
        a = F(-1, 6)
        assert coding_count(third_half(), a, 24) == 25
        assert slice_count_2d(F(1, 3), F(1, 2), a, 24) == 25


class TestPropChecks:
    def test_prop1_fails_at_right_endpoints(self):
        rep = prop1_check(third_half())
        assert rep.verdict is Verdict.FALSE
        assert not rep.holds
        failing = {r.label: r for r in rep.failing()}
        assert "b1" in failing
        assert failing["b1"].point == 0
        assert failing["b1"].orbit.status is OrbitStatus.FINITE_CLOSURE
        hits = {r.label: r.orbit.witness_to_hole for r in rep.endpoints
                if r.orbit.status is OrbitStatus.HITS_HOLE}
        assert hits["a1"] == (1,)

    def test_prop2_true_with_small_closure(self):
        rep = prop2_check(third_half())
        assert rep.verdict is Verdict.TRUE
        assert rep.closure_union == tuple(sorted(
            [F(-1, 2), F(-1, 6), F(0), F(1, 6), F(1, 3), F(1, 2), F(2, 3), F(1)]))

    def test_prop_checks_unknown_under_budget(self):
        ifs = build_projection_ifs(F(7, 20), F(1, 2))
        rep2 = prop2_check(ifs, budget=50)
        assert rep2.verdict is Verdict.UNKNOWN
        rep1 = prop1_check(ifs, budget=50)
        assert rep1.verdict in (Verdict.TRUE, Verdict.UNKNOWN, Verdict.FALSE)


class TestCodingCounts:
    def test_unique_at_right_end(self):
        ifs = third_half()
        for n in (1, 4, 9):
            assert coding_count(ifs, 1, n) == 1

    def test_overlap_point_branches(self):
        assert coding_count(third_half(), F(-1, 6), 2) >= 2

    def test_out_of_attractor(self):
        with pytest.raises(OutOfAttractor):
            coding_count(third_half(), 2, 3)


class TestSliceCounts:
    def test_top_corner_chain(self):
        for n in (1, 3, 6):
            assert slice_count_2d(F(1, 3), F(1, 2), 1, n) == 1

    def test_outside_projection_is_zero(self):
        assert slice_count_2d(F(1, 3), F(1, 2), F(-3, 5), 4) == 0
        assert slice_count_2d(F(1, 3), F(1, 2), F(11, 10), 4) == 0

    def test_matches_coding_count_examples(self):
        ifs = third_half()
        for a, n in [(F(-1, 6), 3), (F(1, 12), 8), (F(1, 3), 5)]:
            assert slice_count_2d(F(1, 3), F(1, 2), a, n) == coding_count(ifs, a, n)

    def test_oracle_identity_sampled(self):
        rng = random.Random(31)
        checked = 0
        while checked < 100:
            lam = F(rng.randrange(26, 49), 100)
            low, high = 1 - 2 * lam, lam / (1 - 2 * lam)
            if rng.random() < 0.5:
                lo_b, hi_b = low, min(high, F(1))
            else:
                lo_b, hi_b = max((1 - 2 * lam) / lam, F(1)), 1 / (1 - 2 * lam)
            if lo_b > hi_b:
                continue
            t = lo_b + (hi_b - lo_b) * F(rng.randrange(0, 65), 64)
            if t <= 0 or t == 1:
                continue
            ifs = build_projection_ifs(lam, t)
            a = -t + (1 + t) * F(rng.randrange(0, 201), 200)
            n = rng.randrange(1, 7)
            assert slice_count_2d(lam, t, a, n) == coding_count(ifs, a, n)
            checked += 1


class TestSurvivorCover:
    def test_no_hole_survives_everything(self):
        ifs = build_projection_ifs(F(1, 4), F(1, 2))
        assert survivor_cover(ifs, 3) == IntervalSet([ifs.attractor])

    def test_depth_zero_is_hole_complement(self):
        ifs = third_half()
        got = survivor_cover(ifs, 0)
        assert got == IntervalSet([
            Interval(F(-1, 2), F(-1, 6)),
            Interval(0, F(1, 6)),
            Interval(F(1, 3), F(1, 2)),
            Interval(F(2, 3), 1),
        ])

    def test_monotone_decreasing(self):
        ifs = third_half()
        prev = survivor_cover(ifs, 0)
        for n in range(1, 6):
            cur = survivor_cover(ifs, n)
            assert cur.subset_of(prev)
            prev = cur

    def test_survivor_points_have_unique_codings(self):
        ifs = third_half()
        cover = survivor_cover(ifs, 6)
        assert cover.contains(F(-1, 2))
        assert cover.contains(1)
        # midpoints of survivor parts keep a single coding at the same depth
        rng = random.Random(13)
        parts = rng.sample(list(cover.parts), 10)
        for part in parts:
            mid = (part.lo + part.hi) / 2
            assert coding_count(ifs, mid, 6) == 1
