"""Acceptance suite: one test per criterion, each printing a pass line with
its runtime so the whole gate can be audited from the pytest -s output."""

import math
import random
import time
from fractions import Fraction as F

from cantorvis.cantor import CantorParams, basic_intervals
from cantorvis.exact import Interval, IntervalSet
from cantorvis.gds import (gds_dimension, gds_from_dynamics,
                           univoque_dimension_estimate)
from cantorvis.slices import (OrbitStatus, build_projection_ifs, coding_count,
                              slice_count_2d)
from cantorvis.visibility import (RegimeTag, Visibility, box_dim_estimate,
                                  exact_core, key2_check, key2_subintervals,
                                  quotient_core_cover, regime_classify,
                                  thickness_condition, visible_query,
                                  window_pieces)


class Timer:
    def __init__(self, label, limit):
        self.label = label
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"PASS {self.label} ({elapsed:.2f}s < {self.limit}s)")
            assert elapsed < self.limit, f"{self.label} exceeded {self.limit}s"
        else:
            print(f"FAIL {self.label} ({elapsed:.2f}s)")
        return False


def test_criterion_1_regime_classification():
    # the stated expectation for 19/50 (R1) contradicts the criterion's own
    # exact sign rule: (19/50)^2 - 3*(19/50) + 1 = 11/2500 > 0, so 19/50 is
    # classified R2; the exact rule is authoritative here
    with Timer("criterion 1: regime classification", 1.0):
        expected = {
            F(2, 5): RegimeTag.REGIME1_V_EMPTY,
            F(19, 50): RegimeTag.REGIME2_EXACT_GAPS,
            F(7, 20): RegimeTag.REGIME2_EXACT_GAPS,
            F(1, 3): RegimeTag.REGIME2_EXACT_GAPS,
            F(3, 10): RegimeTag.REGIME3A_INTERIOR_BOTH_SIDES,
            F(1, 4): RegimeTag.REGIME3B_NULL_COMPLEMENT,
            F(1, 5): RegimeTag.REGIME3B_NULL_COMPLEMENT,
        }
        for lam, tag in expected.items():
            regime = regime_classify(lam)
            assert regime.tag is tag, (lam, regime.tag)
        assert regime_classify(F(19, 50)).discriminant == F(11, 2500)
        assert regime_classify(F(2, 5)).discriminant < 0


def test_criterion_2_refinement_identity_certification():
    with Timer("criterion 2: refinement identity, 200 random instances", 5.0):
        rng = random.Random(2024)
        checked = 0
        while checked < 200:
            q = rng.randrange(7, 300)
            p = rng.randrange((q + 2) // 3, (q - 1) // 2 + 1)
            lam = F(p, q)
            pieces = window_pieces(lam, rng.randrange(1, 5))
            x = rng.randrange(len(pieces))
            y = rng.randrange(x, len(pieces))  # divisor starts at or after dividend
            assert key2_check(lam, pieces[x], pieces[y]) is True
            checked += 1
        window = Interval(F(2, 3), 1)
        parts = key2_subintervals(F(1, 3), window, window)
        assert parts.overlap_margins()["s1-r2"] == F(1, 56)
        assert parts.full == Interval(F(2, 3), F(3, 2))


def test_criterion_3_stabilization():
    with Timer("criterion 3: cover stabilization at lambda=1/3", 10.0):
        core = IntervalSet([Interval(F(2, 3), F(3, 2))])
        for n in range(1, 7):
            assert quotient_core_cover(F(1, 3), n) == core
        # one rank deeper exercises a full 64x64 = 4096 pair enumeration
        assert len(window_pieces(F(1, 3), 7)) == 64
        assert quotient_core_cover(F(1, 3), 7) == core


def test_criterion_4_regime_two_visibility():
    with Timer("criterion 4: rank-8 endpoint ratios at lambda=7/20", 30.0):
        lam = F(7, 20)
        core = exact_core(lam)
        assert core == Interval(F(13, 20), F(20, 13))
        endpoints = set()
        for part in basic_intervals(CantorParams(lam), 8).parts:
            endpoints.update((part.lo, part.hi))
        positive = sorted(e for e in endpoints if e > 0)
        assert len(positive) == 511

        # decompose each endpoint as lam^m * e_star with e_star in [1-lam, 1]
        decomp = {}
        for e in positive:
            m, star = 0, e
            while star < 1 - lam:
                star /= lam
                m += 1
            assert star <= 1
            decomp[e] = (m, star)
        scaled = {k: (lam ** k * core.lo, lam ** k * core.hi)
                  for k in range(-8, 9)}
        for e1 in positive:
            m1, _ = decomp[e1]
            for e2 in positive:
                m2, _ = decomp[e2]
                k = m1 - m2
                assert -8 <= k <= 8
                lo, hi = scaled[k]
                # exact membership of the ratio in the scale-k core
                assert lo * e2 <= e1 <= hi * e2

        answer = visible_query(lam, F(17, 10))
        assert answer.status is Visibility.VISIBLE
        assert answer.gap == Interval(F(20, 13), F(13, 7))


def test_criterion_5_dimension_formula():
    with Timer("criterion 5: box-count slopes", 60.0):
        covers = [(F(1, 5) ** n, quotient_core_cover(F(1, 5), n))
                  for n in range(2, 8)]
        est = box_dim_estimate(covers)
        target = math.log(4) / math.log(5)
        assert abs(est.slope - target) <= 0.10, est.slope

        params = CantorParams(F(1, 4))
        control = [(F(1, 4) ** n, basic_intervals(params, n)) for n in range(2, 9)]
        est_control = box_dim_estimate(control)
        assert abs(est_control.slope - 0.5) <= 0.02, est_control.slope


def test_criterion_6_thickness_condition():
    with Timer("criterion 6: thickness condition", 1.0):
        for k in range(26, 34):
            lam = F(k, 100)
            assert F(1, 4) < lam < F(1, 3)
            assert thickness_condition(lam) is True
        assert thickness_condition(F(1, 5)) is False
        assert thickness_condition(F(1, 4)) is False


def test_criterion_7_slice_dynamics_end_to_end():
    with Timer("criterion 7: slice dynamics at lambda=1/3, t=1/2", 60.0):
        ifs = build_projection_ifs(F(1, 3), F(1, 2))
        system, p1, p2 = gds_from_dynamics(ifs)

        assert p1.holds is False
        failing = {r.label: r for r in p1.failing()}
        assert "b1" in failing and failing["b1"].point == 0
        assert failing["b1"].orbit.status is OrbitStatus.FINITE_CLOSURE

        assert p2.holds is True
        assert len(p2.closure_union) <= 10

        holes = [r.interval for r in ifs.regions.regions
                 if not r.degenerate]
        assert system.edges, "system must be nonempty"
        for e in system.edges:
            img = ifs.map_for(e.label).apply_interval(system.states[e.dst])
            assert system.states[e.src].contains_interval(img)
            assert not any(img.open_intersects(h) for h in holes)

        dim = gds_dimension(system)
        est = univoque_dimension_estimate(ifs, range(9, 14))
        assert abs(dim - est.slope) <= 0.05, (dim, est.slope)


def test_criterion_8_oracle_identity():
    with Timer("criterion 8: slice count vs coding count, 500 triples", 60.0):
        rng = random.Random(88)
        checked = 0
        while checked < 500:
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
            a = -t + (1 + t) * F(rng.randrange(0, 401), 400)
            n = rng.randrange(1, 9)
            assert slice_count_2d(lam, t, a, n) == coding_count(ifs, a, n)
            checked += 1


def test_criterion_9_measure_zero_proxy():
    # no quantitative measure claim: only strict monotone decay of the cover
    # length, which is the honest desk-scale statement
    with Timer("criterion 9: cover length strictly decreasing", 60.0):
        for lam in (F(1, 5), F(1, 4)):
            lengths = [quotient_core_cover(lam, n).total_length
                       for n in range(1, 8)]
            for a, b in zip(lengths, lengths[1:]):
                assert b < a, (lam, lengths)
