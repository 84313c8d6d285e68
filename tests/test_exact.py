import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cantorvis.cantor import CantorParams, Coding, basic_intervals, window_gn
from cantorvis.errors import NonPositiveDenominator, OutOfRange, ParseError, ZeroRatio
from cantorvis.exact import (Interval, IntervalSet, affine_image, as_rational,
                             format_rational, interval_quotient, parse_rational)
from cantorvis.slices import build_projection_ifs, survivor_cover
from cantorvis.visibility import quotient_core_cover
from draws import interval_systems, lambdas


small_fractions = st.builds(F, st.integers(-30, 30), st.integers(1, 12))


def iv(lo, hi):
    # Interval coerces "p/q" strings through as_rational
    return Interval(lo, hi)


class TestRationalLiterals:
    def test_parse_fraction(self):
        assert parse_rational("2/3") == F(2, 3)
        assert parse_rational("-7/4") == F(-7, 4)
        assert parse_rational(" 5 ") == F(5)

    def test_parse_normalizes(self):
        assert parse_rational("4/8") == F(1, 2)

    @pytest.mark.parametrize("bad", ["1.5", "2/0", "abc", "1e3", "", "2/-3"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_rational(bad)

    def test_format_roundtrip(self):
        assert format_rational(F(2, 3)) == "2/3"
        assert format_rational(F(-5)) == "-5"
        assert parse_rational(format_rational(F(22, 7))) == F(22, 7)

    def test_format_refuses_oversized_numerals(self):
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("int-to-str digit limit disabled")
        big = 10 ** limit  # limit + 1 digits
        for value in (F(big), F(1, big), F(-big, 7)):
            with pytest.raises(OutOfRange, match="numeral too long to print"):
                format_rational(value)
        assert format_rational(F(big // 10, 3)) == f"{big // 10}/3"

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            as_rational(0.5)


class TestInterval:
    def test_order_validated(self):
        with pytest.raises(ValueError):
            Interval(F(1), F(0))

    def test_point_allowed(self):
        p = Interval(F(1, 2), F(1, 2))
        assert p.length == 0 and p.contains(F(1, 2))

    def test_affine_reflection(self):
        assert Interval(0, 1).affine(-1, 0) == Interval(-1, 0)

    def test_intersection(self):
        assert Interval(0, 1).intersection(Interval(F(1, 2), 2)) == Interval(F(1, 2), 1)
        assert Interval(0, 1).intersection(Interval(2, 3)) is None
        # touching intervals intersect in a point
        assert Interval(0, 1).intersection(Interval(1, 2)) == Interval(1, 1)

    def test_open_intersects_excludes_touching(self):
        assert not Interval(0, 1).open_intersects(Interval(1, 2))
        assert Interval(0, 1).open_intersects(Interval(F(1, 2), 2))


class TestNormalizeUnion:
    def test_already_disjoint(self):
        s = IntervalSet([Interval(0, F(1, 3)), Interval(F(2, 3), 1)])
        assert s.parts == (Interval(0, F(1, 3)), Interval(F(2, 3), 1))

    def test_touching_merge(self):
        s = IntervalSet([Interval(0, F(1, 2)), Interval(F(1, 2), 1)])
        assert s.parts == (Interval(0, 1),)

    def test_overlap_merge(self):
        s = IntervalSet([Interval(F(6, 7), F(7, 6)), Interval(F(2, 3), F(7, 8))])
        assert s.parts == (Interval(F(2, 3), F(7, 6)),)

    def test_idempotent(self):
        raw = [Interval(F(6, 7), F(7, 6)), Interval(F(2, 3), F(7, 8)), Interval(2, 3)]
        once = IntervalSet(raw)
        again = IntervalSet(once.parts)
        assert once == again

    def test_commutative_random(self):
        rng = random.Random(7)
        base = [Interval(F(rng.randrange(0, 50), 17), F(rng.randrange(50, 100), 17))
                for _ in range(40)]
        expected = IntervalSet(base)
        for _ in range(20):
            shuffled = base[:]
            rng.shuffle(shuffled)
            assert IntervalSet(shuffled) == expected

    def test_total_length_is_sum_of_parts(self):
        s = IntervalSet([Interval(0, 1), Interval(F(1, 2), 2), Interval(3, 4)])
        assert s.total_length == sum((p.length for p in s.parts), F(0))
        assert s.total_length == F(3)

    def test_gaps_and_complement(self):
        s = IntervalSet([Interval(0, 1), Interval(2, 3)])
        assert s.gaps() == (Interval(1, 2),)
        comp = s.complement_within(Interval(-1, 4))
        assert comp.parts == (Interval(-1, 0), Interval(1, 2), Interval(3, 4))

    def test_subset_of(self):
        inner = IntervalSet([Interval(F(1, 4), F(1, 3)), Interval(F(5, 2), F(11, 4))])
        outer = IntervalSet([Interval(0, 1), Interval(2, 3)])
        assert inner.subset_of(outer)
        assert not outer.subset_of(inner)

    @settings(max_examples=200, deadline=None)
    @given(ends=st.lists(st.tuples(small_fractions, small_fractions), max_size=12),
           rng=st.randoms(use_true_random=False))
    def test_normalization_laws(self, ends, rng):
        intervals = [Interval(min(x, y), max(x, y)) for x, y in ends]
        once = IntervalSet(intervals)
        assert all(a.hi < b.lo for a, b in zip(once.parts, once.parts[1:]))
        assert IntervalSet(once.parts) == once
        rng.shuffle(intervals)
        assert IntervalSet(intervals) == once


def normalized(s):
    return (all(a.hi < b.lo for a, b in zip(s.parts, s.parts[1:]))
            and IntervalSet(s.parts) == s)


@settings(max_examples=60, deadline=None)
@given(lam=lambdas, n=st.integers(0, 6), system=interval_systems(), data=st.data())
def test_lattice_kernels_build_normalized_sets(lam, n, system, data):
    """The four kernels skip the normalizing constructor; their parts must
    already be what it would make of them."""
    params = CantorParams(lam)
    words = st.lists(st.integers(1, 2), max_size=n).map(tuple)
    lo = Coding(data.draw(words)).interval(params).lo
    hi = Coding(data.draw(words)).interval(params).hi
    assume(lo < hi)
    assert normalized(basic_intervals(params, n))
    assert normalized(window_gn(params, lo, hi, n))
    assert normalized(quotient_core_cover(lam, max(n, 1)))
    assert normalized(survivor_cover(build_projection_ifs(*system), n))


class TestIntervalQuotient:
    def test_same_interval(self):
        assert interval_quotient(iv("2/3", "1"), iv("2/3", "1")) == iv("2/3", "3/2")

    def test_identity_divisor(self):
        assert interval_quotient(iv("2/3", "1"), Interval(1, 1)) == iv("2/3", "1")

    def test_exact_division(self):
        assert interval_quotient(iv("2/3", "7/9"), iv("8/9", "1")) == iv("2/3", "7/8")

    def test_rejects_nonpositive_divisor(self):
        with pytest.raises(NonPositiveDenominator):
            interval_quotient(Interval(0, 1), Interval(0, 1))
        with pytest.raises(NonPositiveDenominator):
            interval_quotient(Interval(0, 1), Interval(-2, -1))

    def test_contains_sampled_quotients(self):
        rng = random.Random(11)
        i = Interval(F(1, 3), F(5, 2))
        j = Interval(F(1, 7), F(9, 4))
        q = interval_quotient(i, j)
        for _ in range(200):
            p = i.lo + (i.hi - i.lo) * F(rng.randrange(0, 1001), 1000)
            d = j.lo + (j.hi - j.lo) * F(rng.randrange(0, 1001), 1000)
            assert q.contains(p / d)


class TestAffineImage:
    def test_map_image(self):
        s = IntervalSet([Interval(0, 1)])
        assert affine_image(s, F(1, 3), F(2, 3)) == IntervalSet([iv("2/3", "1")])

    def test_inverse_scaling(self):
        s = IntervalSet([iv("2/3", "3/2")])
        assert affine_image(s, 3, 0) == IntervalSet([Interval(2, F(9, 2))])

    def test_reflection(self):
        s = IntervalSet([Interval(0, 1)])
        assert affine_image(s, -1, 0) == IntervalSet([Interval(-1, 0)])

    def test_zero_ratio_rejected(self):
        with pytest.raises(ZeroRatio):
            affine_image(IntervalSet([Interval(0, 1)]), 0, 1)

    def test_length_scales_by_abs_ratio(self):
        rng = random.Random(3)
        parts = [Interval(F(k, 9), F(k, 9) + F(rng.randrange(1, 4), 13))
                 for k in range(0, 40, 5)]
        s = IntervalSet(parts)
        for r in (F(3, 2), F(-5, 7), F(4)):
            assert affine_image(s, r, F(1, 3)).total_length == abs(r) * s.total_length
