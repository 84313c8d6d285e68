"""Hypothesis strategies shared by the test modules."""

from fractions import Fraction as F

from hypothesis import assume
from hypothesis import strategies as st

# lambda = p/q in (0, 1/2) with q <= 200, p > 1 included
lambdas = st.integers(3, 200).flatmap(
    lambda q: st.integers(1, (q - 1) // 2).map(lambda p: F(p, q)))


@st.composite
def interval_systems(draw):
    """lambda = p/q in (1/4, 1/2) with q <= 40, and t on a 1/64 grid of one of
    the two slope bands that keep the projection an interval (t = 1, where
    two maps coincide, excluded)."""
    q = draw(st.integers(5, 40))
    p = draw(st.integers(q // 4 + 1, (q - 1) // 2))
    lam = F(p, q)
    low, high = 1 - 2 * lam, lam / (1 - 2 * lam)
    if draw(st.booleans()):
        lo_b, hi_b = low, min(high, F(1))
    else:
        lo_b, hi_b = max(low / lam, F(1)), 1 / (1 - 2 * lam)
    t = lo_b + (hi_b - lo_b) * F(draw(st.integers(0, 64)), 64)
    assume(t != 1)
    return lam, t
