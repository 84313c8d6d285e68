"""Graph-directed description of the unique-coding set and its dimension.

When every overlap endpoint has a finite inverse-orbit closure, cutting the
attractor at those closure points yields a Markov family: each surviving
piece's unique-coding part decomposes into branch images of other pieces
that avoid the hole interiors. All contractions share the ratio lam, so the
dimension of the family is log(rho)/(-log lam) with rho the spectral radius
of the edge-count matrix.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import zip_longest
from typing import Iterable, Optional, Sequence

from .errors import ClosureNotFinite, EmptySystem
from .exact import Interval, RationalLike, format_rational
from .slices import (Prop1Report, Prop2Report, ProjectionIfs, _attractor_point,
                     _endpoint_orbits, _survivor_levels, inverse_closure, prop1_check)
from .visibility import BoxDimEstimate, _box_count, _box_dim_fit


class Separation(Enum):
    STRONG_SEPARATION = "StrongSeparation"
    OPEN_SET_CONDITION = "OpenSetCondition"


@dataclass(frozen=True)
class Edge:
    src: int
    dst: int
    label: int


@dataclass(frozen=True)
class GraphDirectedSystem:
    """States (closed intervals), labeled contraction edges, and edge counts.

    An edge (src, dst, label) certifies that map `label` carries state `dst`
    into state `src` while avoiding the hole interiors, so the src piece of
    the invariant family contains that image of the dst piece.
    """

    lam: Fraction
    states: tuple[Interval, ...]
    edges: tuple[Edge, ...]
    separation: Separation
    adjacency: tuple[tuple[int, ...], ...]

    @property
    def n_states(self) -> int:
        return len(self.states)

    def to_json_dict(self) -> dict:
        return {
            "lambda": format_rational(self.lam),
            "separation": self.separation.value,
            "states": [[format_rational(s.lo), format_rational(s.hi)]
                       for s in self.states],
            "edges": [{"from": e.src, "to": e.dst, "map": e.label}
                      for e in self.edges],
            "adjacency": [list(row) for row in self.adjacency],
        }

    def to_dot(self) -> str:
        lines = ["digraph gds {", "  rankdir=LR;"]
        for idx, s in enumerate(self.states):
            lines.append(f'  s{idx} [label="s{idx} {s}"];')
        for e in self.edges:
            lines.append(f'  s{e.src} -> s{e.dst} [label="g{e.label}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_gds(ifs: ProjectionIfs, closure: Iterable[RationalLike], *,
              strong_separation: Optional[bool] = None,
              budget: int = 10_000) -> GraphDirectedSystem:
    """Cut the attractor at the closure points and extract the edge relation.

    States are the closed pieces between consecutive cut points, minus those
    whose interior lies in a hole. The cut set is saturated under the inverse
    branches first, which guarantees every hole-avoiding branch image of a
    state lands inside a single state. When `strong_separation` is None the
    endpoint hole-return check decides the separation flag.
    """
    seeds = {_attractor_point(ifs, c) for c in closure}
    seeds.update((ifs.attractor.lo, ifs.attractor.hi))
    seeds.update(point for _, point in ifs.regions.endpoints())
    parents, _, saturated = inverse_closure(ifs, seeds, budget)
    if not saturated:
        raise ClosureNotFinite(f"cut-point closure exceeded the budget {budget}")
    cuts = sorted(parents)
    pieces = [Interval(u, v) for u, v in zip(cuts, cuts[1:])]
    holes = ifs.regions.holes
    states = tuple(p for p in pieces
                   if not any(h.contains_interval(p) for h in holes))
    state_los = [s.lo for s in states]

    def locate(img: Interval) -> Optional[int]:
        idx = bisect_right(state_los, img.lo) - 1
        if idx >= 0 and states[idx].contains_interval(img):
            return idx
        return None

    edges: list[Edge] = []
    for dst, piece in enumerate(states):
        for label in ifs.effective:
            img = ifs.map_for(label).apply_interval(piece)
            if any(img.open_intersects(h) for h in holes):
                continue
            src = locate(img)
            if src is None:
                raise RuntimeError(
                    f"image {img} of state {dst} straddles a cut; saturation is broken")
            edges.append(Edge(src, dst, label))
    edges.sort(key=lambda e: (e.src, e.dst, e.label))
    if strong_separation is None:
        strong_separation = prop1_check(ifs, budget).holds
    n = len(states)
    counts = [[0] * n for _ in range(n)]
    for e in edges:
        counts[e.src][e.dst] += 1
    separation = (Separation.STRONG_SEPARATION if strong_separation
                  else Separation.OPEN_SET_CONDITION)
    return GraphDirectedSystem(ifs.lam, states, tuple(edges), separation,
                               tuple(tuple(row) for row in counts))


def gds_from_dynamics(ifs: ProjectionIfs, budget: int = 10_000,
                      ) -> tuple[GraphDirectedSystem, Prop1Report, Prop2Report]:
    """Run both endpoint checks and build the system from the orbit closures.

    Both checks read the same endpoint orbits, computed once. Raises
    ClosureNotFinite when the finite-closure check stays UNKNOWN at the given
    budget; the separation flag comes from the hole-return check.
    """
    reports = _endpoint_orbits(ifs, budget)
    p1, p2 = Prop1Report(reports), Prop2Report(reports)
    if not p2.holds:
        raise ClosureNotFinite(
            f"endpoint orbit closures not certified finite within budget {budget}")
    g = build_gds(ifs, p2.closure_union, strong_separation=p1.holds, budget=budget)
    return g, p1, p2


@dataclass(frozen=True)
class SpectralRadius:
    """Perron root `value` (correctly rounded) with `lo <= rho <= hi` exact."""

    value: float
    lo: Fraction
    hi: Fraction


def spectral_radius(matrix: Sequence[Sequence[int]]) -> SpectralRadius:
    """Exact Perron root of a nonnegative integer matrix.

    rho is the largest radius over the strongly connected blocks (Mauldin &
    Williams). A one-state block's radius is its diagonal entry, so an acyclic
    graph gets 0 exactly. A larger block is irreducible with a cycle, so its
    radius is the largest real root of its characteristic polynomial and lies
    in [1, R] for R its largest row sum; Sturm bisection isolates that root
    until both ends round to the same float.
    """
    a = [list(row) for row in matrix]
    n = len(a)
    if n == 0:
        raise EmptySystem("empty adjacency matrix")
    if any(len(row) != n for row in a):
        raise ValueError("adjacency must be square")
    if any(not isinstance(x, int) or x < 0 for row in a for x in row):
        raise ValueError("adjacency entries must be nonnegative integers")
    brackets = [_block_radius([[a[i][j] for j in block] for i in block])
                for block in _strong_blocks(a)]
    lo = max(b[0] for b in brackets)
    hi = max(b[1] for b in brackets)
    return SpectralRadius(float(lo), lo, hi)


def _strong_blocks(a: list[list[int]]) -> list[list[int]]:
    """Strongly connected blocks of the graph with an edge i -> j when a[i][j]."""
    n = len(a)
    reach = [sum(1 << j for j in range(n) if a[i][j]) for i in range(n)]
    for k in range(n):  # Warshall closure on bit rows
        for i in range(n):
            if reach[i] >> k & 1:
                reach[i] |= reach[k]
    blocks, placed = [], set()
    for i in range(n):
        if i not in placed:
            block = [j for j in range(n)
                     if j == i or (reach[i] >> j & 1 and reach[j] >> i & 1)]
            placed.update(block)
            blocks.append(block)
    return blocks


def _block_radius(a: list[list[int]]) -> tuple[Fraction, Fraction]:
    """Bracket [lo, hi] of the Perron root of one strongly connected block.

    Every bisection point is 2/3 + R*j/2^k, never an integer, and a rational
    root of the monic integer characteristic polynomial is an integer, so no
    point probed is a root and the Sturm counts are always defined. The loop
    ends because rho is an integer (a float) or irrational (not a tie).
    """
    if len(a) == 1:
        return Fraction(a[0][0]), Fraction(a[0][0])
    chain = _sturm_chain(_charpoly(a))
    lo = Fraction(2, 3)
    hi = max(map(sum, a)) + lo
    above = _sign_changes(chain, hi)
    while float(lo) != float(hi):
        mid = (lo + hi) / 2
        if _sign_changes(chain, mid) > above:  # a root lies in (mid, hi)
            lo = mid
        else:
            hi = mid
    return lo, hi


def _charpoly(a: list[list[int]]) -> list[int]:
    """Coefficients of det(xI - a), highest degree first (Faddeev-LeVerrier).

    M_k = a M_{k-1} + c_{n-k+1} I and c_{n-k} = -tr(a M_k)/k, where the
    division is exact because every coefficient is an integer.
    """
    n = len(a)
    coeffs = [1]
    m = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        cols = list(zip(*m))
        m = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]
        for i in range(n):
            m[i][i] += coeffs[-1]
        coeffs.append(-sum(sum(x * y for x, y in zip(a[i], col))
                           for i, col in enumerate(zip(*m))) // k)
    return coeffs


def _sturm_chain(p: list[int]) -> list[list[int]]:
    """p, p', then negated remainders, each scaled to a primitive integer
    polynomial by a positive factor (which keeps every sign)."""
    deg = len(p) - 1
    chain = [p, [c * (deg - i) for i, c in enumerate(p[:-1])]]
    while len(chain[-1]) > 1:
        r = [Fraction(c) for c in chain[-2]]
        d = chain[-1]
        while len(r) >= len(d):
            q = r[0] / d[0]
            r = [x - q * y for x, y in zip_longest(r, d, fillvalue=0)][1:]
        while r and r[0] == 0:
            r.pop(0)
        if not r:
            break
        scale = math.lcm(*(c.denominator for c in r))
        ints = [-int(c * scale) for c in r]
        g = math.gcd(*ints)
        chain.append([c // g for c in ints])
    return chain


def _sign_changes(chain: list[list[int]], x: Fraction) -> int:
    """Sign changes along the chain at x, zeros skipped; each member is
    evaluated as den^deg * f(num/den), which has the sign of f(x)."""
    num, den = x.numerator, x.denominator
    signs = []
    for f in chain:
        v, dpow = f[0], 1
        for c in f[1:]:
            dpow *= den
            v = v * num + c * dpow
        if v:
            signs.append(v > 0)
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _dimension(rho: float, lam: Fraction) -> float:
    # nonnegative integer matrices have Perron root 0 or >= 1
    return 0.0 if rho <= 1.0 else math.log(rho) / (-math.log(float(lam)))


def gds_dimension(g: GraphDirectedSystem) -> float:
    """log(rho)/(-log lam) for the edge-count matrix; 0.0 for rho <= 1."""
    if not g.states:
        raise EmptySystem("graph-directed system has no states")
    return _dimension(spectral_radius(g.adjacency).value, g.lam)


def univoque_dimension_estimate(ifs: ProjectionIfs,
                                depths: Sequence[int]) -> BoxDimEstimate:
    """Empirical dimension of the unique-coding set from survivor covers.

    Box-counts the depth-n survivor cover at scale lam^n for each requested
    depth and fits the log-log slope; this is the independent cross-check
    for `gds_dimension`, built from forward interval arithmetic only. One
    pass builds the survivor levels up to the largest depth on integer
    lattices (`slices._survivor_levels`); each requested level is counted
    there, where lam^n = p^n/q^n spans d*lam^n lattice units of 1/d.
    """
    depths = sorted(depths)
    levels = _survivor_levels(ifs, depths)
    scales = [ifs.lam ** n for n in depths]
    counts = (_box_count(survivors, d * s.numerator // s.denominator)
              for s, (d, survivors) in zip(scales, levels))
    return _box_dim_fit(scales, counts)
