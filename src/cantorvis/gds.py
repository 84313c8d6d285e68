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
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import ClosureNotFinite, EmptySystem, OutOfAttractor
from .exact import Interval, RationalLike, as_rational, format_rational
from .slices import (Prop1Report, Prop2Report, ProjectionIfs, Verdict,
                     _endpoint_orbits, _prop1_report, _prop2_report,
                     inverse_closure, overlap_regions, prop1_check,
                     survivor_cover)
from .visibility import BoxDimEstimate, box_dim_estimate


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
    regs = overlap_regions(ifs)
    seeds: set[Fraction] = set()
    for c in closure:
        c = as_rational(c)
        if not ifs.attractor.contains(c):
            raise OutOfAttractor(f"cut point {format_rational(c)} outside the attractor")
        seeds.add(c)
    seeds.update((ifs.attractor.lo, ifs.attractor.hi))
    for _, point in regs.endpoints():
        seeds.add(point)
    words, _, saturated = inverse_closure(ifs, seeds, budget, regs)
    if not saturated:
        raise ClosureNotFinite(f"cut-point closure exceeded the budget {budget}")
    cuts = sorted(words)
    pieces = [Interval(u, v) for u, v in zip(cuts, cuts[1:])]
    holes = [r.interval for r in regs.regions if not r.degenerate]
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
    p1 = _prop1_report(reports)
    p2 = _prop2_report(reports)
    if p2.verdict is not Verdict.TRUE:
        raise ClosureNotFinite(
            f"endpoint orbit closures not certified finite within budget {budget}")
    g = build_gds(ifs, p2.closure_union, strong_separation=p1.holds, budget=budget)
    return g, p1, p2


@dataclass(frozen=True)
class SpectralRadius:
    value: float
    iterations: int
    residual: float


def spectral_radius(matrix: Sequence[Sequence[int]], tol: float = 1e-12,
                    max_iter: int = 200_000) -> SpectralRadius:
    """Perron root of a nonnegative matrix by power iteration.

    Iterates on A + I (same eigenvectors, radius shifted by one) so periodic
    edge structures cannot make the Rayleigh quotient oscillate. Convergence
    requires the quotient to move by at most `tol` AND the eigen-residual to
    be small; a quotient plateau alone can fire long before the eigenvector
    settles when the spectral gap is thin. Defective spectra decay only like
    1/k, so the reported residual is the honest quality measure.
    """
    a = np.asarray(matrix, dtype=float)
    if a.size == 0:
        raise EmptySystem("empty adjacency matrix")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"adjacency must be square, got shape {a.shape}")
    if (a < 0).any():
        raise ValueError("adjacency entries must be nonnegative")
    b = a + np.eye(a.shape[0])
    v = np.ones(a.shape[0]) / math.sqrt(a.shape[0])
    rq_prev = math.inf
    iterations = 0
    rq = 1.0
    residual = math.inf
    for iterations in range(1, max_iter + 1):
        w = b @ v
        v = w / np.linalg.norm(w)
        bv = b @ v
        rq = float(v @ bv)
        residual = float(np.linalg.norm(bv - rq * v, ord=np.inf))
        if (abs(rq - rq_prev) <= tol * max(1.0, abs(rq))
                and residual <= 1e-10 * max(1.0, abs(rq))):
            break
        rq_prev = rq
    return SpectralRadius(max(rq - 1.0, 0.0), iterations, residual)


def gds_dimension(g: GraphDirectedSystem) -> float:
    """log(rho)/(-log lam) for the edge-count matrix; 0.0 for rho <= 1."""
    if not g.states:
        raise EmptySystem("graph-directed system has no states")
    rho = spectral_radius(g.adjacency).value
    if rho <= 1.0:
        # nonnegative integer matrices have Perron root 0 or >= 1
        return 0.0
    return math.log(rho) / (-math.log(float(g.lam)))


def univoque_dimension_estimate(ifs: ProjectionIfs,
                                depths: Sequence[int]) -> BoxDimEstimate:
    """Empirical dimension of the unique-coding set from survivor covers.

    Box-counts the depth-n survivor cover at scale lam^n for each requested
    depth and fits the log-log slope; this is the independent cross-check
    for `gds_dimension`, built from forward interval arithmetic only.
    """
    depths = sorted(depths)
    covers = [(ifs.lam ** n, survivor_cover(ifs, n)) for n in depths]
    return box_dim_estimate(covers)
