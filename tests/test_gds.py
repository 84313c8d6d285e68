import json
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorvis.cantor import IfsMap
from cantorvis.errors import ClosureNotFinite, EmptySystem, OutOfAttractor
from cantorvis.exact import Interval
from cantorvis.gds import (Edge, GraphDirectedSystem, Separation, build_gds,
                           gds_dimension, gds_from_dynamics, spectral_radius,
                           univoque_dimension_estimate)
from cantorvis.slices import (build_projection_ifs, coding_count, prop1_check,
                              prop2_check, survivor_cover)


def third_half_system():
    ifs = build_projection_ifs(F(1, 3), F(1, 2))
    system, p1, p2 = gds_from_dynamics(ifs)
    return ifs, system, p1, p2


class TestBuild:
    def test_states_and_edges_third_half(self):
        _, system, p1, p2 = third_half_system()
        assert system.states == (
            Interval(F(-1, 2), F(-1, 6)),
            Interval(0, F(1, 6)),
            Interval(F(1, 3), F(1, 2)),
            Interval(F(2, 3), 1),
        )
        assert system.edges == (
            Edge(0, 0, 1), Edge(0, 1, 1), Edge(0, 2, 1),
            Edge(1, 1, 3), Edge(1, 2, 3),
            Edge(2, 1, 2), Edge(2, 2, 2),
            Edge(3, 1, 4), Edge(3, 2, 4), Edge(3, 3, 4),
        )
        assert system.adjacency == ((1, 1, 1, 0), (0, 1, 1, 0),
                                    (0, 1, 1, 0), (0, 1, 1, 1))
        assert system.separation is Separation.OPEN_SET_CONDITION
        assert not p1.holds and p2.holds

    def test_edge_soundness(self):
        ifs, system, _, _ = third_half_system()
        from cantorvis.slices import overlap_regions
        holes = [r.interval for r in overlap_regions(ifs).regions
                 if not r.degenerate]
        for e in system.edges:
            img = ifs.map_for(e.label).apply_interval(system.states[e.dst])
            assert system.states[e.src].contains_interval(img)
            assert not any(img.open_intersects(h) for h in holes)

    def test_edge_images_disjoint_within_state(self):
        ifs, system, _, _ = third_half_system()
        by_src = {}
        for e in system.edges:
            img = ifs.map_for(e.label).apply_interval(system.states[e.dst])
            by_src.setdefault(e.src, []).append(img)
        for images in by_src.values():
            for i in range(len(images)):
                for j in range(i + 1, len(images)):
                    assert not images[i].open_intersects(images[j])

    def test_full_shift_when_images_tile(self):
        # lam = 1/4, t = 1/2: the four images tile the attractor exactly,
        # no holes survive, and the system is the full 4-branch shift
        ifs = build_projection_ifs(F(1, 4), F(1, 2))
        system, _, p2 = gds_from_dynamics(ifs)
        assert p2.holds
        assert system.n_states == 4
        assert all(all(c == 1 for c in row) for row in system.adjacency)
        rho = spectral_radius(system.adjacency)
        assert rho.value == 4.0 and rho.lo <= 4 <= rho.hi
        assert abs(gds_dimension(system) - 1.0) < 1e-9

    def test_closure_not_finite_raises(self):
        ifs = build_projection_ifs(F(7, 20), F(1, 2))
        assert prop2_check(ifs, budget=50).verdict.value == "unknown"
        with pytest.raises(ClosureNotFinite):
            gds_from_dynamics(ifs, budget=50)

    def test_endpoint_orbits_run_once(self, monkeypatch):
        from cantorvis import slices
        calls = []
        real = slices.orbit_search

        def counting(ifs, x, *args, **kwargs):
            calls.append(x)
            return real(ifs, x, *args, **kwargs)

        monkeypatch.setattr(slices, "orbit_search", counting)
        ifs = build_projection_ifs(F(1, 3), F(1, 2))
        gds_from_dynamics(ifs)
        endpoints = [p for _, p in slices.overlap_regions(ifs).endpoints()]
        assert len(endpoints) == 6
        assert calls == endpoints

    @pytest.mark.parametrize("lam, t", [(F(1, 3), F(1, 2)), (F(1, 3), F(25, 38)),
                                        (F(1, 3), F(2))])
    def test_attractor_is_mapped_only_at_construction(self, monkeypatch, lam, t):
        ifs = build_projection_ifs(lam, t)
        mapped = []
        real = IfsMap.apply_interval

        def spying(m, iv):
            if iv == ifs.attractor:
                mapped.append(m)
            return real(m, iv)

        monkeypatch.setattr(IfsMap, "apply_interval", spying)
        gds_from_dynamics(ifs)
        prop1_check(ifs)
        coding_count(ifs, ifs.attractor.lo + F(1, 7), 6)
        survivor_cover(ifs, 3)
        assert mapped == []

    def test_outside_cut_point_rejected(self):
        ifs = build_projection_ifs(F(1, 3), F(1, 2))
        with pytest.raises(OutOfAttractor):
            build_gds(ifs, (F(0), F(3, 2)))

    def test_manual_closure_accepts_extra_cuts(self):
        ifs = build_projection_ifs(F(1, 3), F(1, 2))
        base, _, p2 = gds_from_dynamics(ifs)
        system = build_gds(ifs, (*p2.closure_union, F(5, 6)),
                           strong_separation=False)
        # one extra cut splits a state but cannot change the growth rate
        assert system.n_states == base.n_states + 1
        assert abs(gds_dimension(system) - gds_dimension(base)) < 1e-9


class TestDimension:
    def test_third_half_dimension(self):
        _, system, _, _ = third_half_system()
        expected = math.log(2) / math.log(3)
        assert abs(gds_dimension(system) - expected) < 1e-9

    def test_against_numpy_eigenvalues(self):
        _, system, _, _ = third_half_system()
        rho_np = max(abs(np.linalg.eigvals(np.array(system.adjacency, dtype=float))))
        rho_pi = spectral_radius(system.adjacency).value
        assert abs(rho_np - rho_pi) < 1e-9

    @pytest.mark.parametrize("t", [F(3, 5), F(5, 3), F(4, 7)])
    def test_defective_spectra_have_dimension_zero(self, t):
        # every strongly connected block is one state with a single self-loop
        system, _, _ = gds_from_dynamics(build_projection_ifs(F(1, 3), t))
        rho = spectral_radius(system.adjacency)
        assert rho.lo == rho.hi == 1 and rho.value == 1.0
        assert gds_dimension(system) == 0.0

    def test_empirical_estimate_matches(self):
        ifs, system, _, _ = third_half_system()
        est = univoque_dimension_estimate(ifs, range(8, 13))
        assert abs(est.slope - gds_dimension(system)) < 0.05

    def test_single_self_loop(self):
        g = GraphDirectedSystem(F(1, 5), (Interval(0, 1),), (Edge(0, 0, 1),),
                                Separation.OPEN_SET_CONDITION, ((1,),))
        assert gds_dimension(g) == 0.0

    def test_no_edges(self):
        g = GraphDirectedSystem(F(1, 5), (Interval(0, 1),), (),
                                Separation.OPEN_SET_CONDITION, ((0,),))
        assert gds_dimension(g) == 0.0

    def test_empty_system(self):
        g = GraphDirectedSystem(F(1, 5), (), (), Separation.OPEN_SET_CONDITION, ())
        with pytest.raises(EmptySystem):
            gds_dimension(g)

    def test_full_shift_formula(self):
        # one state, four self-loops: rho = 4 at any ratio
        g = GraphDirectedSystem(F(1, 5), (Interval(0, 1),),
                                tuple(Edge(0, 0, j) for j in range(1, 5)),
                                Separation.OPEN_SET_CONDITION, ((4,),))
        assert abs(gds_dimension(g) - math.log(4) / math.log(5)) < 1e-12


def numpy_block_radius(mat) -> float:
    """numpy's largest |eigenvalue| over the strongly connected blocks.

    A reducible matrix whose Perron root repeats across blocks has a defective
    spectrum, where LAPACK's eigenvalues are only good to about sqrt(eps)
    (7e-6 relative on an 8x8 example). A block's Perron root is simple, so the
    oracle takes eigenvalues block by block, with reachability from numpy.
    """
    a = np.array(mat, dtype=np.int64)
    n = len(a)
    reach = np.linalg.matrix_power(np.eye(n, dtype=np.int64) + (a > 0), n) > 0
    strong = reach & reach.T
    return max(max(abs(np.linalg.eigvals(a[np.ix_(row, row)].astype(float))))
               for row in strong)


square_matrices = st.integers(1, 8).flatmap(
    lambda n: st.lists(st.lists(st.integers(0, 4), min_size=n, max_size=n),
                       min_size=n, max_size=n))


class TestSpectralRadius:
    def test_periodic_matrix_converges(self):
        rho = spectral_radius(((0, 1), (1, 0)))
        assert rho.value == 1.0 and rho.lo < 1 < rho.hi

    def test_nilpotent(self):
        rho = spectral_radius(((0, 1), (0, 0)))
        assert rho.value == 0
        assert rho.lo == rho.hi == 0
        g = GraphDirectedSystem(F(1, 3), (Interval(0, 1), Interval(2, 3)),
                                (Edge(0, 1, 1),),
                                Separation.OPEN_SET_CONDITION, ((0, 1), (0, 0)))
        assert gds_dimension(g) == 0.0

    def test_acyclic_is_exactly_zero(self):
        rng = random.Random(5)
        n = 7
        order = rng.sample(range(n), n)
        mat = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                mat[order[i]][order[j]] = rng.randrange(0, 4)
        rho = spectral_radius(mat)
        assert (rho.value, rho.lo, rho.hi) == (0.0, 0, 0)

    def test_random_matrices_match_numpy(self):
        rng = random.Random(19)
        for _ in range(20):
            n = rng.randrange(2, 7)
            mat = [[rng.randrange(0, 4) for _ in range(n)] for _ in range(n)]
            expected = max(abs(np.linalg.eigvals(np.array(mat, dtype=float))))
            got = spectral_radius(mat).value
            assert abs(got - expected) <= 1e-9 * expected

    @settings(max_examples=150, deadline=None)
    @given(mat=square_matrices, data=st.data())
    def test_certificate_brackets_numpy(self, mat, data):
        rho = spectral_radius(mat)
        assert rho.lo <= rho.hi
        assert float(rho.lo) == rho.value == float(rho.hi)
        expected = numpy_block_radius(mat)
        slack = 1e-12 * expected
        assert rho.lo - slack <= expected <= rho.hi + slack
        perm = data.draw(st.permutations(range(len(mat))))
        assert spectral_radius([[mat[i][j] for j in perm] for i in perm]) == rho

    @settings(max_examples=60, deadline=None)
    @given(a=square_matrices, b=square_matrices)
    def test_block_diagonal_takes_the_larger_radius(self, a, b):
        n, m = len(a), len(b)
        diag = ([row + [0] * m for row in a] + [[0] * n + row for row in b])
        ra, rb = spectral_radius(a), spectral_radius(b)
        rho = spectral_radius(diag)
        assert rho.value == max(ra.value, rb.value)
        assert (rho.lo, rho.hi) == (max(ra.lo, rb.lo), max(ra.hi, rb.hi))

    @pytest.mark.parametrize("mat", [[[1, 2]], [[1], [2, 3]], [[0, -1], [1, 0]],
                                     [[0.5, 1], [1, 0]]])
    def test_malformed_rejected(self, mat):
        with pytest.raises(ValueError):
            spectral_radius(mat)

    def test_empty_rejected(self):
        with pytest.raises(EmptySystem):
            spectral_radius([])


class TestExports:
    def test_json_roundtrip(self):
        _, system, _, _ = third_half_system()
        blob = json.dumps(system.to_json_dict())
        back = json.loads(blob)
        assert back["lambda"] == "1/3"
        assert back["separation"] == "OpenSetCondition"
        assert back["states"][0] == ["-1/2", "-1/6"]
        assert {"from": 0, "to": 0, "map": 1} in back["edges"]
        assert back["adjacency"] == [[1, 1, 1, 0], [0, 1, 1, 0],
                                     [0, 1, 1, 0], [0, 1, 1, 1]]

    def test_dot_output(self):
        _, system, _, _ = third_half_system()
        dot = system.to_dot()
        assert dot.startswith("digraph gds {")
        assert 's0 -> s1 [label="g1"];' in dot
        assert dot.count("->") == len(system.edges)
