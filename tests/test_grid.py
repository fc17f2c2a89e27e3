import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import neelwall as nw
from neelwall.grid import (find_crossing, level_crossings, local_wall, mirror_left_half,
                           symmetry_defect)


class TestMakeGrid:
    def test_small_grid_arithmetic(self):
        g = nw.make_grid(1.0, 4)
        assert np.allclose(g.points[:-1], [-1.0, -0.5, 0.0, 0.5], atol=0)
        assert g.points[:-1][2] == 0.0

    def test_default_spacing(self):
        g = nw.make_grid(40.0, 4096)
        assert g.spacing == 80.0 / 4096 == 0.01953125

    def test_one_shared_grid_per_arguments(self):
        # a stored wall loaded twice holds one grid, not two copies of it
        g = nw.make_grid(40, 4096)
        assert g is nw.make_grid(40.0, 4096)
        assert g is nw.make_grid(np.float64(40.0), np.int64(4096))
        # a grid built directly equals the shared one and hashes alike
        assert nw.Grid1D(40, 4096) == g
        assert hash(nw.Grid1D(40, 4096)) == hash(g)
        assert nw.Grid1D(40, 2048) != g
        for name in ("points", "trapezoid", "wavenumbers",
                     "weighted_wavenumbers", "ramp"):
            array = getattr(g, name)
            assert array is getattr(g, name)
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_shared_among_the_last_eight_distinct_grids(self):
        g = nw.make_grid(3.0, 64)
        for k in range(7):
            nw.make_grid(4.0 + k, 64)
        assert nw.make_grid(3.0, 64) is g
        # asking for g again made it the most recent; eight others push it out
        for k in range(8):
            nw.make_grid(4.0 + k, 128)
        rebuilt = nw.make_grid(3.0, 64)
        assert rebuilt == g and rebuilt is not g

    def test_rejects_odd_count(self):
        # and fewer than 4 points, a bool or a float count, built either way
        for build in (nw.make_grid, nw.Grid1D):
            for n_points in (5, 2, 0, -4, True, 64.0, 4.0):
                with pytest.raises(ValueError):
                    build(1.0, n_points)

    def test_rejects_nonpositive_half_length(self):
        # and a non-finite or bool one, built either way
        for build in (nw.make_grid, nw.Grid1D):
            for half_length in (0.0, -3.0, np.inf, np.nan, True):
                with pytest.raises(ValueError):
                    build(half_length, 16)

    @given(n=st.integers(2, 64).map(lambda k: 2 * k),
           half_length=st.floats(0.5, 100.0, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_symmetry_invariants(self, n, half_length):
        g = nw.make_grid(half_length, n)
        assert g.points[g.center_index] == 0.0
        assert np.all(np.diff(g.points) > 0)
        # exact mirror symmetry of the sample positions
        assert np.array_equal(g.points, -g.points[::-1])
        assert g.points[:-1].shape == (n,)
        assert g.points.shape == (n + 1,)


class TestModelParams:
    def test_h_zero(self):
        p = nw.ModelParams(1.0, 0.0)
        assert p.theta_h == 0.0

    def test_h_half(self):
        p = nw.ModelParams(1.0, 0.5)
        assert p.theta_h == pytest.approx(np.pi / 6)

    def test_validation(self):
        with pytest.raises(ValueError):
            nw.ModelParams(0.0, 0.0)
        with pytest.raises(ValueError):
            nw.ModelParams(1.0, 1.0)
        with pytest.raises(ValueError):
            nw.ModelParams(1.0, -0.1)

    @given(h=st.floats(0.0, 0.999999, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_derived_constants(self, h):
        p = nw.ModelParams(1.0, h)
        assert 0.0 <= p.theta_h < np.pi / 2
        # pure functions of h
        assert p.theta_h == nw.ModelParams(17.0, h).theta_h


class TestReferenceProfile:
    def test_plateaus_h0(self):
        g = nw.make_grid(4.0, 128)
        ref = nw.reference_profile(g, nw.ModelParams(1.0, 0.0))
        # the samples at x = 0 and +-2
        c, quarter = g.center_index, g.n_points // 4
        assert g.points[[c - quarter, c, c + quarter]].tolist() == [-2.0, 0.0, 2.0]
        assert ref.values[c] == np.pi / 2
        assert ref.values[c + quarter] == 0.0
        assert ref.values[c - quarter] == np.pi

    def test_plateaus_h_half(self):
        g = nw.make_grid(4.0, 128)
        ref = nw.reference_profile(g, nw.ModelParams(1.0, 0.5))
        assert ref.values[-1] == pytest.approx(np.pi / 6, rel=1e-15)
        assert ref.values[0] == pytest.approx(5 * np.pi / 6, rel=1e-15)

    @pytest.mark.parametrize("h", [0.0, 0.2, 0.5, 0.9])
    def test_monotone_and_symmetric(self, h):
        g = nw.make_grid(6.0, 256)
        ref = nw.reference_profile(g, nw.ModelParams(1.0, h))
        assert np.all(np.diff(ref.values) <= 0.0)
        defect = np.max(np.abs(ref.values + ref.values[::-1] - np.pi))
        assert defect <= 1e-14
        assert ref.is_pinned()

    def test_pinned_within_1e_9_of_each_plateau(self):
        ref = nw.reference_profile(nw.make_grid(6.0, 64), nw.ModelParams(1.0, 0.3))
        for end in (0, -1):
            for off, pinned in ((0.5e-9, True), (-0.5e-9, True),
                                (2e-9, False), (-2e-9, False)):
                v = ref.values.copy()
                v[end] += off
                assert ref.with_values(v).is_pinned() == pinned, (end, off)

    @pytest.mark.parametrize("half_length, n", [(3.0, 10), (5.0, 16), (10.0, 256)])
    def test_matches_adaptive_quadrature(self, half_length, n):
        # coarse grids included: their pieces of the bump integral are wide
        g = nw.make_grid(half_length, n)
        bump = lambda t: np.exp(-1.0 / (1.0 - t * t))
        total = quad(bump, 0.0, 1.0, epsabs=1e-14, epsrel=1e-13)[0]
        sigma = np.array([np.sign(x) * quad(bump, 0.0, min(abs(x), 1.0),
                                            epsabs=1e-14, epsrel=1e-13)[0]
                          for x in g.points]) / total
        ref = nw.reference_profile(g, nw.ModelParams(1.0, 0.0))
        assert np.max(np.abs(ref.values - (np.pi / 2) * (1.0 - sigma))) <= 1e-13

    def test_domain_too_small(self):
        g = nw.make_grid(1.5, 64)
        with pytest.raises(ValueError):
            nw.reference_profile(g, nw.ModelParams(1.0, 0.0))

    def test_finite_energy(self):
        g = nw.make_grid(8.0, 256)
        ref = nw.reference_profile(g, nw.ModelParams(1.0, 0.3))
        e = nw.energy(ref)
        assert np.isfinite(e.total) and e.total > 0


class TestLocalWall:
    @pytest.mark.parametrize("h", [0.0, 0.3, 0.9, 0.99, 0.99999])
    @pytest.mark.parametrize("half_length, n", [(2.0, 4), (10.0, 256), (80.0, 8192)])
    def test_pinned_monotone_and_its_own_rearrangement(self, h, half_length, n):
        # at L = 80 and h = 0 the tanh rounds to 1 over most of the right half
        params = nw.ModelParams(1.0, h)
        wall = local_wall(nw.make_grid(half_length, n), params)
        v = wall.values
        assert v[0] == params.left_plateau and v[-1] == params.right_plateau
        assert np.all(np.diff(v) <= 0.0)
        assert symmetry_defect(v) == 0.0
        assert np.array_equal(nw.symmetrize_rearrange(wall).values, v)

    @pytest.mark.parametrize("h", [0.0, 0.5, 0.9])
    def test_nu_zero_energy_and_virial_converge_at_second_order(self, h):
        # the continuum wall has exchange + anisotropy = E0(h) and, by
        # Derrick's identity, exchange = anisotropy; the samples of the
        # closed form miss both by O(s^2), so a 4x finer grid gains 16x
        params = nw.ModelParams(1.0, h)
        e0 = 2.0 * (params.cos_theta_h - h * (np.pi / 2 - params.theta_h))
        energy_gaps, virial_gaps = [], []
        for n in (1024, 4096, 16384):
            e = nw.energy(local_wall(nw.make_grid(40.0, n), params))
            energy_gaps.append(e.exchange + e.anisotropy - e0)
            virial_gaps.append(e.exchange - e.anisotropy)
        for gaps in (energy_gaps, virial_gaps):
            for coarse, fine in zip(gaps, gaps[1:]):
                assert 14.0 <= coarse / fine <= 18.0, gaps


class TestSymmetricClass:
    def setup_method(self):
        rng = np.random.default_rng(5)
        self.values = rng.uniform(0.0, np.pi, 513)
        self.c = 256

    def test_mirror_left_half(self):
        v = self.values.copy()
        right = v[self.c + 1:].copy()
        assert mirror_left_half(v) is v
        assert np.array_equal(v[self.c + 1:], right)   # right half untouched
        assert v[self.c] == np.pi / 2
        assert np.all(v + v[::-1] == np.pi)

    def test_symmetry_defect(self):
        v = mirror_left_half(self.values.copy())
        assert symmetry_defect(v) == 0.0
        assert symmetry_defect(self.values) > 0.0
        v[3] += 1e-3
        v[-11] -= 4e-3
        v[self.c] += 1e-3   # counted twice: theta(0) + theta(-0)
        assert symmetry_defect(v) == pytest.approx(4e-3, rel=1e-12)


class TestLevelCrossings:
    def test_single_crossing_is_find_crossing(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            points = np.cumsum(rng.uniform(0.01, 3.0, n)) - 20.0
            values = np.sort(rng.normal(0.0, 2.0, n))[::-1]
            level = rng.uniform(values[-1], values[0])
            if np.any(values == level):
                continue
            j, x = level_crossings(points, values, level)
            assert j.size == 1 and values[j[0]] > level > values[j[0] + 1]
            assert x[0] == find_crossing(points, values, level)

    def test_every_strict_crossing(self):
        # a sample at the level is not a crossing; each x lies in its cell
        # and the linear interpolant is at the level there
        points = np.linspace(-3.0, 3.0, 61)
        values = np.sin(2.0 * points)
        values[30] = 0.0
        j, x = level_crossings(points, values, 0.0)
        assert 30 not in j and 29 not in j
        assert j.size == np.count_nonzero(np.abs(np.diff(np.sign(values))) == 2)
        assert np.all((points[j] <= x) & (x <= points[j + 1]))
        assert np.max(np.abs(np.interp(x, points, values))) <= 1e-15


class TestProfile:
    def test_rejects_bad_shapes_and_values(self):
        g = nw.make_grid(4.0, 32)
        params = nw.ModelParams(1.0, 0.0)
        with pytest.raises(ValueError):
            nw.Profile(g, np.zeros(10), params)
        bad = np.zeros(g.n_samples)
        bad[3] = np.nan
        with pytest.raises(ValueError):
            nw.Profile(g, bad, params)

    def test_values_read_only(self):
        g = nw.make_grid(4.0, 32)
        p = nw.reference_profile(g, nw.ModelParams(1.0, 0.0))
        with pytest.raises(ValueError):
            p.values[0] = 3.0
