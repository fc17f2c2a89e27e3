import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import neelwall as nw


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
        assert not g.points.flags.writeable
        with pytest.raises(ValueError):
            g.points[0] = 0.0

    def test_rejects_odd_count(self):
        with pytest.raises(ValueError):
            nw.make_grid(1.0, 5)

    def test_rejects_nonpositive_half_length(self):
        with pytest.raises(ValueError):
            nw.make_grid(0.0, 16)
        with pytest.raises(ValueError):
            nw.make_grid(-3.0, 16)

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
        assert nw.interpolate(ref, 0.0) == pytest.approx(np.pi / 2, abs=0)
        assert nw.interpolate(ref, 2.0) == 0.0
        assert nw.interpolate(ref, -2.0) == pytest.approx(np.pi, abs=0)

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


class TestInterpolate:
    def setup_method(self):
        self.grid = nw.make_grid(5.0, 64)
        self.params = nw.ModelParams(1.0, 0.0)
        self.profile = nw.reference_profile(self.grid, self.params)

    @given(i=st.integers(0, 64))
    @settings(max_examples=30, deadline=None)
    def test_exact_at_nodes(self, i):
        x = self.grid.points[i]
        assert nw.interpolate(self.profile, x) == self.profile.values[i]

    def test_midpoint_is_mean(self):
        x = 0.5 * (self.grid.points[10] + self.grid.points[11])
        expected = 0.5 * (self.profile.values[10] + self.profile.values[11])
        assert nw.interpolate(self.profile, x) == pytest.approx(expected, rel=1e-15)

    def test_outside_domain_raises(self):
        with pytest.raises(ValueError):
            nw.interpolate(self.profile, 5.1)
        with pytest.raises(ValueError):
            nw.interpolate(self.profile, -7.0)


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
