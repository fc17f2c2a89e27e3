import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.special import zeta

import neelwall as nw
from neelwall.fractional import (
    FieldSamples,
    half_laplacian_spectral_values,
    spectral_quadratic_form,
)


def gaussian_field(grid, sigma=1.5, amp=1.0):
    return FieldSamples(grid, amp * np.exp(-grid.points ** 2 / (2 * sigma ** 2)))


class TestSpectral:
    def test_constant_maps_to_zero(self):
        g = nw.make_grid(10.0, 128)
        out = nw.half_laplacian_spectral(FieldSamples(g, np.full(g.n_samples, 7.0)))
        assert np.array_equal(out.values, np.zeros(g.n_samples))

    @pytest.mark.parametrize("m", [1, 2, 5, 11])
    def test_cosine_eigenfunction(self, m):
        g = nw.make_grid(40.0, 1024)
        u = np.cos(np.pi * m * g.points / g.half_length)
        out = nw.half_laplacian_spectral(FieldSamples(g, u))
        expected = (np.pi * m / g.half_length) * u
        assert np.max(np.abs(out.values - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_length_mismatch(self):
        g = nw.make_grid(10.0, 128)
        with pytest.raises(ValueError):
            FieldSamples(g, np.zeros(5))
        with pytest.raises(ValueError):
            half_laplacian_spectral_values(np.zeros(g.n_samples - 1), g)

    @given(a=st.floats(-3, 3, allow_nan=False), b=st.floats(-3, 3, allow_nan=False),
           seed=st.integers(0, 2 ** 31))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, a, b, seed):
        g = nw.make_grid(5.0, 64)
        rng = np.random.default_rng(seed)
        u = rng.normal(size=g.n_samples)
        v = rng.normal(size=g.n_samples)
        lhs = nw.half_laplacian_spectral(FieldSamples(g, a * u + b * v)).values
        rhs = (a * nw.half_laplacian_spectral(FieldSamples(g, u)).values
               + b * nw.half_laplacian_spectral(FieldSamples(g, v)).values)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_positivity_of_quadratic_form(self):
        g = nw.make_grid(10.0, 256)
        rng = np.random.default_rng(3)
        for _ in range(20):
            u = rng.normal(size=g.n_samples)
            u[-1] = u[0]  # periodic-compatible samples
            lam = nw.half_laplacian_spectral(FieldSamples(g, u)).values
            assert g.spacing * np.dot(u[:-1], lam[:-1]) >= -1e-10

    def test_self_adjointness(self):
        g = nw.make_grid(10.0, 256)
        rng = np.random.default_rng(4)
        for _ in range(10):
            u = rng.normal(size=g.n_samples)
            v = rng.normal(size=g.n_samples)
            u[-1] = u[0]
            v[-1] = v[0]
            lu = nw.half_laplacian_spectral(FieldSamples(g, u)).values
            lv = nw.half_laplacian_spectral(FieldSamples(g, v)).values
            lhs = g.spacing * np.dot(lu[:-1], v[:-1])
            rhs = g.spacing * np.dot(u[:-1], lv[:-1])
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestPrincipalValue:
    def test_constant_vanishes(self):
        g = nw.make_grid(10.0, 128)
        u = FieldSamples(g, np.full(g.n_samples, 3.3))
        for i in (1, 17, 64, 100, 127):
            assert nw.half_laplacian_pv(u, i) == pytest.approx(0.0, abs=1e-14)

    def test_boundary_node_rejected(self):
        g = nw.make_grid(10.0, 128)
        u = gaussian_field(g)
        with pytest.raises(ValueError):
            nw.half_laplacian_pv(u, 0)
        with pytest.raises(ValueError):
            nw.half_laplacian_pv(u, g.n_points)

    def test_nonfinite_rejected(self):
        g = nw.make_grid(10.0, 128)
        vals = np.zeros(g.n_samples)
        u = FieldSamples(g, vals)
        bad = vals.copy()
        bad[5] = np.inf
        with pytest.raises(ValueError):
            nw.half_laplacian_pv(FieldSamples(g, bad), 10)

    def test_cosine_symbol_action(self):
        # k = 1 with cos(k L) = 0 so the constant-extension truncation error
        # carries no resonant boundary term
        length = 31.5 * np.pi
        g = nw.make_grid(length, 4096)
        u = FieldSamples(g, np.cos(g.points))
        c = g.center_index
        for i in range(c - 20, c + 21, 5):
            got = nw.half_laplacian_pv(u, i)
            want = np.cos(g.points[i])
            assert got == pytest.approx(want, abs=1e-3 * 1.0)

    def test_matches_spectral_on_bump(self):
        g = nw.make_grid(80.0, 4096)
        u = gaussian_field(g, sigma=1.5)
        spectral = nw.half_laplacian_spectral(u).values
        inner = np.flatnonzero(np.abs(g.points) <= 0.9 * g.half_length)
        inner = inner[(inner > 0) & (inner < g.n_points)]
        pv = np.array([nw.half_laplacian_pv(u, int(i)) for i in inner])
        scale = np.max(np.abs(spectral[inner]))
        assert np.max(np.abs(pv - spectral[inner])) <= 1e-3 * scale


def sech(x):
    """1 / cosh x, written so that it does not overflow for large |x|."""
    e = np.exp(-np.abs(x))
    return 2.0 * e / (1.0 + e * e)


# fields with a closed-form squared seminorm (1/2 pi) int |k| |u^(k)|^2 dk
CLOSED_FORMS = {
    "gaussian sigma=0.5": (lambda x: np.exp(-x * x / 0.5), 1.0),
    "gaussian sigma=1.5": (lambda x: np.exp(-x * x / 4.5), 1.0),
    "sech": (sech, 4.0 * np.log(2.0) / np.pi),
    "sech^2": (lambda x: sech(x) ** 2, 24.0 * zeta(3.0) / np.pi ** 3),
}


class TestSeminorm:
    def test_constant_is_zero(self):
        g = nw.make_grid(10.0, 64)
        assert spectral_quadratic_form(np.full(g.n_samples, 5.0), g) == 0.0

    @pytest.mark.parametrize("name", CLOSED_FORMS)
    def test_closed_forms(self, name):
        # at a fixed spacing the periodized form's truncation error falls
        # like 1/half_length^2
        field, exact = CLOSED_FORMS[name]
        errors = []
        for half_length, n_points in ((40.0, 4096), (80.0, 8192), (160.0, 16384)):
            g = nw.make_grid(half_length, n_points)
            errors.append(spectral_quadratic_form(field(g.points), g) / exact - 1.0)
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.9 <= coarse / fine <= 4.1
        assert abs(errors[-1]) <= 2e-4

    @given(seed=st.integers(0, 2 ** 31))
    @settings(max_examples=20, deadline=None)
    def test_doubling_scales_by_four_exactly(self, seed):
        g = nw.make_grid(5.0, 64)
        v = np.random.default_rng(seed).normal(size=g.n_samples)
        assert spectral_quadratic_form(2.0 * v, g) == 4.0 * spectral_quadratic_form(v, g)
