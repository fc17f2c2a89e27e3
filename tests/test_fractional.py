import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import neelwall as nw
from neelwall.fractional import (
    FieldSamples,
    _fft_length,
    _lag_convolve,
    half_laplacian_spectral_values,
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


class TestLagConvolve:
    @pytest.mark.parametrize("m", [1, 3, 65, 1000, 4097])
    def test_matches_direct_convolution(self, m):
        # kernels of 2m - 1 lags, as the Green and seminorm kernels; the FFT
        # length is not a power of two for m = 3, 65 and 4097, and a period
        # one shorter than 2m - 1 would fold the last output onto the first
        rng = np.random.default_rng(m)
        a = rng.normal(size=m)
        kernel = rng.normal(size=2 * m - 1)
        want = np.convolve(a, kernel)[m - 1:2 * m - 1]
        got = _lag_convolve(a, kernel)
        assert got.shape == (m,)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_fft_length(self):
        smooth = sorted(2 ** a * 3 ** b for a in range(16) for b in range(10))
        for n in range(1, 20000):
            assert _fft_length(n) == next(p for p in smooth if p >= n)


class TestSeminorm:
    def test_constant_is_zero(self):
        g = nw.make_grid(10.0, 64)
        assert nw.h_half_seminorm_sq(FieldSamples(g, np.full(g.n_samples, 5.0))) == 0.0

    def test_matches_direct_double_sum(self):
        g = nw.make_grid(10.0, 64)
        rng = np.random.default_rng(0)
        v = rng.normal(size=g.n_samples)
        fast = nw.h_half_seminorm_sq(FieldSamples(g, v))
        p, s = g.points, g.spacing
        w = np.full(g.n_samples, s)
        w[0] *= 0.5
        w[-1] *= 0.5
        fwd = np.empty_like(v)
        fwd[:-1] = (v[1:] - v[:-1]) / s
        fwd[-1] = fwd[-2]
        total = 0.0
        for j in range(g.n_samples):
            for k in range(g.n_samples):
                q = fwd[j] ** 2 if j == k else (v[j] - v[k]) ** 2 / (p[j] - p[k]) ** 2
                total += w[j] * q * w[k]
        assert fast == pytest.approx(total / (2 * np.pi), rel=1e-13)

    def test_parseval_against_spectral_form(self):
        # narrow bump on a long domain: the missing outside-domain pairs of
        # the truncated double integral scale like sigma / half_length
        g = nw.make_grid(1000.0, 32000)
        u = gaussian_field(g, sigma=0.5)
        s_double = nw.h_half_seminorm_sq(u)
        lam = nw.half_laplacian_spectral(u).values
        s_spectral = g.spacing * float(np.dot(u.values[:-1], lam[:-1]))
        assert s_double == pytest.approx(s_spectral, rel=1e-3)

    @given(seed=st.integers(0, 2 ** 31))
    @settings(max_examples=20, deadline=None)
    def test_doubling_scales_by_four_exactly(self, seed):
        g = nw.make_grid(5.0, 64)
        rng = np.random.default_rng(seed)
        v = rng.normal(size=g.n_samples)
        s1 = nw.h_half_seminorm_sq(FieldSamples(g, v))
        s4 = nw.h_half_seminorm_sq(FieldSamples(g, 2.0 * v))
        assert s4 == 4.0 * s1

    def test_truncation_attribution_report(self, capsys):
        # the spectral (periodized) and truncated double-integral forms both
        # approximate the whole-line value; record their gap at production
        # geometry rather than adjudicating it
        g = nw.make_grid(40.0, 2048)
        u = gaussian_field(g, sigma=1.5)
        s_double = nw.h_half_seminorm_sq(u)
        lam = nw.half_laplacian_spectral(u).values
        s_spectral = g.spacing * float(np.dot(u.values[:-1], lam[:-1]))
        gap = abs(s_double - s_spectral) / s_spectral
        print(f"truncation gap at L=40: {gap:.2e} "
              f"(double {s_double:.6f} vs spectral {s_spectral:.6f})")
        assert gap < 0.1
