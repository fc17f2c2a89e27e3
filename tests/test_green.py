import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import exp1, sici

import neelwall as nw
from neelwall import green
from neelwall.energy import LocalExpansion
from neelwall.fractional import FieldSamples
from neelwall.grid import fold, symmetry_defect


def green_fft_oracle(params, dx=0.005, n=2 ** 22):
    """Independent inversion of the Fourier form: irfft of green_hat sampled
    on a fine wavenumber grid, plus the analytic 1/k^2 tail beyond the
    cutoff K = pi/dx.  Returns (x >= 0 samples, values)."""
    k = 2 * np.pi * np.fft.rfftfreq(n, d=dx)
    ghat = nw.green_hat(k, params)
    g = np.fft.irfft(ghat) / dx
    xs = np.arange(n // 2 + 1) * dx
    cutoff = np.pi / dx
    si, _ = sici(cutoff * xs)
    tail = (np.cos(cutoff * xs) / cutoff - xs * (np.pi / 2 - si)) / np.pi
    return xs, g[:n // 2 + 1] + tail


def adaptive_green_quadrature(x, params):
    """The same t-integral as green_quadrature by adaptive quad, split at the
    peak t = 1 with breakpoints clustered around it; 1e-10 relative target."""
    nu, c, ax = params.nu, params.cos_theta_h, abs(x)

    def integrand(t):
        return (t * np.exp(-t * ax * c)
                / (nu * nu * t * t * c * c + 4.0 * (t * t - 1.0) ** 2))

    width = min(max(0.25 * nu * c, 1e-13), 0.5)
    offsets = width * np.array([1.0, 10.0, 100.0, 1000.0])
    left = sorted({p for p in 1.0 - offsets if 0.0 < p < 1.0})
    right = sorted({p for p in 1.0 + offsets if 1.0 < p < 2.0})
    head = quad(integrand, 0.0, 1.0, points=left or None,
                epsabs=0.0, epsrel=1e-10, limit=400)[0]
    mid = quad(integrand, 1.0, 2.0, points=right or None,
               epsabs=0.0, epsrel=1e-10, limit=400)[0]
    tail = quad(integrand, 2.0, np.inf, epsabs=1e-300, epsrel=1e-10, limit=400)[0]
    return 2.0 * nu / np.pi * (head + mid + tail)


class TestGreenHat:
    def test_k_zero(self):
        assert nw.green_hat(0.0, nw.ModelParams(1.0, 0.0)) == 1.0
        params = nw.ModelParams(1.0, 0.6)
        assert nw.green_hat(0.0, params) == pytest.approx(
            1.0 / params.cos_theta_h ** 2, rel=1e-15)

    def test_large_k_limit(self):
        params = nw.ModelParams(2.0, 0.3)
        for k in (1e3, 1e5):
            assert k * k * nw.green_hat(k, params) == pytest.approx(1.0, rel=1e-2)

    def test_even_and_positive(self):
        params = nw.ModelParams(1.5, 0.4)
        k = 0.2 * (np.arange(301) - 150)  # symmetric by construction
        vals = nw.green_hat(k, params)
        assert np.all(vals > 0)
        assert np.array_equal(vals, vals[::-1])

    def test_symbol_identity(self):
        params = nw.ModelParams(0.7, 0.2)
        c2 = params.cos_theta_h ** 2
        k = np.abs(np.linspace(-20, 20, 101))
        product = nw.green_hat(k, params) * (k * k + 0.5 * params.nu * c2 * k + c2)
        assert np.allclose(product, 1.0, rtol=1e-14)


class TestGreenDecayCoeff:
    def test_reference_values(self):
        assert nw.green_decay_coeff(nw.ModelParams(1.0, 0.0)) \
            == pytest.approx(1 / (2 * np.pi), rel=1e-15)
        assert nw.green_decay_coeff(nw.ModelParams(2.0, 0.0)) \
            == pytest.approx(1 / np.pi, rel=1e-15)
        assert nw.green_decay_coeff(nw.ModelParams(1.0, 0.5)) \
            == pytest.approx(2 / (3 * np.pi), rel=1e-12)


class TestGreenQuadrature:
    def test_even(self):
        params = nw.ModelParams(1.3, 0.4)
        for x in (0.3, 1.7, 9.9):
            assert nw.green_quadrature(-x, params) == nw.green_quadrature(x, params)

    def test_positive(self):
        params = nw.ModelParams(0.8, 0.2)
        xs = np.linspace(0.0, 30.0, 31)
        assert all(nw.green_quadrature(x, params) > 0 for x in xs)

    def test_far_field_coefficient(self):
        params = nw.ModelParams(1.0, 0.0)
        val = 2500.0 * nw.green_quadrature(50.0, params)
        assert val == pytest.approx(nw.green_decay_coeff(params), rel=0.05)

    def test_small_nu_analytic_limit(self):
        # for nu -> 0 the operator loses its nonlocal part and the
        # fundamental solution tends to exp(-c |x|) / (2 c)
        params = nw.ModelParams(1e-6, 0.3)
        c = params.cos_theta_h
        for x in (0.0, 0.5, 2.0, 5.0):
            assert nw.green_quadrature(x, params) == pytest.approx(
                np.exp(-c * x) / (2 * c), rel=1e-4)

    def test_matches_fourier_inversion(self):
        params = nw.ModelParams(1.0, 0.0)
        xs, oracle = green_fft_oracle(params)
        sel = np.flatnonzero(xs <= 10.0)[::400]
        worst = max(abs(nw.green_quadrature(xs[i], params) - oracle[i])
                    / nw.green_quadrature(xs[i], params) for i in sel)
        assert worst <= 1e-4

    def test_lipschitz_at_origin(self):
        params = nw.ModelParams(1.2, 0.3)
        step = 1e-4
        g0 = nw.green_quadrature(0.0, params)
        right = (nw.green_quadrature(step, params) - g0) / step
        left = (g0 - nw.green_quadrature(-step, params)) / step
        assert np.isfinite(right) and np.isfinite(left)
        assert right < 0 < left
        # the derivative jump of the fundamental solution at 0 is universal
        assert right == pytest.approx(-0.5, abs=1e-3)
        assert left == pytest.approx(0.5, abs=1e-3)

    def test_mass_equals_symbol_at_zero(self):
        params = nw.ModelParams(1.0, 0.3)
        grid = nw.make_grid(60.0, 2048)
        kernel = nw.green_samples(grid, params)
        start = grid.n_points // 2
        on_grid = kernel[start:start + grid.n_samples]
        mass_inside = np.trapezoid(on_grid, dx=grid.spacing)
        # extend by the x^-2 tail formula beyond the domain
        tail = 2.0 * nw.green_decay_coeff(params) / grid.half_length
        expected = nw.green_hat(0.0, params)
        assert mass_inside + tail == pytest.approx(expected, rel=1e-3)

    @pytest.mark.parametrize("h", [0.0, 0.99])
    @pytest.mark.parametrize("nu", [1e-6, 0.1, 1.0, 4.0, 100.0])
    def test_matches_adaptive_quadrature(self, nu, h):
        params = nw.ModelParams(nu, h)
        for x in (0.0, 1e-4, 1.0, 50.0, 2560.0):
            want = adaptive_green_quadrature(x, params)
            assert nw.green_quadrature(x, params) == pytest.approx(want, rel=1e-9)


# cells where green_values uses the closed form
CLOSED_FORM_CELLS = [
    (1.0, 0.0), (0.5, 0.3), (2.0, 0.99),   # nu c < 4: complex roots
    (5.0, 0.0), (10.0, 0.5), (1000.0, 0.0),  # nu c > 4: real roots
    (3.9998, 0.0), (4.0002, 0.0),          # just outside the double-root band
    (1e-3, 0.0), (1e-4, 0.0), (2e-5, 0.5),  # small nu c: closed form
]
# cells where it calls green_quadrature: nu cos(theta_h) = 4, where the
# roots merge, and nu cos(theta_h) < 1e-5
BAND_CELLS = [(4.0, 0.0), (5.0, 0.6), (1e-6, 0.0)]


class TestGreenSamples:
    """The closed-form kernel against the independent quadrature."""

    @staticmethod
    def assert_matches_quadrature(grid, params, lags):
        kernel = nw.green_samples(grid, params)
        assert np.all(np.isfinite(kernel))
        want = np.array([nw.green_quadrature(k * grid.spacing, params) for k in lags])
        got = kernel[grid.n_points + lags]
        assert np.max(np.abs(got - want) / want) <= 1e-10
        assert np.array_equal(kernel, kernel[::-1])

    @pytest.mark.parametrize("nu, h", CLOSED_FORM_CELLS)
    def test_matches_quadrature(self, nu, h):
        grid = nw.make_grid(40.0, 4096)
        lags = np.r_[0:9, 16:4096:64, 4096]
        self.assert_matches_quadrature(grid, nw.ModelParams(nu, h), lags)

    @pytest.mark.parametrize("nu, h", CLOSED_FORM_CELLS)
    def test_origin_is_the_closed_form_limit(self, nu, h, quadrature_calls):
        # G(0) = nu (pi - arg r1) / (4 pi Im r1) or nu ln(-r2) / (4 pi d):
        # no quadrature call builds the kernel
        grid = nw.make_grid(40.0, 4096)
        params = nw.ModelParams(nu, h)
        kernel, calls = quadrature_calls(
            lambda: nw.green_samples(grid, params))
        assert calls == 0
        assert kernel[grid.n_points] == pytest.approx(
            nw.green_quadrature(0.0, params), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("nu, h", BAND_CELLS)
    def test_quadrature_fallback(self, nu, h, quadrature_calls):
        # nu cos(theta_h) = 4: r1 = r2 and the closed form is 0/0; at
        # nu cos(theta_h) = 1e-6 it would be 9e-12 off; one quadrature per lag
        grid = nw.make_grid(40.0, 256)
        params = nw.ModelParams(nu, h)
        _, calls = quadrature_calls(lambda: nw.green_samples(grid, params))
        assert calls == grid.n_points + 1
        self.assert_matches_quadrature(grid, params, np.arange(257))

    @pytest.mark.parametrize("nu, h", [(1.0, 0.0), (3.0, 0.9), (100.0, 0.5)])
    def test_coarse_long_grid(self, nu, h):
        # lags up to 2000: Re(|x| c sqrt(r)) reaches 1936 at nu = 1, h = 0,
        # where e^{|x| c sqrt(r)} would overflow
        grid = nw.make_grid(1000.0, 256)
        self.assert_matches_quadrature(grid, nw.ModelParams(nu, h), np.arange(257))

    def test_values_at_any_points(self):
        # off the grid, at negative x and at 0: G at |x|
        params = nw.ModelParams(1.3, 0.2)
        xs = np.array([-7.25, -0.3, 0.0, 1e-9, 0.3, 2.5, 33.0])
        got = nw.green_values(xs, params)
        want = np.array([nw.green_quadrature(x, params) for x in xs])
        assert np.max(np.abs(got - want) / want) <= 1e-12
        assert np.array_equal(got, nw.green_values(-xs, params))

    @pytest.mark.parametrize("nu", [1.0, 4.0])   # 4: inside the double-root band
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_x_rejected(self, nu, bad):
        with pytest.raises(ValueError, match="x must be finite"):
            nw.green_values(np.array([1.0, bad]), nw.ModelParams(nu, 0.0))

    @pytest.mark.parametrize("h", [0.0, 0.9])
    def test_every_value_finite_or_refused(self, h):
        # above nu c = 1e15 the quadrature cannot check the closed form, whose
        # values were NaN from about nu c = 1e77 and an OverflowError from
        # about 1e154; the closed form and the quadrature below 1e-5 are finite
        xs = np.array([0.0, 1e-6, 1.0, 1e4])
        for nu in 10.0 ** np.arange(-6.0, 308.0, 2.0):
            params = nw.ModelParams(nu, h)
            if nu * params.cos_theta_h > 1e15:
                with pytest.raises(ValueError, match=r"above 1e\+15"):
                    nw.green_values(xs, params)
            else:
                g = nw.green_values(xs, params)
                assert np.all(np.isfinite(g)) and np.all(g > 0.0), nu

    def test_largest_nu_c_matches_quadrature(self):
        # nu c = 1e15 is the largest accepted; one ulp above is refused
        xs = np.array([0.0, 1e-6, 1e-3, 1.0, 100.0])
        params = nw.ModelParams(1e15, 0.0)
        got = nw.green_values(xs, params)
        want = np.array([nw.green_quadrature(x, params) for x in xs])
        assert np.max(np.abs(got - want) / want) <= 1e-10
        with pytest.raises(ValueError, match="nu cos"):
            nw.green_values(xs, nw.ModelParams(np.nextafter(1e15, np.inf), 0.0))


class TestPoleIntegral:
    """_pole_integral against scipy.special.exp1, on rays through the first
    quadrant, at radii in [1e-3, 64] and on both sides of every radius
    where the evaluator switches method."""

    @staticmethod
    def stieltjes(z):
        """e^{z} E1(z) = int_0^inf e^{-t} / (t + z) dt for Re z >= 0, by quad."""
        def integral(f):
            return quad(f, 0.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=200)[0]

        def denominator(t):
            return (t + z.real) ** 2 + z.imag ** 2

        return complex(integral(lambda t: np.exp(-t) * (t + z.real) / denominator(t)),
                       integral(lambda t: -np.exp(-t) * z.imag / denominator(t)))

    def oracle(self, z):
        # for |z| <= 5 scipy sums the power series of E1(z), which loses up
        # to e^{|z| + Re z} (1.3e-12 relative in I near |z| = 4.8); the
        # Stieltjes integral replaces e^{z} E1(z) there
        plus = np.exp(z) * exp1(z)
        disk = np.abs(z) <= 5.0
        plus[disk] = [self.stieltjes(x) for x in z[disk]]
        return 0.5 * (np.exp(-z) * exp1(-z) + plus)

    @staticmethod
    def switch_radii(cos_arg):
        """|z| at each switch along the ray: every radius where the series
        length changes, the asymptotic radius, and where s = |w| + Re w of
        either half, w = +-z, meets the seam or a value 200 / j at which
        the continued fraction's depth ceil(200 / s) + 4 changes."""
        lengths = green._SERIES_LENGTHS
        radii = [*green._SERIES_RADII[np.flatnonzero(np.diff(lengths))],
                 green._ASYMPTOTIC_Z]
        edges = np.array([green._SERIES_SEAM,
                          *(200.0 / np.arange(1, 200.0 / green._SERIES_SEAM))])
        for scale in (1.0 + cos_arg, 1.0 - cos_arg):
            if scale > 0.0:
                radii.extend(edges / scale)
        radii = np.array(radii)
        radii = radii[(radii >= 1e-3) & (radii <= green._ASYMPTOTIC_Z)]
        return np.concatenate([radii * (1.0 - 1e-9), radii * (1.0 + 1e-9)])

    @pytest.mark.parametrize("degrees", [0.01, 1.0, 5.0, 20.0, 26.5, 26.7, 30.0,
                                         45.0, 80.0, 89.9, None])
    def test_matches_exp1(self, degrees):
        if degrees is None:   # the imaginary axis, exactly
            unit, cos_arg = 1j, 0.0
        else:
            unit, cos_arg = np.exp(1j * np.deg2rad(degrees)), np.cos(np.deg2rad(degrees))
        radii = np.concatenate([np.geomspace(1e-3, 64.0, 61), self.switch_radii(cos_arg)])
        z = radii * unit
        got = green._pole_integral(z)
        want = self.oracle(z)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12


# solve, verify, sweep and green through the CLI, then one Green kernel;
# prints the scipy modules loaded after import, after the commands and
# after the kernel
_SCIPY_GUARD = """
import contextlib, io, os, sys
from neelwall.cli import main
import neelwall as nw

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

print(scipy_modules())
path = os.path.join(sys.argv[1], "wall.json")
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        main(["solve", "--nu", "1", "--half-length", "10", "--points", "256",
              "--out", path]),
        main(["verify", "--in", path]),
        main(["sweep", "--nu-list", "1", "2", "--h-list", "0",
              "--half-length", "10", "--points", "256"]),
        main(["green", "--nu", "1", "--samples", "5"]),
    ]
print(codes)
print(scipy_modules())
nw.green_samples(nw.make_grid(10.0, 256), nw.ModelParams(1.0, 0.0))
nw.green_samples(nw.make_grid(10.0, 256), nw.ModelParams(5.0, 0.0))
print(scipy_modules())
"""


def test_package_imports_no_scipy(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", _SCIPY_GUARD, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True)
    after_import, codes, after_commands, after_kernels = out.stdout.splitlines()
    assert codes == "[0, 0, 0, 0]"
    assert after_import == "[]"
    assert after_commands == "[]"
    assert after_kernels == "[]"


def apply_linearized_operator(u, grid, params):
    """L u at the interior nodes, zero at both ends: L is the energy's
    Hessian at the plateau theta = theta_h."""
    plateau = LocalExpansion(np.full(grid.n_samples, params.theta_h), grid, params)
    return plateau.hessian_product(u)


class TestApplyLinearizedOperator:
    def test_constant_field(self):
        grid = nw.make_grid(20.0, 256)
        params = nw.ModelParams(1.0, 0.4)
        out = apply_linearized_operator(np.ones(grid.n_samples), grid, params)
        assert np.allclose(out[1:-1], params.cos_theta_h ** 2, rtol=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_plane_wave_symbol(self, m):
        grid = nw.make_grid(40.0, 2048)
        params = nw.ModelParams(1.0, 0.2)
        k = np.pi * m / grid.half_length
        u = np.cos(k * grid.points)
        out = apply_linearized_operator(u, grid, params)
        expected = u / nw.green_hat(k, params)
        inner = slice(1, -1)
        assert np.allclose(out[inner], expected[inner], rtol=1e-4)

    def test_fundamental_solution_property(self):
        grid = nw.make_grid(30.0, 1024)
        params = nw.ModelParams(1.0, 0.0)
        gvals = np.array([nw.green_quadrature(x, params) for x in grid.points])
        out = apply_linearized_operator(gvals, grid, params)
        center = grid.center_index
        assert out[center] * grid.spacing == pytest.approx(1.0, rel=0.05)
        away = np.abs(grid.points) > 1.0
        assert np.max(np.abs(out[away])) <= 5e-3

    def test_inverse_of_convolution(self):
        grid = nw.make_grid(30.0, 1024)
        params = nw.ModelParams(1.0, 0.2)
        bump = np.exp(-grid.points ** 2 / 2.0)
        reconstructed = apply_linearized_operator(
            nw.convolve_green(FieldSamples(grid, bump), params).values, grid, params)
        inner = np.abs(grid.points) < 0.5 * grid.half_length
        err = np.max(np.abs(reconstructed[inner] - bump[inner]))
        assert err <= 1e-2 * np.max(np.abs(bump))


class TestLagConvolve:
    @pytest.mark.parametrize("m", [1, 3, 65, 1000, 4097])
    def test_matches_direct_convolution(self, m):
        # kernels of 2m - 1 lags, as the Green kernel; the FFT length is not
        # a power of two for m = 3, 65 and 4097, and a period one shorter
        # than 2m - 1 would fold the last output onto the first
        rng = np.random.default_rng(m)
        a = rng.normal(size=m)
        kernel = rng.normal(size=2 * m - 1)
        want = np.convolve(a, kernel)[m - 1:2 * m - 1]
        got = green._lag_convolve(a, kernel)
        assert got.shape == (m,)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_fft_length(self):
        smooth = sorted(2 ** a * 3 ** b for a in range(16) for b in range(10))
        for n in range(1, 20000):
            assert green._fft_length(n) == next(p for p in smooth if p >= n)


class TestForcingTerms:
    def test_integral_identities(self, baseline):
        terms = nw.forcing_terms(baseline.profile)
        grid = baseline.profile.grid
        w = np.full(grid.n_samples, grid.spacing)
        w[0] *= 0.5
        w[-1] *= 0.5
        int_f1 = float(np.sum(w * terms.f1.values))
        int_f2 = float(np.sum(w * terms.f2.values))
        int_f3 = float(np.sum(w * terms.f3.values))
        assert int_f1 > 0
        assert int_f3 > 0
        assert abs(int_f2) <= 1e-8 * np.sum(w * np.abs(terms.f2.values))

    def test_total_is_exact_sum(self, baseline):
        terms = nw.forcing_terms(baseline.profile)
        assert np.array_equal(
            terms.f_total.values,
            terms.f1.values + terms.f2.values + terms.f3.values)

    def test_linearized_residual_identity(self, baseline):
        # L(rho - theta_h) = f away from the fold corner at x = 0, where the
        # folded profile carries the point charge 2|theta'(0)|
        p = baseline.profile
        grid, params = p.grid, p.params
        terms = nw.forcing_terms(p)
        c = grid.center_index
        rho_half = np.where(p.values[c:] <= np.pi / 2, p.values[c:],
                            np.pi - p.values[c:])
        dev = np.concatenate([rho_half[:0:-1], rho_half]) - params.theta_h
        resid = apply_linearized_operator(dev, grid, params) - terms.f_total.values
        interior = (np.abs(grid.points) > 2 * grid.spacing) \
            & (np.abs(grid.points) < 0.9 * grid.half_length)
        assert np.max(np.abs(resid[interior])) <= 10 * 1e-6
        # the corner node carries the discrete point charge
        assert resid[c] == pytest.approx(terms.corner_charge / grid.spacing,
                                         rel=1e-10)

    def test_folds_the_whole_wall(self):
        # a wall with its left half widened 2x is centred and monotone but not
        # symmetric; the forcing must read both halves as they are
        wall = nw.solve_cell(1.0, 0.0, None, 20.0, 512).profile
        grid, params = wall.grid, wall.params
        c, x = grid.center_index, grid.points
        v = wall.values.copy()
        v[:c] = np.interp(x[:c] / 2, x, v)
        assert np.all(np.diff(v) <= 0.0) and v[c] == np.pi / 2
        assert symmetry_defect(v) > 0.1
        rho = fold(v)
        k, th = params.cos_theta_h, params.theta_h
        dev, sin_rho, cos_rho = rho - th, np.sin(rho), np.cos(rho)
        f1 = k * (k - cos_rho) * dev + cos_rho * (k * dev - sin_rho + params.h)
        terms = nw.forcing_terms(wall.with_values(v))
        assert np.array_equal(terms.f1.values, f1)
        assert terms.corner_charge == (v[c - 1] - v[c + 1]) / grid.spacing

    def test_unconverged_input_rejected(self):
        grid = nw.make_grid(10.0, 256)
        params = nw.ModelParams(1.0, 0.0)
        ref = nw.reference_profile(grid, params)
        wiggly = nw.Profile(
            grid, np.clip(ref.values + 0.3 * np.sin(3 * grid.points), 0.0, np.pi),
            params)
        with pytest.raises(ValueError):
            nw.forcing_terms(wiggly)
        # monotone but off-centre: the pi/2 crossing sits at x = 0.5
        shifted = nw.Profile(grid, np.interp(grid.points - 0.5, grid.points,
                                             ref.values), params)
        assert np.all(np.diff(shifted.values) <= 0.0)
        with pytest.raises(ValueError, match="recentered"):
            nw.forcing_terms(shifted)


class TestDecayAmplitude:
    def test_positive_amplitudes(self, baseline):
        report = nw.decay_amplitude(baseline.profile)
        assert report.amplitude_multipole > 0
        assert report.amplitude_tailfit > 0
        assert nw.green_decay_coeff(baseline.profile.params) > 0

    def test_amplitudes_cross_validate_in_far_field(self, asymptotic_solves):
        for (nu, h), result in asymptotic_solves.items():
            report = nw.decay_amplitude(result.profile)
            ratio = report.amplitude_multipole / report.amplitude_tailfit
            assert 0.85 <= ratio <= 1.15, (nu, h, ratio)

    def test_exponent_in_far_field_window(self, asymptotic_solves):
        # window [L/8, L/4] = [10, 20]: far enough out that the subleading
        # tail correction is small for these parameters
        for (nu, h) in [(1.0, 0.0), (2.0, 0.3)]:
            report = nw.decay_amplitude(asymptotic_solves[(nu, h)].profile)
            assert report.exponent_fit == pytest.approx(-2.0, abs=0.15)

    def test_exponent_matches_polyfit(self, asymptotic_solves):
        # the closed-form slope is the degree-1 least-squares fit
        for result in asymptotic_solves.values():
            p = result.profile
            x = p.grid.points
            window = (x >= p.grid.half_length / 8) & (x <= p.grid.half_length / 4)
            dev = p.values[window] - p.params.theta_h
            want = np.polyfit(np.log(x[window]), np.log(dev), 1)[0]
            got = nw.decay_amplitude(p).exponent_fit
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("nu, h", [(1.0, 0.0), (2.0, 0.5), (0.5, 0.3)])
    def test_multipole_matches_far_field(self, nu, h):
        # the far field x^2 (theta - theta_h) on [L/16, L/8] of a long,
        # tightly converged wall; without the stray-tail charge the
        # multipole reads 12-21% high
        result = nw.solve_cell(nu, h, nw.SolveOptions(tol=1e-9), 320.0, 32768)
        p = result.profile
        x = p.grid.points
        window = (x >= p.grid.half_length / 16) & (x <= p.grid.half_length / 8)
        far_field = np.median(x[window] ** 2 * (p.values[window] - p.params.theta_h))
        assert nw.decay_amplitude(p).amplitude_multipole == pytest.approx(far_field, rel=0.03)

    @pytest.mark.parametrize("nu, h, half_length, n_points", [
        (5.0, 0.3, 40.0, 4096), (10.0, 0.2, 40.0, 4096), (0.1, 0.5, 40.0, 4096),
        (1.0, 0.3, 80.0, 8192), (2.0, 0.5, 80.0, 8192)])
    def test_multipole_is_the_energy_h_derivative(self, nu, h, half_length, n_points):
        # A = -nu (dE/dh) / (2 pi cos theta_h), dE/dh by a central difference
        # of tightly converged energies: a check that does not go through the
        # amplitude's own formula
        delta, tight = 1e-3, nw.SolveOptions(tol=1e-11)

        def energy_at(field):
            result = nw.solve_cell(nu, field, tight, half_length, n_points)
            assert result.converged
            return result.energy.total

        de_dh = (energy_at(h + delta) - energy_at(h - delta)) / (2.0 * delta)
        p = nw.solve_cell(nu, h, None, half_length, n_points).profile
        expected = -nu * de_dh / (2.0 * np.pi * p.params.cos_theta_h)
        assert nw.decay_amplitude(p).amplitude_multipole == pytest.approx(
            expected, rel=1e-6)

    def test_charges_sum_to_the_multipole(self, baseline, asymptotic_solves,
                                          monkeypatch):
        # the three charges the far field sees: the forcing integral, the fold
        # corner and the direct x^{-2} tail of f2 = (nu/2) c halfLap(w2),
        # -c int w2, since halfLap w ~ -(int w) / (pi x^2)
        walls = [baseline.profile] + [r.profile for r in asymptotic_solves.values()]
        amplitudes = [nw.decay_amplitude(p).amplitude_multipole for p in walls]
        for p, amplitude in zip(walls, amplitudes):
            params, trapezoid = p.params, p.grid.trapezoid
            c = params.cos_theta_h
            terms = nw.forcing_terms(p)
            rho = fold(p.values)
            w2 = c * (rho - params.theta_h) - np.sin(rho) + params.h
            stray_tail_charge = -c * np.sum(trapezoid * w2)
            assert stray_tail_charge < 0.0
            charge = (np.sum(trapezoid * terms.f_total.values) + terms.corner_charge
                      + stray_tail_charge)
            assert nw.green_decay_coeff(params) * charge == pytest.approx(
                amplitude, rel=1e-10), (params.nu, params.h)

        # the amplitude needs no forcing
        def no_forcing(p):
            raise AssertionError("decay_amplitude called forcing_terms")

        monkeypatch.setattr(green, "forcing_terms", no_forcing)
        assert [nw.decay_amplitude(p).amplitude_multipole for p in walls] == amplitudes

    def test_total_charge_identity(self, asymptotic_solves):
        # far from the wall c^2 (theta - theta_h) ~ -(nu/2) c halfLap(sin theta - h)
        # and halfLap u ~ -(int u) / (pi x^2), so the three charges add up to
        # c int (sin theta - h) plus the flux through the pinned ends; the
        # stray-tail charge alone is 14-28% of the total on these cells
        for (nu, h), result in asymptotic_solves.items():
            p = result.profile
            v, s = p.values, p.grid.spacing
            report = nw.decay_amplitude(p)
            charge = report.amplitude_multipole / nw.green_decay_coeff(p.params)
            identity = (p.params.cos_theta_h * np.sum(p.grid.trapezoid * (np.sin(v) - h))
                        + abs(v[1] - v[0]) / s + abs(v[-1] - v[-2]) / s)
            assert abs(identity - charge) <= 1e-4 * charge, (nu, h)

    def test_unpinned_wall_rejected(self, baseline):
        # the h-derivative moves the pinned ends with the plateaus, so a wall
        # whose end sits off its plateau has no amplitude; this one is still
        # recentered and non-increasing
        v = baseline.profile.values.copy()
        v[0] += 1e-6
        unpinned = dataclasses.replace(baseline, profile=baseline.profile.with_values(v))
        assert np.all(np.diff(v) <= 0.0)
        with pytest.raises(ValueError, match="pinned"):
            nw.field_derivative(unpinned.profile)
        with pytest.raises(ValueError, match="pinned"):
            nw.decay_amplitude(unpinned.profile)
        assert nw.verify(unpinned).decay is None
        assert nw.verify(baseline).decay is not None

    def test_plateau_in_the_window_rejected(self):
        # the reference profile is flat at theta_h on [L/8, L/4]
        p = nw.reference_profile(nw.make_grid(20.0, 512), nw.ModelParams(1.0, 0.0))
        with pytest.raises(ValueError, match="non-positive tail values in the fit window"):
            nw.decay_amplitude(p)

    @pytest.mark.parametrize("half_length", [2.0, 4.0])
    @pytest.mark.parametrize("nu, h", [(1.0, 0.0), (0.1, 0.5)])
    def test_window_with_one_sample_rejected(self, half_length, nu, h):
        # N = 8: [L/8, L/4] holds one sample, x = 0.5 at L = 2 and x = 1
        # (log x = 0) at L = 4; a line through one point is no fit
        grid = nw.make_grid(half_length, 8)
        result = nw.minimize(nw.reference_profile(grid, nw.ModelParams(nu, h)))
        assert result.converged
        with pytest.raises(ValueError, match="fewer than two grid samples"):
            nw.decay_amplitude(result.profile)

    def test_amplitude_stable_under_refinement(self):
        params = nw.ModelParams(1.0, 0.0)
        amps = []
        for n in (2048, 4096):
            grid = nw.make_grid(40.0, n)
            result = nw.minimize(nw.reference_profile(grid, params))
            assert result.converged
            amps.append(nw.decay_amplitude(result.profile).amplitude_multipole)
        assert amps[1] == pytest.approx(amps[0], rel=0.02)


class TestConvolveGreen:
    def test_zero_field(self):
        grid = nw.make_grid(20.0, 256)
        params = nw.ModelParams(1.0, 0.0)
        out = nw.convolve_green(FieldSamples(grid, np.zeros(grid.n_samples)), params)
        assert np.array_equal(out.values, np.zeros(grid.n_samples))

    def test_reconstructs_wall_deviation(self):
        grid = nw.make_grid(30.0, 1536)
        params = nw.ModelParams(1.0, 0.0)
        result = nw.minimize(nw.reference_profile(grid, params))
        assert result.converged
        p = result.profile
        terms = nw.forcing_terms(p)
        c = grid.center_index
        w_center = grid.spacing
        f_aug = terms.f_total.values.copy()
        f_aug[c] += terms.corner_charge / w_center
        recon = nw.convolve_green(FieldSamples(grid, f_aug), params)
        rho_half = np.where(p.values[c:] <= np.pi / 2, p.values[c:],
                            np.pi - p.values[c:])
        dev = np.concatenate([rho_half[:0:-1], rho_half]) - params.theta_h
        middle = np.abs(grid.points) <= grid.half_length / 2
        err = np.max(np.abs(recon.values[middle] - dev[middle]))
        assert err <= 0.05 * np.max(dev)
