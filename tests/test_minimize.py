import sys

import numpy as np
import pytest
import scipy.fft

import neelwall as nw
from neelwall.minimize import _dirichlet_symbol, _odd, _precondition, find_crossing

# the package attribute neelwall.minimize is the function, not the module
minimize_module = sys.modules["neelwall.minimize"]

# the 3x3 (nu, h) grid of the benchmark's sweep
BENCH_NUS = (0.1, 2.0, 10.0)
BENCH_HS = (0.0, 0.3, 0.99)


class TestSolveOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            nw.SolveOptions(tol=0.0)
        with pytest.raises(ValueError):
            nw.SolveOptions(max_iter=0)


class TestMinimize:
    def test_baseline_contract(self, baseline):
        assert baseline.converged
        assert baseline.residual_sup <= 1e-6
        v = baseline.profile.values
        assert np.all(np.diff(v) < 0.0)
        params = baseline.profile.params
        assert np.all(v[1:-1] > params.theta_h)
        assert np.all(v[1:-1] < np.pi - params.theta_h)
        assert v[baseline.profile.grid.center_index] == np.pi / 2

    def test_residual_matches_el_equation(self, baseline):
        resid = nw.energy_gradient(baseline.profile)
        assert np.max(np.abs(resid.values)) == baseline.residual_sup

    def test_monotone_energy_descent(self):
        # the iterates of a solve capped at k steps are the first k of the
        # full solve, so this is the energy along one trajectory
        grid = nw.make_grid(20.0, 512)
        params = nw.ModelParams(1.0, 0.2)
        ref = nw.reference_profile(grid, params)
        energies = []
        for k in range(1, 20):
            result = nw.minimize(ref, nw.SolveOptions(max_iter=k))
            energies.append(result.energy.total)
            if result.converged:
                break
            assert result.iterations == k
        assert result.converged
        assert len(energies) >= 3
        assert np.all(np.diff(energies) <= 1e-12)

    @pytest.mark.parametrize("nu, h, half_length, n_points, iterations, total", [
        (1.0, 0.0, 10.0, 256, 7, 2.2048205673805703),
        (10.0, 0.99, 20.0, 512, 5, 0.002103098749145583),
    ])
    def test_golden_iterations_and_energy(self, nu, h, half_length, n_points,
                                          iterations, total):
        # recorded with numpy 2.4 on x86-64; pins the iterates bit for bit
        # (other libm or FFT builds may move the last bits of the energy)
        result = nw.solve_cell(nu, h, None, half_length, n_points)
        assert result.converged
        assert result.iterations == iterations
        assert result.energy.total == total

    @pytest.mark.parametrize("nu, h", [(1.0, 0.0), (0.1, 0.5), (5.0, 0.3)])
    def test_hellmann_feynman(self, nu, h):
        # E depends on nu only through the stray term (nu/4) |u|^2, so at the
        # minimizer dE/dnu = E_stray / nu; a central difference of two
        # tightly converged solves checks the energy assembly end to end
        opts = nw.SolveOptions(tol=1e-9)
        step = 1e-4

        def solve(nu_):
            result = nw.solve_cell(nu_, h, opts, 80.0, 8192)
            assert result.converged
            return result.energy

        slope = (solve(nu + step).total - solve(nu - step).total) / (2 * step)
        assert slope == pytest.approx(solve(nu).stray / nu, rel=1e-9, abs=0.0)

    def test_iterations_flat_under_refinement(self):
        params = nw.ModelParams(1.0, 0.0)
        counts = []
        for n_points in (1024, 4096, 16384):
            grid = nw.make_grid(40.0, n_points)
            result = nw.minimize(nw.reference_profile(grid, params))
            assert result.converged
            counts.append(result.iterations)
        assert max(counts) - min(counts) <= 1, counts

    def test_iterations_bounded_over_bench_grid(self):
        for nu in BENCH_NUS:
            for h in BENCH_HS:
                result = nw.solve_cell(nu, h, None, 40.0, 1024)
                assert result.converged, (nu, h)
                assert result.iterations <= 10, (nu, h, result.iterations)

    def test_small_domain_rejected(self):
        grid = nw.make_grid(1.5, 64)
        params = nw.ModelParams(1.0, 0.0)
        profile = nw.Profile(grid, np.full(grid.n_samples, np.pi / 2), params)
        with pytest.raises(ValueError):
            nw.minimize(profile)

    def test_unpinned_initial_rejected(self):
        grid = nw.make_grid(10.0, 128)
        params = nw.ModelParams(1.0, 0.0)
        profile = nw.Profile(grid, np.full(grid.n_samples, 1.0), params)
        with pytest.raises(ValueError):
            nw.minimize(profile)

    def test_non_convergence_reported_not_raised(self):
        grid = nw.make_grid(20.0, 512)
        params = nw.ModelParams(1.0, 0.0)
        result = nw.minimize(nw.reference_profile(grid, params),
                             nw.SolveOptions(max_iter=3))
        assert not result.converged
        assert result.iterations == 3
        assert result.residual_sup > 1e-6

    def test_line_search_stall_reported_not_raised(self, monkeypatch):
        grid = nw.make_grid(20.0, 512)
        params = nw.ModelParams(1.0, 0.0)
        monkeypatch.setattr(minimize_module.LocalExpansion, "energy_change",
                            lambda *args: np.inf)
        result = nw.minimize(nw.reference_profile(grid, params))
        assert not result.converged
        assert result.iterations == 0
        assert result.residual_sup > 1e-6

    @pytest.mark.parametrize("max_iter", [3, 100])
    def test_one_expansion_per_newton_step(self, monkeypatch, max_iter):
        built = []

        class Counted(minimize_module.LocalExpansion):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr(minimize_module, "LocalExpansion", Counted)
        grid = nw.make_grid(20.0, 512)
        params = nw.ModelParams(1.0, 0.0)
        result = nw.minimize(nw.reference_profile(grid, params),
                             nw.SolveOptions(max_iter=max_iter))
        assert result.converged == (max_iter == 100)
        assert len(built) == result.iterations + 1

    def test_shifted_initialization_same_wall(self):
        grid = nw.make_grid(20.0, 1024)
        params = nw.ModelParams(1.0, 0.0)
        ref = nw.reference_profile(grid, params)
        shifted = np.interp(grid.points + 5 * grid.spacing, grid.points, ref.values)
        shifted[0] = params.left_plateau
        shifted[-1] = params.right_plateau
        r1 = nw.minimize(ref)
        r2 = nw.minimize(nw.Profile(grid, shifted, params))
        assert r1.converged and r2.converged
        assert np.max(np.abs(r1.profile.values - r2.profile.values)) <= 1e-4

    def test_centered_by_construction(self):
        grid = nw.make_grid(20.0, 1024)
        params = nw.ModelParams(2.0, 0.3)
        ref = nw.reference_profile(grid, params)
        shifted = np.interp(grid.points + 7.5 * grid.spacing, grid.points, ref.values)
        shifted[0] = params.left_plateau
        shifted[-1] = params.right_plateau
        result = nw.minimize(nw.Profile(grid, shifted, params))
        v = result.profile.values
        assert result.converged
        assert v[grid.center_index] == np.pi / 2
        assert np.max(np.abs(v + v[::-1] - np.pi)) == 0.0

    def test_h_near_one_limit(self):
        grid = nw.make_grid(20.0, 1024)
        params = nw.ModelParams(1.0, 1.0 - 1e-3)
        result = nw.minimize(nw.reference_profile(grid, params))
        assert result.converged
        amplitude = result.profile.values.max() - result.profile.values.min()
        assert amplitude == pytest.approx(np.pi - 2 * params.theta_h, abs=1e-12)
        assert result.energy.total < 1e-2


class TestPrecondition:
    # the solve preconditions only odd residuals, r[j] = -r[n - j]: their
    # sine coefficients vanish at odd m, and mode m = 2m' has symbol[m']

    @pytest.mark.parametrize("nu, h", [(0.1, 0.99), (1.0, 0.0), (10.0, 0.3)])
    def test_matches_scipy_dst(self, nu, h):
        grid = nw.make_grid(20.0, 512)
        params = nw.ModelParams(nu, h)
        symbol = _dirichlet_symbol(grid, params)
        rng = np.random.default_rng(3)
        r = _odd(rng.normal(size=grid.n_samples))
        r[0] = r[-1] = 0.0
        coeffs = scipy.fft.dst(r[1:-1], type=1)   # entry i is mode m = i + 1
        assert np.max(np.abs(coeffs[0::2])) <= 1e-14 * np.max(np.abs(coeffs))
        divided = np.zeros_like(coeffs)
        divided[1::2] = coeffs[1::2] / symbol[1:-1]
        want = scipy.fft.idst(divided, type=1)
        got = _precondition(r, symbol)
        assert got[0] == 0.0 and got[-1] == 0.0
        assert np.max(np.abs(got[1:-1] - want)) <= 1e-14 * np.max(np.abs(want))

    def test_buffered_forms_match_allocating(self):
        grid = nw.make_grid(20.0, 512)
        symbol = _dirichlet_symbol(grid, nw.ModelParams(2.0, 0.5))
        rng = np.random.default_rng(5)
        x = rng.normal(size=grid.n_samples)
        r = _odd(x)
        r[0] = r[-1] = 0.0
        out = np.full(grid.n_samples, np.nan)
        spectrum = np.full(grid.n_points // 2 + 1, np.nan, dtype=complex)
        assert np.array_equal(_odd(x, out), _odd(x))
        assert np.array_equal(_precondition(r, symbol, out, spectrum),
                              _precondition(r, symbol))

    # m' = 511 is the top even interior mode on 1024 points
    @pytest.mark.parametrize("m_half", [1, 2, 37, 255, 511])
    def test_sine_mode_divided_by_symbol(self, m_half):
        grid = nw.make_grid(20.0, 1024)
        params = nw.ModelParams(1.0, 0.3)
        symbol = _dirichlet_symbol(grid, params)
        j = np.arange(grid.n_samples)
        mode = np.sin(np.pi * 2 * m_half * j / grid.n_points)
        mode[0] = mode[-1] = 0.0
        got = _precondition(mode, symbol)
        # FFT rounding leaks ~eps sqrt(n) of the unit mode into the others,
        # which the smallest symbol divides least
        assert np.max(np.abs(got - mode / symbol[m_half])) <= 1e-13 / symbol.min()

    def test_symbol_is_the_discrete_linearized_operator(self):
        grid = nw.make_grid(20.0, 512)
        params = nw.ModelParams(2.0, 0.5)
        symbol = _dirichlet_symbol(grid, params)
        assert symbol.size == grid.n_points // 2 + 1
        c2 = params.cos_theta_h ** 2
        m_half = 5   # sine mode m = 10
        k = np.pi * 2 * m_half / (2.0 * grid.half_length)
        discrete_k2 = 4.0 / grid.spacing ** 2 * np.sin(np.pi * 2 * m_half / (2 * grid.n_points)) ** 2
        assert symbol[m_half] == pytest.approx(discrete_k2 + params.nu / 2 * c2 * k + c2,
                                               rel=1e-14)


class TestRecenter:
    def test_already_centered_unchanged(self, baseline):
        again = nw.recenter(baseline.profile)
        assert np.max(np.abs(again.values - baseline.profile.values)) <= 1e-12

    def test_whole_node_shift_exact(self, baseline):
        p = baseline.profile
        grid = p.grid
        shifted = np.interp(grid.points + 3 * grid.spacing, grid.points, p.values)
        shifted[0] = p.params.left_plateau
        shifted[-1] = p.params.right_plateau
        rec = nw.recenter(nw.Profile(grid, shifted, p.params))
        inner = slice(5, grid.n_samples - 5)
        assert np.max(np.abs(rec.values[inner] - p.values[inner])) <= 1e-10

    def test_center_sample_exact(self, baseline):
        p = nw.recenter(baseline.profile)
        assert p.values[p.grid.center_index] == np.pi / 2

    def test_constant_pi_half_rejected(self):
        grid = nw.make_grid(10.0, 128)
        params = nw.ModelParams(1.0, 0.0)
        flat = nw.Profile(grid, np.full(grid.n_samples, np.pi / 2), params)
        with pytest.raises(ValueError):
            nw.recenter(flat)

    def test_multiple_crossings_rejected(self):
        grid = nw.make_grid(10.0, 128)
        params = nw.ModelParams(1.0, 0.0)
        ref = nw.reference_profile(grid, params)
        wiggly = ref.values + 2.0 * np.exp(-(grid.points - 2.0) ** 2)
        assert np.max(wiggly[grid.points > 1.0]) > np.pi / 2  # re-crosses
        with pytest.raises(ValueError):
            nw.recenter(nw.Profile(grid, wiggly, params))


class TestFindCrossing:
    def test_interpolated_location(self):
        points = np.array([0.0, 1.0, 2.0, 3.0])
        values = np.array([2.0, 1.5, 0.5, 0.0])
        assert find_crossing(points, values, 1.0) == pytest.approx(1.5)

    def test_exact_node_hit(self):
        points = np.array([0.0, 1.0, 2.0])
        values = np.array([2.0, 1.0, 0.0])
        assert find_crossing(points, values, 1.0) == 1.0

    def test_no_crossing(self):
        points = np.array([0.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            find_crossing(points, np.array([2.0, 1.5, 1.2]), 1.0)
