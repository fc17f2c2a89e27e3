import numpy as np
import pytest

import neelwall as nw
from neelwall.energy import energy_parts
from neelwall.minimize import _Descent, find_crossing


class TestSolveOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            nw.SolveOptions(tol=0.0)
        with pytest.raises(ValueError):
            nw.SolveOptions(max_iter=0)
        with pytest.raises(ValueError):
            nw.SolveOptions(step_init=-1.0)


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
        resid = nw.el_residual(baseline.profile)
        assert np.max(np.abs(resid.values)) == baseline.residual_sup

    def test_monotone_energy_descent(self):
        grid = nw.make_grid(20.0, 512)
        params = nw.ModelParams(1.0, 0.2)
        opts = nw.SolveOptions()
        state = _Descent(nw.reference_profile(grid, params).values.copy(),
                         grid, params, opts)
        energies = [state.e]
        while state.residual > opts.tol and state.iterations < 500:
            state.run(1)
            energies.append(state.e)
        diffs = np.diff(energies)
        assert np.all(diffs <= 1e-12)

    def test_tracked_energy_matches_recomputed(self):
        # the run clamps one trial and rearranges twice (h = 0.99, nu = 10)
        grid = nw.make_grid(20.0, 512)
        params = nw.ModelParams(10.0, 0.99)
        state = _Descent(nw.reference_profile(grid, params).values.copy(),
                         grid, params, nw.SolveOptions())
        assert state.run(1000)
        assert state.e == pytest.approx(
            sum(energy_parts(state.v, grid, params)), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("nu, h, half_length, n_points, iterations, total", [
        (1.0, 0.0, 10.0, 256, 30, 2.2048205673805725),
        (10.0, 0.99, 20.0, 512, 55, 0.002103098749148515),
    ])
    def test_golden_iterations_and_energy(self, nu, h, half_length, n_points,
                                          iterations, total):
        # recorded before the rearrangement was vectorized, with numpy 2.4 on
        # x86-64; pins the iterates bit for bit (other libm or FFT builds may
        # move the last bits of the energy)
        result = nw.solve_cell(nu, h, None, half_length, n_points)
        assert result.converged
        assert result.iterations == iterations
        assert result.energy.total == total

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
        assert result.residual_sup > 1e-6

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

    def test_h_near_one_limit(self):
        grid = nw.make_grid(20.0, 1024)
        params = nw.ModelParams(1.0, 1.0 - 1e-3)
        result = nw.minimize(nw.reference_profile(grid, params))
        assert result.converged
        amplitude = result.profile.values.max() - result.profile.values.min()
        assert amplitude == pytest.approx(np.pi - 2 * params.theta_h, abs=1e-12)
        assert result.energy.total < 1e-2

    def test_rearrangement_preprocess_flag(self):
        grid = nw.make_grid(20.0, 512)
        params = nw.ModelParams(1.0, 0.0)
        ref = nw.reference_profile(grid, params)
        r_on = nw.minimize(ref, nw.SolveOptions(use_rearrangement_preprocess=True))
        r_off = nw.minimize(ref, nw.SolveOptions(use_rearrangement_preprocess=False))
        assert r_on.converged and r_off.converged
        assert np.max(np.abs(r_on.profile.values - r_off.profile.values)) <= 1e-4


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
