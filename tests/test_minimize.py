import dataclasses
import sys

import numpy as np
import pytest
import scipy.fft

import neelwall as nw
from conftest import make_random_admissible, odd_part
from neelwall.energy import ExpansionWork, LocalExpansion, clamp_values
from neelwall.fractional import detrended, half_laplacian_spectral_values
from neelwall.grid import mirror_left_half
from neelwall.minimize import (_dirichlet_symbol, _even_period, _HalfLineExpansion, _inner,
                               _precondition, _precondition_odd, _SolveWork, find_crossing)

# the package attribute neelwall.minimize is the function, not the module
minimize_module = sys.modules["neelwall.minimize"]

# the 3x3 (nu, h) grid of the benchmark's sweep
BENCH_NUS = (0.1, 2.0, 10.0)
BENCH_HS = (0.0, 0.3, 0.99)


class TestSolveOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            nw.SolveOptions(tol=0.0)
        # True is a number to Python, which would read it as 1.0 or 1 step
        for tol in (np.nan, np.inf, True):
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                nw.SolveOptions(tol=tol)
        with pytest.raises(ValueError):
            nw.SolveOptions(max_iter=0)
        for max_iter in (np.nan, np.inf, 2.5, True):
            with pytest.raises(ValueError, match="max_iter must be an integer"):
                nw.SolveOptions(max_iter=max_iter)

    def test_frozen(self):
        # an assignment would skip the checks above: max_iter = 0 would give
        # a 0-step solve, and a numpy tol a numpy-bool `converged`
        opts = nw.SolveOptions()
        for name, value in (("max_iter", 0), ("tol", np.float64(1e-8))):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(opts, name, value)
        assert (opts.tol, opts.max_iter) == (nw.SolveOptions.tol, nw.SolveOptions.max_iter)


class TestSolveResult:
    def test_holds_only_the_solve_and_is_frozen(self, baseline):
        names = tuple(f.name for f in dataclasses.fields(nw.SolveResult))
        assert names == ("profile", "energy", "residual_sup", "iterations", "converged")
        with pytest.raises(dataclasses.FrozenInstanceError):
            baseline.iterations = 0


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

    @pytest.mark.parametrize("cell", [None, (0.1, 0.99), (10.0, 0.0), (2.0, 0.3)],
                             ids=["baseline", "0.1-0.99", "10.0-0.0", "2.0-0.3"])
    def test_residual_matches_el_equation(self, baseline, cell):
        # the solve iterates on the right half; residual_sup is the
        # whole-line gradient's, and converged is read from it
        result = baseline if cell is None else nw.solve_cell(*cell, None, 20.0, 1024)
        resid = nw.energy_gradient(result.profile)
        assert np.max(np.abs(resid.values)) == result.residual_sup
        assert result.converged == (result.residual_sup <= nw.SolveOptions.tol)

    @pytest.mark.parametrize("cell", [None, (2.0, 0.3), "max_iter=3", "stalled"])
    def test_energy_is_the_returned_profiles(self, baseline, cell, monkeypatch):
        # the solve reuses sin v - h of its last whole-line expansion; the
        # energy must still be that of the returned wall, bit for bit
        grid = nw.make_grid(20.0, 512)
        start = nw.reference_profile(grid, nw.ModelParams(1.0, 0.0))
        if cell is None:
            result = baseline
        elif cell == "max_iter=3":
            result = nw.minimize(start, nw.SolveOptions(max_iter=3))
        elif cell == "stalled":
            monkeypatch.setattr(minimize_module._HalfLineExpansion, "energy_change",
                                lambda *args: np.inf)
            result = nw.minimize(start)
        else:
            result = nw.solve_cell(*cell, None, 20.0, 1024)
        assert result.energy == nw.energy(result.profile)

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

    @pytest.mark.parametrize("nu, h, half_length, n_points, iterations, total, earlier", [
        (1.0, 0.0, 10.0, 256, 4, 2.20482056738057, 2.2048205673805703),
        (10.0, 0.99, 20.0, 512, 5, 0.0021030987491455835, 0.002103098749145583),
        (1.0, 0.0, 40.0, 4096, 4, 2.212636006813861, 2.2126360068138613),
        (2.0, 0.3, 80.0, 8192, 5, 1.3556534100740114, 1.3556534100740112),
    ])
    def test_golden_iterations_and_energy(self, nu, h, half_length, n_points,
                                          iterations, total, earlier):
        # recorded with numpy 2.4 on x86-64; pins the iterates bit for bit
        # (other libm or FFT builds may move the last bits of the energy).
        # `earlier` is the pin of the solver from the reference start with
        # the forcing term capped at 1/2: a re-recorded pin may not drift
        result = nw.solve_cell(nu, h, None, half_length, n_points)
        assert result.converged
        assert result.iterations == iterations
        assert result.energy.total == total
        assert total == pytest.approx(earlier, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("nu, h, half_length, n_points, total", [
        (1.0, 0.99999, 80.0, 8192, 2.542747845696092e-07),
        (0.01, 0.0, 40.0, 4096, 2.0021908508749418),
        (30.0, 0.2, 40.0, 4096, 4.278184435842953),
        (100.0, 0.0, 40.0, 8192, 12.922024558570634),
        (0.001, 0.5, 40.0, 4096, 0.684907887047989),
    ])
    def test_edge_cells_keep_their_energies(self, nu, h, half_length, n_points, total):
        # small eps = arccos h, where the nu = 0 start is far wider than the
        # domain, and both ends of the nu range; totals recorded from the
        # reference start with the forcing term capped at 1/2
        result = nw.solve_cell(nu, h, nw.SolveOptions(tol=1e-9), half_length, n_points)
        assert result.converged
        assert result.energy.total == pytest.approx(total, rel=1e-12, abs=0.0)

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
                assert result.iterations <= 7, (nu, h, result.iterations)

    @pytest.mark.parametrize("n_points", [1024, 4096, 16384])
    def test_baseline_cell_steps_under_refinement(self, n_points):
        # started at the nu = 0 wall, the baseline cell takes 4 steps at every N
        result = nw.solve_cell(1.0, 0.0, None, 40.0, n_points)
        assert result.converged
        assert result.iterations <= 5, result.iterations

    def test_small_domain_rejected(self):
        grid = nw.make_grid(1.5, 64)
        params = nw.ModelParams(1.0, 0.0)
        values = np.full(grid.n_samples, np.pi / 2)
        values[0], values[-1] = params.left_plateau, params.right_plateau
        with pytest.raises(ValueError, match="half_length must be >= 2"):
            nw.minimize(nw.Profile(grid, values, params))

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
        monkeypatch.setattr(minimize_module._HalfLineExpansion, "energy_change",
                            lambda *args: np.inf)
        result = nw.minimize(nw.reference_profile(grid, params))
        assert not result.converged
        assert result.iterations == 0
        assert result.residual_sup > 1e-6

    def test_ascent_direction_stops_before_any_trial(self, monkeypatch):
        # _line_search's guard: a direction of non-negative slope ends the
        # solve without evaluating a trial point
        newton_direction = minimize_module._newton_direction
        energy_change = minimize_module._HalfLineExpansion.energy_change
        trials = []

        def counted(self, trial):
            trials.append(trial)
            return energy_change(self, trial)

        monkeypatch.setattr(minimize_module, "_newton_direction",
                            lambda *args: -newton_direction(*args))
        monkeypatch.setattr(minimize_module._HalfLineExpansion, "energy_change", counted)
        grid = nw.make_grid(20.0, 512)
        result = nw.minimize(nw.reference_profile(grid, nw.ModelParams(1.0, 0.0)))
        assert not result.converged
        assert result.iterations == 0
        assert trials == []

    def test_negative_curvature_start_converges(self, monkeypatch):
        # from a pi/2 plateau between the pinned ends, CG meets negative
        # curvature on its first direction, whose descent step is then taken
        grid = nw.make_grid(20.0, 256)
        params = nw.ModelParams(0.1, 0.3)
        opts = nw.SolveOptions(tol=1e-8)
        expected = nw.solve_cell(0.1, 0.3, opts, 20.0, 256).energy.total
        first_direction_exits = []
        newton_direction = minimize_module._newton_direction

        def recorded(g, expansion, symbol):
            direction = newton_direction(g, expansion, symbol)
            first_direction_exits.append(direction is expansion.work.d)
            return direction

        monkeypatch.setattr(minimize_module, "_newton_direction", recorded)
        values = np.full(grid.n_samples, np.pi / 2)
        values[0], values[-1] = params.left_plateau, params.right_plateau
        result = nw.minimize(nw.Profile(grid, values, params), opts)
        assert sum(first_direction_exits) == 8
        assert result.converged
        assert result.energy.total == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(1.15879008927599, rel=1e-13)

    @pytest.mark.parametrize("max_iter", [3, 100])
    def test_one_expansion_per_newton_step(self, monkeypatch, max_iter):
        built = []

        class Counted(minimize_module._HalfLineExpansion):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr(minimize_module, "_HalfLineExpansion", Counted)
        grid = nw.make_grid(20.0, 512)
        params = nw.ModelParams(1.0, 0.0)
        result = nw.minimize(nw.reference_profile(grid, params),
                             nw.SolveOptions(max_iter=max_iter))
        assert result.converged == (max_iter == 100)
        # the iterate that ends the solve is expanded on the whole line only
        assert len(built) == result.iterations

    @pytest.mark.parametrize("stop", ["converged", "max_iter", "stall"])
    def test_one_whole_line_expansion_per_solve(self, monkeypatch, stop):
        built = []

        class Counted(LocalExpansion):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr(minimize_module, "LocalExpansion", Counted)
        if stop == "stall":
            monkeypatch.setattr(minimize_module._HalfLineExpansion, "energy_change",
                                lambda *args: np.inf)
        grid = nw.make_grid(20.0, 512)
        result = nw.minimize(nw.reference_profile(grid, nw.ModelParams(1.0, 0.0)),
                             nw.SolveOptions(max_iter=3 if stop == "max_iter" else 100))
        assert result.converged == (stop == "converged")
        assert result.iterations == {"converged": 5, "max_iter": 3, "stall": 0}[stop]
        assert len(built) == 1
        assert np.max(np.abs(built[0].gradient())) == result.residual_sup

    def test_rough_start_converges_through_rearrangement(self):
        # from this start the Newton iterates stall (100 steps, E about 6.00,
        # residual 0.39) unless the solve begins at its symmetric decreasing
        # rearrangement, which lands in the reference start's basin
        grid = nw.make_grid(20.0, 1024)
        params = nw.ModelParams(0.1, 0.0)
        opts = nw.SolveOptions(tol=1e-8)
        rng = np.random.default_rng(11)
        for amp in (0.6, 1.2, 1.8):
            start = make_random_admissible(grid, params, rng, amp=amp)
        expected = nw.minimize(nw.reference_profile(grid, params), opts).energy.total
        result = nw.minimize(start, opts)
        assert result.converged
        assert result.iterations <= 12
        assert result.energy.total == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(2.021771159254056, rel=1e-12)

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


# (L, N) x (nu, h) cells on which the half-line expansion is compared with
# the whole-line LocalExpansion
HALF_LINE_CELLS = [(half_length, n_points, nu, h)
                   for half_length, n_points in ((20.0, 512), (40.0, 4096), (80.0, 8192))
                   for nu, h in ((1.0, 0.0), (0.1, 0.5), (10.0, 0.3), (2.0, 0.99))]


class TestHalfLineExpansion:
    """The solve's half-line expansion gives the right halves of the
    whole-line gradient, Hessian products and preconditioner, and the
    whole-line energy change, on symmetric profiles."""

    @staticmethod
    def _symmetric_case(half_length, n_points, nu, h):
        grid = nw.make_grid(half_length, n_points)
        params = nw.ModelParams(nu, h)
        x = grid.points
        v = nw.reference_profile(grid, params).values + 0.05 * np.sin(x) * np.exp(-x * x / 20.0)
        v = mirror_left_half(clamp_values(v, params))
        v[0], v[-1] = params.left_plateau, params.right_plateau
        c = grid.center_index
        whole = LocalExpansion(v, grid, params)
        half = _HalfLineExpansion(v[c:].copy(), grid, params, _SolveWork(grid))
        return grid, params, v, whole, half

    @pytest.mark.parametrize("half_length, n_points, nu, h", HALF_LINE_CELLS)
    def test_gradient_is_the_right_half(self, half_length, n_points, nu, h):
        grid, _, _, whole, half = self._symmetric_case(half_length, n_points, nu, h)
        want = whole.gradient()[grid.center_index:]
        got = half.gradient()
        assert got[0] == 0.0 and got[-1] == 0.0
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("half_length, n_points, nu, h", HALF_LINE_CELLS)
    def test_hessian_product_is_the_right_half(self, half_length, n_points, nu, h):
        grid, _, _, whole, half = self._symmetric_case(half_length, n_points, nu, h)
        rng = np.random.default_rng(17)
        c = grid.center_index
        for _ in range(3):
            # odd and zero at the ends.  A rough phi: on a smooth one the whole
            # line's own rounding, cos(pi - theta) against -cos(theta), shows
            # at 1e-13 once halfLap multiplies it by up to pi/s
            phi = odd_part(rng.normal(size=grid.n_samples))
            phi[0] = phi[-1] = 0.0
            want = whole.hessian_product(phi)[c:]
            got = half.hessian_product(phi[c:].copy())
            assert got[0] == 0.0 and got[-1] == 0.0
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("half_length, n_points, nu, h", HALF_LINE_CELLS)
    def test_preconditioner_of_the_odd_extension(self, half_length, n_points, nu, h):
        grid, params, _, _, half = self._symmetric_case(half_length, n_points, nu, h)
        symbol = _dirichlet_symbol(grid, params)
        rng = np.random.default_rng(19)
        c = grid.center_index
        r = odd_part(rng.normal(size=grid.n_samples))
        r[0] = r[-1] = 0.0
        want = odd_part(_precondition(r, symbol))[c:]
        got = _precondition_odd(r[c:].copy(), symbol, half.work, np.empty(c + 1))
        assert got[0] == 0.0 and got[-1] == 0.0
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    # the transforms stage their input from the right half; these pin the
    # staging to the whole-line routines bit for bit, not to a tolerance

    @pytest.mark.parametrize("half_length, n_points, nu, h", HALF_LINE_CELLS)
    def test_even_period_is_the_detrended_extension(self, half_length, n_points, nu, h):
        grid = nw.make_grid(half_length, n_points)
        half = np.random.default_rng(29).normal(size=grid.center_index + 1)
        extension = np.concatenate([half[:0:-1], half])
        got = _even_period(half, np.full(grid.n_points, np.nan))
        assert np.array_equal(got, detrended(extension, grid))

    @pytest.mark.parametrize("half_length, n_points, nu, h", HALF_LINE_CELLS)
    def test_half_laplacian_is_the_right_half_exactly(self, half_length, n_points, nu, h):
        grid, _, _, _, half = self._symmetric_case(half_length, n_points, nu, h)
        c = grid.center_index
        values = np.random.default_rng(31).normal(size=c + 1)
        extension = np.concatenate([values[:0:-1], values])
        want = half_laplacian_spectral_values(extension, grid)[c:]
        assert np.array_equal(half._half_laplacian(values, None), want)

    @pytest.mark.parametrize("half_length, n_points, nu, h", HALF_LINE_CELLS)
    def test_precondition_odd_is_the_right_half_exactly(self, half_length, n_points, nu, h):
        grid, params, _, _, half = self._symmetric_case(half_length, n_points, nu, h)
        symbol = _dirichlet_symbol(grid, params)
        c = grid.center_index
        r = odd_part(np.random.default_rng(37).normal(size=grid.n_samples))
        r[0] = r[-1] = 0.0
        want = _precondition(r, symbol)[c:]
        want[0] = 0.0   # the whole line leaves rounding there; the half line pins it
        got = _precondition_odd(r[c:].copy(), symbol, half.work, np.empty(c + 1))
        assert np.array_equal(got, want)

    def test_reused_work_matches_fresh_bit_for_bit(self):
        # NaN in every work array, then an expansion at another iterate, so
        # that a value read before it is written shows
        grid, params, v, _, fresh = self._symmetric_case(20.0, 512, 2.0, 0.3)
        c = grid.center_index
        work = _SolveWork(grid)
        for row in ([getattr(work, name) for name in _SolveWork.ROWS]
                    + [getattr(work.full, name) for name in ExpansionWork.ROWS]
                    + [work.full.real, work.full.spectrum]):
            row.fill(np.nan)
        _HalfLineExpansion(nw.reference_profile(grid, params).values[c:].copy(), grid,
                           params, work)
        reused = _HalfLineExpansion(v[c:].copy(), grid, params, work)
        phi = np.sin(np.pi * grid.points[c:] / grid.half_length)
        phi[-1] = 0.0
        symbol = _dirichlet_symbol(grid, params)
        assert np.array_equal(reused.gradient(work.g), fresh.gradient())
        assert np.array_equal(reused.hessian_product(phi, work.hd), fresh.hessian_product(phi))
        assert reused.energy_change(v[c:] + 1e-3 * phi) == fresh.energy_change(v[c:] + 1e-3 * phi)
        assert np.array_equal(_precondition_odd(phi, symbol, work, work.z),
                              _precondition_odd(phi, symbol, fresh.work, np.empty(c + 1)))

    @pytest.mark.parametrize("half_length, n_points, nu, h", HALF_LINE_CELLS)
    def test_energy_change_is_the_whole_line_change(self, half_length, n_points, nu, h):
        grid, params, v, whole, half = self._symmetric_case(half_length, n_points, nu, h)
        total = nw.energy(nw.Profile(grid, v, params)).total
        descent = -odd_part(whole.gradient())
        # the ends move too, so that the folded end weights and the
        # detrending line of the stray term count
        descent[-1] = -0.1 * np.max(np.abs(descent))
        c = grid.center_index
        for t in 10.0 ** -np.arange(1, 15):
            v_new = mirror_left_half(v + t * descent)
            want = whole.energy_change(v_new)
            assert half.energy_change(v_new[c:].copy()) == pytest.approx(
                want, rel=0.0, abs=1e-12 * total)

    def test_inner_is_the_whole_line_product(self):
        grid = nw.make_grid(20.0, 512)
        c = grid.center_index
        rng = np.random.default_rng(23)
        a, b = (odd_part(rng.normal(size=grid.n_samples)) for _ in range(2))
        a[0] = a[-1] = b[0] = b[-1] = 0.0
        want = grid.spacing * float(np.sum(a * b))
        assert _inner(a[c:], b[c:], grid.spacing, np.empty(c + 1)) == pytest.approx(
            want, rel=1e-14)


class TestPrecondition:
    # the solve preconditions only odd residuals, r[j] = -r[n - j]: their
    # sine coefficients vanish at odd m, and mode m = 2m' has symbol[m']

    @pytest.mark.parametrize("nu, h", [(0.1, 0.99), (1.0, 0.0), (10.0, 0.3)])
    def test_matches_scipy_dst(self, nu, h):
        grid = nw.make_grid(20.0, 512)
        params = nw.ModelParams(nu, h)
        symbol = _dirichlet_symbol(grid, params)
        rng = np.random.default_rng(3)
        r = odd_part(rng.normal(size=grid.n_samples))
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
        r = odd_part(x)
        r[0] = r[-1] = 0.0
        out = np.full(grid.n_samples, np.nan)
        spectrum = np.full(grid.n_points // 2 + 1, np.nan, dtype=complex)
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

    def test_touch_and_strict_crossing_rejected(self):
        points = np.arange(5.0)
        with pytest.raises(ValueError, match="crosses the level more than once"):
            find_crossing(points, np.array([3.0, 1.0, 0.5, 2.0, 0.0]), 1.0)

    @pytest.mark.parametrize("values", [[1.0, 2.0, 3.0, 4.0, 5.0],
                                        [2.0, 1.0, 2.0, 3.0, 4.0]])
    def test_touch_without_crossing_rejected(self, values):
        with pytest.raises(ValueError, match="touched without a transversal crossing"):
            find_crossing(np.arange(5.0), np.array(values), 1.0)
