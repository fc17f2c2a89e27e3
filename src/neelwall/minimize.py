"""Energy minimization over the admissible class, with recentering.

Projected descent with an Armijo backtracking line search (backtrack factor
1/2).  The descent direction is the gradient preconditioned by the fixed
inverse symbol of the linearized wall operator,

    m(k) = k^2 + (nu/2) cos^2(theta_h) |k| + cos^2(theta_h),

applied spectrally.  The preconditioner is a constant positive multiplier (no
curvature estimation), so the direction is always a descent direction and the
Armijo test guarantees a monotone energy sequence; without it the stiffest
second-difference modes cap the step at ~spacing^2 and the sup-norm gradient
target is unreachable within the iteration budget on production grids.

After every accepted step the iterate is clamped back to the admissible angle
range; every K-th iteration the symmetric decreasing rearrangement is applied
(kept only if it does not increase the energy).  Both transformations are
energy-decreasing, so monotonicity survives.  The converged profile is
recentered so its pi/2 crossing sits exactly at x = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .energy import (
    EnergyBreakdown,
    clamp_values,
    energy_delta,
    energy_parts,
    gradient_values,
    symmetrize_rearrange,
)
from .fractional import grid_constants
from .green import DecayReport
from .grid import Grid1D, ModelParams, Profile

ARMIJO_SLOPE_FRACTION = 1e-4
BACKTRACK_FACTOR = 0.5
STEP_GROWTH = 2.0
STEP_MAX = 4.0
REARRANGE_PERIOD = 25
MIN_STEP = 1e-18


@dataclass
class SolveOptions:
    """Termination and stepping controls for the minimizer.

    step_init defaults to the symbol-based Lipschitz estimate
    1 / (1 + nu * pi / spacing) when left unset.
    """

    tol: float = 1e-6
    max_iter: int = 20000
    step_init: Optional[float] = None
    use_rearrangement_preprocess: bool = True

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.step_init is not None and self.step_init <= 0:
            raise ValueError(f"step_init must be positive, got {self.step_init}")


@dataclass
class SolveResult:
    """Converged (recentered) profile plus solver diagnostics.

    decay is the far-field report of a converged solve when the caller
    computed one (analysis.solve_cell does); it is not serialized.
    """

    profile: Profile
    energy: EnergyBreakdown
    residual_sup: float
    iterations: int
    converged: bool
    tail_amplitude: float = math.nan
    decay: Optional[DecayReport] = None


def _default_step(grid: Grid1D, params: ModelParams) -> float:
    return 1.0 / (1.0 + params.nu * np.pi / grid.spacing)


def _precondition(g: np.ndarray, grid: Grid1D, params: ModelParams) -> np.ndarray:
    """Divide by the linearized symbol; endpoints stay pinned at zero."""
    c2 = params.cos_theta_h ** 2
    k = grid_constants(grid).wavenumbers
    symbol = k * k + 0.5 * params.nu * c2 * k + c2
    d = np.fft.irfft(np.fft.rfft(g[:-1]) / symbol, n=grid.n_points)
    d = np.append(d, d[0])
    d[0] = 0.0
    d[-1] = 0.0
    return d


def _pin(v: np.ndarray, params: ModelParams) -> np.ndarray:
    v[0] = params.left_plateau
    v[-1] = params.right_plateau
    return v


class _Descent:
    """Mutable state of one projected-descent run on raw value arrays."""

    def __init__(self, v, grid, params, opts):
        self.grid, self.params, self.opts = grid, params, opts
        self.v = _pin(clamp_values(v, params), params)
        self.e = sum(energy_parts(self.v, grid, params))
        self.step = (opts.step_init if opts.step_init is not None
                     else _default_step(grid, params))
        self.iterations = 0
        self.residual = float(np.max(np.abs(gradient_values(self.v, grid, params))))

    def run(self, budget: int) -> bool:
        """Iterate up to `budget` accepted steps; True once residual <= tol."""
        grid, params, opts = self.grid, self.params, self.opts
        for _ in range(budget):
            g = gradient_values(self.v, grid, params)
            self.residual = float(np.max(np.abs(g)))
            if self.residual <= opts.tol:
                return True

            d = _precondition(g, grid, params)
            slope = grid.spacing * float(np.dot(g, d))
            if slope <= 0.0:  # fp degeneracy; fall back to the raw gradient
                d = g
                slope = grid.spacing * float(np.dot(g, g))

            alpha = self.step
            trial = None
            while alpha > MIN_STEP:
                cand = self.v - alpha * d
                delta = energy_delta(self.v, cand, grid, params)
                if delta <= -ARMIJO_SLOPE_FRACTION * alpha * slope:
                    trial = cand
                    break
                alpha *= BACKTRACK_FACTOR
            if trial is None:
                return False  # line search stalled below machine step

            clamped = _pin(clamp_values(trial, params), params)
            # the trial's delta is exact for the clamped iterate unless the
            # clamp or the pin moved a value
            if np.array_equal(clamped, trial):
                self.e += delta
            else:
                self.e += energy_delta(self.v, clamped, grid, params)
            self.v = clamped
            self.step = min(alpha * STEP_GROWTH, STEP_MAX)
            self.iterations += 1
            del g, d, cand, trial, clamped   # not live across the rearrangement

            if (opts.use_rearrangement_preprocess
                    and self.iterations % REARRANGE_PERIOD == 0):
                cand = symmetrize_rearrange(Profile(grid, self.v, params)).values
                delta = energy_delta(self.v, cand, grid, params)
                if delta <= 0.0:
                    self.v = cand.copy()
                    self.e += delta

        g = gradient_values(self.v, grid, params)
        self.residual = float(np.max(np.abs(g)))
        return self.residual <= opts.tol


def find_crossing(points: np.ndarray, values: np.ndarray, level: float) -> float:
    """Locate the unique transversal crossing of `level` by linear interpolation.

    Raises:
        ValueError: zero or multiple crossings (non-monotone or degenerate data).
    """
    d = values - level
    exact = np.flatnonzero(d == 0.0)
    strict = np.flatnonzero(d[:-1] * d[1:] < 0.0)
    if exact.size > 1:
        raise ValueError("profile touches the level on more than one sample")
    if exact.size == 1:
        j = int(exact[0])
        if strict.size > 0:
            raise ValueError("profile crosses the level more than once")
        if j == 0 or j == values.size - 1 or d[j - 1] * d[j + 1] >= 0.0:
            raise ValueError("level touched without a transversal crossing")
        return float(points[j])
    if strict.size != 1:
        raise ValueError(
            f"expected exactly one transversal crossing, found {strict.size}"
        )
    j = int(strict[0])
    frac = d[j] / (d[j] - d[j + 1])
    return float(points[j] + frac * (points[j + 1] - points[j]))


def recenter(p: Profile) -> Profile:
    """Translate a profile so its pi/2 crossing sits exactly at x = 0.

    The crossing is located by linear interpolation and the profile is
    resampled (linearly) at the shifted positions, extending the plateaus by
    their boundary values; whole-node shifts are exact.  The center sample of
    the result is exactly pi/2 and the endpoint pinning is restored.
    """
    x_star = find_crossing(p.grid.points, p.values, np.pi / 2)
    new_values = np.interp(p.grid.points + x_star, p.grid.points, p.values)
    new_values[p.grid.center_index] = np.pi / 2
    new_values[0] = p.params.left_plateau
    new_values[-1] = p.params.right_plateau
    return p.with_values(new_values)


def minimize(initial: Profile, opts: Optional[SolveOptions] = None) -> SolveResult:
    """Minimize the wall energy over the admissible class.

    Returns a SolveResult whose profile is recentered; `converged` reports
    whether the interior gradient sup-norm reached opts.tol.  Non-convergence
    is reported through the flag, never raised.
    """
    if opts is None:
        opts = SolveOptions()
    grid, params = initial.grid, initial.params
    if grid.half_length < 2.0:
        raise ValueError("grid.half_length must be >= 2")
    if not initial.is_pinned(tol=1e-9):
        raise ValueError("initial profile must be pinned to the plateau angles")

    state = _Descent(initial.values.copy(), grid, params, opts)
    converged = state.run(opts.max_iter)
    total_iterations = state.iterations

    profile = Profile(grid, state.v, params)
    if converged:
        # Recentering is a sub-cell resample; if it nudges the residual past
        # tol, resume descent from the recentered iterate.
        for _ in range(3):
            profile = recenter(profile)
            res = float(np.max(np.abs(gradient_values(profile.values, grid, params))))
            if res <= opts.tol:
                break
            state = _Descent(profile.values.copy(), grid, params, opts)
            state.step = 1.0
            ok = state.run(500)
            total_iterations += state.iterations
            profile = Profile(grid, state.v, params)
            if not ok:
                converged = False
                break
    else:
        try:
            profile = recenter(profile)
        except ValueError:
            pass  # unconverged profiles may cross pi/2 several times

    ex, an, st = energy_parts(profile.values, grid, params)
    res = float(np.max(np.abs(gradient_values(profile.values, grid, params))))
    return SolveResult(
        profile=profile,
        energy=EnergyBreakdown(ex, an, st, ex + an + st),
        residual_sup=res,
        iterations=total_iterations,
        converged=converged and res <= opts.tol,
    )
