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
    energy,
    energy_delta,
    gradient_values,
    symmetrize_rearrange,
)
from .fractional import grid_constants
from .green import DecayReport, linearized_symbol
from .grid import Grid1D, ModelParams, Profile

ARMIJO_SLOPE_FRACTION = 1e-4
BACKTRACK_FACTOR = 0.5
STEP_GROWTH = 2.0
STEP_MAX = 4.0
REARRANGE_PERIOD = 25
MIN_STEP = 1e-18


@dataclass
class SolveOptions:
    """Termination controls for the minimizer."""

    tol: float = 1e-6
    max_iter: int = 20000

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


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


def _precondition(g: np.ndarray, grid: Grid1D, params: ModelParams) -> np.ndarray:
    """Divide by the linearized symbol; endpoints stay pinned at zero."""
    symbol = linearized_symbol(grid_constants(grid).wavenumbers, params)
    d = np.fft.irfft(np.fft.rfft(g[:-1]) / symbol, n=grid.n_points)
    d = np.append(d, d[0])
    d[0] = 0.0
    d[-1] = 0.0
    return d


def _pin(v: np.ndarray, params: ModelParams) -> np.ndarray:
    v[0] = params.left_plateau
    v[-1] = params.right_plateau
    return v


def _residual(v: np.ndarray, grid: Grid1D, params: ModelParams) -> float:
    return float(np.max(np.abs(gradient_values(v, grid, params))))


class _Descent:
    """Mutable state of one projected-descent run on raw value arrays."""

    def __init__(self, v, grid, params, tol):
        self.grid, self.params, self.tol = grid, params, tol
        self.v = _pin(clamp_values(v, params), params)
        # symbol-based Lipschitz estimate of the first step
        self.step = 1.0 / (1.0 + params.nu * np.pi / grid.spacing)
        self.iterations = 0

    def run(self, budget: int) -> bool:
        """Iterate up to `budget` accepted steps; True once residual <= tol."""
        grid, params = self.grid, self.params
        for _ in range(budget):
            g = gradient_values(self.v, grid, params)
            if np.max(np.abs(g)) <= self.tol:
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

            self.v = _pin(clamp_values(trial, params), params)
            self.step = min(alpha * STEP_GROWTH, STEP_MAX)
            self.iterations += 1
            del g, d, cand, trial   # not live across the rearrangement

            if self.iterations % REARRANGE_PERIOD == 0:
                cand = symmetrize_rearrange(Profile(grid, self.v, params)).values
                if energy_delta(self.v, cand, grid, params) <= 0.0:
                    self.v = cand.copy()

        return _residual(self.v, grid, params) <= self.tol


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
    return p.with_values(_pin(new_values, p.params))


def minimize(initial: Profile, opts: Optional[SolveOptions] = None) -> SolveResult:
    """Minimize the wall energy over the admissible class.

    One descent of at most opts.max_iter iterations, so `iterations` never
    exceeds opts.max_iter.  The profile is recentered (an unconverged one
    only if it crosses pi/2 once); `converged` reports whether the interior
    gradient sup-norm of that profile reached opts.tol.  Non-convergence is
    reported through the flag, never raised.
    """
    if opts is None:
        opts = SolveOptions()
    grid, params = initial.grid, initial.params
    if grid.half_length < 2.0:
        raise ValueError("grid.half_length must be >= 2")
    if not initial.is_pinned(tol=1e-9):
        raise ValueError("initial profile must be pinned to the plateau angles")

    state = _Descent(initial.values, grid, params, opts.tol)
    converged = state.run(opts.max_iter)
    profile = Profile(grid, state.v, params)
    try:
        profile = recenter(profile)
    except ValueError:
        if converged:
            raise
        # unconverged profiles may cross pi/2 several times
    res = _residual(profile.values, grid, params)
    return SolveResult(
        profile=profile,
        energy=energy(profile),
        residual_sup=res,
        iterations=state.iterations,
        converged=converged and res <= opts.tol,
    )
