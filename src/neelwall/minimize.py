"""Energy minimization in the symmetric class by truncated Newton-CG.

The minimizer is unique up to translation and reflection, and it is
symmetric: theta(-x) = pi - theta(x), so theta - pi/2 is odd.  The solve
therefore works only in that class, which has no translation mode.  The
start is the symmetric decreasing rearrangement of the clamped initial
profile; every iterate is made exactly symmetric from its right half, with
theta(0) = pi/2, so the wall is centered by construction.

Each outer iteration is one line-search Newton step (Nocedal & Wright,
ch. 7) on one `energy.LocalExpansion` of the energy at the iterate, which
supplies its gradient, Hessian products and trial energy changes.  The
direction comes from a truncated preconditioned CG on the exact Hessian of
the discrete energy, stopped at the forcing tolerance
min(1/2, ||g||^(1/2)) ||g|| or at the first direction of negative curvature
(Steihaug 1983).  Every vector is projected onto odd deviations about pi/2.
The preconditioner is the linearized wall operator with Dirichlet ends,
diagonal in the sine modes sin(pi m j / n) of the interior nodes:

    (4/s^2) sin^2(k s/2) + (nu/2) cos^2(theta_h) k + cos^2(theta_h),
    k = pi m / (2 half_length).

An odd residual, r[j] = -r[n - j], holds only the modes m = 2m' and is
odd in the n-periodic sense too, so a length-n rfft applies it, mode m' at
the periodic wavenumber pi m' / half_length.  An Armijo backtracking line search on the
cancellation-free energy change starts at the full step, so the energy
never increases; the accepted point is clamped to the admissible range and
pinned.  The solve stops one Newton step after the interior gradient
sup-norm first reaches the tolerance: that step costs a few Hessian products
and takes the energy from about tol^2 to far below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .energy import (
    EnergyBreakdown,
    LocalExpansion,
    clamp_values,
    energy,
    symmetrize_rearrange,
)
from .fractional import grid_constants
from .green import DecayReport, linearized_symbol
from .grid import Grid1D, ModelParams, Profile

ARMIJO_SLOPE_FRACTION = 1e-4
BACKTRACK_FACTOR = 0.5
MAX_BACKTRACKS = 40
CG_MAX_ITER = 50   # Hessian products per Newton direction


@dataclass
class SolveOptions:
    """Termination controls for the minimizer; max_iter counts Newton steps."""

    tol: float = 1e-6
    max_iter: int = 100

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass
class SolveResult:
    """Symmetric, centered profile plus solver diagnostics.

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


def _inner(a: np.ndarray, b: np.ndarray, spacing: float) -> float:
    # not np.dot: threaded BLAS wakes a second thread per call on long vectors
    return spacing * float(np.sum(a * b))


def _odd(phi: np.ndarray) -> np.ndarray:
    """Projection onto deviations that are odd about the center sample."""
    out = phi - phi[::-1]
    out *= 0.5
    return out


def _dirichlet_symbol(grid: Grid1D, params: ModelParams) -> np.ndarray:
    """Preconditioner symbol at the periodic wavenumbers k = pi m' / half_length,
    m' = 0..n_points/2: the linearized symbol with k^2 replaced by the second
    difference's eigenvalue (4/s^2) sin^2(k s/2)."""
    k = grid_constants(grid).wavenumbers
    second_difference = (2.0 / grid.spacing * np.sin(0.5 * grid.spacing * k)) ** 2
    return linearized_symbol(k, params) - k * k + second_difference


def _precondition(r: np.ndarray, symbol: np.ndarray) -> np.ndarray:
    """Divide the sine coefficients of an odd r by `symbol`; ends zero.

    The rfft of r's first n samples holds its sine mode 2m' at index m', so
    one length-n rfft/irfft pair applies the inverse symbol.
    """
    spec = np.fft.rfft(r[:-1])
    spec /= symbol
    out = np.empty_like(r)
    out[:-1] = np.fft.irfft(spec, n=r.size - 1)
    out[0] = 0.0
    out[-1] = 0.0
    return out


def _pin(v: np.ndarray, params: ModelParams) -> np.ndarray:
    v[0] = params.left_plateau
    v[-1] = params.right_plateau
    return v


def _mirror(v: np.ndarray, params: ModelParams) -> np.ndarray:
    """Pin v and rebuild its left half as pi - v(-x), with v(0) = pi/2.

    The sum v(x) + v(-x) then rounds to pi exactly at every sample.
    """
    c = v.size // 2
    _pin(v, params)
    v[1:c] = np.pi - v[c + 1:-1][::-1]
    v[c] = np.pi / 2
    return v


def _newton_direction(g, expansion, symbol, spacing):
    """Truncated PCG on H p = -g for an odd gradient g of `expansion`.

    Stops when the residual falls below the forcing tolerance, at the
    iteration cap, or on a direction of negative curvature: then the
    current iterate is returned, or the preconditioned gradient step if
    there is none yet.  The result is a descent direction.
    """
    g_norm = math.sqrt(_inner(g, g, spacing))
    target = min(0.5, math.sqrt(g_norm)) * g_norm
    p = np.zeros_like(g)
    r = g.copy()   # residual H p + g
    z = _odd(_precondition(r, symbol))
    d = -z
    rz = _inner(r, z, spacing)
    del z
    for j in range(CG_MAX_ITER):
        hd = _odd(expansion.hessian_product(d))
        curvature = _inner(d, hd, spacing)
        if curvature <= 0.0:
            return d if j == 0 else p
        alpha = rz / curvature
        p += alpha * d
        hd *= alpha
        r += hd
        del hd
        if math.sqrt(_inner(r, r, spacing)) <= target:
            break
        z = _odd(_precondition(r, symbol))
        rz_next = _inner(r, z, spacing)
        d *= rz_next / rz
        d -= z
        rz = rz_next
        del z
    return p


def _line_search(expansion, p, slope):
    """Armijo backtracking from the full step; None when it stalls."""
    if slope >= 0.0:
        return None
    alpha = 1.0
    for _ in range(MAX_BACKTRACKS):
        trial = expansion.v + alpha * p
        if expansion.energy_change(trial) <= ARMIJO_SLOPE_FRACTION * alpha * slope:
            return trial
        alpha *= BACKTRACK_FACTOR
    return None


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
    """Minimize the wall energy over the symmetric admissible class.

    At most opts.max_iter Newton steps.  The returned profile is symmetric
    and centered: values[c] == pi/2 and values + values[::-1] == pi.
    `converged` reports whether the interior gradient sup-norm of that
    profile reached opts.tol.  Non-convergence, including a line search
    that stalls, is reported through the flag, never raised.
    """
    if opts is None:
        opts = SolveOptions()
    grid, params = initial.grid, initial.params
    if grid.half_length < 2.0:
        raise ValueError("grid.half_length must be >= 2")
    if not initial.is_pinned(tol=1e-9):
        raise ValueError("initial profile must be pinned to the plateau angles")

    start = initial.with_values(clamp_values(initial.values, params))
    v = _mirror(symmetrize_rearrange(start).values.copy(), params)
    symbol = _dirichlet_symbol(grid, params)
    iterations = 0
    polishing = False
    while True:
        expansion = LocalExpansion(v, grid, params)
        g = expansion.gradient()
        residual = float(np.max(np.abs(g)))
        if residual <= opts.tol:
            if polishing:
                break
            polishing = True
        if iterations == opts.max_iter:
            break
        g = _odd(g)
        p = _newton_direction(g, expansion, symbol, grid.spacing)
        trial = _line_search(expansion, p, _inner(g, p, grid.spacing))
        del g, p, expansion
        if trial is None:
            break
        v = _mirror(clamp_values(trial, params), params)
        iterations += 1

    profile = Profile(grid, v, params)
    return SolveResult(
        profile=profile,
        energy=energy(profile),
        residual_sup=residual,
        iterations=iterations,
        converged=residual <= opts.tol,
    )
