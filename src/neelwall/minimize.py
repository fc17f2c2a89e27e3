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
and takes the energy from about tol^2 to far below it.  Every grid-sized
array of the loop lives in one `_SolveWork` per solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .energy import (
    EnergyBreakdown,
    ExpansionWork,
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


class _SolveWork(ExpansionWork):
    """Every work array of one solve: the expansion's, the gradient g, the
    CG vectors p, r, d, z and hd, the line-search trial and the iterate v.

    minimize builds one per call and hands it down, so concurrent solves
    share nothing and the Newton loop allocates no grid-sized array.
    """

    ROWS = ExpansionWork.ROWS + ("g", "p", "r", "d", "z", "hd", "trial", "v")


def _inner(a: np.ndarray, b: np.ndarray, spacing: float, scratch: np.ndarray) -> float:
    # not np.dot: threaded BLAS wakes a second thread per call on long vectors
    return spacing * float(np.sum(np.multiply(a, b, out=scratch)))


def _odd(phi: np.ndarray, out=None) -> np.ndarray:
    """Projection onto deviations that are odd about the center sample;
    out must not be phi."""
    out = np.subtract(phi, phi[::-1], out=out)
    out *= 0.5
    return out


def _dirichlet_symbol(grid: Grid1D, params: ModelParams) -> np.ndarray:
    """Preconditioner symbol at the periodic wavenumbers k = pi m' / half_length,
    m' = 0..n_points/2: the linearized symbol with k^2 replaced by the second
    difference's eigenvalue (4/s^2) sin^2(k s/2)."""
    k = grid_constants(grid).wavenumbers
    second_difference = (2.0 / grid.spacing * np.sin(0.5 * grid.spacing * k)) ** 2
    return linearized_symbol(k, params) - k * k + second_difference


def _precondition(r: np.ndarray, symbol: np.ndarray, out=None,
                  spectrum=None) -> np.ndarray:
    """Divide the sine coefficients of an odd r by `symbol`; ends zero.

    The rfft of r's first n samples holds its sine mode 2m' at index m', so
    one length-n rfft/irfft pair applies the inverse symbol.  out and
    spectrum (n/2 + 1, complex) are optional work arrays.
    """
    spec = np.fft.rfft(r[:-1], out=spectrum)
    spec /= symbol
    if out is None:
        out = np.empty_like(r)
    np.fft.irfft(spec, n=r.size - 1, out=out[:-1])
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
    np.subtract(np.pi, v[c + 1:-1][::-1], out=v[1:c])
    v[c] = np.pi / 2
    return v


def _newton_direction(g, expansion, symbol, spacing, work):
    """Truncated PCG on H p = -g for an odd gradient g of `expansion`.

    Stops when the residual falls below the forcing tolerance, at the
    iteration cap, or on a direction of negative curvature: then the
    current iterate is returned, or the preconditioned gradient step if
    there is none yet.  The result is a descent direction, held in `work`,
    the solve's `_SolveWork`.
    """
    p, r, d, z, hd = work.p, work.r, work.d, work.z, work.hd
    # tmp1 takes each product and preconditioned residual before projection
    tmp, raw = work.tmp0, work.tmp1
    g_norm = math.sqrt(_inner(g, g, spacing, tmp))
    target = min(0.5, math.sqrt(g_norm)) * g_norm
    p.fill(0.0)
    np.copyto(r, g)   # residual H p + g
    _odd(_precondition(r, symbol, raw, work.spectrum), z)
    np.negative(z, out=d)
    rz = _inner(r, z, spacing, tmp)
    for j in range(CG_MAX_ITER):
        _odd(expansion.hessian_product(d, raw), hd)
        curvature = _inner(d, hd, spacing, tmp)
        if curvature <= 0.0:
            return d if j == 0 else p
        alpha = rz / curvature
        p += np.multiply(alpha, d, out=tmp)
        hd *= alpha
        r += hd
        if math.sqrt(_inner(r, r, spacing, tmp)) <= target:
            break
        _odd(_precondition(r, symbol, raw, work.spectrum), z)
        rz_next = _inner(r, z, spacing, tmp)
        d *= rz_next / rz
        d -= z
        rz = rz_next
    return p


def _line_search(expansion, p, slope, trial):
    """Armijo backtracking from the full step, each point formed in `trial`;
    returns `trial` at the accepted point, None when it stalls."""
    if slope >= 0.0:
        return None
    alpha = 1.0
    for _ in range(MAX_BACKTRACKS):
        np.multiply(alpha, p, out=trial)
        trial += expansion.v
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
    work = _SolveWork(grid.n_points)
    np.copyto(work.v, symmetrize_rearrange(start).values)
    _mirror(work.v, params)
    symbol = _dirichlet_symbol(grid, params)
    iterations = 0
    polishing = False
    while True:
        expansion = LocalExpansion(work.v, grid, params, work)
        g = expansion.gradient(work.tmp1)
        residual = float(np.max(np.abs(g, out=work.tmp0)))
        if residual <= opts.tol:
            if polishing:
                break
            polishing = True
        if iterations == opts.max_iter:
            break
        g = _odd(g, work.g)
        p = _newton_direction(g, expansion, symbol, grid.spacing, work)
        slope = _inner(g, p, grid.spacing, work.tmp0)
        trial = _line_search(expansion, p, slope, work.trial)
        if trial is None:
            break
        # the accepted trial's row becomes the iterate, the old iterate's
        # row takes the next step's trials
        work.v, work.trial = _mirror(clamp_values(trial, params, trial), params), work.v
        iterations += 1

    profile = Profile(grid, work.v, params)
    return SolveResult(
        profile=profile,
        energy=energy(profile),
        residual_sup=residual,
        iterations=iterations,
        converged=residual <= opts.tol,
    )
