"""Energy minimization in the symmetric class by truncated Newton-CG.

The minimizer is unique up to translation and reflection, and it is
symmetric: theta(-x) = pi - theta(x), so theta - pi/2 is odd.  The solve
therefore works only in that class, which has no translation mode, and
holds only its right half x in [0, L]: the n_points/2 + 1 samples from the
center, pinned at theta(0) = pi/2, to the end, pinned at theta(L) =
theta_h.  The start is the right half of the symmetric decreasing
rearrangement of the clamped initial profile, and the returned profile is
the last iterate mirrored, so the wall is centered by construction.
`analysis.solve_cell` passes the nu = 0 wall `grid.local_wall`, which is
its own rearrangement and lies where the quadratic phase of Newton's
method begins: 4 steps at nu = 1, h = 0, L = 40 and any N, against 5 from
`grid.reference_profile`.

On the half line the wall is a Dirichlet problem whose only nonlocal
coupling is the stray field halfLap(sin theta - h) of the even extension.
The even fields (u = sin theta - h, cos theta phi, a trial's du) and the
odd ones (theta - pi/2, the gradient, the CG vectors) are held by their
right halves, so all pointwise work runs on half-length rows.  A transform
fills its full-length input straight from a right half (an even field less
its end value, the detrended period of its even extension; an odd one
mirrored with its sign) and reads back the right half.  The whole-line
sums fold onto the right half: the exchange's segment sum counts twice,
the trapezoid weights twice with the center once, and the stray cross term
runs over one period of the even extension with the weights 1, 2, ..., 2,
1.  Inner products are the whole line's, 2 s sum over the half interior,
so the forcing tolerances and the Armijo slopes are the whole line's.

Each outer iteration is one line-search Newton step (Nocedal & Wright,
ch. 7) on one `_HalfLineExpansion` of the energy at the iterate, which
supplies its gradient, Hessian products and trial energy changes with the
pointwise formulas of `energy.LocalExpansion`.  The direction comes from a
truncated preconditioned CG on the exact Hessian of the discrete energy,
stopped at the forcing tolerance min(1/10, ||g||^(1/2)) ||g|| (Eisenstat
and Walker 1996; a cap of 1/2 took 7 steps where 1/10 takes 5 from the
reference start at the baseline cell), but never below the gradient's
rounding floor, or at the first direction of negative curvature (Steihaug
1983).  The floor is 4 eps sqrt(2 half_length) / s^2, the whole-line norm
of a gradient error at the sup-norm floor 4-5 eps / s^2 that ROADMAP.md
item 4 measured for residual_sup: CG's recurred residual stands for
H p + g only to about that, so products below it do not improve the
direction.  It binds on the last steps of fine grids and tight
tolerances: 9 products in place of 10 at N = 16384, 20 in place of 27 at
nu = 10, h = 0.5, L = 80, N = 8192, 12 in place of 21 at the baseline
cell with tol = 1e-11, each with no more Newton steps.  The preconditioner
is the linearized wall operator with Dirichlet ends, diagonal in the sine
modes sin(pi m j / n) of the interior nodes of the whole line:

    (4/s^2) sin^2(k s/2) + (nu/2) cos^2(theta_h) k + cos^2(theta_h),
    k = pi m / (2 half_length).

The residual's odd extension, r[j] = -r[n - j], holds only the modes
m = 2m' and is odd in the n-periodic sense too, so `_precondition` stages it
from the right half, applies the inverse symbol with one length-n rfft,
mode m' at the periodic wavenumber pi m' / half_length, and reads back the
right half.  An Armijo backtracking line search on the cancellation-free
energy change starts at the full step, so the energy never increases; the
accepted point is clamped to the admissible range, and the step vanishes at
both pinned samples.  Once the interior gradient sup-norm reaches the
tolerance the solve takes one more Newton step, which costs a few Hessian
products and takes the energy from about tol^2 to far below it.  That
iterate, or the last one when the step budget runs out or the line search
stalls, is expanded once on the whole line: the sup-norm of that gradient
is the reported residual and decides the stop.  The solve also stalls
when an accepted step moves no sample by more than an ulp of pi/2, which
only a tol below the gradient's rounding floor reaches.  Every work array
lives in one `_SolveWork` per solve.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .energy import (
    EnergyBreakdown,
    ExpansionWork,
    LocalExpansion,
    clamp_values,
    energy_parts,
    symmetrize_rearrange,
)
from .fractional import periodic_half_laplacian, periodic_quadratic_form
from .green import linearized_symbol
from .grid import (Grid1D, ModelParams, Profile, check_transition_fits, find_crossing,
                   mirror_left_half)

ARMIJO_SLOPE_FRACTION = 1e-4
BACKTRACK_FACTOR = 0.5
MAX_BACKTRACKS = 40
CG_MAX_ITER = 50   # Hessian products per Newton direction
# The interior gradient's rounding floor in sup-norm, in units of eps / s^2:
# ROADMAP.md item 4 measured the residual_sup floor at (nu, h) = (1, 0),
# L = 40 as 2.4e-12, 4.3e-11 and 7.8e-10 at N = 4096, 16384 and 65536, that
# is 4.1, 4.6 and 5.2 eps / s^2, the rounding of the second difference.
GRADIENT_FLOOR_FACTOR = 4.0
# An accepted step that moves no sample by more than one ulp of pi/2
# (2.2e-16) ends the solve as stalled.  Below the rounding floor the steps
# shrink through 1e-16 to single ulps of the tail samples (9e-19 at
# (nu, h) = (1, 0), L = 40, N = 65536, tol = 1e-10), each lowering the
# energy by about 1e-32, so the line search alone never stalls; a solve
# that converges takes no step under 1e-13 near the floor, 2.7e-11 at the
# default tol.
MIN_STEP = float(np.spacing(np.pi / 2))


@dataclass(frozen=True)
class SolveOptions:
    """Termination controls for the minimizer; max_iter counts Newton steps.
    tol and max_iter are stored as a Python float and int.  Frozen, so no
    assignment gets past these checks."""

    tol: float = 1e-6
    max_iter: int = 100

    def __post_init__(self):
        if isinstance(self.tol, bool) or not math.isfinite(self.tol) or self.tol <= 0:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        # a bool is no budget; a fractional or non-finite one never equals the step count
        if (isinstance(self.max_iter, bool) or not isinstance(self.max_iter, numbers.Integral)
                or self.max_iter < 1):
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter}")
        object.__setattr__(self, "tol", float(self.tol))
        object.__setattr__(self, "max_iter", int(self.max_iter))


@dataclass(frozen=True)
class SolveResult:
    """The symmetric, centered profile a solve reached, its energy and the
    solver's diagnostics; nothing derived from the profile, such as its tail
    report (analysis.verify and green.decay_amplitude compute that)."""

    profile: Profile
    energy: EnergyBreakdown
    residual_sup: float
    iterations: int
    converged: bool


class _SolveWork:
    """Every work array of one solve, in one allocation.

    ROWS are rows of n_points/2 + 1 columns, the right half: the half-line
    expansion's rows (ExpansionWork's), the gradient g, the CG vectors p, r,
    d, z and hd, the line-search trial and the iterate v.  fold and
    trapezoid follow them: fold counts the copies of each right-half sample
    in one period of the even extension, 1, 2, ..., 2, 1, and trapezoid =
    spacing * fold is the folded trapezoid rule.  The rest of the block is
    `full`, an ExpansionWork of the whole grid: a transform fills its real
    (or tmp0) from a right half, into spectrum and tmp1, and its tmp2 holds
    the mirrored iterate whose whole-line expansion judges the stop.
    minimize builds one per call, so concurrent solves share nothing and the
    Newton loop allocates no grid-sized array.

    One block (2.5 MB at N = 16384) rather than several: glibc raises its
    mmap threshold to the size of a freed mapped chunk and its trim
    threshold to twice that, so after the first solve the block is taken
    from the heap and, freed, stays there for the next solve, which
    page-faults none of it in.  Split into blocks, the arrays freed at the
    heap top can exceed twice the largest block and go back to the kernel
    after every solve: 2.36 MB against a trim threshold of 2.1 MB at
    N = 16384, 608 minor faults per solve.  From N = 2^18 the block exceeds
    glibc's 32 MiB ceiling on the mmap threshold and is mapped, and faulted
    in, anew on every solve.
    """

    ROWS = ExpansionWork.ROWS + ("g", "p", "r", "d", "z", "hd", "trial", "v")

    def __init__(self, grid: Grid1D):
        n_half = grid.center_index + 1
        end = (len(self.ROWS) + 2) * n_half
        block = np.empty(end + ExpansionWork.floats(grid.n_points))
        *rows, self.fold, self.trapezoid = block[:end].reshape(len(self.ROWS) + 2, n_half)
        for name, row in zip(self.ROWS, rows):
            setattr(self, name, row)
        self.full = ExpansionWork(grid.n_points, block[end:])
        self.fold.fill(2.0)
        self.fold[0] = self.fold[-1] = 1.0
        np.multiply(grid.spacing, self.fold, out=self.trapezoid)


def _even_period(half: np.ndarray, period: np.ndarray) -> np.ndarray:
    """`fractional.detrended` of the even extension of `half`, into period:
    the extension's end values are equal, so its line is the constant half[-1]."""
    c = half.size - 1
    np.subtract(half[:-1], half[-1], out=period[c:])
    np.subtract(half[:0:-1], half[-1], out=period[:c])
    return period


class _HalfLineExpansion(LocalExpansion):
    """LocalExpansion of a symmetric iterate from the right half v of its
    samples, on the half-length rows of a `_SolveWork`.

    The gradient and Hessian products are the right halves of the whole-line
    ones, and energy_change is the whole-line change; the pointwise
    formulas are LocalExpansion's.  What differs is the half-Laplacian, of
    the even extension, and the folded weights of the energy change.
    """

    def _half_laplacian(self, values, out):
        """halfLap of the even extension of right-half samples, on the right half."""
        full, c = self.work.full, self.grid.center_index
        lam = periodic_half_laplacian(_even_period(values, full.real), self.grid,
                                      full.tmp1[:-1], full.spectrum)
        if out is None:
            out = np.empty_like(values)
        np.copyto(out[:-1], lam[c:])
        out[-1] = lam[0]
        return out

    def energy_change(self, v_new: np.ndarray) -> float:
        """E(v_new) - E(v) of the symmetric extensions, from right halves."""
        grid, work = self.grid, self.work
        d_exchange, d_anisotropy, du = self._local_change(v_new, work.trapezoid)

        # the stray change of LocalExpansion.energy_change over one period;
        # the line through the end values of an even du is the constant du[-1]
        pdu = np.subtract(du, du[-1], out=work.tmp1)
        pdu *= self.lam
        pdu *= work.fold
        cross = 2.0 * grid.spacing * float(np.sum(pdu))
        d_stray = 0.25 * self.params.nu * (cross + periodic_quadratic_form(
            _even_period(du, work.full.real), grid, work.full.spectrum))

        # each right-half segment stands for its mirror too
        return 2.0 * d_exchange + d_anisotropy + d_stray


def _inner(a: np.ndarray, b: np.ndarray, spacing: float, scratch: np.ndarray) -> float:
    """The whole-line inner product of two odd vectors from their right
    halves, which vanish at the center and the end: 2 s sum over the half
    interior."""
    # not np.dot: threaded BLAS wakes a second thread per call on long vectors
    inner = np.multiply(a[1:-1], b[1:-1], out=scratch[1:-1])
    return 2.0 * spacing * float(np.sum(inner))


def _dirichlet_symbol(grid: Grid1D, params: ModelParams) -> np.ndarray:
    """Preconditioner symbol at the periodic wavenumbers k = pi m' / half_length,
    m' = 0..n_points/2: the linearized symbol with k^2 replaced by the second
    difference's eigenvalue (4/s^2) sin^2(k s/2)."""
    k = grid.wavenumbers
    second_difference = (2.0 / grid.spacing * np.sin(0.5 * grid.spacing * k)) ** 2
    return linearized_symbol(k, params) - k * k + second_difference


def _precondition(r: np.ndarray, symbol: np.ndarray, work: _SolveWork,
                  out: np.ndarray) -> np.ndarray:
    """Divide the sine coefficients of the odd extension of the right-half
    residual r by `symbol`, into the right half out; zero at the center and
    the end.

    The extension's first n_points samples are staged in work.full.tmp0;
    their rfft holds the sine mode 2m' at index m', so one length-n
    rfft/irfft pair applies the inverse symbol.
    """
    full, c = work.full, r.size - 1
    period = full.tmp0[:-1]
    np.copyto(period[c:], r[:-1])
    np.negative(r[:0:-1], out=period[:c])
    spec = np.fft.rfft(period, out=full.spectrum)
    spec /= symbol
    np.fft.irfft(spec, n=period.size, out=full.tmp1[:-1])
    np.copyto(out[:-1], full.tmp1[c:-1])
    out[0] = 0.0
    out[-1] = 0.0
    return out


def _newton_direction(g, expansion, symbol):
    """Truncated PCG on H p = -g for the right half g of the odd gradient
    of `expansion`.

    Stops when the residual falls below the forcing tolerance or the
    gradient's rounding floor, whichever is larger, at the iteration cap,
    or on a direction of negative curvature: then the current iterate is
    returned, or the preconditioned gradient step if there is none yet.
    The grid spacing and the work arrays are the expansion's (its work is
    the solve's `_SolveWork`); the result is the right half of an odd
    descent direction, held in one of those arrays.
    """
    spacing, work = expansion.grid.spacing, expansion.work
    p, r, d, z, hd, tmp = work.p, work.r, work.d, work.z, work.hd, work.tmp0
    g_norm = math.sqrt(_inner(g, g, spacing, tmp))
    # the whole-line norm of a gradient error at the floor: no residual below it is resolved
    floor = (GRADIENT_FLOOR_FACTOR * np.finfo(float).eps
             * math.sqrt(2.0 * expansion.grid.half_length) / spacing ** 2)
    target = max(min(0.1, math.sqrt(g_norm)) * g_norm, floor)
    p.fill(0.0)
    np.copyto(r, g)   # residual H p + g
    _precondition(r, symbol, work, z)
    np.negative(z, out=d)
    rz = _inner(r, z, spacing, tmp)
    for j in range(CG_MAX_ITER):
        expansion.hessian_product(d, hd)
        curvature = _inner(d, hd, spacing, tmp)
        if curvature <= 0.0:
            return d if j == 0 else p
        alpha = rz / curvature
        p += np.multiply(alpha, d, out=tmp)
        hd *= alpha
        r += hd
        if math.sqrt(_inner(r, r, spacing, tmp)) <= target:
            break
        _precondition(r, symbol, work, z)
        rz_next = _inner(r, z, spacing, tmp)
        d *= rz_next / rz
        d -= z
        rz = rz_next
    return p


def _line_search(expansion, p, slope):
    """Armijo backtracking from the full step, each point formed in the
    expansion's trial row; returns that row at the accepted point, None
    when it stalls."""
    if slope >= 0.0:
        return None
    trial = expansion.work.trial
    alpha = 1.0
    for _ in range(MAX_BACKTRACKS):
        np.multiply(alpha, p, out=trial)
        trial += expansion.v
        if expansion.energy_change(trial) <= ARMIJO_SLOPE_FRACTION * alpha * slope:
            return trial
        alpha *= BACKTRACK_FACTOR
    return None


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
    new_values[0], new_values[-1] = p.params.left_plateau, p.params.right_plateau
    return p.with_values(new_values)


def minimize(initial: Profile, opts: Optional[SolveOptions] = None) -> SolveResult:
    """Minimize the wall energy over the symmetric admissible class.

    At most opts.max_iter Newton steps.  The returned profile is symmetric
    and centered: values[c] == pi/2 and values + values[::-1] == pi.
    `converged` reports whether the interior gradient sup-norm of that
    profile reached opts.tol.  Non-convergence, including a line search
    that stalls or a step of at most MIN_STEP, is reported through the flag,
    never raised.
    """
    if opts is None:
        opts = SolveOptions()
    grid, params = check_transition_fits(initial.grid), initial.params
    if not initial.is_pinned():
        raise ValueError("initial profile must be pinned to the plateau angles")

    start = initial.with_values(clamp_values(initial.values, params))
    c = grid.center_index
    work = _SolveWork(grid)
    # the rearrangement's center sample is pi/2
    np.copyto(work.v, symmetrize_rearrange(start).values[c:])
    work.v[-1] = params.right_plateau
    symbol = _dirichlet_symbol(grid, params)
    full = work.full
    iterations, polishing, stalled = 0, False, False
    while True:
        last = stalled or iterations == opts.max_iter
        if polishing or last:
            # judged on the whole-line gradient of the mirrored iterate (energy_gradient's)
            full.tmp2[c:] = work.v
            whole = LocalExpansion(mirror_left_half(full.tmp2), grid, params, full)
            residual = float(np.max(np.abs(whole.gradient(full.tmp1), out=full.tmp0)))
            if last or residual <= opts.tol:
                break
        expansion = _HalfLineExpansion(work.v, grid, params, work)
        g = expansion.gradient(work.g)
        polishing = polishing or float(np.max(np.abs(g, out=work.tmp0))) <= opts.tol
        p = _newton_direction(g, expansion, symbol)
        trial = _line_search(expansion, p, _inner(g, p, grid.spacing, work.tmp0))
        stalled = trial is None
        if not stalled:
            trial = clamp_values(trial, params, trial)
            step = np.subtract(trial, work.v, out=work.tmp0)
            stalled = float(np.max(np.abs(step, out=step))) <= MIN_STEP
            # the accepted trial's row becomes the iterate, the old iterate's
            # row takes the next step's trials (p is zero at both ends: the pins hold)
            work.v, work.trial = trial, work.v
            iterations += 1

    profile = Profile(grid, full.tmp2, params)
    # the last whole-line expansion holds sin v - h of this profile
    exchange, anisotropy, stray = energy_parts(full.tmp2, grid, params, whole.u)
    return SolveResult(
        profile=profile,
        energy=EnergyBreakdown(exchange, anisotropy, stray, exchange + anisotropy + stray),
        residual_sup=residual,
        iterations=iterations,
        converged=residual <= opts.tol,
    )
