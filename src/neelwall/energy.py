"""Wall energy, its first variation, and the energy-decreasing transformations.

The energy of an angle profile theta is

    E = 1/2 int theta_x^2 + 1/2 int (sin theta - h)^2
        + (nu/4) || sin theta - h ||_{H^{1/2}}^2,

with the stray-field seminorm realized spectrally (Fourier multiplier |k| of
the detrended periodic extension).  With the exchange term summed over grid
segments and the anisotropy term by the trapezoid rule, the interior gradient
of this discrete functional is exactly

    g = -theta_xx + cos(theta) sin(theta) - h cos(theta)
        + (nu/2) cos(theta) * halfLap(sin theta),

with theta_xx the 3-point second difference.  Exactness of this pairing is
what makes finite-difference gradient checks tight and line searches robust.
The seminorm's closed forms for Gaussian, sech and sech^2 fields check the
spectral form to below 2e-4 at half_length = 160 (`fractional`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fractional import (
    detrended,
    half_laplacian_spectral_values,
    spectral_quadratic_form,
)
from .grid import (FieldSamples, Grid1D, ModelParams, Profile, fold, level_crossings,
                   mirror_left_half, second_difference, symmetry_defect)


@dataclass(frozen=True)
class EnergyBreakdown:
    """Exchange, anisotropy, and stray-field parts of the wall energy."""

    exchange: float
    anisotropy: float
    stray: float
    total: float


def energy_parts(values: np.ndarray, grid: Grid1D, params: ModelParams, u=None):
    """(exchange, anisotropy, stray) for a raw value array; u is
    sin(values) - h where the caller has already formed it."""
    s = grid.spacing
    d = np.diff(values)
    exchange = 0.5 * float(np.sum(d * d)) / s
    if u is None:
        u = np.sin(values) - params.h
    anisotropy = 0.5 * float(np.sum(grid.trapezoid * u * u))
    stray = 0.25 * params.nu * spectral_quadratic_form(u, grid)
    return exchange, anisotropy, stray


def energy(p: Profile) -> EnergyBreakdown:
    """Energy of a profile, split by physical origin."""
    exchange, anisotropy, stray = energy_parts(p.values, p.grid, p.params)
    return EnergyBreakdown(exchange, anisotropy, stray, exchange + anisotropy + stray)


class ExpansionWork:
    """Work arrays of `LocalExpansion` on one grid, reusable across iterates.

    Each name in ROWS is one row of n_samples columns: the expansion's cos,
    sin, u, lam and diag, then three scratch vectors.  real (n_points) and
    spectrum (n_points/2 + 1, complex) serve the half-Laplacian's detrended
    samples and their transform.  All of them are cut, in that order, out
    of one float64 `buffer` of floats(n_points) entries, which is allocated
    here when none is given (minimize passes a slice of its solve's block):
    one block rather than an array each, so it is allocated and returned to
    the heap as a unit.
    """

    ROWS = ("cos", "sin", "u", "lam", "diag", "tmp0", "tmp1", "tmp2")

    @classmethod
    def floats(cls, n_points: int) -> int:
        """The buffer length: the rows, real and spectrum's 2 (n_points/2 + 1) floats."""
        return len(cls.ROWS) * (n_points + 1) + n_points + 2 * (n_points // 2 + 1)

    def __init__(self, n_points: int, buffer: np.ndarray | None = None):
        if buffer is None:
            buffer = np.empty(self.floats(n_points))
        end = len(self.ROWS) * (n_points + 1)
        for name, row in zip(self.ROWS, buffer[:end].reshape(len(self.ROWS), n_points + 1)):
            setattr(self, name, row)
        self.real = buffer[end:end + n_points]
        self.spectrum = buffer[end + n_points:].view(complex)


class LocalExpansion:
    """The discrete energy near an iterate v: gradient, Hessian, exact change.

    cos v, sin v, u = sin v - h and halfLap u are formed once and shared by
    the three quantities a Newton step evaluates at v: the gradient, the
    Hessian product and the energy change to a trial point.  They live in
    `work`, an `ExpansionWork` that may serve the expansions of many
    iterates; the methods use its scratch rows, and return into `out` when
    it is given.  Each result is computed in the same operation order as its
    formula, so buffered and allocating calls agree bit for bit.  The solver
    expands on the right half of the symmetric class with a subclass that
    replaces the nonlocal step `_half_laplacian` and the weights of
    `energy_change` (minimize.py).
    """

    def __init__(self, v: np.ndarray, grid: Grid1D, params: ModelParams,
                 work: ExpansionWork | None = None):
        if work is None:
            work = ExpansionWork(grid.n_points)
        self.v, self.grid, self.params, self.work = v, grid, params, work
        self.cos = np.cos(v, out=work.cos)
        self.sin = np.sin(v, out=work.sin)
        self.u = np.subtract(self.sin, params.h, out=work.u)
        self.lam = self._half_laplacian(self.u, work.lam)
        # the Hessian's diagonal part, cos 2 theta as cos^2 - sin^2:
        # cos^2 - sin^2 + sin (h - (nu/2) lam)
        self.diag = np.multiply(self.cos, self.cos, out=work.diag)
        self.diag -= np.multiply(self.sin, self.sin, out=work.tmp0)
        t = np.multiply(0.5 * params.nu, self.lam, out=work.tmp0)
        np.subtract(params.h, t, out=t)
        t *= self.sin
        self.diag += t

    def _half_laplacian(self, values: np.ndarray, out: np.ndarray | None) -> np.ndarray:
        """halfLap of samples taken like v, into out: the expansion's only
        nonlocal step."""
        return half_laplacian_spectral_values(values, self.grid, out, self.work.real,
                                              self.work.spectrum)

    def gradient(self, out: np.ndarray | None = None) -> np.ndarray:
        """g of the module docstring at the interior nodes; zero at the ends."""
        s = self.grid.spacing
        v, cos_t, sin_t, lam = self.v, self.cos, self.sin, self.lam
        g = np.empty_like(v) if out is None else out
        g[0] = g[-1] = 0.0
        # -theta_xx + cos sin - h cos + (nu/2) cos lam, left to right
        gi, t = second_difference(v, s, g[1:-1]), self.work.tmp0[1:-1]
        np.negative(gi, out=gi)
        gi += np.multiply(cos_t[1:-1], sin_t[1:-1], out=t)
        gi -= np.multiply(self.params.h, cos_t[1:-1], out=t)
        np.multiply(0.5 * self.params.nu, cos_t[1:-1], out=t)
        t *= lam[1:-1]
        gi += t
        return g

    def hessian_product(self, phi: np.ndarray,
                        out: np.ndarray | None = None) -> np.ndarray:
        """H phi for phi vanishing at both pinned ends,

            H phi = -phi_xx + (cos 2 theta + h sin theta) phi
                    - (nu/2) sin theta halfLap(sin theta - h) phi
                    + (nu/2) cos theta halfLap(cos theta phi),

        the derivative of the gradient along phi.  H is symmetric in the
        spacing-weighted inner product; H phi is zero at the endpoints.
        out must not be phi.
        """
        t = np.multiply(self.cos, phi, out=self.work.tmp0)
        out = self._half_laplacian(t, out)
        out *= self.cos
        out *= 0.5 * self.params.nu
        out += np.multiply(self.diag, phi, out=t)
        out[1:-1] -= second_difference(phi, self.grid.spacing, t[1:-1])
        out[0] = 0.0
        out[-1] = 0.0
        return out

    def energy_change(self, v_new: np.ndarray) -> float:
        """E(v_new) - E(v) without catastrophic cancellation.

        Each term is assembled from the pointwise change (sine differences
        via the product identity, quadratic forms via their polarization),
        so the result stays accurate down to changes far below the fp noise
        of the total energy.  Line searches near the minimum rely on this:
        the certified decrease per step shrinks like the squared gradient
        norm, orders of magnitude below eps * E.
        """
        grid, work = self.grid, self.work
        d_exchange, d_anisotropy, du = self._local_change(v_new, grid.trapezoid)

        # S(u + du) - S(u) = 2 s <Pu, Lam P du> + S(du) by polarization, the
        # cross term by Parseval as the sample sum 2 s sum_j (halfLap u)_j (P du)_j
        pdu = detrended(du, grid, work.real)
        pdu *= self.lam[:-1]
        cross = 2.0 * grid.spacing * float(np.sum(pdu))
        d_stray = 0.25 * self.params.nu * (
            cross + spectral_quadratic_form(du, grid, work.real, work.spectrum))

        return d_exchange + d_anisotropy + d_stray

    def _local_change(self, v_new: np.ndarray, trapezoid: np.ndarray):
        """(exchange change, anisotropy change, du) to v_new: the segment sum,
        the anisotropy under the quadrature weights `trapezoid`, and
        du = sin v_new - sin v, which is left in the work row tmp0."""
        v, work = self.v, self.work

        # da (2a + da), a = diff v, da = diff v_new - a
        a = np.subtract(v[1:], v[:-1], out=work.tmp0[:-1])
        da = np.subtract(v_new[1:], v_new[:-1], out=work.tmp1[:-1])
        da -= a
        a *= 2.0
        a += da
        a *= da
        d_exchange = 0.5 * float(np.sum(a)) / self.grid.spacing

        # du = 2 cos((v_new + v)/2) sin((v_new - v)/2)
        du = np.add(v_new, v, out=work.tmp0)
        du *= 0.5
        np.cos(du, out=du)
        t = np.subtract(v_new, v, out=work.tmp1)
        t *= 0.5
        np.sin(t, out=t)
        du *= 2.0
        du *= t
        # trapezoid du (2u + du)
        t = np.multiply(trapezoid, du, out=work.tmp1)
        t *= np.add(np.multiply(2.0, self.u, out=work.tmp2), du, out=work.tmp2)
        return d_exchange, 0.5 * float(np.sum(t)), du


def energy_delta(v: np.ndarray, v_new: np.ndarray, grid: Grid1D,
                 params: ModelParams) -> float:
    """E(v_new) - E(v) without catastrophic cancellation
    (`LocalExpansion.energy_change` at v)."""
    return LocalExpansion(v, grid, params).energy_change(v_new)


def gradient_values(values: np.ndarray, grid: Grid1D, params: ModelParams) -> np.ndarray:
    """L2 gradient of the discrete energy; zero at the pinned endpoints
    (`LocalExpansion.gradient` at values)."""
    return LocalExpansion(values, grid, params).gradient()


def energy_gradient(p: Profile) -> FieldSamples:
    """First variation of the energy; exact gradient of the discrete functional.

    For compactly supported interior perturbations phi,
    (E(p + t phi) - E(p)) / t -> spacing * sum(g * phi) as t -> 0.
    """
    return FieldSamples(p.grid, gradient_values(p.values, p.grid, p.params))


def field_derivative(p: Profile) -> float:
    """dE/dh along the family of walls pinned at the plateaus.

    With c = cos(theta_h), s the spacing, u = sin theta - h and Q the
    trapezoid integral of u,

        dE/dh = -[Q + ((theta_0 - theta_1) + (theta_{N-1} - theta_N)) / (c s)
                  - (nu/2) s halfLap(u)_0].

    At fixed theta, dE/dh = -Q: detrending maps constants to zero, so the
    stray term does not see h.  The pinned ends theta_0 = pi - theta_h and
    theta_N = theta_h move by -+1/c per unit h, and dE/dtheta_0 - dE/dtheta_N
    is the exchange flux plus the stray end term -(nu/2) c s halfLap(u)_0;
    the anisotropy's end terms vanish with u on the plateaus.  On a
    converged wall the interior gradient is zero, so this is the derivative
    of the minimum energy (the envelope theorem).

    Raises:
        ValueError: an end sample more than 1e-9 off its plateau.
    """
    if not p.is_pinned():
        raise ValueError("field_derivative requires a profile pinned at the plateaus")
    grid, params, v = p.grid, p.params, p.values
    u = np.sin(v) - params.h
    flux = ((v[0] - v[1]) + (v[-2] - v[-1])) / (params.cos_theta_h * grid.spacing)
    stray_end = 0.5 * params.nu * grid.spacing * half_laplacian_spectral_values(u, grid)[0]
    return -float(np.sum(grid.trapezoid * u) + flux - stray_end)


def clamp_values(values: np.ndarray, params: ModelParams, out=None) -> np.ndarray:
    """Fold into [0, pi], then truncate to [theta_h, pi - theta_h].

    Values already inside the admissible range are returned bit-identical, so
    the operation is exactly idempotent.  The result goes to `out` when it is
    given, which may be `values` itself.
    """
    outside = (values < 0.0) | (values > np.pi)
    if out is None:
        out = values.copy()
    elif out is not values:
        np.copyto(out, values)
    out[outside] = np.arccos(np.cos(values[outside]))
    return np.clip(out, params.theta_h, np.pi - params.theta_h, out=out)


def clamp_rotations(p: Profile) -> Profile:
    """Restrict a profile to the admissible angle range; never increases energy.

    Every pointwise energy cell contracts: folding replaces sin(theta) by
    |sin(theta)|, truncation raises the sub-plateau tails of sin(theta) to
    exactly h, and both maps are 1-Lipschitz in the angle.
    """
    return p.with_values(clamp_values(p.values, p.params))


def _check_clamped(p: Profile):
    """Raise ValueError unless p lies in [theta_h, pi - theta_h], up to 1e-12."""
    lo, hi = p.params.theta_h, np.pi - p.params.theta_h
    if np.any(p.values < lo - 1e-12) or np.any(p.values > hi + 1e-12):
        raise ValueError("profile values outside [theta_h, pi - theta_h]; clamp first")


def _folded_segments(v, grid, params):
    """(seg_lo, seg_hi, seg_w, levels) of the folded deviation rho - theta_h.

    The fold is one vertex list: the samples, each at its folded deviation,
    plus one vertex at every pi/2 crossing of `level_crossings`, where the
    fold peaks at pi/2 - theta_h.  The segments join consecutive vertices,
    seg_w = np.diff of their positions; levels are the distinct vertex
    values with 0 and pi/2 - theta_h, descending.
    """
    dev_max = np.pi / 2 - params.theta_h
    j, x = level_crossings(grid.points, v, np.pi / 2)
    dev = np.insert(np.clip(fold(v) - params.theta_h, 0.0, dev_max), j + 1, dev_max)
    seg_lo, seg_hi = np.minimum(dev[:-1], dev[1:]), np.maximum(dev[:-1], dev[1:])
    levels = np.unique(np.append(dev, [0.0, dev_max]))[::-1]
    return seg_lo, seg_hi, np.diff(np.insert(grid.points, j + 1, x)), levels


def _layer_widths(seg_lo, seg_hi, seg_w, levels):
    """Measure of {piecewise-linear function > t} at each breakpoint level.

    levels must be sorted descending and contain every endpoint value, and
    seg_lo <= seg_hi.  Returns (mu_plus, mu_at): the limit from above and the
    value including the jump contributed by flat segments sitting exactly at
    the level.  Between consecutive levels mu is linear, so (levels, mu_plus,
    mu_at) is a complete description of the distribution function.

    mu_plus is the sum of three parts: the widths of the sloped segments with
    lo >= t, the widths of the flat segments above t, and anchor - slope * t
    over the sloped segments straddling t, where slope and anchor sum
    w / (hi - lo) and w hi / (hi - lo).  The straddling sums come from one
    cumulative sum over entries (at hi) and exits (at lo) sorted by level,
    exits first on ties, so the running sums hold only the straddling set.
    """
    flat = seg_hi <= seg_lo
    lo, hi, w = seg_lo[~flat], seg_hi[~flat], seg_w[~flat]

    def at_or_above(keys, values, side="right"):
        """Sum of values over keys >= t, or > t with side="left"."""
        order = np.argsort(-keys, kind="stable")
        sums = np.insert(np.cumsum(values[order], axis=0), 0, 0.0, axis=0)
        return sums[np.searchsorted(-keys[order], -levels, side)]

    slope = np.concatenate([-w, w]) / np.tile(hi - lo, 2)   # exits, entries
    events = np.column_stack([slope, slope * np.tile(hi, 2)])
    straddle = at_or_above(np.concatenate([lo, hi]), events)
    part = at_or_above(lo, w) + (straddle[:, 1] - straddle[:, 0] * levels)
    mu_plus = part + at_or_above(seg_hi[flat], seg_w[flat], "left")
    return mu_plus, part + at_or_above(seg_hi[flat], seg_w[flat])


def symmetrize_rearrange(p: Profile) -> Profile:
    """Symmetric decreasing rearrangement of the folded profile.

    The profile is folded about pi/2 onto [theta_h, pi/2] as a piecewise
    linear function (each grid segment crossing pi/2 contributes a breakpoint
    at the crossing, where the folded deviation attains its maximum
    pi/2 - theta_h), and the folded deviation is replaced by its exact
    symmetric decreasing rearrangement: the value at radius r is the level
    whose super-level set has width 2r.  Sampled back on the grid, the left
    half is the exact mirror pi - theta(-x) and the center sample is pi/2;
    a non-increasing input of zero symmetry defect keeps its right half.

    The segment-sum exchange energy never increases: the rearranged
    interpolant has no larger Dirichlet integral than the folded one, and
    resampling onto the grid only lowers it further.

    Raises:
        ValueError: input range outside [theta_h, pi - theta_h].
    """
    params = p.params
    grid = p.grid
    v = p.values
    _check_clamped(p)

    c = grid.center_index
    if np.all(np.diff(v) <= 0.0) and symmetry_defect(v) == 0.0:
        return p.with_values(mirror_left_half(v.copy()))   # its own rearrangement

    seg_lo, seg_hi, seg_w, levels = _folded_segments(v, grid, params)
    mu_plus, mu_at = _layer_widths(seg_lo, seg_hi, seg_w, levels)

    # a target inside a flat stretch's jump [mu_plus, mu_at] maps to its level
    widths = np.column_stack([mu_plus, mu_at]).ravel()
    t_out = np.interp(2.0 * grid.points[c:], widths, np.repeat(levels, 2))
    t_out = np.clip(t_out, 0.0, np.pi / 2 - params.theta_h)
    t_out = np.minimum.accumulate(t_out)

    out = np.empty_like(v)
    out[c:] = params.theta_h + t_out
    return p.with_values(mirror_left_half(out))


def sin_midpoint(p1: Profile, p2: Profile, t: float) -> Profile:
    """Interpolate two recentered profiles through their sine.

    theta_t(x) = arcsin(t sin theta_1 + (1-t) sin theta_2) for x > 0, the
    pi - arcsin branch for x < 0, and exactly pi/2 at x = 0.  At t = 1/2 the
    energy is at most the average of the two input energies, strictly below
    it when the sine profiles differ: every discrete energy cell is convex
    along this path.

    Raises:
        ValueError: mismatched grids/parameters, unrecentered inputs, or
            values outside the admissible range.
    """
    if p1.grid != p2.grid or p1.params != p2.params:
        raise ValueError("profiles must share grid and parameters")
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    params = p1.params
    for q in (p1, p2):
        c = q.grid.center_index
        if abs(q.values[c] - np.pi / 2) > 1e-9:
            raise ValueError("profiles must be recentered (pi/2 at x = 0)")
        _check_clamped(q)

    m = t * np.sin(p1.values) + (1.0 - t) * np.sin(p2.values)
    m = np.clip(m, -1.0, 1.0)
    arc = np.arcsin(m)
    x = p1.grid.points
    out = np.where(x >= 0.0, arc, np.pi - arc)
    out[p1.grid.center_index] = np.pi / 2
    return Profile(p1.grid, out, params)
