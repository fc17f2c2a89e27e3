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
what makes finite-difference gradient checks tight and line searches robust;
the independent double-integral seminorm in `fractional` cross-validates the
spectral form at the 1e-3 level expected of the truncation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fractional import (
    FieldSamples,
    detrended_rfft,
    grid_constants,
    half_laplacian_spectral_values,
)
from .grid import Grid1D, ModelParams, Profile


@dataclass(frozen=True)
class EnergyBreakdown:
    """Exchange, anisotropy, and stray-field parts of the wall energy."""

    exchange: float
    anisotropy: float
    stray: float
    total: float


def _stray_quadratic_form(u: np.ndarray, grid: Grid1D) -> float:
    """s * <u, halfLap u> over one period of the detrended extension, >= 0."""
    kw = grid_constants(grid).weighted_wavenumbers
    uhat = detrended_rfft(u, grid)
    return float(grid.spacing / grid.n_points * np.sum(kw * np.abs(uhat) ** 2))


def energy_parts(values: np.ndarray, grid: Grid1D, params: ModelParams):
    """(exchange, anisotropy, stray) for a raw value array."""
    s = grid.spacing
    d = np.diff(values)
    exchange = 0.5 * float(np.sum(d * d)) / s
    u = np.sin(values) - params.h
    anisotropy = 0.5 * float(np.sum(grid_constants(grid).trapezoid * u * u))
    stray = 0.25 * params.nu * _stray_quadratic_form(u, grid)
    return exchange, anisotropy, stray


def energy(p: Profile) -> EnergyBreakdown:
    """Energy of a profile, split by physical origin."""
    exchange, anisotropy, stray = energy_parts(p.values, p.grid, p.params)
    return EnergyBreakdown(exchange, anisotropy, stray, exchange + anisotropy + stray)


def energy_delta(v: np.ndarray, v_new: np.ndarray, grid: Grid1D,
                 params: ModelParams) -> float:
    """E(v_new) - E(v) without catastrophic cancellation.

    Each term is assembled from the pointwise change (sine differences via
    the product identity, quadratic forms via their polarization), so the
    result stays accurate down to changes far below the fp noise of the total
    energy.  Line searches near the minimum rely on this: the certified
    decrease per step shrinks like the squared gradient norm, orders of
    magnitude below eps * E.
    """
    s = grid.spacing
    const = grid_constants(grid)

    a = np.diff(v)
    da = np.diff(v_new) - a
    d_exchange = 0.5 * float(np.sum(da * (2.0 * a + da))) / s

    u = np.sin(v) - params.h
    du = 2.0 * np.cos(0.5 * (v_new + v)) * np.sin(0.5 * (v_new - v))
    d_anisotropy = 0.5 * float(np.sum(const.trapezoid * du * (2.0 * u + du)))

    # polarization: S(u + du) - S(u) = <P(2u + du), Lam P(du)>
    fa = detrended_rfft(2.0 * u + du, grid)
    fb = detrended_rfft(du, grid)
    d_stray = 0.25 * params.nu * float(
        s / grid.n_points
        * np.sum(const.weighted_wavenumbers * (fa * np.conj(fb)).real))

    return d_exchange + d_anisotropy + d_stray


def gradient_values(values: np.ndarray, grid: Grid1D, params: ModelParams) -> np.ndarray:
    """L2 gradient of the discrete energy; zero at the pinned endpoints."""
    s = grid.spacing
    g = np.zeros_like(values)
    theta_xx = (values[2:] - 2.0 * values[1:-1] + values[:-2]) / (s * s)
    cos_t = np.cos(values)
    sin_t = np.sin(values)
    lam = half_laplacian_spectral_values(sin_t - params.h, grid)
    g[1:-1] = (
        -theta_xx
        + cos_t[1:-1] * sin_t[1:-1]
        - params.h * cos_t[1:-1]
        + 0.5 * params.nu * cos_t[1:-1] * lam[1:-1]
    )
    return g


def hessian_operator(values: np.ndarray, grid: Grid1D, params: ModelParams):
    """Second variation of the discrete energy at `values`, as phi -> H phi.

    For perturbations phi that vanish at both pinned ends,

        H phi = -phi_xx + (cos 2 theta + h sin theta) phi
                - (nu/2) sin theta halfLap(sin theta - h) phi
                + (nu/2) cos theta halfLap(cos theta phi),

    the derivative of gradient_values along phi.  H is symmetric in the
    spacing-weighted inner product; H phi is zero at the endpoints.
    """
    s2 = grid.spacing * grid.spacing
    half_nu = 0.5 * params.nu
    cos_t = np.cos(values)
    sin_t = np.sin(values)
    lam = half_laplacian_spectral_values(sin_t - params.h, grid)
    diag = np.cos(2.0 * values) + sin_t * (params.h - half_nu * lam)
    del sin_t, lam

    def apply(phi: np.ndarray) -> np.ndarray:
        out = half_laplacian_spectral_values(cos_t * phi, grid)
        out *= cos_t
        out *= half_nu
        out += diag * phi
        out[1:-1] -= (phi[2:] - 2.0 * phi[1:-1] + phi[:-2]) / s2
        out[0] = 0.0
        out[-1] = 0.0
        return out

    return apply


def energy_gradient(p: Profile) -> FieldSamples:
    """First variation of the energy; exact gradient of the discrete functional.

    For compactly supported interior perturbations phi,
    (E(p + t phi) - E(p)) / t -> spacing * sum(g * phi) as t -> 0.
    """
    return FieldSamples(p.grid, gradient_values(p.values, p.grid, p.params))


def el_residual(p: Profile) -> FieldSamples:
    """Pointwise equilibrium residual; coincides with the energy gradient."""
    return energy_gradient(p)


def clamp_values(values: np.ndarray, params: ModelParams) -> np.ndarray:
    """Fold into [0, pi], then truncate to [theta_h, pi - theta_h].

    Values already inside the admissible range are returned bit-identical, so
    the operation is exactly idempotent.
    """
    inside = (values >= 0.0) & (values <= np.pi)
    folded = np.where(inside, values, np.arccos(np.cos(values)))
    return np.clip(folded, params.theta_h, np.pi - params.theta_h)


def clamp_rotations(p: Profile) -> Profile:
    """Restrict a profile to the admissible angle range; never increases energy.

    Every pointwise energy cell contracts: folding replaces sin(theta) by
    |sin(theta)|, truncation raises the sub-plateau tails of sin(theta) to
    exactly h, and both maps are 1-Lipschitz in the angle.
    """
    return p.with_values(clamp_values(p.values, p.params))


def _folded_segments(v, grid, params):
    """(seg_lo, seg_hi, seg_w, levels) of the folded deviation rho - theta_h.

    One segment per grid cell, a cell crossing pi/2 split at the crossing
    into two halves rising to pi/2 - theta_h; levels are the distinct
    endpoint values with 0 and pi/2 - theta_h, descending.
    """
    rho = np.where(v <= np.pi / 2, v, np.pi - v)
    dev = np.clip(rho - params.theta_h, 0.0, np.pi / 2 - params.theta_h)
    dev_max = np.pi / 2 - params.theta_h
    s = grid.spacing

    a, b = dev[:-1], dev[1:]
    va, vb = v[:-1], v[1:]
    crossing = (va - np.pi / 2) * (vb - np.pi / 2) < 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(crossing, (np.pi / 2 - va) / (vb - va), 1.0)
    frac = np.clip(frac, 0.0, 1.0)

    # plain segments, plus the two halves of every segment folded at pi/2
    plain = ~crossing
    seg_lo = np.concatenate([
        np.minimum(a, b)[plain], a[crossing], b[crossing]])
    seg_hi = np.concatenate([
        np.maximum(a, b)[plain],
        np.full(np.count_nonzero(crossing), dev_max),
        np.full(np.count_nonzero(crossing), dev_max)])
    seg_w = np.concatenate([
        np.full(np.count_nonzero(plain), s),
        s * frac[crossing], s * (1.0 - frac[crossing])])

    levels = np.unique(np.concatenate([seg_lo, seg_hi, [0.0, dev_max]]))[::-1]
    return seg_lo, seg_hi, seg_w, levels


def _layer_widths(seg_lo, seg_hi, seg_w, levels):
    """Measure of {piecewise-linear function > t} at each breakpoint level.

    levels must be sorted descending and contain every endpoint value, and
    seg_lo <= seg_hi.  Returns (mu_plus, mu_at): the limit from above and the
    value including the jump contributed by flat segments sitting exactly at
    the level.  Between consecutive levels mu is linear, so (levels, mu_plus,
    mu_at) is a complete description of the distribution function.

    mu_plus = done + (anchor - slope * t): slope and anchor sum w / (hi - lo)
    and w hi / (hi - lo) over the segments straddling t, done the widths
    below t.  Each is a cumulative sum over one event sequence sweeping down
    the levels (per level: entries in descending argsort order of seg_hi,
    exits likewise of seg_lo, then the flat segments' jump), so np.cumsum
    rounds every sum exactly as a loop over that sweep would.
    """
    n = seg_lo.size
    n_levels = levels.size
    flat = seg_hi <= seg_lo
    order_hi = np.argsort(seg_hi)[::-1].astype(np.int32)
    order_lo = np.argsort(seg_lo)[::-1].astype(np.int32)
    hi_sorted = seg_hi[order_hi[::-1]]   # ascending
    lo_sorted = seg_lo[order_lo[::-1]]
    rank = np.arange(1, n + 1, dtype=np.int32)   # after a leading zero
    # an entry follows the exits at higher levels, an exit the entries at
    # its level and above
    pos_hi = _count_above(lo_sorted, hi_sorted[::-1], "right", rank)
    pos_lo = _count_above(hi_sorted, lo_sorted[::-1], "left", rank)
    read = _count_above(hi_sorted, levels, "left")
    read += _count_above(lo_sorted, levels, "left")
    del hi_sorted, lo_sorted
    events = np.empty(2 * n + 1)
    events[0] = 0.0

    def running_sum(per_segment):
        events[pos_hi] = per_segment[order_hi]
        exits = per_segment[order_lo]
        events[pos_lo] = np.negative(exits, out=exits)
        del exits
        return np.cumsum(events, out=events)[read]

    slopes = seg_hi - seg_lo
    np.divide(seg_w, slopes, out=slopes, where=~flat)
    slopes[flat] = 0.0
    slope_t = running_sum(slopes)
    slope_t *= levels
    slopes *= seg_hi
    mu_plus = running_sum(slopes)
    mu_plus -= slope_t   # anchor - slope * t
    del events, slopes, pos_hi, pos_lo, read, slope_t

    jump = np.zeros(n_levels)   # np.add.at adds in index order
    flat_j = order_hi[flat[order_hi]]
    np.add.at(jump, _count_above(levels[::-1], seg_hi[flat_j], "right"), seg_w[flat_j])
    del flat_j, order_hi

    # done: per level, the widths of the exiting segments, then the jump
    lo_sorted = seg_lo[order_lo[::-1]]
    done = np.empty(n + n_levels + 1)
    done[0] = 0.0
    widths = seg_w[order_lo]
    widths[flat[order_lo]] = 0.0
    done[_count_above(levels[::-1], lo_sorted[::-1], "right", rank)] = widths
    del widths, order_lo, rank
    jump_pos = _count_above(lo_sorted, levels, "left",
                            np.arange(1, n_levels + 1, dtype=np.int32))
    del lo_sorted
    done[jump_pos] = jump
    np.cumsum(done, out=done)
    jump_pos -= 1
    mu_plus += done[jump_pos]   # done + (anchor - slope * t)
    return mu_plus, mu_plus + jump


def _count_above(ascending, values, side, offset=None):
    """int32 count of entries above (side="right") or at or above ("left")
    each value, plus offset."""
    out = np.searchsorted(ascending, values, side=side).astype(np.int32)
    np.subtract(ascending.size, out, out=out)
    if offset is not None:
        out += offset
    return out


def _invert_widths(levels, mu_plus, mu_at, targets):
    """Level whose super-level set has each target width; a target inside a
    flat stretch's jump gets its level, one between levels is interpolated."""
    idx = np.searchsorted(mu_at, targets, side="left")
    i = np.clip(idx, 1, levels.size - 1)
    m0, m1 = mu_at[i - 1], mu_plus[i]
    t0, t1 = levels[i - 1], levels[i]
    with np.errstate(divide="ignore", invalid="ignore"):
        between = t1 + (t0 - t1) * (m1 - targets) / (m1 - m0)
    out = np.where((targets >= m1) | (m1 <= m0), t1, between)
    out[idx == 0] = levels[0]
    out[idx >= levels.size] = 0.0
    return out


def symmetrize_rearrange(p: Profile) -> Profile:
    """Symmetric decreasing rearrangement of the folded profile.

    The profile is folded about pi/2 onto [theta_h, pi/2] as a piecewise
    linear function (each grid segment crossing pi/2 contributes a breakpoint
    at the crossing, where the folded deviation attains its maximum
    pi/2 - theta_h), and the folded deviation is replaced by its exact
    symmetric decreasing rearrangement: the value at radius r is the level
    whose super-level set has width 2r.  Sampled back on the grid, the left
    half is the exact mirror pi - theta(-x) and the center sample is pi/2.

    The segment-sum exchange energy never increases: the rearranged
    interpolant has no larger Dirichlet integral than the folded one, and
    resampling onto the grid only lowers it further.

    Raises:
        ValueError: input range outside [theta_h, pi - theta_h].
    """
    params = p.params
    grid = p.grid
    v = p.values
    lo, hi = params.theta_h, np.pi - params.theta_h
    slack = 1e-12
    if np.any(v < lo - slack) or np.any(v > hi + slack):
        raise ValueError("profile must be clamped to [theta_h, pi - theta_h] first")

    c = grid.center_index
    already = (np.all(np.diff(v) <= 0.0)
               and v[c] == np.pi / 2
               and np.max(np.abs(v + v[::-1] - np.pi)) == 0.0)
    if already:
        return p  # exact fixed point; keeps the operation idempotent

    seg_lo, seg_hi, seg_w, levels = _folded_segments(v, grid, params)
    mu_plus, mu_at = _layer_widths(seg_lo, seg_hi, seg_w, levels)

    t_out = _invert_widths(levels, mu_plus, mu_at, 2.0 * grid.points[c:])
    t_out = np.clip(t_out, 0.0, np.pi / 2 - params.theta_h)
    t_out = np.minimum.accumulate(t_out)

    out = np.empty_like(v)
    out[c:] = params.theta_h + t_out
    out[:c] = np.pi - out[c + 1:][::-1]
    out[c] = np.pi / 2
    return p.with_values(out)


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
    lo, hi = params.theta_h, np.pi - params.theta_h
    slack = 1e-12
    for q in (p1, p2):
        c = q.grid.center_index
        if abs(q.values[c] - np.pi / 2) > 1e-9:
            raise ValueError("profiles must be recentered (pi/2 at x = 0)")
        if np.any(q.values < lo - slack) or np.any(q.values > hi + slack):
            raise ValueError("profile values outside [theta_h, pi - theta_h]")

    m = t * np.sin(p1.values) + (1.0 - t) * np.sin(p2.values)
    m = np.clip(m, -1.0, 1.0)
    arc = np.arcsin(m)
    x = p1.grid.points
    out = np.where(x >= 0.0, arc, np.pi - arc)
    out[p1.grid.center_index] = np.pi / 2
    return Profile(p1.grid, out, params)
