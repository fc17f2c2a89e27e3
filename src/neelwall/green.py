"""Linearized wall operator, its fundamental solution, and tail analysis.

Linearizing the equilibrium equation around the plateau angle theta_h gives

    L = -d^2/dx^2 + (nu/2) cos^2(theta_h) (-d^2/dx^2)^{1/2} + cos^2(theta_h),

whose Fourier symbol is 1/green_hat(k).  The fundamental solution G of L is
positive, even, Lipschitz at the origin, and decays like
green_decay_coeff / x^2.  It has an integral representation over t in
(0, inf) whose denominator factors as 4 (t^2 - r1)(t^2 - r2).  Partial
fractions turn it into exponential integrals E1 at p sqrt(r1) and
p sqrt(r2), p = |x| cos(theta_h), which `green_values` evaluates for a
whole array of points at once, G(0) as the closed form's limit p -> 0;
`green_samples` is its kernel on a grid's lags.  Near the double
root at nu cos(theta_h) = 4 and for nu cos(theta_h) < 1e-5, G comes from
`green_quadrature`, which integrates the same integral by composite
Gauss-Legendre quadrature independently of the closed form and checks it.

The wall's x^{-2} tail amplitude is a derivative of its energy.  Far out
the wall equation linearizes to L w = f, so the amplitude is
green_decay_coeff times the total charge that L sees, and on a wall pinned
at the plateaus that charge is -c dE/dh (c = cos theta_h):

    A = -nu (dE/dh) / (2 pi c),

with dE/dh the discrete energy's exact h-derivative, `field_derivative`.
`forcing_terms` gives the forcing f = f1 + f2 + f3 of the folded deviation
rho - theta_h and the point charge 2|theta'(0)| of the fold's corner;
convolve_green rebuilds the wall from the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import field_derivative
from .fractional import _lag_convolve, half_laplacian_spectral_values
from .grid import (
    FieldSamples,
    Grid1D,
    ModelParams,
    Profile,
    composite_gauss_legendre,
    fold,
    second_difference,
)


def linearized_symbol(k, params: ModelParams):
    """Fourier symbol of L at wavenumber magnitude k >= 0:

        k^2 + (nu/2) cos^2(theta_h) k + cos^2(theta_h).
    """
    c2 = params.cos_theta_h ** 2
    return k * k + 0.5 * params.nu * c2 * k + c2


def green_hat(k, params: ModelParams):
    """Fourier transform of the fundamental solution; even and positive."""
    out = 1.0 / linearized_symbol(np.abs(np.asarray(k, dtype=float)), params)
    return float(out) if out.ndim == 0 else out


def green_decay_coeff(params: ModelParams) -> float:
    """Coefficient of the |x|^{-2} tail of the fundamental solution."""
    return params.nu / (2.0 * np.pi * params.cos_theta_h ** 2)


# 1, 1/2, ..., 2^-47: panel edges graded toward t = 0 and u = 0
_GRADED = 2.0 ** -np.arange(48.0)


def green_quadrature(x: float, params: ModelParams) -> float:
    """Fundamental solution by composite Gauss-Legendre quadrature of its
    integral form:

    G(x) = (2 nu / pi) * int_0^inf t e^{-t |x| cos(theta_h)}
           / (nu^2 t^2 cos^2(theta_h) + 4 (t^2 - 1)^2) dt

    [0, 2] is split at 2^-k (k < 48), which grades the panels into the
    boundary layer of width 1/(|x| cos(theta_h)) at t = 0, and at 1 +- w 2^k
    for every offset below 1, where w = clip(nu cos(theta_h) / 4, 1e-13, 0.5)
    is the half-width of the integrand's peak at t = 1.  [2, inf) is mapped
    by t = 2/u onto (0, 1], split at u = 2^-k.  The 24-point rule on every
    panel gives the value, the 16-point rule on the same panels the error
    estimate.  Relative accuracy target 1e-8.  The closed form of
    `green_values` shares nothing with this function but the integrand's
    constants, so each checks the other.

    Raises:
        RuntimeError: quadrature failed to converge to the target accuracy.
    """
    nu = params.nu
    c = params.cos_theta_h
    ax = abs(float(x))

    def integrand(t):
        return (t * np.exp(-t * ax * c)
                / (nu * nu * t * t * c * c + 4.0 * (t * t - 1.0) ** 2))

    width = min(max(0.25 * nu * c, 1e-13), 0.5)
    offsets = width / _GRADED
    offsets = offsets[offsets < 1.0]
    t_edges = np.unique(np.concatenate([[0.0, 2.0], _GRADED,
                                        1.0 - offsets, 1.0 + offsets]))
    u_edges = np.concatenate([[0.0], _GRADED[::-1]])

    def panel_sums(n):
        t, wt = composite_gauss_legendre(t_edges, n)
        u, wu = composite_gauss_legendre(u_edges, n)
        return np.concatenate([(wt * integrand(t)).sum(axis=1),
                               (wu * integrand(2.0 / u) * 2.0 / (u * u)).sum(axis=1)])

    fine = panel_sums(24)
    value = 2.0 * nu / np.pi * fine.sum()
    err = 2.0 * nu / np.pi * np.abs(fine - panel_sums(16)).sum()
    if not np.isfinite(value) or err > 1e-8 * max(abs(value), 1e-300):
        raise RuntimeError(
            f"fundamental-solution quadrature did not converge at x={x}: "
            f"value={value}, error estimate={err}"
        )
    return float(value)


# green_values calls green_quadrature where the closed form loses digits:
# within _DOUBLE_ROOT_BAND of nu c = 4, where r1 and r2 merge and
# (I(r1) - I(r2)) / (r1 - r2) is 0/0 (at the band's edge the closed form is
# within 1e-12 of the quadrature), and below nu c = _SMALL_NU_C, where G is
# about nu c times smaller than the pole integral it is the imaginary part
# of, so the closed form's error grows like 1e-17 / (nu c): at L = 40,
# N = 4096 it is within 1.3e-12 of the quadrature for nu c in [1e-5, 1e-3],
# and 8.7e-12 off at nu c = 1e-6.
_DOUBLE_ROOT_BAND = 1e-4
_SMALL_NU_C = 1e-5
# |z| beyond which _pole_integral sums the asymptotic series of I
_ASYMPTOTIC_Z = 64.0
# (2j - 1)! for j = 8, ..., 1, highest order first
_ASYMPTOTIC_COEFFS = np.array([math.factorial(2 * j - 1) for j in range(8, 0, -1)],
                              dtype=float)
# _exp_e1 sums the power series of E1(w) where s = |w| + Re w <= _SERIES_SEAM.
# Its terms reach about e^{|w|} / |w| and E1(w) is about e^{-Re w} / |w|, so
# e^s is the series' condition number; beyond the seam the continued
# fraction, which converges faster the larger s is, takes over.
_SERIES_SEAM = 2.0
# outer radii of the |w| bins that share a series length: quarters up to 1,
# then unit steps, over which the length grows by 1-5 terms
_SERIES_RADII = np.concatenate([[0.25, 0.5, 0.75], np.arange(1.0, _ASYMPTOTIC_Z + 1.0)])


def _series_terms(radii) -> np.ndarray:
    """Terms of the E1 series that suffice for |w| <= r in the series region,
    for each of the ascending radii r: the least n >= r at which the first
    neglected term, r^{n+1} / ((n+1) (n+1)!), is below 2^-53 e^{r - seam}
    / (r + 2), a lower bound on |E1(w)| there.  The term's ratio to that
    bound grows with r once n >= r, so the length never falls as r grows
    and each search starts from the last length."""
    lengths, n = [], 0
    for radius in radii:
        n = max(n, math.ceil(radius))
        bound = radius - _SERIES_SEAM - math.log(radius + 2.0) - 53.0 * math.log(2.0)
        while ((n + 1) * math.log(radius) - math.log(n + 1) - math.lgamma(n + 2)
               > bound):
            n += 1
        lengths.append(n)
    return np.array(lengths)


_SERIES_LENGTHS = _series_terms(_SERIES_RADII)
# (-1)^{k+1} / (k k!) at index k = 1, ..., n_max; index 0 is unused
_E1_SERIES_COEFFS = [0.0] + [(-1) ** (k + 1) / (k * math.factorial(k))
                             for k in range(1, _SERIES_LENGTHS[-1] + 1)]


def _longest_first(lengths: np.ndarray):
    """The order that sorts lengths from longest to shortest, and for k = 0,
    1, ..., max(lengths) the number of lengths >= k: in that order, step k
    of a recurrence updates the leading slice of that many points."""
    order = np.argsort(-lengths, kind="stable")
    counts = np.cumsum(np.bincount(lengths)[::-1])[::-1]
    return order, counts.tolist()


def _exp_e1(w: np.ndarray) -> np.ndarray:
    """e^{w} E1(w) for complex w off the negative real axis, |w| <= 64.

    Where s = |w| + Re w <= _SERIES_SEAM, the power series

        E1(w) = -gamma - ln w - sum_{k>=1} (-w)^k / (k k!)

    by Horner's rule, as long as `_series_terms` asks at the outer radius
    of the bin of _SERIES_RADII that holds |w| (Abramowitz & Stegun
    5.1.11).  Elsewhere the even contraction of the continued fraction
    (A&S 5.1.22)

        e^{w} E1(w) = 1/(w+1-) 1^2/(w+3-) 2^2/(w+5-) ...

    evaluated by backward recurrence, ceil(200 / s) + 4 levels deep.  Each
    method sorts its points by the length they need and then runs one loop
    over terms (levels), each updating only the points that still need it.
    """
    out = np.empty_like(w)
    r = np.abs(w)
    s = r + w.real
    series = s <= _SERIES_SEAM
    sel = np.flatnonzero(series)
    order, counts = _longest_first(_SERIES_LENGTHS[np.searchsorted(_SERIES_RADII, r[sel])])
    sel = sel[order]
    x = w[sel]
    # np.polyval's Horner step y x + c; a point joins at its highest
    # coefficient with y = 0
    y = np.zeros_like(x)
    for k in range(len(counts) - 1, 0, -1):
        m = counts[k]
        head = y[:m]
        head *= x[:m]
        head += _E1_SERIES_COEFFS[k]
    out[sel] = np.exp(x) * (-np.euler_gamma - np.log(x) + x * y)
    # the fraction's truncation error falls like exp(-sqrt(8 n s)); depth
    # ceil(200 / s) + 4 keeps it below 2^-53 of the value, measured in
    # extended precision at 500 values of s in (2, 128] and 8 angles: at
    # most 9.5e-17, on the positive real axis
    sel = np.flatnonzero(~series)
    order, counts = _longest_first(np.ceil(200.0 / s[sel]).astype(np.intp) + 4)
    sel = sel[order]
    x = w[sel]
    t = np.zeros_like(x)
    den = np.empty_like(x)
    for k in range(len(counts) - 1, 0, -1):
        # t = k^2 / (x + 2k + 1 - t) on the leading slice, in place
        m = counts[k]
        head, d = t[:m], den[:m]
        np.add(x[:m], 2 * k + 1, out=d)
        d -= head
        np.divide(k * k, d, out=head)
    out[sel] = 1.0 / (x + 1.0 - t)
    return out


def _pole_integral(z: np.ndarray) -> np.ndarray:
    """I = int_0^inf t e^{-p t} / (t^2 - r) dt as a function of z = p sqrt(r):

        I = (e^{-z} E1(-z) + e^{z} E1(z)) / 2        (Abramowitz & Stegun 5.1)

    for complex z with 0 < arg z <= pi/2, both halves by `_exp_e1`.  On the
    imaginary axis e^{-z} E1(-z) is the conjugate of e^{z} E1(z), so
    only the latter is evaluated there.  Where |z| > 64 it is the
    asymptotic series I = -sum_{j=1..8} (2j-1)! / z^{2j}, whose first
    neglected term is below 1e-13 of the sum and of its imaginary part
    there; it avoids the cancellation between the two halves, each about
    1/z where I is about 1/z^2.
    """
    out = np.empty_like(z)
    far = np.abs(z) > _ASYMPTOTIC_Z
    y = 1.0 / (z[far] * z[far])
    out[far] = -y * np.polyval(_ASYMPTOTIC_COEFFS, y)
    near = z[~far]
    off_axis = near.real > 0.0
    # one call for both halves: each of its loops over terms then runs once
    halves = _exp_e1(np.concatenate([near, -near[off_axis]]))
    plus = halves[:near.size]
    minus = np.conj(plus)
    minus[off_axis] = halves[near.size:]
    out[~far] = 0.5 * (plus + minus)
    return out


def green_values(x, params: ModelParams) -> np.ndarray:
    """G at |x| for every entry of the 1-D array x.

    Off x = 0, G is the closed form of its integral: with p = |x| cos(theta_h)
    and r1, r2 the roots in t^2 of the integrand's denominator,

        G(x) = (2 nu / pi) Re[(I(r1) - I(r2)) / (4 (r1 - r2))],

    I as in `_pole_integral`, one evaluation per point and conjugate pair:
    for nu cos(theta_h) < 4 the roots are conjugate, I(r2) = conj I(r1), and
    G = (2 nu / pi) Im I(r1) / (4 Im r1); above 4 both roots are negative
    and I is the real part of e^{z} E1(z) at imaginary z.  At x = 0, where
    each I diverges like -ln p, G is the closed form's limit

        nu (pi - arg r1) / (4 pi Im r1)       for nu cos(theta_h) < 4,
        nu ln(-r2) / (2 pi (r1 - r2))         above, where r2 < r1 < 0.

    numpy only; its error against
    green_quadrature is below 1e-10 relative (1e-12 at x = 0).
    green_quadrature gives every value where the closed form loses digits:
    when |nu cos(theta_h) - 4| < 1e-4, where the roots merge, and when
    nu cos(theta_h) < 1e-5.

    Raises:
        ValueError: a NaN or infinite entry of x, for every nu.
        RuntimeError: inside those bands, a quadrature that did not converge.
    """
    nu = params.nu
    c = params.cos_theta_h
    ax = np.abs(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(ax)):   # one rule inside and outside the bands
        raise ValueError("x must be finite")
    if abs(nu * c - 4.0) < _DOUBLE_ROOT_BAND or nu * c < _SMALL_NU_C:
        return np.array([green_quadrature(v, params) for v in ax])
    # 4 t^4 + (nu^2 c^2 - 8) t^2 + 4 = 4 (t^2 - r1)(t^2 - r2) with
    # r1 + r2 = 2 (1 - q) and r1 r2 = 1
    q = (nu * c) ** 2 / 8.0
    origin = ax == 0.0
    p = ax[~origin] * c
    out = np.empty(ax.shape)
    if q < 2.0:
        # r1, r2 = 1 - q +- i delta on the unit circle; I(r2) = conj I(r1)
        delta = math.sqrt(q * (2.0 - q))
        pole = _pole_integral(p * np.sqrt(complex(1.0 - q, delta)))
        out[~origin] = 2.0 * nu / np.pi * pole.imag / (4.0 * delta)
        out[origin] = nu * (np.pi - math.atan2(delta, 1.0 - q)) / (4.0 * np.pi * delta)
    else:
        # r2 = 1 - q - d <= -1 and r1 = 1 / r2, so neither root is formed
        # by cancellation; z = p sqrt(r) is imaginary and I is real
        d = math.sqrt(q * (q - 2.0))
        r2 = 1.0 - q - d
        pole = _pole_integral(1j * p[:, None] * np.sqrt([-1.0 / r2, -r2])).real
        out[~origin] = 2.0 * nu / np.pi * (pole[:, 0] - pole[:, 1]) / (8.0 * d)
        out[origin] = nu * math.log(-r2) / (4.0 * np.pi * d)
    return out


def green_samples(grid: Grid1D, params: ModelParams) -> np.ndarray:
    """G at every lag of the grid, -N s ... N s: green_values on the N + 1
    non-negative lags, mirrored; a new array on every call."""
    half = green_values(np.arange(grid.n_points + 1) * grid.spacing, params)
    return np.concatenate([half[:0:-1], half])


def apply_linearized_operator(u: FieldSamples, params: ModelParams) -> FieldSamples:
    """Apply L nodewise: 3-point second difference + spectral half-Laplacian
    + zeroth-order multiplication.  Endpoints reuse the one-sided curvature of
    their neighbor (fields of interest are flat there)."""
    grid = u.grid
    v = u.values
    c2 = params.cos_theta_h ** 2

    u_xx = np.empty_like(v)
    second_difference(v, grid.spacing, u_xx[1:-1])
    u_xx[0] = u_xx[1]
    u_xx[-1] = u_xx[-2]

    lam = half_laplacian_spectral_values(v, grid)
    out = -u_xx + 0.5 * params.nu * c2 * lam + c2 * v
    return FieldSamples(grid, out)


@dataclass(frozen=True)
class ForcingTerms:
    """Nonlinear forcing of the linearized equation for the folded deviation.

    f_total is the exact nodewise sum f1 + f2 + f3.  corner_charge is the
    point charge 2|theta'(0)| carried by L(rho - theta_h) at the fold corner;
    it is not part of f_total.  The total charge the far field sees is
    -cos(theta_h) dE/dh (`field_derivative`), so the tail amplitude
    (`decay_amplitude`) needs none of these fields.
    """

    f1: FieldSamples
    f2: FieldSamples
    f3: FieldSamples
    f_total: FieldSamples
    corner_charge: float


def _check_wall_profile(p: Profile, what: str):
    c = p.grid.center_index
    if abs(p.values[c] - np.pi / 2) > 1e-6:
        raise ValueError(f"{what} requires a recentered profile (pi/2 at x = 0)")
    if np.any(np.diff(p.values) > 1e-9):
        raise ValueError(f"{what} requires a non-increasing (converged) profile")


def forcing_terms(p: Profile) -> ForcingTerms:
    """Evaluate the three forcing components of the folded wall equation.

    The whole wall is folded about pi/2 onto [theta_h, pi/2], so nothing
    assumes it symmetric; half-Laplacians act spectrally on the fold.  The
    corner charge (v[c-1] - v[c+1]) / s is the jump of the fold's slope at
    x = 0: the sum of its two one-sided slopes.

    Raises:
        ValueError: profile not recentered or not monotone.
    """
    _check_wall_profile(p, "forcing_terms")
    grid, params = p.grid, p.params
    c = params.cos_theta_h
    cidx = grid.center_index

    rho = fold(p.values)
    dev = rho - params.theta_h
    sin_rho = np.sin(rho)
    cos_rho = np.cos(rho)

    w2 = c * dev - sin_rho + params.h
    f1 = c * (c - cos_rho) * dev + cos_rho * w2
    f2 = 0.5 * params.nu * c * half_laplacian_spectral_values(w2, grid)
    w3 = sin_rho - params.h
    f3 = (0.5 * params.nu * (c - cos_rho)
          * half_laplacian_spectral_values(w3, grid))
    f_total = f1 + f2 + f3

    corner_charge = abs(p.values[cidx - 1] - p.values[cidx + 1]) / grid.spacing

    return ForcingTerms(
        f1=FieldSamples(grid, f1),
        f2=FieldSamples(grid, f2),
        f3=FieldSamples(grid, f3),
        f_total=FieldSamples(grid, f_total),
        corner_charge=float(corner_charge),
    )


@dataclass(frozen=True)
class DecayReport:
    """Two independent estimates of the x^{-2} tail amplitude plus fit data.

    amplitude_multipole: green_decay_coeff times the total charge
        -cos(theta_h) dE/dh, that is -nu (dE/dh) / (2 pi cos theta_h) with
        dE/dh from `field_derivative`.
    amplitude_tailfit: median of x^2 (rho(x) - theta_h) over the fit window
        [half_length/8, half_length/4] (median for robustness against the
        slow o(x^{-2}) drift).
    exponent_fit: log-log least-squares slope over the same window.

    The Green function's decay coefficient is green_decay_coeff(params).
    """

    amplitude_multipole: float
    amplitude_tailfit: float
    exponent_fit: float


def decay_amplitude(p: Profile) -> DecayReport:
    """Estimate the far-field amplitude of a converged, recentered wall.

    Raises:
        ValueError: a profile not recentered, not monotone or not pinned,
            fewer than two grid samples in the fit window [L/8, L/4], or
            non-positive tail values in it.
    """
    _check_wall_profile(p, "decay_amplitude")
    grid, params = p.grid, p.params
    amplitude_multipole = (-params.nu / (2.0 * np.pi * params.cos_theta_h)
                           * field_derivative(p))

    x_lo, x_hi = grid.half_length / 8.0, grid.half_length / 4.0
    x = grid.points
    window = (x >= x_lo) & (x <= x_hi)
    if np.count_nonzero(window) < 2:
        raise ValueError("tail-fit window holds fewer than two grid samples")
    dev = p.values[window] - params.theta_h
    if np.any(dev <= 0.0):
        raise ValueError("non-positive tail values in the fit window")
    xs = x[window]
    amplitude_tailfit = float(np.median(xs * xs * dev))
    # least-squares slope of log dev against log x, about their means
    log_x = np.log(xs)
    log_x -= log_x.mean()
    log_dev = np.log(dev)
    slope = np.dot(log_x, log_dev - log_dev.mean()) / np.dot(log_x, log_x)

    return DecayReport(
        amplitude_multipole=amplitude_multipole,
        amplitude_tailfit=amplitude_tailfit,
        exponent_fit=float(slope),
    )


def convolve_green(f: FieldSamples, params: ModelParams) -> FieldSamples:
    """Discrete convolution with the sampled fundamental solution.

    Trapezoid weights on the input; the kernel is green_samples, G at every
    lag, built on each call.  Reconstructs L^{-1} f on the grid.
    """
    grid = f.grid
    weighted = f.values * grid.trapezoid
    return FieldSamples(grid, _lag_convolve(weighted, green_samples(grid, params)))
