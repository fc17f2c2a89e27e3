"""Linearized wall operator, its fundamental solution, and tail analysis.

Linearizing the equilibrium equation around the plateau angle theta_h gives

    L = -d^2/dx^2 + (nu/2) cos^2(theta_h) (-d^2/dx^2)^{1/2} + cos^2(theta_h),

whose Fourier symbol is 1/green_hat(k).  The fundamental solution G of L is
positive, even, Lipschitz at the origin, and decays like
green_decay_coeff / x^2.  It has an integral representation over t in
(0, inf) whose denominator factors as 4 (t^2 - r1)(t^2 - r2).  Partial
fractions turn it into exponential integrals E1 at p sqrt(r1) and
p sqrt(r2), p = |x| cos(theta_h), which `green_samples` evaluates for a
whole grid of lags at once.  G(0), and the whole kernel near the double
root at nu cos(theta_h) = 4 or for nu cos(theta_h) < 1e-3, come from
`green_quadrature`, which integrates the same integral by composite
Gauss-Legendre quadrature independently of the closed form and checks it.

Writing the folded wall deviation rho - theta_h as L^{-1} of the nonlinear
forcing f = f1 + f2 + f3 turns the x^{-2} tail amplitude into a charge times
green_decay_coeff.  The fold has a corner at x = 0 (the slopes of rho jump
from +|theta'(0)| to -|theta'(0)|), so L(rho - theta_h) carries a point
charge 2|theta'(0)| at the origin on top of the smooth forcing.  The charge
entering the amplitude is the integral of f plus that corner term, plus the
direct x^{-2} tail of f2 = (nu/2) c halfLap(w2): f2 integrates to zero, but
halfLap w ~ -(int w) / (pi x^2), and near k = 0 green_hat is
1/c^2 - (nu / 2c^2)|k| + ..., so that tail adds -c int w2 to the charge
(c = cos theta_h).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fractional import (
    FieldSamples,
    _lag_convolve,
    grid_constants,
    half_laplacian_spectral_values,
)
from .grid import Grid1D, ModelParams, Profile


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


@lru_cache(maxsize=None)
def _gauss_legendre(n: int):
    """n-point Gauss-Legendre nodes and weights on [-1, 1], built on first use."""
    return np.polynomial.legendre.leggauss(n)


def _composite_rule(edges: np.ndarray, n: int):
    """Nodes and weights of the n-point rule on each panel, one row per panel."""
    nodes, weights = _gauss_legendre(n)
    half = 0.5 * np.diff(edges)[:, None]
    return edges[:-1, None] + half * (1.0 + nodes), half * weights


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
    estimate.  Relative accuracy target 1e-8.  The closed form behind
    `green_samples` shares nothing with this function but the integrand's
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
        t, wt = _composite_rule(t_edges, n)
        u, wu = _composite_rule(u_edges, n)
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


# The kernel is built by green_quadrature where the closed form loses digits:
# within _DOUBLE_ROOT_BAND of nu c = 4, where r1 and r2 merge and
# (I(r1) - I(r2)) / (r1 - r2) is 0/0 (at the band's edge the closed form is
# within 1e-12 of the quadrature), and below nu c = _SMALL_NU_C, where G is
# about nu c times smaller than the pole integral it is the imaginary part
# of, so the closed form's error grows like 1e-17 / (nu c).
_DOUBLE_ROOT_BAND = 1e-4
_SMALL_NU_C = 1e-3
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
# outer radii of the |w| bins that share a series length
_SERIES_RADII = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, _ASYMPTOTIC_Z)


def _series_terms(radius: float) -> int:
    """Terms of the E1 series that suffice for |w| <= radius in the series
    region: the first neglected term, radius^{n+1} / ((n+1) (n+1)!), is below
    2^-53 e^{radius - seam} / (radius + 2), a lower bound on |E1(w)| there
    (the term's ratio to that bound grows with |w| once n >= radius)."""
    n = math.ceil(radius)
    bound = radius - _SERIES_SEAM - math.log(radius + 2.0) - 53.0 * math.log(2.0)
    while ((n + 1) * math.log(radius) - math.log(n + 1) - math.lgamma(n + 2)
           > bound):
        n += 1
    return n


_SERIES_LENGTHS = tuple(_series_terms(r) for r in _SERIES_RADII)
# (-1)^{k+1} / (k k!) for k = n_max, ..., 1, highest order first
_E1_SERIES_COEFFS = np.array([(-1) ** (k + 1) / (k * math.factorial(k))
                              for k in range(_SERIES_LENGTHS[-1], 0, -1)])


def _exp_e1(w: np.ndarray) -> np.ndarray:
    """e^{w} E1(w) for complex w off the negative real axis, |w| <= 64.

    Where s = |w| + Re w <= _SERIES_SEAM, the power series

        E1(w) = -gamma - ln w - sum_{k>=1} (-w)^k / (k k!)

    by Horner's rule, its length set by the |w| bin (Abramowitz & Stegun
    5.1.11).  Elsewhere the even contraction of the continued fraction
    (A&S 5.1.22)

        e^{w} E1(w) = 1/(w+1-) 1^2/(w+3-) 2^2/(w+5-) ...

    evaluated by backward recurrence, its depth set by the s bin, which
    doubles from the seam.
    """
    out = np.empty_like(w)
    r = np.abs(w)
    s = r + w.real
    series = s <= _SERIES_SEAM
    inner = 0.0
    for outer, n in zip(_SERIES_RADII, _SERIES_LENGTHS):
        sel = series & (r > inner) & (r <= outer)
        inner = outer
        if sel.any():   # an empty bin would still cost n numpy calls
            x = w[sel]
            out[sel] = np.exp(x) * (-np.euler_gamma - np.log(x)
                                    + x * np.polyval(_E1_SERIES_COEFFS[-n:], x))
    # the fraction's truncation error falls like exp(-sqrt(8 n s)); depth
    # 200 / s + 4 at the bin's lower edge s brings it below 2^-53 of the
    # value at every angle (worst on the positive real axis), measured in
    # extended precision at s = 2, 4, ..., 128
    lo = _SERIES_SEAM
    while lo < 2.0 * _ASYMPTOTIC_Z:
        sel = (s > lo) & (s <= 2.0 * lo)
        if sel.any():
            x = w[sel]
            t = np.zeros_like(x)
            for k in range(math.ceil(200.0 / lo) + 4, 0, -1):
                t = k * k / (x + (2 * k + 1) - t)
            out[sel] = 1.0 / (x + 1.0 - t)
        lo *= 2.0
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
    # one call for both halves: its cost is mostly per-bin numpy overhead
    halves = _exp_e1(np.concatenate([near, -near[off_axis]]))
    plus = halves[:near.size]
    minus = np.conj(plus)
    minus[off_axis] = halves[near.size:]
    out[~far] = 0.5 * (plus + minus)
    return out


@lru_cache(maxsize=8)
def _green_kernel_cached(n_points: int, spacing: float, nu: float, h: float) -> np.ndarray:
    params = ModelParams(nu, h)
    c = params.cos_theta_h
    lags = np.arange(n_points + 1) * spacing
    if abs(nu * c - 4.0) < _DOUBLE_ROOT_BAND or nu * c < _SMALL_NU_C:
        half = np.array([green_quadrature(x, params) for x in lags])
    else:
        # 4 t^4 + (nu^2 c^2 - 8) t^2 + 4 = 4 (t^2 - r1)(t^2 - r2) with
        # r1 + r2 = 2 (1 - q) and r1 r2 = 1
        q = (nu * c) ** 2 / 8.0
        p = lags[1:] * c
        half = np.empty(n_points + 1)
        half[0] = green_quadrature(0.0, params)
        if q < 2.0:
            # r1, r2 = 1 - q +- i delta on the unit circle; I(r2) = conj I(r1)
            delta = math.sqrt(q * (2.0 - q))
            pole = _pole_integral(p * np.sqrt(complex(1.0 - q, delta)))
            half[1:] = 2.0 * nu / np.pi * pole.imag / (4.0 * delta)
        else:
            # r2 = 1 - q - d <= -1 and r1 = 1 / r2, so neither root is formed
            # by cancellation; z = p sqrt(r) is imaginary and I is real
            d = math.sqrt(q * (q - 2.0))
            r2 = 1.0 - q - d
            pole = _pole_integral(1j * p[:, None] * np.sqrt([-1.0 / r2, -r2])).real
            half[1:] = 2.0 * nu / np.pi * (pole[:, 0] - pole[:, 1]) / (8.0 * d)
    kernel = np.concatenate([half[:0:-1], half])
    kernel.setflags(write=False)
    return kernel


def green_samples(grid: Grid1D, params: ModelParams) -> np.ndarray:
    """G sampled at every lag of the grid, cached per (grid, params).

    Off x = 0, G is the closed form of its integral: with p = |x| cos(theta_h)
    and r1, r2 the roots in t^2 of the integrand's denominator,

        G(x) = (2 nu / pi) Re[(I(r1) - I(r2)) / (4 (r1 - r2))],

    I as in `_pole_integral`, one evaluation per lag and conjugate pair: for
    nu cos(theta_h) < 4 the roots are conjugate, I(r2) = conj I(r1), and
    G = (2 nu / pi) Im I(r1) / (4 Im r1); above 4 both roots are negative
    and I is the real part of e^{z} E1(z) at imaginary z.  numpy only.
    Its error against green_quadrature is below 1e-10 relative.
    green_quadrature gives G(0), where the closed form is singular, and the
    whole kernel where the closed form loses digits: when
    |nu cos(theta_h) - 4| < 1e-4, where the roots merge, and when
    nu cos(theta_h) < 1e-3.
    """
    return _green_kernel_cached(grid.n_points, grid.spacing, params.nu, params.h)


def apply_linearized_operator(u: FieldSamples, params: ModelParams) -> FieldSamples:
    """Apply L nodewise: 3-point second difference + spectral half-Laplacian
    + zeroth-order multiplication.  Endpoints reuse the one-sided curvature of
    their neighbor (fields of interest are flat there)."""
    grid = u.grid
    v = u.values
    s = grid.spacing
    c2 = params.cos_theta_h ** 2

    u_xx = np.empty_like(v)
    u_xx[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (s * s)
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
    it is not part of f_total but belongs to the total charge seen by the
    far field.  w2_integral is the trapezoid integral of w2, where
    f2 = (nu/2) c halfLap(w2); the far field sees -c times it as a charge.
    """

    f1: FieldSamples
    f2: FieldSamples
    f3: FieldSamples
    f_total: FieldSamples
    corner_charge: float
    w2_integral: float


def _check_wall_profile(p: Profile, what: str):
    c = p.grid.center_index
    if abs(p.values[c] - np.pi / 2) > 1e-6:
        raise ValueError(f"{what} requires a recentered profile (pi/2 at x = 0)")
    if np.any(np.diff(p.values) > 1e-9):
        raise ValueError(f"{what} requires a non-increasing (converged) profile")


def forcing_terms(p: Profile) -> ForcingTerms:
    """Evaluate the three forcing components of the folded wall equation.

    The profile is folded about pi/2 onto [theta_h, pi/2] and reflected
    evenly (for a symmetric wall the fold of the left half is the mirror of
    the right half, so the even extension built from the right half is
    exact); half-Laplacians act spectrally on that even extension.

    Raises:
        ValueError: profile not recentered or not monotone.
    """
    _check_wall_profile(p, "forcing_terms")
    grid, params = p.grid, p.params
    c = params.cos_theta_h
    th = params.theta_h
    cidx = grid.center_index

    rho_half = np.where(p.values[cidx:] <= np.pi / 2,
                        p.values[cidx:], np.pi - p.values[cidx:])
    rho = np.concatenate([rho_half[:0:-1], rho_half])

    dev = rho - th
    sin_rho = np.sin(rho)
    cos_rho = np.cos(rho)

    f1 = (c * (c - cos_rho) * dev
          + cos_rho * (c * dev - sin_rho + params.h))
    w2 = c * dev - sin_rho + params.h
    f2 = 0.5 * params.nu * c * half_laplacian_spectral_values(w2, grid)
    w3 = sin_rho - params.h
    f3 = (0.5 * params.nu * (c - cos_rho)
          * half_laplacian_spectral_values(w3, grid))
    f_total = f1 + f2 + f3

    s = grid.spacing
    slope0 = (p.values[cidx + 1] - p.values[cidx - 1]) / (2.0 * s)
    corner_charge = 2.0 * abs(slope0)

    return ForcingTerms(
        f1=FieldSamples(grid, f1),
        f2=FieldSamples(grid, f2),
        f3=FieldSamples(grid, f3),
        f_total=FieldSamples(grid, f_total),
        corner_charge=float(corner_charge),
        w2_integral=float(np.sum(grid_constants(grid).trapezoid * w2)),
    )


@dataclass(frozen=True)
class DecayReport:
    """Two independent estimates of the x^{-2} tail amplitude plus fit data.

    amplitude_multipole: green_decay_coeff times the total charge: the
        integral of the forcing, the fold-corner point charge and the
        stray-tail charge.
    amplitude_tailfit: median of x^2 (rho(x) - theta_h) over the fit window
        [half_length/8, half_length/4] (median for robustness against the
        slow o(x^{-2}) drift).
    exponent_fit: log-log least-squares slope over the same window.
    green_coeff: nu / (2 pi cos^2 theta_h).
    forcing_integral: trapezoid of f_total alone, without the corner charge.
    corner_charge: 2|theta'(0)|, the fold corner's point charge.
    stray_tail_charge: -cos(theta_h) times the integral of w2, the charge of
        the direct x^{-2} tail of f2.
    """

    amplitude_multipole: float
    amplitude_tailfit: float
    exponent_fit: float
    green_coeff: float
    forcing_integral: float
    corner_charge: float
    stray_tail_charge: float


def decay_amplitude(p: Profile) -> DecayReport:
    """Estimate the far-field amplitude of a converged, recentered wall.

    Raises:
        ValueError: bad profile, window outside the domain, or non-positive
            tail values in the fit window.
    """
    terms = forcing_terms(p)
    grid, params = p.grid, p.params
    forcing_integral = float(np.sum(grid_constants(grid).trapezoid * terms.f_total.values))
    coeff = green_decay_coeff(params)
    stray_tail_charge = -params.cos_theta_h * terms.w2_integral
    amplitude_multipole = coeff * (forcing_integral + terms.corner_charge
                                   + stray_tail_charge)

    x_lo, x_hi = grid.half_length / 8.0, grid.half_length / 4.0
    x = grid.points
    window = (x >= x_lo) & (x <= x_hi)
    if not np.any(window):
        raise ValueError("tail-fit window contains no grid samples")
    dev = p.values[window] - params.theta_h
    if np.any(dev <= 0.0):
        raise ValueError("non-positive tail values in the fit window")
    xs = x[window]
    amplitude_tailfit = float(np.median(xs * xs * dev))
    slope, _ = np.polyfit(np.log(xs), np.log(dev), 1)

    return DecayReport(
        amplitude_multipole=float(amplitude_multipole),
        amplitude_tailfit=amplitude_tailfit,
        exponent_fit=float(slope),
        green_coeff=coeff,
        forcing_integral=forcing_integral,
        corner_charge=terms.corner_charge,
        stray_tail_charge=stray_tail_charge,
    )


def convolve_green(f: FieldSamples, params: ModelParams) -> FieldSamples:
    """Discrete convolution with the sampled fundamental solution.

    Trapezoid weights on the input; the kernel is green_samples, G at every
    lag (cached).  Reconstructs L^{-1} f on the grid.
    """
    grid = f.grid
    weighted = f.values * grid_constants(grid).trapezoid
    return FieldSamples(grid, _lag_convolve(weighted, green_samples(grid, params)))
