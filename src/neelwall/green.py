"""Linearized wall operator, its fundamental solution, and tail analysis.

Linearizing the equilibrium equation around the plateau angle theta_h gives

    L = -d^2/dx^2 + (nu/2) cos^2(theta_h) (-d^2/dx^2)^{1/2} + cos^2(theta_h),

whose Fourier symbol is 1/green_hat(k).  The fundamental solution G of L has
the closed-form integral representation evaluated by `green_quadrature`; it
is positive, even, Lipschitz at the origin, and decays like
green_decay_coeff / x^2.

Writing the folded wall deviation rho - theta_h as L^{-1} of the nonlinear
forcing f = f1 + f2 + f3 turns the x^{-2} tail amplitude into a charge times
green_decay_coeff.  The fold has a corner at x = 0 (the slopes of rho jump
from +|theta'(0)| to -|theta'(0)|), so L(rho - theta_h) carries a point
charge 2|theta'(0)| at the origin on top of the smooth forcing; the charge
entering the amplitude is the integral of f plus that corner term.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

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


def green_quadrature(x: float, params: ModelParams) -> float:
    """Fundamental solution by adaptive quadrature of its integral form.

    G(x) = (2 nu / pi) * int_0^inf t e^{-t |x| cos(theta_h)}
           / (nu^2 t^2 cos^2(theta_h) + 4 (t^2 - 1)^2) dt

    The integrand peaks at t = 1 where the (t^2-1)^2 term vanishes, so the
    range is split there; the infinite tail is handled by quad's own
    transformation.  Relative accuracy target 1e-8.

    Raises:
        RuntimeError: quadrature failed to converge to the target accuracy.
    """
    nu = params.nu
    c = params.cos_theta_h
    ax = abs(float(x))

    def integrand(t):
        return (t * np.exp(-t * ax * c)
                / (nu * nu * t * t * c * c + 4.0 * (t * t - 1.0) ** 2))

    # the denominator's minimum at t = 1 has half-width ~ nu c / 4; cluster
    # breakpoints there so narrow peaks (small nu) are resolved
    width = min(max(0.25 * nu * c, 1e-13), 0.5)
    offsets = width * np.array([1.0, 10.0, 100.0, 1000.0])
    left = sorted({p for p in 1.0 - offsets if 0.0 < p < 1.0})
    right = sorted({p for p in 1.0 + offsets if 1.0 < p < 2.0})

    head, err1 = quad(integrand, 0.0, 1.0, points=left or None,
                      epsabs=0.0, epsrel=1e-10, limit=400)
    mid, err2 = quad(integrand, 1.0, 2.0, points=right or None,
                     epsabs=0.0, epsrel=1e-10, limit=400)
    tail, err3 = quad(integrand, 2.0, np.inf,
                      epsabs=1e-300, epsrel=1e-10, limit=400)
    value = 2.0 * nu / np.pi * (head + mid + tail)
    err = 2.0 * nu / np.pi * (err1 + err2 + err3)
    if not np.isfinite(value) or err > 1e-8 * max(abs(value), 1e-300):
        raise RuntimeError(
            f"fundamental-solution quadrature did not converge at x={x}: "
            f"value={value}, error estimate={err}"
        )
    return float(value)


@lru_cache(maxsize=8)
def _green_kernel_cached(n_points: int, spacing: float, nu: float, h: float) -> np.ndarray:
    params = ModelParams(nu, h)
    lags = np.arange(-n_points, n_points + 1) * spacing
    half = np.array([green_quadrature(x, params) for x in lags[n_points:]])
    kernel = np.concatenate([half[:0:-1], half])
    kernel.setflags(write=False)
    return kernel


def green_samples(grid: Grid1D, params: ModelParams) -> np.ndarray:
    """G sampled at every lag of the grid, cached per (grid, params)."""
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
    far field.
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
    )


@dataclass(frozen=True)
class DecayReport:
    """Two independent estimates of the x^{-2} tail amplitude plus fit data.

    amplitude_multipole: green_decay_coeff times the total charge (integral
        of the forcing plus the fold-corner point charge).
    amplitude_tailfit: median of x^2 (rho(x) - theta_h) over the fit window
        [half_length/8, half_length/4] (median for robustness against the
        slow o(x^{-2}) drift).
    exponent_fit: log-log least-squares slope over the same window.
    green_coeff: nu / (2 pi cos^2 theta_h).
    forcing_integral: trapezoid of f_total alone, without the corner charge.
    """

    amplitude_multipole: float
    amplitude_tailfit: float
    exponent_fit: float
    green_coeff: float
    forcing_integral: float
    corner_charge: float


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
    amplitude_multipole = coeff * (forcing_integral + terms.corner_charge)

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
    )


def convolve_green(f: FieldSamples, params: ModelParams) -> FieldSamples:
    """Discrete convolution with the sampled fundamental solution.

    Trapezoid weights on the input; the kernel is green_quadrature sampled at
    every lag (cached).  Reconstructs L^{-1} f on the grid.
    """
    grid = f.grid
    weighted = f.values * grid_constants(grid).trapezoid
    return FieldSamples(grid, _lag_convolve(weighted, green_samples(grid, params)))
