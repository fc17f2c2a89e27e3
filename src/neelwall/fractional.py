"""Discrete half-Laplacian and homogeneous H^{1/2} seminorm.

Two independent realizations of the operator with Fourier symbol |k| are kept
side by side so they can cross-validate each other:

* a spectral method: detrend so the endpoint values match, extend
  periodically, multiply the transform by |k|;
* a principal-value quadrature of the singular-integral representation,
  with a Taylor-corrected window around the singularity and constant
  extension of the field beyond the truncated domain.

The seminorm is the symmetrized double integral of the squared difference
quotient; its diagonal cells take the pointwise limit, the squared forward
difference quotient.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import Grid1D

# Principal-value window radius in units of the grid spacing.  Wide enough
# that the second-difference Taylor correction is stable, narrow enough to
# keep the quadrature error local.
PV_WINDOW_CELLS = 4


@dataclass(frozen=True)
class FieldSamples:
    """Samples of a scalar field on the grid's n_points + 1 positions."""

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_samples,):
            raise ValueError(
                f"values must have length {self.grid.n_samples}, got {v.shape}"
            )
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


class GridConstants:
    """Read-only per-grid arrays shared by every caller on the grid.

    wavenumbers: |k| of the rfft modes, k_m = pi m / half_length.
    weighted_wavenumbers: |k| times the mode's rfft multiplicity (1 for the
        mean and Nyquist modes, else 2), to sum over the full spectrum.
    ramp: i / n_points at the first n_points samples, for detrending.
    trapezoid: trapezoid-rule weights of the samples.
    """

    __slots__ = ("wavenumbers", "weighted_wavenumbers", "ramp", "trapezoid")

    def __init__(self, n_points: int, spacing: float):
        k = 2.0 * np.pi * np.fft.rfftfreq(n_points, d=spacing)
        mult = np.full(k.size, 2.0)
        mult[0] = 1.0
        mult[-1] = 1.0
        w = np.full(n_points + 1, spacing)
        w[0] *= 0.5
        w[-1] *= 0.5
        self.wavenumbers = k
        self.weighted_wavenumbers = mult * k
        self.ramp = np.arange(n_points) / n_points
        self.trapezoid = w
        for name in self.__slots__:
            getattr(self, name).setflags(write=False)


_grid_constants = lru_cache(maxsize=8)(GridConstants)


def grid_constants(grid: Grid1D) -> GridConstants:
    """The grid's spectral and quadrature constants, cached per grid."""
    return _grid_constants(grid.n_points, grid.spacing)


def detrended(values: np.ndarray, grid: Grid1D, out=None) -> np.ndarray:
    """The first n_points samples less the line through the endpoint values,
    one period of a continuous periodic extension; written to `out` if given."""
    ramp = grid_constants(grid).ramp
    out = np.multiply(values[-1] - values[0], ramp, out=out)
    out += values[0]
    return np.subtract(values[:-1], out, out=out)


def half_laplacian_spectral_values(values: np.ndarray, grid: Grid1D, out=None,
                                   real=None, spectrum=None) -> np.ndarray:
    """Array-level spectral half-Laplacian (see half_laplacian_spectral).

    out (n_points + 1 samples), real (n_points) and spectrum (n_points/2 + 1,
    complex) are optional work arrays: the result, the detrended samples and
    their transform.  Omitted ones are allocated.
    """
    if values.shape != (grid.n_samples,):
        raise ValueError("field length does not match grid")
    if out is None:
        out = np.empty(grid.n_samples)
    spectrum = np.fft.rfft(detrended(values, grid, real), out=spectrum)
    spectrum *= grid_constants(grid).wavenumbers
    np.fft.irfft(spectrum, n=grid.n_points, out=out[:-1])
    out[-1] = out[0]
    return out


def half_laplacian_spectral(u: FieldSamples) -> FieldSamples:
    """Half-Laplacian via the Fourier multiplier |k|.

    The field is detrended (the line through its endpoint values is
    subtracted) so its periodic extension is continuous, the multiplier is
    applied, and nothing is added back: the half-Laplacian of the affine trend
    on the truncated window is absorbed into truncation error.  Constants map
    to exactly zero.
    """
    return FieldSamples(u.grid, half_laplacian_spectral_values(u.values, u.grid))


def half_laplacian_pv(u: FieldSamples, i: int) -> float:
    """Principal-value quadrature of the half-Laplacian at interior node i.

    (1/pi) PV int (u(x_i) - u(y)) / (x_i - y)^2 dy, approximated as

    * a symmetric window [x_i - delta, x_i + delta], delta = 4 spacing, where
      the linear Taylor term cancels exactly and the quadratic one integrates
      to -(delta/pi) u''(x_i);
    * trapezoid quadrature over the remaining in-domain nodes;
    * closed-form tails with u extended by its endpoint values outside the
      domain.

    Raises:
        ValueError: boundary node or non-finite samples.
    """
    grid = u.grid
    v = u.values
    n = grid.n_points
    if not (0 < i < n):
        raise ValueError(f"node index must be interior (0 < i < {n}), got {i}")
    if not np.all(np.isfinite(v)):
        raise ValueError("field samples must be finite")

    s = grid.spacing
    p = grid.points
    delta = PV_WINDOW_CELLS * s
    xi = p[i]

    u_xx = (v[i + 1] - 2.0 * v[i] + v[i - 1]) / (s * s)
    total = -delta * u_xx / np.pi

    lo = i - PV_WINDOW_CELLS
    hi = i + PV_WINDOW_CELLS
    if lo >= 1:
        seg = slice(0, lo + 1)
        q = (v[i] - v[seg]) / (xi - p[seg]) ** 2
        total += np.trapezoid(q, dx=s) / np.pi
    if hi <= n - 1:
        seg = slice(hi, n + 1)
        q = (v[i] - v[seg]) / (xi - p[seg]) ** 2
        total += np.trapezoid(q, dx=s) / np.pi

    left_edge = min(p[0], xi - delta)
    right_edge = max(p[-1], xi + delta)
    total += (v[i] - v[0]) / (xi - left_edge) / np.pi
    total += (v[i] - v[-1]) / (right_edge - xi) / np.pi
    return float(total)


def _lag_convolve(a: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """(kernel * a)_j = sum_k kernel[j - k + n] a[k], via FFT."""
    m = a.size
    full = m + kernel.size - 1
    nfft = 1 << (full - 1).bit_length()
    out = np.fft.irfft(np.fft.rfft(a, nfft) * np.fft.rfft(kernel, nfft), nfft)
    return out[m - 1:2 * m - 1]


def h_half_seminorm_sq(u: FieldSamples) -> float:
    """Squared homogeneous H^{1/2} seminorm over the truncated domain.

    (1/2 pi) double-trapezoid of (u(x) - u(y))^2 / (x - y)^2; diagonal cells
    use the limit value (u')^2, realized as the squared forward difference
    quotient (backward at the last sample).  The off-diagonal double sum is
    Toeplitz in the node indices, so it is assembled from lag convolutions in
    O(n log n): sum_{j != k} w_j w_k (v_j - v_k)^2 K_{j-k}
    = 2 sum_j w_j v_j^2 (K*w)_j - 2 sum_j w_j v_j (K*(w v))_j.
    """
    grid = u.grid
    v = u.values - np.mean(u.values)  # shift invariance; keeps sums small
    s = grid.spacing
    w = grid_constants(grid).trapezoid

    n = grid.n_points
    lags = np.arange(-n, n + 1, dtype=float)
    with np.errstate(divide="ignore"):
        kernel = 1.0 / (s * lags) ** 2
    kernel[n] = 0.0

    kw = _lag_convolve(w, kernel)
    kwv = _lag_convolve(w * v, kernel)
    off_diag = 2.0 * float(np.sum(w * v * v * kw) - np.sum(w * v * kwv))

    fwd = np.empty_like(v)
    fwd[:-1] = (v[1:] - v[:-1]) / s
    fwd[-1] = fwd[-2] if v.size > 1 else 0.0
    diagonal = float(np.sum(w * w * fwd * fwd))

    return (off_diag + diagonal) / (2.0 * np.pi)
