"""Uniform symmetric grids, model parameters, and wall profiles.

Everything lives on a truncated symmetric interval [-half_length, half_length]
sampled at n_points + 1 equally spaced positions (both endpoints included,
x = 0 is always a sample).  A profile stores the in-plane magnetization angle
theta at every sample position; admissible profiles are pinned to the two
monodomain angles pi - theta_h (left) and theta_h (right) at the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class Grid1D:
    """Uniform symmetric discretization of [-half_length, half_length].

    Attributes:
        half_length: nominal half extent of the domain (> 0)
        n_points: number of grid cells; even, so that x = 0 is a sample
        spacing: cell width, 2 * half_length / n_points
        points: the n_points + 1 sample positions; points[n_points // 2] == 0.0
            exactly and points[i] == -points[n_points - i] exactly
    """

    half_length: float
    n_points: int
    spacing: float
    points: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.n_points + 1

    @property
    def center_index(self) -> int:
        return self.n_points // 2

    def __eq__(self, other) -> bool:
        if not isinstance(other, Grid1D):
            return NotImplemented
        return (self.half_length == other.half_length
                and self.n_points == other.n_points)

    def __hash__(self) -> int:
        return hash((self.half_length, self.n_points))


@lru_cache(maxsize=8)
def make_grid(half_length: float, n_points: int) -> Grid1D:
    """Build a symmetric uniform grid; one shared Grid1D per argument pair.

    Positions are computed as spacing * (i - n_points // 2) so that the center
    sample is exactly 0.0 and the grid is exactly mirror symmetric in floating
    point, which the symmetrization and recentering operators rely on.

    Raises:
        ValueError: non-positive half_length, odd n_points, or n_points < 4.
    """
    if not np.isfinite(half_length) or half_length <= 0:
        raise ValueError(f"half_length must be positive, got {half_length}")
    if n_points % 2 != 0:
        raise ValueError(f"n_points must be even, got {n_points}")
    if n_points < 4:
        raise ValueError(f"n_points must be >= 4, got {n_points}")
    spacing = 2.0 * half_length / n_points
    points = spacing * (np.arange(n_points + 1) - n_points // 2)
    points.setflags(write=False)
    return Grid1D(float(half_length), int(n_points), float(spacing), points)


@dataclass(frozen=True)
class ModelParams:
    """Physical inputs (nu, h) plus the derived constants.

    nu is the thin film parameter weighting the nonlocal stray-field term;
    h in [0, 1) is the transverse applied field.  theta_h = arcsin(h) is the
    plateau angle of the two monodomain states.
    """

    nu: float
    h: float
    theta_h: float = field(init=False)

    def __post_init__(self):
        if not np.isfinite(self.nu) or self.nu <= 0:
            raise ValueError(f"nu must be positive, got {self.nu}")
        if not (0.0 <= self.h < 1.0):
            raise ValueError(f"h must lie in [0, 1), got {self.h}")
        object.__setattr__(self, "theta_h", float(np.arcsin(self.h)))

    @property
    def cos_theta_h(self) -> float:
        return float(np.cos(self.theta_h))

    @property
    def left_plateau(self) -> float:
        """Boundary angle at x -> -inf."""
        return float(np.pi - self.theta_h)

    @property
    def right_plateau(self) -> float:
        """Boundary angle at x -> +inf."""
        return self.theta_h


@dataclass(frozen=True)
class Profile:
    """Sampled angle theta(x) on a grid, together with its field parameter.

    values has grid.n_points + 1 entries (endpoints included).  Admissible
    profiles satisfy values[0] == pi - theta_h and values[-1] == theta_h;
    after clamping all values lie in [theta_h, pi - theta_h].
    """

    grid: Grid1D
    values: np.ndarray
    params: ModelParams

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_samples,):
            raise ValueError(
                f"values must have length {self.grid.n_samples}, got {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("profile values must be finite")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def with_values(self, values: np.ndarray) -> "Profile":
        return Profile(self.grid, values, self.params)

    def is_pinned(self, tol: float = 0.0) -> bool:
        return (abs(self.values[0] - self.params.left_plateau) <= tol
                and abs(self.values[-1] - self.params.right_plateau) <= tol)


def reference_profile(grid: Grid1D, params: ModelParams) -> Profile:
    """Smooth monotone transition profile defining the admissible class.

    Equals pi - theta_h for x <= -1 and theta_h for x >= 1, with a smooth
    non-increasing transition built from the normalized antiderivative of the
    bump weight exp(-1/(1 - t^2)): a cumulative sum of 16-point Gauss-Legendre
    integrals of the bump between consecutive sample positions, which matches
    adaptive quadrature to about 1e-16.  The value at x = 0 is exactly pi/2
    and reference(x) + reference(-x) = pi to machine precision.

    Raises:
        ValueError: half_length < 2, so the transition region does not fit.
    """
    if grid.half_length < 2.0:
        raise ValueError(
            f"half_length must be >= 2 to contain the transition region, "
            f"got {grid.half_length}"
        )
    x = grid.points
    # sigma is odd, -1 below x = -1, +1 above x = 1; computed from |x| so the
    # grid symmetry carries over exactly.
    ax = np.abs(x)
    inner = np.flatnonzero(ax < 1.0)
    sigma_abs = np.ones_like(x)
    if inner.size:
        # panels at most 1/16 wide keep coarse grids accurate; positive
        # weights of a positive integrand keep the cumulative sum monotone
        order = inner[np.argsort(ax[inner])]
        ends = np.concatenate([[0.0], ax[order], [1.0]])
        panels = int(np.ceil(16.0 * np.max(np.diff(ends))))
        nodes, weights = np.polynomial.legendre.leggauss(16)
        half = 0.5 * np.diff(ends)[:, None, None] / panels
        start = ends[:-1, None, None] + 2.0 * half * np.arange(panels)[:, None]
        t = start + half * (1.0 + nodes)
        pieces = (half * weights * np.exp(-1.0 / (1.0 - t * t))).sum(axis=(1, 2))
        antideriv = np.cumsum(pieces)
        sigma_abs[order] = antideriv[:-1] / antideriv[-1]
    sigma = np.sign(x) * sigma_abs

    amplitude = np.pi / 2 - params.theta_h
    values = np.pi / 2 - amplitude * sigma
    # exact plateaus and pinned endpoints
    values[x >= 1.0] = params.right_plateau
    values[x <= -1.0] = params.left_plateau
    return Profile(grid, values, params)


def interpolate(profile: Profile, x) -> float | np.ndarray:
    """Piecewise-linear interpolation of profile values; exact at samples.

    Raises:
        ValueError: any query point outside [-half_length, half_length].
    """
    xq = np.asarray(x, dtype=float)
    limit = profile.grid.half_length * (1.0 + 1e-14)
    if np.any(np.abs(xq) > limit):
        raise ValueError(
            f"interpolation points must lie in |x| <= {profile.grid.half_length}"
        )
    result = np.interp(xq, profile.grid.points, profile.values)
    if np.isscalar(x) or xq.ndim == 0:
        return float(result)
    return result
