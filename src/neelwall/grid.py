"""Uniform symmetric grids, model parameters, and wall profiles.

Everything lives on a truncated symmetric interval [-half_length, half_length]
sampled at n_points + 1 equally spaced positions (both endpoints included,
x = 0 is always a sample).  A profile stores the in-plane magnetization angle
theta at every sample position; admissible profiles are pinned to the two
monodomain angles pi - theta_h (left) and theta_h (right) at the boundary.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np


@dataclass(frozen=True)
class Grid1D:
    """Uniform symmetric discretization of [-half_length, half_length], and
    the one home of its derived arrays.

    Equal and hashed by (half_length, n_points).  Positions are computed as
    spacing * (i - n_points // 2) so that the center sample is exactly 0.0
    and the grid is exactly mirror symmetric in floating point, which the
    symmetrization and recentering operators rely on.  Every array is
    read-only; all but points are built on first use (threads that race to
    a first use may each build one; the copies are equal).

    Attributes:
        half_length: nominal half extent of the domain (> 0)
        n_points: number of grid cells; even, so that x = 0 is a sample
        spacing: cell width, 2 * half_length / n_points
        points: the n_points + 1 sample positions; points[n_points // 2] == 0.0
            exactly and points[i] == -points[n_points - i] exactly

    Raises:
        ValueError: a bool, non-positive or infinite half_length, or an
            n_points that is odd, < 4, a bool or not an integer.
    """

    half_length: float
    n_points: int
    spacing: float = field(init=False, compare=False)
    points: np.ndarray = field(init=False, compare=False)

    def __post_init__(self):
        if (isinstance(self.half_length, bool) or not np.isfinite(self.half_length)
                or self.half_length <= 0):
            raise ValueError(f"half_length must be positive, got {self.half_length}")
        # 64.0 passes the parity and size tests but is no point count; a bool
        # is an Integral, and below 4
        if (not isinstance(self.n_points, numbers.Integral) or self.n_points % 2 != 0
                or self.n_points < 4):
            raise ValueError(f"n_points must be an even integer >= 4, got {self.n_points!r}")
        n = int(self.n_points)
        spacing = 2.0 * float(self.half_length) / n
        object.__setattr__(self, "half_length", float(self.half_length))
        object.__setattr__(self, "n_points", n)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "points", _read_only(spacing * (np.arange(n + 1) - n // 2)))

    @property
    def n_samples(self) -> int:
        return self.n_points + 1

    @property
    def center_index(self) -> int:
        return self.n_points // 2

    @cached_property
    def trapezoid(self) -> np.ndarray:
        """Trapezoid-rule weights of the samples."""
        w = np.full(self.n_samples, self.spacing)
        w[0] *= 0.5
        w[-1] *= 0.5
        return _read_only(w)

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """|k| of the rfft modes, k_m = pi m / half_length."""
        return _read_only(2.0 * np.pi * np.fft.rfftfreq(self.n_points, d=self.spacing))

    @cached_property
    def weighted_wavenumbers(self) -> np.ndarray:
        """|k| times the mode's rfft multiplicity (1 for the mean and Nyquist
        modes, else 2), to sum over the full spectrum."""
        mult = np.full(self.wavenumbers.size, 2.0)
        mult[0] = 1.0
        mult[-1] = 1.0
        return _read_only(mult * self.wavenumbers)

    @cached_property
    def ramp(self) -> np.ndarray:
        """i / n_points at the first n_points samples, for detrending."""
        return _read_only(np.arange(self.n_points) / self.n_points)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


_shared_grids = lru_cache(maxsize=8)(lambda grid: grid)


def make_grid(half_length: float, n_points: int) -> Grid1D:
    """Build a symmetric uniform grid; one shared Grid1D per equal grid.

    The grid is built, and so checked, on every call: the cache is keyed by
    the grid, because the arguments 64 and 64.0, or 1.0 and True, hash alike.
    """
    return _shared_grids(Grid1D(half_length, n_points))


@dataclass(frozen=True)
class ModelParams:
    """Physical inputs (nu, h) plus the derived constants.

    nu is the thin film parameter weighting the nonlocal stray-field term;
    h in [0, 1) is the transverse applied field.  theta_h = arcsin(h) is the
    plateau angle of the two monodomain states.  nu and h are stored as
    Python floats, whatever real type was passed; a bool is rejected.
    """

    nu: float
    h: float
    theta_h: float = field(init=False)

    def __post_init__(self):
        if isinstance(self.nu, bool) or not np.isfinite(self.nu) or self.nu <= 0:
            raise ValueError(f"nu must be positive, got {self.nu}")
        if isinstance(self.h, bool) or not (0.0 <= self.h < 1.0):
            raise ValueError(f"h must lie in [0, 1), got {self.h}")
        object.__setattr__(self, "nu", float(self.nu))
        object.__setattr__(self, "h", float(self.h))
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
        object.__setattr__(self, "values", _read_only(v.copy()))


@dataclass(frozen=True)
class Profile(FieldSamples):
    """Sampled angle theta(x) on a grid, together with its field parameter.

    values has grid.n_points + 1 entries (endpoints included).  Admissible
    profiles satisfy values[0] == pi - theta_h and values[-1] == theta_h;
    after clamping all values lie in [theta_h, pi - theta_h].
    """

    params: ModelParams

    def __post_init__(self):
        super().__post_init__()
        if not np.all(np.isfinite(self.values)):
            raise ValueError("profile values must be finite")

    def with_values(self, values: np.ndarray) -> "Profile":
        return Profile(self.grid, values, self.params)

    def is_pinned(self) -> bool:
        """Whether both end samples lie within 1e-9 of their plateau angles:
        the one pin rule of minimize and field_derivative."""
        return max(abs(self.values[0] - self.params.left_plateau),
                   abs(self.values[-1] - self.params.right_plateau)) <= 1e-9


def second_difference(values: np.ndarray, spacing: float, out=None) -> np.ndarray:
    """(v[i+1] - 2 v[i] + v[i-1]) / spacing^2 at the interior samples
    i = 1..n-1, written to `out` (n - 1 entries) if given."""
    out = np.multiply(2.0, values[1:-1], out=out)
    np.subtract(values[2:], out, out=out)
    out += values[:-2]
    out /= spacing * spacing
    return out


def fold(values: np.ndarray) -> np.ndarray:
    """Fold angles about pi/2: min(theta, pi - theta)."""
    return np.where(values <= np.pi / 2, values, np.pi - values)


def mirror_left_half(values: np.ndarray) -> np.ndarray:
    """Put `values` in the symmetric class theta(-x) = pi - theta(x), in place:
    the left half becomes pi - values(-x) and the center pi/2, so values(x) +
    values(-x) rounds to pi exactly at every sample."""
    c = values.size // 2
    np.subtract(np.pi, values[c + 1:][::-1], out=values[:c])
    values[c] = np.pi / 2
    return values


def symmetry_defect(values: np.ndarray) -> float:
    """Distance from the symmetric class: max |theta(x) + theta(-x) - pi|."""
    return float(np.max(np.abs(values + values[::-1] - np.pi)))


def level_crossings(points: np.ndarray, values: np.ndarray, level: float):
    """(j, x): the samples j where `values` crosses `level` strictly between
    j and j + 1, and each crossing's position x by linear interpolation.

    Samples exactly at the level are not crossings.  With d = values - level,
    x = points[j] + frac (points[j + 1] - points[j]) and
    frac = d[j] / (d[j] - d[j + 1]) in [0, 1], evaluated in that order.
    """
    d = values - level
    j = np.flatnonzero(d[:-1] * d[1:] < 0.0)
    return j, points[j] + d[j] / (d[j] - d[j + 1]) * (points[j + 1] - points[j])


def find_crossing(points: np.ndarray, values: np.ndarray, level: float) -> float:
    """Locate the unique transversal crossing of `level` by linear interpolation.

    The crossing is either one sample exactly at the level, with neighbours
    on opposite sides, or one strict crossing of `level_crossings`.

    Raises:
        ValueError: zero or multiple crossings, or a sample at the level that
            is not a transversal crossing (non-monotone or degenerate data).
    """
    d = values - level
    exact = np.flatnonzero(d == 0.0)
    strict, x = level_crossings(points, values, level)
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
        raise ValueError("expected exactly one transversal crossing, "
                         f"found {strict.size}")
    return float(x[0])


@lru_cache(maxsize=None)
def _gauss_legendre(n: int):
    """n-point Gauss-Legendre nodes and weights on [-1, 1], built on first use."""
    return np.polynomial.legendre.leggauss(n)


def composite_gauss_legendre(edges: np.ndarray, n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on each panel
    [edges[i], edges[i + 1]], one row per panel."""
    nodes, weights = _gauss_legendre(n)
    half = 0.5 * np.diff(edges)[:, None]
    return edges[:-1, None] + half * (1.0 + nodes), half * weights


def check_transition_fits(grid: Grid1D) -> Grid1D:
    """The grid; ValueError if half_length < 2 leaves no room for the
    wall's transition region [-1, 1] and its plateaus."""
    if grid.half_length < 2.0:
        raise ValueError(
            f"half_length must be >= 2 to contain the transition region, "
            f"got {grid.half_length}"
        )
    return grid


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
    x = check_transition_fits(grid).points
    # sigma is odd, -1 below x = -1, +1 above x = 1: integrated on 0 <= x < 1
    # in panels at most 1/16 wide (accurate on coarse grids; positive weights
    # keep the cumulative sum monotone) and copied to the mirror samples.
    c = grid.center_index
    inner = np.flatnonzero(x[c:] < 1.0)
    ends = np.concatenate([[0.0], x[c + inner], [1.0]])
    panels = int(np.ceil(16.0 * np.max(np.diff(ends))))
    edges = ends[:-1, None] + np.diff(ends)[:, None] * (np.arange(panels) / panels)
    t, w = composite_gauss_legendre(np.append(edges.ravel(), 1.0), 16)
    pieces = (w * np.exp(-1.0 / (1.0 - t * t))).reshape(-1, 16 * panels).sum(axis=1)
    antideriv = np.cumsum(pieces)
    right = antideriv[:-1] / antideriv[-1]
    sigma = np.sign(x)
    sigma[c - inner] = -right
    sigma[c + inner] = right

    amplitude = np.pi / 2 - params.theta_h
    values = np.pi / 2 - amplitude * sigma
    # exact plateaus and pinned endpoints
    values[x >= 1.0] = params.right_plateau
    values[x <= -1.0] = params.left_plateau
    return Profile(grid, values, params)


def local_wall(grid: Grid1D, params: ModelParams) -> Profile:
    """The nu = 0 wall, the minimizer of exchange + anisotropy alone:
    tan(phi/2) = tan(eps/2) tanh(x sin(eps) / 2), phi = pi/2 - theta,
    eps = pi/2 - theta_h.

    Evaluated on the right half and mirrored by `mirror_left_half`, so its
    symmetry defect is exactly 0; both ends are pinned to the plateaus.
    """
    c = grid.center_index
    eps = np.pi / 2 - params.theta_h
    values = np.empty(grid.n_samples)
    slope = np.tan(eps / 2) * np.tanh(grid.points[c:] * (np.sin(eps) / 2))
    values[c:] = np.pi / 2 - 2.0 * np.arctan(slope)
    values[-1] = params.right_plateau
    return Profile(grid, mirror_left_half(values), params)


def interpolate(profile: Profile, x) -> float | np.ndarray:
    """Piecewise-linear interpolation of profile values; exact at samples.

    Raises:
        ValueError: a query point outside [-half_length, half_length], or NaN.
    """
    xq = np.asarray(x, dtype=float)
    limit = profile.grid.half_length * (1.0 + 1e-14)
    if not np.all(np.abs(xq) <= limit):   # NaN fails it too
        raise ValueError(
            f"interpolation points must lie in |x| <= {profile.grid.half_length}"
        )
    result = np.interp(xq, profile.grid.points, profile.values)
    if np.isscalar(x) or xq.ndim == 0:
        return float(result)
    return result
