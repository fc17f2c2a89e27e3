"""Verification reports and (nu, h) sweep harness."""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from typing import List, Optional, Sequence

import numpy as np

from .energy import EnergyBreakdown
from .green import DecayReport, decay_amplitude
from .grid import ModelParams, Profile, make_grid, reference_profile
from .minimize import SolveOptions, SolveResult, find_crossing, minimize

DEFAULT_HALF_LENGTH = 40.0
DEFAULT_N_POINTS = 4096
SYMMETRY_TOL_FACTOR = 10.0  # symmetry defect allowed, in units of tol


@dataclass(frozen=True)
class VerificationReport:
    """Checklist certifying a solve against the wall-profile theory.

    Flags are consistent with their stored margins: monotone_strict is true
    iff monotone_margin > 0, range_ok iff every interior value lies strictly
    between the plateau angles, symmetry_ok iff symmetry_defect <= 10 tol and
    residual_ok iff residual_sup <= tol, for the tol given to verify.
    """

    monotone_strict: bool
    monotone_margin: float
    violation_index: Optional[int]
    symmetry_defect: float
    range_ok: bool
    residual_sup: float
    decay: Optional[DecayReport]
    energy: EnergyBreakdown
    symmetry_ok: bool
    residual_ok: bool


def verify(result: SolveResult, tol: float = SolveOptions.tol) -> VerificationReport:
    """Run every profile check on a converged solve and aggregate margins.

    Raises:
        ValueError: result not converged.
    """
    if not result.converged:
        raise ValueError("verify requires a converged solve")
    p = result.profile
    v = p.values
    params = p.params

    diffs = np.diff(v)
    monotone_margin = float(-np.max(diffs))
    monotone_strict = bool(np.all(diffs < 0.0))
    violation_index = None if monotone_strict else int(np.argmax(diffs >= 0.0))

    symmetry_defect = float(np.max(np.abs(v + v[::-1] - np.pi)))

    interior = v[1:-1]
    range_ok = bool(
        np.all(interior > params.theta_h)
        and np.all(interior < np.pi - params.theta_h)
    )

    try:
        decay = decay_amplitude(p)
    except ValueError:
        decay = None  # profile fails the decay preconditions (negative control)

    return VerificationReport(
        monotone_strict=monotone_strict,
        monotone_margin=monotone_margin,
        violation_index=violation_index,
        symmetry_defect=symmetry_defect,
        range_ok=range_ok,
        residual_sup=result.residual_sup,
        decay=decay,
        energy=result.energy,
        symmetry_ok=symmetry_defect <= SYMMETRY_TOL_FACTOR * tol,
        residual_ok=result.residual_sup <= tol,
    )


def wall_width(p: Profile) -> float:
    """Distance between the two mid-amplitude crossings.

    The wall connects pi - theta_h to theta_h; the width is measured between
    the crossings of pi/2 +- (pi/2 - theta_h)/2.
    """
    half_amp = (np.pi / 2 - p.params.theta_h) / 2.0
    x_hi = find_crossing(p.grid.points, p.values, np.pi / 2 + half_amp)
    x_lo = find_crossing(p.grid.points, p.values, np.pi / 2 - half_amp)
    return float(x_lo - x_hi)


@dataclass(frozen=True)
class SweepRow:
    nu: float
    h: float
    energy_total: float
    wall_width: float
    amplitude_multipole: float
    amplitude_tailfit: float
    residual_sup: float
    converged: bool


@dataclass(frozen=True)
class SweepTable:
    """One row per requested (nu, h) cell, lexicographic in the inputs."""

    rows: List[SweepRow] = field(default_factory=list)

    COLUMNS = tuple(f.name for f in fields(SweepRow))

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)

    @property
    def all_converged(self) -> bool:
        return all(r.converged for r in self.rows)


def solve_cell(nu: float, h: float, opts: Optional[SolveOptions] = None,
               half_length: float = DEFAULT_HALF_LENGTH,
               n_points: int = DEFAULT_N_POINTS) -> SolveResult:
    """One independent wall solve from the reference initialization."""
    grid = make_grid(half_length, n_points)
    params = ModelParams(nu, h)
    result = minimize(reference_profile(grid, params), opts)
    if result.converged:
        result.decay = decay_amplitude(result.profile)
        result.tail_amplitude = result.decay.amplitude_tailfit
    return result


def _row_for(nu: float, h: float, opts: SolveOptions,
             half_length: float, n_points: int) -> SweepRow:
    try:
        result = solve_cell(nu, h, opts, half_length, n_points)
        if result.converged:
            report = result.decay
            return SweepRow(
                nu=nu, h=h,
                energy_total=result.energy.total,
                wall_width=wall_width(result.profile),
                amplitude_multipole=report.amplitude_multipole,
                amplitude_tailfit=report.amplitude_tailfit,
                residual_sup=result.residual_sup,
                converged=True,
            )
        return SweepRow(nu=nu, h=h, energy_total=result.energy.total,
                        wall_width=math.nan, amplitude_multipole=math.nan,
                        amplitude_tailfit=math.nan,
                        residual_sup=result.residual_sup, converged=False)
    except Exception:
        return SweepRow(nu=nu, h=h, energy_total=math.nan, wall_width=math.nan,
                        amplitude_multipole=math.nan, amplitude_tailfit=math.nan,
                        residual_sup=math.nan, converged=False)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def sweep(nu_values: Sequence[float], h_values: Sequence[float],
          opts: Optional[SolveOptions] = None,
          half_length: float = DEFAULT_HALF_LENGTH,
          n_points: int = DEFAULT_N_POINTS,
          parallel: bool = True) -> SweepTable:
    """Solve every (nu, h) cell independently.

    Cells run concurrently, on at most one thread per CPU this process may
    use, when `parallel` is set; the solves are pure, so serial and
    concurrent sweeps produce identical tables.  Per-cell failures
    are recorded in their row and never abort the sweep.
    """
    for nu in nu_values:
        if nu <= 0:
            raise ValueError(f"all nu values must be positive, got {nu}")
    for h in h_values:
        if not 0.0 <= h < 1.0:
            raise ValueError(f"all h values must lie in [0, 1), got {h}")

    cells = [(nu, h) for nu in sorted(nu_values) for h in sorted(h_values)]
    if not cells:
        return SweepTable(rows=[])
    if parallel and len(cells) > 1:
        with ThreadPoolExecutor(max_workers=min(len(cells), _usable_cpus())) as pool:
            rows = list(pool.map(
                lambda c: _row_for(c[0], c[1], opts, half_length, n_points),
                cells))
    else:
        rows = [_row_for(nu, h, opts, half_length, n_points) for nu, h in cells]
    return SweepTable(rows=rows)
