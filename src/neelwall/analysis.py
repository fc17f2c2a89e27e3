"""Verification reports and (nu, h) sweep harness."""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .green import DecayReport, decay_amplitude
from .grid import (ModelParams, Profile, check_transition_fits, find_crossing, local_wall,
                   make_grid, symmetry_defect)
from .minimize import SolveOptions, SolveResult, minimize

DEFAULT_HALF_LENGTH = 40.0
DEFAULT_N_POINTS = 4096
SYMMETRY_TOL_FACTOR = 10.0  # symmetry defect allowed, in units of tol


@dataclass(frozen=True)
class VerificationReport:
    """Checklist certifying a solve against the wall-profile theory.

    Flags are consistent with their stored margins: monotone_strict is true
    iff monotone_margin > 0, range_ok iff every interior value lies strictly
    between the plateau angles, symmetry_ok iff symmetry_defect <=
    SYMMETRY_TOL_FACTOR * tol and residual_ok iff the solve's residual_sup
    <= tol, for the tol given to verify.
    """

    monotone_strict: bool
    monotone_margin: float
    violation_index: Optional[int]
    symmetry_defect: float
    range_ok: bool
    decay: Optional[DecayReport]
    symmetry_ok: bool
    residual_ok: bool


def verify(result: SolveResult, tol: float = SolveOptions.tol) -> VerificationReport:
    """Run every profile check on a converged solve and aggregate margins.

    decay is the profile's tail report from decay_amplitude, or None when
    the wall fails its preconditions (decay_amplitude raises ValueError).
    verify is the one producer of a wall's tail report: sweep rows take
    theirs from it too.

    Raises:
        ValueError: a tol that SolveOptions rejects, or result not converged.
    """
    SolveOptions(tol=tol)   # one rule for every tolerance
    if not result.converged:
        raise ValueError("verify requires a converged solve")
    p = result.profile
    v = p.values
    params = p.params

    diffs = np.diff(v)
    monotone_margin = float(-np.max(diffs))
    monotone_strict = bool(np.all(diffs < 0.0))
    violation_index = None if monotone_strict else int(np.argmax(diffs >= 0.0))

    defect = symmetry_defect(v)

    interior = v[1:-1]
    range_ok = bool(
        np.all(interior > params.theta_h)
        and np.all(interior < np.pi - params.theta_h)
    )

    try:
        decay = decay_amplitude(p)
    except ValueError:
        decay = None

    return VerificationReport(
        monotone_strict=monotone_strict,
        monotone_margin=monotone_margin,
        violation_index=violation_index,
        symmetry_defect=defect,
        range_ok=range_ok,
        decay=decay,
        symmetry_ok=defect <= SYMMETRY_TOL_FACTOR * tol,
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
    """One (nu, h) cell of a sweep; NaN width and amplitudes when the cell
    did not converge or its wall fails the decay preconditions."""

    nu: float
    h: float
    energy_total: float
    wall_width: float
    amplitude_multipole: float
    amplitude_tailfit: float
    residual_sup: float
    converged: bool


def solve_cell(nu: float, h: float, opts: Optional[SolveOptions] = None,
               half_length: float = DEFAULT_HALF_LENGTH,
               n_points: int = DEFAULT_N_POINTS) -> SolveResult:
    """One independent wall solve started at the nu = 0 wall
    (`grid.local_wall`): the SolveResult of minimize, with no tail analysis
    (verify does that)."""
    return minimize(local_wall(make_grid(half_length, n_points), ModelParams(nu, h)), opts)


def _row_for(nu: float, h: float, opts: SolveOptions,
             half_length: float, n_points: int) -> SweepRow:
    result = solve_cell(nu, h, opts, half_length, n_points)
    params = result.profile.params
    d = verify(result).decay if result.converged else None
    return SweepRow(nu=params.nu, h=params.h, energy_total=result.energy.total,
                    wall_width=wall_width(result.profile) if d else math.nan,
                    amplitude_multipole=d.amplitude_multipole if d else math.nan,
                    amplitude_tailfit=d.amplitude_tailfit if d else math.nan,
                    residual_sup=result.residual_sup, converged=result.converged)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):   # not on every platform
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def sweep(nu_values: Sequence[float], h_values: Sequence[float],
          opts: Optional[SolveOptions] = None,
          half_length: float = DEFAULT_HALF_LENGTH,
          n_points: int = DEFAULT_N_POINTS,
          parallel: bool = True) -> List[SweepRow]:
    """Solve every (nu, h) cell independently: one row per cell,
    lexicographic in the inputs.

    Cells run on at most one thread per CPU this process may use when
    `parallel` is set, on one thread otherwise; the solves are pure, so both
    give identical rows.  A converged row's amplitudes are those of
    verify(result).decay.  A row records a cell that did not converge or
    whose wall fails the decay preconditions (NaN width and amplitudes); any
    other exception of a cell propagates.

    Raises:
        ValueError: an invalid grid or one with half_length < 2, or a (nu, h)
            cell that ModelParams rejects.
    """
    check_transition_fits(make_grid(half_length, n_points))   # ValueError if invalid
    cells = [(nu, h) for nu in sorted(nu_values) for h in sorted(h_values)]
    for nu, h in cells:
        ModelParams(nu, h)   # and on an invalid cell
    if not cells:
        return []
    workers = min(len(cells), _usable_cpus()) if parallel else 1
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(
            lambda c: _row_for(c[0], c[1], opts, half_length, n_points), cells))
