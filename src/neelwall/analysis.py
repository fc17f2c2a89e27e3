"""Verification reports and (nu, h) sweep harness."""

from __future__ import annotations

import atexit
import math
import os
import sys
import threading
from concurrent.futures import Executor, ThreadPoolExecutor
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
    tol = SolveOptions(tol=tol).tol   # one rule for every tolerance, a Python float
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
               n_points: int = DEFAULT_N_POINTS, *,
               executor: Optional[Executor] = None) -> SolveResult:
    """One independent wall solve started at the nu = 0 wall
    (`grid.local_wall`): the SolveResult of minimize, with no tail analysis
    (verify does that).

    With an `executor`, the start and the solve run there (`sweep` passes
    its worker processes) and the call returns their SolveResult, or raises
    their exception."""
    if executor is None:
        return _solve(nu, h, opts, half_length, n_points)
    return executor.submit(_solve, nu, h, opts, half_length, n_points).result()


def _solve(nu, h, opts, half_length, n_points):
    return minimize(local_wall(make_grid(half_length, n_points), ModelParams(nu, h)), opts)


def _row_for(nu: float, h: float, opts: SolveOptions, half_length: float,
             n_points: int, executor: Optional[Executor] = None) -> SweepRow:
    result = solve_cell(nu, h, opts, half_length, n_points, executor=executor)
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


_pool_lock = threading.Lock()
_pool = None   # this process's ProcessPoolExecutor of forked workers
_fork_hooked = False   # whether forked children run _forget_pool


def _forks_workers() -> bool:
    """Whether a sweep here may fork worker processes: on Linux, where fork
    is safe and the default (spawned or forkserver workers re-import
    __main__, which kills a script without a main guard), and not in a
    process that multiprocessing started, which is already one worker of a
    parallel job (and, daemonic, may start none)."""
    if sys.platform != "linux":
        return False
    # imported here, not at the top: loaded at import, multiprocessing and
    # the process pool raise every process's peak RSS by 1.4 MB
    import multiprocessing
    return multiprocessing.parent_process() is None


def _forget_pool():
    """In a child forked from a process that made a pool: the parent's pool
    and workers are not the child's to use, join or shut down, so the
    child's first sweep makes its own pool (waiting on the parent's would
    hang) and its exit leaves the parent's workers alone."""
    global _pool
    import multiprocessing.process
    if _pool is not None:
        atexit.unregister(_pool.shutdown)
    _pool = None
    # private: the processes multiprocessing joins at exit, which are the
    # parent's workers; BaseProcess._bootstrap empties it in every process
    # that multiprocessing starts
    multiprocessing.process._children = set()


def _worker_pool() -> Executor:
    """This process's pool of forked worker processes, one per usable CPU.

    Made at the first parallel sweep, never resized or replaced while it
    works, and shut down at interpreter exit, so no worker outlives it.
    Every worker is forked before the pool is handed out, so before the
    sweep starts a thread, and sees the caller's modules as they were then.
    A sweep that finds a worker dead drops the pool, which takes no more
    tasks, so the next sweep forks a new one.  A child forked from this
    process forgets the pool (`_forget_pool`), hooked at the first pool
    rather than at import: a hook pins its module, and the benchmark
    imports the package afresh for each set-up.
    """
    global _pool, _fork_hooked
    with _pool_lock:
        if _pool is None:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            if not _fork_hooked:
                os.register_at_fork(after_in_child=_forget_pool)
                _fork_hooked = True
            pool = ProcessPoolExecutor(_usable_cpus(), multiprocessing.get_context("fork"))
            atexit.register(pool.shutdown)
            pool.submit(int).result()   # with fork, the first task forks every worker
            _pool = pool
        return _pool


def sweep(nu_values: Sequence[float], h_values: Sequence[float],
          opts: Optional[SolveOptions] = None,
          half_length: float = DEFAULT_HALF_LENGTH,
          n_points: int = DEFAULT_N_POINTS,
          parallel: bool = True) -> List[SweepRow]:
    """Solve every (nu, h) cell independently: one row per cell,
    lexicographic in the inputs.

    With `parallel` set, at least two cells and two CPUs this process may
    use, and where `_forks_workers`, cells run on `_worker_pool`'s forked
    processes, one per CPU, of which the sweep keeps min(cells, CPUs)
    busy: caller threads, two per busy worker, each hand a cell's
    `solve_cell` to the pool and build its row from the returned solve.
    Otherwise the cells run one after another in the calling thread.  The
    solves are pure and a worker's SolveResult pickles bit for bit, so both
    give identical rows.  A converged row's amplitudes are those of
    verify(result).decay.  A row records a cell that did not converge or
    whose wall fails the decay preconditions (NaN width and amplitudes);
    any other exception of a cell propagates.

    Raises:
        ValueError: an invalid grid or one with half_length < 2, or a (nu, h)
            cell that ModelParams rejects.
        BrokenProcessPool: a worker died during the sweep; the pool is
            dropped, so the next parallel sweep forks a new one.
    """
    global _pool
    check_transition_fits(make_grid(half_length, n_points))   # ValueError if invalid
    cells = [(nu, h) for nu in sorted(nu_values) for h in sorted(h_values)]
    for nu, h in cells:
        ModelParams(nu, h)   # and on an invalid cell
    workers = min(len(cells), _usable_cpus()) if parallel else 1
    if workers < 2 or not _forks_workers():
        return [_row_for(nu, h, opts, half_length, n_points) for nu, h in cells]
    from concurrent.futures.process import BrokenProcessPool
    pool = _worker_pool()
    try:
        with ThreadPoolExecutor(max_workers=min(len(cells), 2 * workers)) as threads:
            return list(threads.map(
                lambda c: _row_for(c[0], c[1], opts, half_length, n_points, pool), cells))
    except BrokenProcessPool:   # a worker died: the pool takes no more tasks
        with _pool_lock:
            if _pool is pool:
                _pool = None
        pool.shutdown(wait=False)
        raise
