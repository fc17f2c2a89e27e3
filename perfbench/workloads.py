"""The four benchmark workloads and the correctness check of each operation.

Every workload drives the public neelwall API in-process.  ``setup`` runs
before timing starts (and is timed as ``setup_s``), ``op`` is the timed
operation, ``check`` runs after the timer stops and returns the reasons the
operation failed, if any.  Layer functions are always looked up on their
module at call time, so the traced run's wrappers see every call.

Only ``tail`` takes inputs from the seed (its wall parameters and the kernel
lags it checks).  The other three run fixed cells, so that their iteration
counts stay comparable from one commit to the next.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import time

import numpy as np

ENERGY_RTOL = 1e-12      # |E - E_ref| bound, relative, against tol=1e-9 references
SOLVE_TOL = 1e-6         # the library's default solver tolerance
SYMMETRY_FACTOR = 10.0   # symmetry defect bound in units of tol, as `neelwall verify`
RECON_RTOL = 0.01        # reconstruction error bound, share of the max deviation
KERNEL_RTOL = 1e-6       # sampled kernel against green_quadrature, relative
KERNEL_LAGS = 3          # seeded lags checked per tail operation
CELL_NU, CELL_H = 1.0, 0.0  # the ROADMAP's end-to-end cell, of baseline and refine
TAIL_H = 0.0
TAIL_NU_RANGE = (0.5, 5.0)  # nu of the walls tail reads


def cell_key(nu, h, half_length, n_points):
    """Key of one solve cell in the reference table."""
    return f"{nu:g}/{h:g}/{half_length:g}/{n_points:d}"


def check_solve(nw, result, ref_energy, tol=SOLVE_TOL):
    """Reasons a solve result fails: convergence, energy, verify's checks."""
    if not result.converged:
        return ["solve did not converge"]
    problems = []
    energy = result.energy.total
    if not abs(energy - ref_energy) <= ENERGY_RTOL * abs(ref_energy):
        problems.append(f"energy {energy!r} differs from reference {ref_energy!r}")
    report = nw.analysis.verify(result, tol)
    if not report.monotone_strict:
        problems.append(f"not strictly monotone at {report.violation_index}")
    if not report.range_ok:
        problems.append("values leave (theta_h, pi - theta_h)")
    if not report.symmetry_defect <= SYMMETRY_FACTOR * tol:
        problems.append(f"symmetry defect {report.symmetry_defect:.3g}")
    return problems


class Workload:
    """Interface of one workload; ``prepare`` runs untimed before each op."""

    name = ""
    cells = ()  # (nu, h, half_length, n_points) of every solve it checks

    def __init__(self, refs, seed, tmpdir):
        self.refs, self.seed, self.tmpdir = refs, seed, tmpdir
        self.nw = None

    def setup(self, nw):
        """Grid and reference-profile set-up of every cell; timed as setup_s."""
        self.nw = nw
        for nu, h, half_length, n_points in self.cells:
            grid = nw.grid.make_grid(half_length, n_points)
            nw.grid.reference_profile(grid, nw.grid.ModelParams(nu, h))

    def prepare(self):
        pass

    def op(self):
        raise NotImplementedError

    def check(self, out):
        raise NotImplementedError

    def extra(self):
        """Traced run only: (metrics, problems) measured beside the ops."""
        return {}, []

    def ref(self, nu, h, half_length, n_points):
        return self.refs[cell_key(nu, h, half_length, n_points)]


class Baseline(Workload):
    """`neelwall solve` on the ROADMAP's end-to-end cell, stdout captured."""

    name = "baseline"

    def __init__(self, refs, seed, tmpdir, half_length=40.0, n_points=4096):
        super().__init__(refs, seed, tmpdir)
        self.cells = ((CELL_NU, CELL_H, half_length, n_points),)
        self.path = os.path.join(tmpdir, "baseline.json")
        self.argv = ["solve", "--nu", f"{CELL_NU:g}", "--h", f"{CELL_H:g}",
                     "--half-length", f"{half_length:g}",
                     "--points", str(n_points), "--out", self.path]

    def prepare(self):
        """Remove the last op's output, so that each check reads its own op's file."""
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.path)

    def op(self):
        with contextlib.redirect_stdout(io.StringIO()):
            return self.nw.cli.main(self.argv)

    def check(self, code):
        if code != 0:
            return [f"neelwall solve exited with {code}"]
        result = self.nw.io.load_result(self.path)
        return check_solve(self.nw, result, self.ref(*self.cells[0]))


class Refine(Workload):
    """The baseline cell at four times the resolution."""

    name = "refine"

    def __init__(self, refs, seed, tmpdir, half_length=40.0, n_points=16384):
        super().__init__(refs, seed, tmpdir)
        self.cells = ((CELL_NU, CELL_H, half_length, n_points),)

    def op(self):
        nu, h, half_length, n_points = self.cells[0]
        return self.nw.analysis.solve_cell(nu, h, None, half_length, n_points)

    def check(self, result):
        return check_solve(self.nw, result, self.ref(*self.cells[0]))


class Sweep(Workload):
    """The threaded (nu, h) sweep over the ROADMAP's robustness range.

    A sweep row holds no profile, so set-up wraps ``analysis.solve_cell``
    where ``sweep`` looks it up, to keep each cell's solve for the check.
    """

    name = "sweep"

    def __init__(self, refs, seed, tmpdir, nus=(0.1, 2.0, 10.0),
                 hs=(0.0, 0.3, 0.99), half_length=80.0, n_points=8192):
        super().__init__(refs, seed, tmpdir)
        self.nus, self.hs = tuple(nus), tuple(hs)
        self.half_length, self.n_points = half_length, n_points
        self.cells = tuple((nu, h, half_length, n_points)
                           for nu in sorted(nus) for h in sorted(hs))
        self.solves, self.last = [], None

    def setup(self, nw):
        super().setup(nw)
        solve_cell = nw.analysis.solve_cell

        def kept(*args, **kwargs):
            result = solve_cell(*args, **kwargs)
            self.solves.append(result)  # list.append is atomic across threads
            return result

        nw.analysis.solve_cell = kept

    def prepare(self):
        self.solves = []

    def op(self):
        return self.nw.analysis.sweep(list(self.nus), list(self.hs),
                                      half_length=self.half_length,
                                      n_points=self.n_points)

    def check(self, table):
        self.last = table
        rows = list(table)
        if len(rows) != len(self.cells):
            return [f"{len(rows)} rows for {len(self.cells)} cells"]
        solves = {(r.profile.params.nu, r.profile.params.h): r for r in self.solves}
        problems = []
        for row, cell in zip(rows, self.cells):
            where = f"cell nu={row.nu:g} h={row.h:g}"
            result = solves.get(cell[:2])
            if (row.nu, row.h) != cell[:2]:
                problems.append(f"{where} out of order")
            elif result is None:
                problems.append(f"{where} was not solved")
            else:
                problems += [f"{where}: {p}"
                             for p in check_solve(self.nw, result, self.ref(*cell))]
                if row.converged and row.energy_total != result.energy.total:
                    problems.append(f"{where} row energy differs from its solve")
                if not (row.wall_width > 0 and row.amplitude_multipole > 0
                        and row.amplitude_tailfit > 0):
                    problems.append(f"{where} has a non-positive width or amplitude")
        return problems

    def extra(self):
        """A plain single-threaded run of the same sweep, timed untraced."""
        threaded = self.last
        self.prepare()
        start = time.perf_counter()
        serial = self.nw.analysis.sweep(list(self.nus), list(self.hs),
                                        half_length=self.half_length,
                                        n_points=self.n_points, parallel=False)
        serial_s = time.perf_counter() - start
        problems = self.check(serial)
        if threaded is not None and list(serial) != list(threaded):
            problems.append("serial sweep table differs from the threaded one")
        return {"analysis.sweep.serial_s": (serial_s, "s")}, problems


class Tail(Workload):
    """Read side: load a stored wall, verify it, rebuild its tail from G.

    Every operation reads a wall with its own nu, so the Green kernel of
    each operation is built cold, as on a user's first analysis of a wall.
    Walls are solved and written in set-up; should a run outlast the pool,
    further walls are solved untimed before the operation that needs them.
    """

    name = "tail"

    def __init__(self, refs, seed, tmpdir, half_length=40.0, n_points=4096, pool=8):
        super().__init__(refs, seed, tmpdir)
        self.half_length, self.n_points, self.pool = half_length, n_points, pool

    def setup(self, nw):
        self.nw = nw
        self.rng = random.Random(self.seed)
        self.nus = self._stratified_nus()
        self.walls = []
        self.next = 0
        for _ in range(self.pool):
            self._add_wall()

    def _stratified_nus(self):
        """Distinct nu values; each block of `pool` covers TAIL_NU_RANGE evenly.

        The kernel's cost depends on nu, so even coverage keeps a run's median
        from depending on which nu values the seed happens to draw.
        """
        lo, hi = TAIL_NU_RANGE
        used = set()
        while True:
            strata = list(range(self.pool))
            self.rng.shuffle(strata)
            for k in strata:
                nu = lo + (hi - lo) * (k + self.rng.random()) / self.pool
                if nu not in used:
                    used.add(nu)
                    yield nu

    def _add_wall(self):
        nu = next(self.nus)
        result = self.nw.analysis.solve_cell(nu, TAIL_H, None, self.half_length,
                                             self.n_points)
        if not result.converged:
            raise RuntimeError(f"tail wall at nu={nu!r} did not converge")
        path = os.path.join(self.tmpdir, f"wall-{len(self.walls)}.json")
        self.nw.io.emit(result, "json", path)
        lags = self.rng.sample(range(self.n_points + 1), KERNEL_LAGS)
        self.walls.append((nu, path, result, lags))

    def prepare(self):
        if self.next == len(self.walls):
            self._add_wall()

    def op(self):
        wall = self.walls[self.next]
        self.next += 1
        nw = self.nw
        loaded = nw.io.load_result(wall[1])
        report = nw.analysis.verify(loaded)
        terms = nw.green.forcing_terms(loaded.profile)
        grid = loaded.profile.grid
        forcing = terms.f_total.values.copy()
        forcing[grid.center_index] += terms.corner_charge / grid.spacing
        recon = nw.green.convolve_green(nw.fractional.FieldSamples(grid, forcing),
                                        loaded.profile.params)
        return wall, loaded, report, recon

    def check(self, out):
        (_, _, stored, lags), loaded, report, recon = out
        nw = self.nw
        problems = []
        if (loaded.energy != stored.energy
                or not np.array_equal(loaded.profile.values, stored.profile.values)):
            problems.append("stored wall does not round-trip")
        if not report.monotone_strict:
            problems.append(f"not strictly monotone at {report.violation_index}")
        if not report.range_ok:
            problems.append("values leave (theta_h, pi - theta_h)")
        if not report.symmetry_defect <= SYMMETRY_FACTOR * SOLVE_TOL:
            problems.append(f"symmetry defect {report.symmetry_defect:.3g}")

        p = loaded.profile
        grid, params = p.grid, p.params
        c = grid.center_index
        half = p.values[c:]
        rho_half = np.where(half <= math.pi / 2, half, math.pi - half)
        dev = np.concatenate([rho_half[:0:-1], rho_half]) - params.theta_h
        middle = np.abs(grid.points) <= grid.half_length / 2
        err = float(np.max(np.abs(recon.values[middle] - dev[middle])))
        if not err <= RECON_RTOL * float(np.max(dev)):
            problems.append(f"reconstruction error {err / np.max(dev):.3g} "
                            f"of the max deviation")

        kernel = nw.green.green_samples(grid, params)
        for lag in lags:
            want = nw.green.green_quadrature(lag * grid.spacing, params)
            got = float(kernel[grid.n_points + lag])
            if not abs(got - want) <= KERNEL_RTOL * abs(want):
                problems.append(f"kernel at lag {lag} is {got!r}, "
                                f"green_quadrature gives {want!r}")
        return problems


WORKLOADS = {w.name: w for w in (Baseline, Refine, Sweep, Tail)}
