import dataclasses
import inspect
import json
import math
import multiprocessing
import os
import re
import runpy
import signal
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

import neelwall as nw
from neelwall import analysis
from neelwall.cli import build_parser, main
from neelwall.io import table_to_csv

COLUMNS = tuple(f.name for f in dataclasses.fields(nw.SweepRow))


@pytest.fixture(scope="module")
def small_solve():
    grid = nw.make_grid(20.0, 512)
    params = nw.ModelParams(1.0, 0.0)
    result = nw.minimize(nw.reference_profile(grid, params))
    assert result.converged
    return result


def test_public_names_resolve_once():
    # a stale entry for a deleted function fails here, and breaks `import *`
    assert len(set(nw.__all__)) == len(nw.__all__)
    for name in nw.__all__:
        assert hasattr(nw, name), name
    namespace = {}
    exec("from neelwall import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(nw.__all__)


def skewed(result, index=100):
    """`result` with one sample moved by 1e-9: off the symmetric class."""
    v = result.profile.values.copy()
    v[index] += 1e-9
    return dataclasses.replace(result, profile=result.profile.with_values(v))


# a coarse cell that converges (4 Newton steps) to a discrete wall rising by
# about 1.7e-4 near both ends, so its tail cannot be analysed
COARSE_CELL = dict(nu=1.0, h=0.0, half_length=20.0, n_points=16)
COARSE_ARGV = ["--half-length", "20", "--points", "16"]


class TestVerify:
    def test_converged_solve_all_flags(self, small_solve):
        report = nw.verify(small_solve)
        assert report.monotone_strict
        assert report.monotone_margin > 0
        assert report.violation_index is None
        assert report.range_ok
        assert report.symmetry_defect <= 10 * 1e-6
        assert small_solve.residual_sup <= 1e-6
        assert report.decay.amplitude_multipole > 0

    def test_non_monotone_negative_control(self, small_solve):
        v = small_solve.profile.values.copy()
        v[100], v[101] = v[101], v[100]  # swap two samples
        doctored = nw.SolveResult(
            profile=small_solve.profile.with_values(v),
            energy=small_solve.energy,
            residual_sup=small_solve.residual_sup,
            iterations=small_solve.iterations,
            converged=True,
        )
        report = nw.verify(doctored)
        assert not report.monotone_strict
        assert report.violation_index == 100
        assert report.monotone_margin <= 0  # flag consistent with margin

    @pytest.mark.parametrize("scalar", [float, np.float64])
    def test_tolerance_flags_follow_tol(self, small_solve, scalar):
        # a solve is exactly symmetric, so one sample is moved to give a defect
        moved = skewed(small_solve)
        defect = nw.verify(moved).symmetry_defect
        residual = moved.residual_sup
        assert defect > 0 and residual > 0
        loose = nw.verify(moved, scalar(max(residual, defect / 10)))
        assert loose.symmetry_ok and loose.residual_ok
        tight = nw.verify(moved, scalar(min(residual, defect / 10) / 2))
        assert not tight.symmetry_ok and not tight.residual_ok
        # a numpy tol must not make a flag a numpy.bool
        for report in (loose, tight):
            for flag in ("monotone_strict", "range_ok", "symmetry_ok", "residual_ok"):
                assert type(getattr(report, flag)) is bool

    @pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf, True])
    def test_invalid_tol_rejected(self, small_solve, tol):
        # the rule SolveOptions applies to the tol of solve and sweep
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            nw.verify(small_solve, tol)

    def test_unconverged_rejected(self, small_solve):
        bad = nw.SolveResult(
            profile=small_solve.profile,
            energy=small_solve.energy,
            residual_sup=1.0,
            iterations=1,
            converged=False,
        )
        with pytest.raises(ValueError):
            nw.verify(bad)


class TestUnanalysedTail:
    def test_plateau_in_the_window_gives_no_decay_report(self, small_solve):
        # decay_amplitude rejects the reference profile: it is flat at
        # theta_h on the fit window
        p = nw.reference_profile(small_solve.profile.grid, small_solve.profile.params)
        held = dataclasses.replace(small_solve, profile=p, energy=nw.energy(p))
        assert nw.verify(held).decay is None

    def test_solve_cell_converges_without_decay_report(self):
        result = nw.solve_cell(**COARSE_CELL)
        assert result.converged
        report = nw.verify(result)
        assert report.decay is None
        assert not report.monotone_strict

    def test_sweep_row_converged_with_null_tail(self):
        cell = dict(COARSE_CELL)
        (row,) = nw.sweep([cell.pop("nu")], [cell.pop("h")], **cell)
        assert row.converged
        assert math.isfinite(row.energy_total) and math.isfinite(row.residual_sup)
        assert math.isnan(row.wall_width)
        assert math.isnan(row.amplitude_multipole)
        assert math.isnan(row.amplitude_tailfit)

    @pytest.mark.parametrize("parallel", [True, False])
    def test_programming_error_propagates(self, parallel):
        with pytest.raises(AttributeError):
            nw.sweep([1.0], [0.0], opts=5, half_length=20.0, n_points=64,
                     parallel=parallel)

    def test_programming_error_propagates_from_a_worker(self):
        # two cells: on the worker processes, where one is
        with pytest.raises(AttributeError):
            nw.sweep([1.0, 2.0], [0.0], opts=5, half_length=20.0, n_points=64)

    @pytest.mark.parametrize("half_length, n_points",
                             [(2.0, 4), (2.0, 8), (4.0, 8), (20.0, 16)])
    def test_edge_cells_give_finite_rows(self, half_length, n_points):
        rows = nw.sweep([0.1, 10.0], [0.0, 0.99],
                        half_length=half_length, n_points=n_points)
        assert len(rows) == 4
        for row in rows:
            assert math.isfinite(row.energy_total), row
            assert math.isfinite(row.residual_sup), row


class TestWallWidth:
    def test_width_positive_and_translation_invariant(self, small_solve):
        w = nw.wall_width(small_solve.profile)
        assert w > 0
        p = small_solve.profile
        shifted = np.interp(p.grid.points + 2 * p.grid.spacing,
                            p.grid.points, p.values)
        shifted[0] = p.params.left_plateau
        shifted[-1] = p.params.right_plateau
        w2 = nw.wall_width(nw.Profile(p.grid, shifted, p.params))
        assert w2 == pytest.approx(w, rel=1e-6)


class TestSweep:
    def test_empty_inputs(self):
        assert nw.sweep([], [0.0]) == []
        assert nw.sweep([1.0], []) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            nw.sweep([-1.0], [0.0])
        with pytest.raises(ValueError):
            nw.sweep([1.0], [1.0])
        for nu, h in [(np.nan, 0.0), (np.inf, 0.0), (1.0, np.nan), (1.0, np.inf)]:
            with pytest.raises(ValueError):
                nw.sweep([nu], [h])
        for half_length, n_points in [(np.nan, 512), (20.0, 5), (1.5, 64)]:
            with pytest.raises(ValueError):
                nw.sweep([1.0], [0.0], half_length=half_length, n_points=n_points)

    def test_unconverged_row(self):
        (row,) = nw.sweep([1.0], [0.0], nw.SolveOptions(max_iter=1),
                          half_length=20.0, n_points=256)
        assert not row.converged
        assert math.isfinite(row.energy_total) and math.isfinite(row.residual_sup)
        assert math.isnan(row.wall_width)
        assert math.isnan(row.amplitude_multipole)
        assert math.isnan(row.amplitude_tailfit)

    def test_rows_lexicographic_and_converged(self):
        rows = nw.sweep([1.0, 0.5], [0.3, 0.0],
                        half_length=20.0, n_points=512)
        cells = [(r.nu, r.h) for r in rows]
        assert cells == [(0.5, 0.0), (0.5, 0.3), (1.0, 0.0), (1.0, 0.3)]
        for r in rows:
            assert r.converged
            assert r.residual_sup <= 1e-6
            assert r.wall_width > 0

    @pytest.mark.parametrize("nus, hs, half_length, n_points", [
        ((0.1, 1.0, 10.0), (0.0, 0.3, 0.99), 40.0, 1024),
        ((COARSE_CELL["nu"],), (COARSE_CELL["h"],),
         COARSE_CELL["half_length"], COARSE_CELL["n_points"]),
    ])
    def test_rows_take_their_tail_report_from_verify(self, nus, hs, half_length,
                                                     n_points):
        rows = nw.sweep(nus, hs, half_length=half_length, n_points=n_points)
        assert len(rows) == len(nus) * len(hs)
        for row in rows:
            result = nw.solve_cell(row.nu, row.h, None, half_length, n_points)
            assert row.converged and result.converged
            d = nw.verify(result).decay
            expected = ((d.amplitude_multipole, d.amplitude_tailfit) if d
                        else (math.nan, math.nan))
            np.testing.assert_array_equal(
                (row.amplitude_multipole, row.amplitude_tailfit), expected)

    def test_serial_equals_parallel(self):
        kwargs = dict(half_length=20.0, n_points=512)
        t1 = nw.sweep([0.5, 1.0], [0.0, 0.2], parallel=False, **kwargs)
        t2 = nw.sweep([0.5, 1.0], [0.0, 0.2], parallel=True, **kwargs)
        assert t1 == t2


    def test_parallel_workers_capped_and_one_decay_per_row(self, monkeypatch):
        # worker processes solve, two caller threads per worker wait on them
        # and build the rows, each with its one tail report
        cpus = analysis._usable_cpus()
        threads, decays = set(), []
        row_for, decay = analysis._row_for, analysis.decay_amplitude

        def recording_row_for(*args):
            threads.add(threading.get_ident())
            return row_for(*args)

        def counting_decay(p):
            decays.append(p)
            return decay(p)

        monkeypatch.setattr(analysis, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(analysis, "_row_for", recording_row_for)
        monkeypatch.setattr(analysis, "decay_amplitude", counting_decay)
        rows = nw.sweep([0.5, 1.0], [0.0, 0.2], half_length=20.0, n_points=256)
        assert all(r.converged for r in rows)
        assert 1 <= len(multiprocessing.active_children()) <= max(cpus, 2)
        assert threading.get_ident() not in threads
        assert 1 <= len(threads) <= 2 * 2
        assert len(decays) == len(rows)

    @pytest.mark.parametrize("cells, opts", [
        (((0.1, 1.0, 10.0), (0.0, 0.3, 0.99), 20.0, 512), None),
        (((0.1, 1.0, 10.0), (0.0, 0.3, 0.99), 20.0, 512), nw.SolveOptions(max_iter=1)),
        (((0.5, COARSE_CELL["nu"]), (COARSE_CELL["h"],), COARSE_CELL["half_length"],
          COARSE_CELL["n_points"]), None),
    ], ids=["3x3", "3x3-unconverged", "coarse-nan-tails"])
    def test_processes_give_the_serial_rows_and_solves(self, monkeypatch, cells, opts):
        nus, hs, half_length, n_points = cells
        solves = {True: {}, False: {}}
        solve_cell = analysis.solve_cell

        def kept(*args, **kwargs):
            result = solve_cell(*args, **kwargs)
            solves[kwargs["executor"] is not None][args[:2]] = result
            return result

        monkeypatch.setattr(analysis, "solve_cell", kept)
        monkeypatch.setattr(analysis, "_usable_cpus", lambda: 2)   # two workers at least
        tables = [nw.sweep(nus, hs, opts, half_length, n_points, parallel=parallel)
                  for parallel in (True, False)]
        assert len(solves[True]) == len(solves[False]) == len(nus) * len(hs)
        for parallel, serial in zip(*tables):
            np.testing.assert_array_equal(dataclasses.astuple(parallel),
                                          dataclasses.astuple(serial))
        if opts is not None:
            assert not any(row.converged for row in tables[0])
        if n_points == COARSE_CELL["n_points"]:
            assert all(math.isnan(row.wall_width) for row in tables[0])
        for cell, result in solves[False].items():
            other = solves[True][cell]
            assert np.array_equal(other.profile.values, result.profile.values)
            assert (other.energy, other.residual_sup, other.iterations, other.converged) \
                == (result.energy, result.residual_sup, result.iterations, result.converged)

    def test_concurrent_sweeps_share_one_pool(self, monkeypatch):
        # two- and three-cell sweeps at once, on the one pool the first
        # parallel sweep made, which none of them resizes or replaces
        monkeypatch.setattr(analysis, "_pool", None)
        monkeypatch.setattr(analysis, "_usable_cpus", lambda: 3)
        before = set(multiprocessing.active_children())   # an earlier pool's workers
        kwargs = dict(half_length=20.0, n_points=256)
        cases = [([0.5, 1.0], [0.0]), ([0.5, 1.0, 2.0], [0.0])] * 4
        expected = [nw.sweep(*case, parallel=False, **kwargs) for case in cases]
        nw.sweep(*cases[0], **kwargs)
        pool = analysis._pool
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(len(cases)) as threads:
                tables = list(threads.map(lambda case: nw.sweep(*case, **kwargs), cases))
            assert analysis._pool is pool
            assert set(multiprocessing.active_children()) - before \
                <= set(pool._processes.values())
        finally:
            sys.setswitchinterval(interval)
            if analysis._pool is not None:
                analysis._pool.shutdown()   # made here; monkeypatch restores the old one
        assert tables == expected

    def test_sweeps_in_child_processes(self):
        # a child forked after a sweep makes its own pool, where it would
        # wait for ever on its parent's; a process multiprocessing started
        # sweeps serially, where daemonic it could fork no worker and
        # otherwise its exit would wait on workers never shut down
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run([sys.executable, "-W", "error", "-c", _CHILD_SWEEPS],
                             env={**os.environ, "PYTHONPATH": str(src)},
                             capture_output=True, text=True, timeout=120)
        assert (out.returncode, out.stderr) == (0, "")
        assert out.stdout.split() == ["forked", "0", "pool", "True", "executor", "True"]

    @pytest.mark.parametrize("child_sweeps", [False, True], ids=["exits", "sweeps"])
    def test_child_forked_after_a_sweep_exits_cleanly(self, child_sweeps):
        # the child's exit handlers neither join nor shut down its parent's
        # workers, which multiprocessing lists as its own children
        root = Path(__file__).resolve().parents[1]
        command = [sys.executable, "-W", "error", str(root / "scripts" / "fork_after_sweep.py")]
        out = subprocess.run(command + ["--child-sweeps"] * child_sweeps,
                             env={**os.environ, "PYTHONPATH": str(root / "src")},
                             capture_output=True, text=True, timeout=120)
        assert (out.returncode, out.stderr) == (0, "")

    def test_sweep_after_a_worker_died_forks_a_new_pool(self, monkeypatch):
        # the sweep that meets the dead worker raises, and drops the pool
        # for the next sweep to fork a new one
        monkeypatch.setattr(analysis, "_pool", None)
        monkeypatch.setattr(analysis, "_usable_cpus", lambda: 2)
        cells, kwargs = ([0.5, 1.0], [0.0, 0.2]), dict(half_length=20.0, n_points=256)
        expected = nw.sweep(*cells, parallel=False, **kwargs)
        nw.sweep(*cells, **kwargs)
        broken = analysis._pool
        workers, manager = list(broken._processes.values()), broken._executor_manager_thread
        os.kill(workers[0].pid, signal.SIGKILL)
        # the pool's manager thread marks it broken, ends the other workers and joins them all
        manager.join(timeout=60)
        assert not manager.is_alive()
        try:
            with pytest.raises(BrokenProcessPool):
                nw.sweep(*cells, **kwargs)
            assert analysis._pool is None
            assert nw.sweep(*cells, **kwargs) == expected
        finally:
            if analysis._pool is not None:
                analysis._pool.shutdown()   # made here; monkeypatch restores the old one
        assert analysis._pool is not broken
        assert all(w.exitcode is not None for w in workers)
        assert not set(workers) & set(multiprocessing.active_children())

    def test_sweep_script_leaves_no_process_behind(self):
        # unguarded scripts, warnings as errors: their workers are forked,
        # so nothing re-runs them, and they are gone when they exit, also
        # after a dead worker broke the first pool and a sweep forked a second
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        for code in ("import neelwall as nw; "
                     "nw.sweep([0.5, 1], [0, 0.2], half_length=20, n_points=256)",
                     _SWEEP_AFTER_A_DEAD_WORKER):
            command = [sys.executable, "-W", "error", "-c", code]
            out = subprocess.run(command, env=env, capture_output=True, text=True,
                                 timeout=120)
            assert (out.returncode, out.stderr) == (0, "")
            # a surviving worker would keep the output pipes open, and run()
            # waiting; its command line is its parent's
            proc = Path("/proc")
            if proc.is_dir():
                cmdline = "\0".join(command).encode() + b"\0"
                for path in proc.glob("[0-9]*/cmdline"):
                    try:
                        assert path.read_bytes() != cmdline, path
                    except OSError:   # gone in between
                        pass
        bare = subprocess.run(
            [sys.executable, "-c", "import sys, neelwall; "
             "print(sorted(m for m in sys.modules if m.startswith(('multiprocessing', "
             "'concurrent.futures.process'))))"],
            env=env, capture_output=True, text=True, timeout=120)
        assert bare.stdout == "[]\n"


_CHILD_SWEEPS = """
import multiprocessing, os, signal, sys
from concurrent.futures import ProcessPoolExecutor
import neelwall as nw

def table():
    return nw.sweep([0.5, 1], [0, 0.2], half_length=20, n_points=256)

want = table()
pid = os.fork()
if pid == 0:
    signal.alarm(60)
    # a normal exit shuts down the child's own pool and leaves the parent's alone
    sys.exit(0 if table() == want else 1)
print("forked", os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
fork = multiprocessing.get_context("fork")
with fork.Pool(1) as pool:
    print("pool", pool.apply_async(table).get(timeout=60) == want)
with ProcessPoolExecutor(1, fork) as executor:
    print("executor", executor.submit(table).result(timeout=60) == want)
"""

_SWEEP_AFTER_A_DEAD_WORKER = """
import os, signal
from concurrent.futures.process import BrokenProcessPool
import neelwall as nw
from neelwall import analysis

def table():
    return nw.sweep([0.5, 1], [0, 0.2], half_length=20, n_points=256)

table()
pool = analysis._pool
manager = pool._executor_manager_thread
os.kill(next(iter(pool._processes)), signal.SIGKILL)
manager.join(timeout=60)
try:
    table()
except BrokenProcessPool:
    pass
else:
    raise SystemExit("the sweep after a dead worker did not raise")
table()
"""


class TestEmitLoad:
    def test_result_round_trip(self, small_solve, tmp_path):
        path = tmp_path / "result.json"
        nw.emit(small_solve, "json", str(path))
        loaded = nw.load_result(str(path))
        assert np.array_equal(loaded.profile.values, small_solve.profile.values)
        assert loaded.energy.total == small_solve.energy.total
        assert loaded.residual_sup == small_solve.residual_sup
        assert loaded.iterations == small_solve.iterations
        assert loaded.converged == small_solve.converged
        assert "tail_amplitude" not in json.loads(path.read_text())

    def test_file_with_tail_amplitude_loads(self, small_solve, tmp_path):
        # files written before the tail report left SolveResult carry the key
        path = tmp_path / "result.json"
        nw.emit(small_solve, "json", str(path))
        doc = json.loads(path.read_text())
        doc["tail_amplitude"] = nw.decay_amplitude(small_solve.profile).amplitude_tailfit
        path.write_text(json.dumps(doc))
        loaded = nw.load_result(str(path))
        assert np.array_equal(loaded.profile.values, small_solve.profile.values)
        assert loaded.energy == small_solve.energy
        assert (loaded.residual_sup, loaded.iterations, loaded.converged) == (
            small_solve.residual_sup, small_solve.iterations, small_solve.converged)

    def test_deterministic_output(self, small_solve, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        nw.emit(small_solve, "json", str(p1))
        nw.emit(small_solve, "json", str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_independent_solves_bitwise_identical(self, tmp_path):
        paths = []
        for name in ("a.json", "b.json"):
            result = nw.solve_cell(1.0, 0.2, nw.SolveOptions(),
                                   half_length=20.0, n_points=512)
            path = tmp_path / name
            nw.emit(result, "json", str(path))
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_csv_header_and_round_trip(self, tmp_path):
        rows = nw.sweep([1.0], [0.0], half_length=20.0, n_points=512)
        path = tmp_path / "sweep.csv"
        nw.emit(rows, "csv", str(path))
        text = path.read_text()
        assert text.splitlines()[0] == ("nu,h,energy_total,wall_width,"
                                        "amplitude_multipole,amplitude_tailfit,"
                                        "residual_sup,converged")
        assert nw.load_table(str(path)) == rows

    def test_csv_null_metrics_load_as_nan(self, tmp_path):
        path = tmp_path / "sweep.csv"
        path.write_text(",".join(COLUMNS)
                        + "\n1,0.5,null,null,null,null,null,false\n")
        (row,) = nw.load_table(str(path))
        assert (row.nu, row.h, row.converged) == (1.0, 0.5, False)
        assert math.isnan(row.energy_total) and math.isnan(row.residual_sup)

    @pytest.mark.parametrize("row", [
        "null,0,1,1,1,1,1e-7,true",   # a cell's coordinates are never null
        "1,null,1,1,1,1,1e-7,true",
        "1,0,1,1,1,1,1e-7",           # one cell short
        "1,0,1,1,1,1,1e-7,true,1",    # one cell over
    ])
    def test_csv_malformed_row_rejected(self, tmp_path, row):
        path = tmp_path / "sweep.csv"
        path.write_text(",".join(COLUMNS) + "\n" + row + "\n")
        with pytest.raises(ValueError):
            nw.load_table(str(path))

    @staticmethod
    def _json_table(path, **cells):
        row = {"nu": 1.0, "h": 0.0, "energy_total": 1.0, "wall_width": 1.0,
               "amplitude_multipole": 1.0, "amplitude_tailfit": 1.0,
               "residual_sup": 1e-7, "converged": False, **cells}
        path.write_text(json.dumps({"kind": "sweep_table", "rows": [row]}))
        return str(path)

    def test_json_null_metrics_load_as_nan(self, tmp_path):
        path = self._json_table(tmp_path / "sweep.json",
                                energy_total=None, residual_sup=None)
        (row,) = nw.load_table(path)
        assert (row.nu, row.h, row.converged) == (1.0, 0.0, False)
        assert math.isnan(row.energy_total) and math.isnan(row.residual_sup)

    @pytest.mark.parametrize("cells", [
        {"nu": None},          # a cell's coordinates are never null
        {"h": None},
        {"converged": "true"},  # converged is a JSON boolean
    ], ids=["null-nu", "null-h", "string-converged"])
    def test_json_malformed_row_rejected(self, tmp_path, cells):
        path = self._json_table(tmp_path / "sweep.json", **cells)
        with pytest.raises(ValueError):
            nw.load_table(path)

    MALFORMED_TABLES = {
        "norows.json": '{"kind": "sweep_table"}',
        "noh.json": json.dumps({"kind": "sweep_table", "rows": [
            {"nu": 1.0, "energy_total": 1.0, "wall_width": 1.0,
             "amplitude_multipole": 1.0, "amplitude_tailfit": 1.0,
             "residual_sup": 1e-7, "converged": False}]}),
        "truncated.json": '{"kind": "sweep_table", "rows": [',
        "badcell.csv": (",".join(COLUMNS)
                        + "\n1,0,abc,1,1,1,1e-7,true\n"),
        "listrows.json": '{"kind": "sweep_table", "rows": [[1, 0]]}',
        "toplist.json": '[{"kind": "sweep_table", "rows": []}]',
    }

    @pytest.mark.parametrize("name", MALFORMED_TABLES)
    def test_malformed_table_rejected_naming_path(self, tmp_path, name):
        path = tmp_path / name
        path.write_text(self.MALFORMED_TABLES[name])
        with pytest.raises(ValueError, match=name):
            nw.load_table(str(path))

    def test_empty_csv_rejected_naming_path(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty.csv"):
            nw.load_table(str(path))

    @staticmethod
    def _edited_result(small_solve, path, edit):
        nw.emit(small_solve, "json", str(path))
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        return str(path)

    @staticmethod
    def _full_profile(values):
        """An edit that gives a file the whole profile, as older files hold it."""
        def edit(doc):
            del doc["profile_right_half"]
            doc["profile"] = values.tolist()
        return edit

    def test_result_without_grid_rejected_naming_path(self, small_solve, tmp_path,
                                                      capsys):
        path = self._edited_result(small_solve, tmp_path / "nogrid.json",
                                   lambda doc: doc.pop("grid"))
        with pytest.raises(ValueError, match="nogrid.json"):
            nw.load_result(path)
        assert main(["verify", "--in", path]) == 1
        assert "nogrid.json" in capsys.readouterr().err

    def test_result_not_json_rejected_naming_path(self, tmp_path):
        path = tmp_path / "garbled.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="garbled.json"):
            nw.load_result(str(path))

    def test_result_string_converged_rejected_naming_path(self, small_solve, tmp_path):
        path = self._edited_result(small_solve, tmp_path / "strflag.json",
                                   lambda doc: doc.update(converged="false"))
        with pytest.raises(ValueError, match="strflag.json"):
            nw.load_result(path)

    def test_result_string_iterations_rejected_naming_path(self, small_solve,
                                                           tmp_path):
        path = self._edited_result(small_solve, tmp_path / "striter.json",
                                   lambda doc: doc.update(iterations="7"))
        with pytest.raises(ValueError, match="striter.json"):
            nw.load_result(path)

    @pytest.mark.parametrize("key, sample", [
        ("profile_right_half", "1.5707963267948966"),
        ("profile_right_half", True),
        ("profile_right_half", None),
        ("profile", "1.5707963267948966"),   # an older file's whole profile
    ], ids=["string", "boolean", "null", "full-profile-string"])
    def test_result_non_number_sample_rejected_naming_path(self, small_solve,
                                                           tmp_path, key, sample):
        def edit(doc):
            if key == "profile":
                self._full_profile(small_solve.profile.values)(doc)
            doc[key][5] = sample

        path = self._edited_result(small_solve, tmp_path / "badsample.json", edit)
        pattern = rf"badsample\.json.*{key}\[5\] cannot hold {re.escape(repr(sample))}"
        with pytest.raises(ValueError, match=pattern):
            nw.load_result(path)

    @pytest.mark.parametrize("section, key, value", [
        ("params", "nu", True),           # a boolean is no number
        ("grid", "n_points", 64.0),       # n_points is a JSON integer
        ("params", "h", None),            # the cell's coordinates are never null
        ("grid", "half_length", None),
    ], ids=["boolean-nu", "float-n_points", "null-h", "null-half_length"])
    def test_result_malformed_cell_rejected_naming_path(self, small_solve, tmp_path,
                                                         section, key, value):
        path = self._edited_result(small_solve, tmp_path / "badcell.json",
                                   lambda doc: doc[section].__setitem__(key, value))
        pattern = rf"badcell\.json.*{key} cannot hold {re.escape(repr(value))}"
        with pytest.raises(ValueError, match=pattern):
            nw.load_result(path)

    def test_result_huge_integer_rejected_naming_path(self, small_solve, tmp_path):
        path = self._edited_result(
            small_solve, tmp_path / "hugeint.json",
            lambda doc: doc["profile_right_half"].__setitem__(5, 10 ** 400))
        with pytest.raises(ValueError, match="hugeint.json"):
            nw.load_result(path)

    @pytest.mark.parametrize("key", ["profile_right_half", "profile"])
    def test_huge_n_points_rejected_before_any_grid(self, small_solve, tmp_path,
                                                    capsys, key):
        # make_grid(20, 10**13) raises MemoryError at once (72.8 TiB of
        # positions); the sample count is checked against n_points first
        def edit(doc):
            if key == "profile":
                self._full_profile(small_solve.profile.values)(doc)
            doc["grid"]["n_points"] = 10 ** 13

        path = self._edited_result(small_solve, tmp_path / "hugegrid.json", edit)
        pattern = rf"hugegrid\.json.*{key} holds \d+ samples, expected"
        with pytest.raises(ValueError, match=pattern):
            nw.load_result(path)
        assert main(["verify", "--in", path]) == 1
        assert "hugegrid.json" in capsys.readouterr().err

    @pytest.mark.parametrize("values", ["symmetric", "skewed"])
    def test_full_profile_file_loads_bit_exactly(self, small_solve, tmp_path, values):
        # files written before the right-half format hold the whole profile;
        # the older reader loaded any profile, so an asymmetric one loads too
        result = small_solve if values == "symmetric" else skewed(small_solve)
        path = self._edited_result(small_solve, tmp_path / "full.json",
                                   self._full_profile(result.profile.values))
        loaded = nw.load_result(path)
        assert np.array_equal(loaded.profile.values, result.profile.values)
        assert loaded.profile.grid == result.profile.grid
        assert loaded.energy == result.energy

    @pytest.mark.parametrize("edit", [
        lambda doc: doc.update(profile=[0.0] * 513),
        lambda doc: doc.pop("profile_right_half"),
        lambda doc: doc["profile_right_half"].pop(),
        lambda doc: doc["profile_right_half"].__setitem__(0, 1.5707963267948963),
    ], ids=["both-keys", "neither-key", "short-right-half", "center-off-pi/2"])
    def test_malformed_profile_rejected_naming_path(self, small_solve, tmp_path,
                                                    edit):
        path = self._edited_result(small_solve, tmp_path / "badprofile.json", edit)
        with pytest.raises(ValueError, match="badprofile.json"):
            nw.load_result(path)

    @pytest.mark.parametrize("index", [100, 256], ids=["sample", "center"])
    def test_emit_refuses_a_profile_off_the_symmetric_class(self, small_solve,
                                                            tmp_path, index):
        path = tmp_path / "moved.json"
        with pytest.raises(ValueError, match="symmetric class"):
            nw.emit(skewed(small_solve, index), "json", str(path))
        assert not path.exists()

    def test_every_digest_cell_round_trips(self, tmp_path):
        # emit never refuses a solver result, and load_result gives it back
        script = Path(__file__).resolve().parents[1] / "scripts" / "solve_digest.py"
        path = tmp_path / "wall.json"
        for nu, h, half_length, n_points in runpy.run_path(str(script))["CELLS"]:
            result = nw.solve_cell(nu, h, None, half_length, n_points)
            nw.emit(result, "json", str(path))
            loaded = nw.load_result(str(path))
            assert np.array_equal(loaded.profile.values, result.profile.values)
            assert loaded.energy == result.energy
            assert (loaded.residual_sup, loaded.iterations, loaded.converged) == (
                result.residual_sup, result.iterations, result.converged)

    def test_result_loads_onto_shared_grid(self, baseline, tmp_path):
        path = tmp_path / "result.json"
        nw.emit(baseline, "json", str(path))
        assert nw.load_result(str(path)).profile.grid is nw.make_grid(40, 4096)

    def test_table_json_round_trip(self, tmp_path):
        rows = nw.sweep([1.0], [0.0], half_length=20.0, n_points=512)
        path = tmp_path / "sweep.json"
        nw.emit(rows, "json", str(path))
        assert nw.load_table(str(path)) == rows

    def test_invalid_path_names_path(self, small_solve):
        with pytest.raises(OSError, match="no/such/dir"):
            nw.emit(small_solve, "json", "/no/such/dir/out.json")

    def test_result_csv_rejected(self, small_solve, tmp_path):
        with pytest.raises(ValueError):
            nw.emit(small_solve, "csv", str(tmp_path / "x.csv"))

    def test_unknown_format_rejected(self, small_solve, tmp_path):
        path = tmp_path / "x.xml"
        with pytest.raises(ValueError, match="format must be 'json' or 'csv', got 'xml'"):
            nw.emit(small_solve, "xml", str(path))
        assert not path.exists()

    def test_unknown_object_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        with pytest.raises(ValueError, match="cannot emit object of type dict"):
            nw.emit({"kind": "solve_result"}, "json", str(path))
        assert not path.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sweep_and_load_table_return_plain_lists(self, tmp_path, fmt):
        rows = nw.sweep([1.0, 2.0], [0.0], half_length=20.0, n_points=256)
        path = tmp_path / f"sweep.{fmt}"
        nw.emit(rows, fmt, str(path))
        loaded = nw.load_table(str(path))
        assert type(rows) is list and type(loaded) is list
        assert all(type(r) is nw.SweepRow for r in loaded)
        assert loaded == rows

    def test_list_holding_a_non_row_rejected(self, tmp_path):
        row = nw.SweepRow(nu=1.0, h=0.0, energy_total=1.0, wall_width=1.0,
                          amplitude_multipole=1.0, amplitude_tailfit=1.0,
                          residual_sup=1e-7, converged=True)
        path = tmp_path / "x.csv"
        for rows in ([row, dataclasses.asdict(row)], [None]):
            with pytest.raises(ValueError, match="cannot emit object of type"):
                nw.emit(rows, "csv", str(path))
        assert not path.exists()

    def test_empty_list_writes_header_only_csv(self, tmp_path):
        path = tmp_path / "empty.csv"
        nw.emit([], "csv", str(path))
        assert path.read_text() == ",".join(COLUMNS) + "\n"
        assert nw.load_table(str(path)) == []

    def test_table_file_is_not_a_result(self, tmp_path):
        path = tmp_path / "sweep.json"
        nw.emit(nw.sweep([1.0], [0.0], half_length=20.0, n_points=64), "json", str(path))
        with pytest.raises(ValueError, match="sweep.json' does not contain a solve result"):
            nw.load_result(str(path))

    def test_missing_table_names_path(self, tmp_path):
        path = tmp_path / "absent.csv"
        with pytest.raises(OSError, match="cannot read from .*absent.csv"):
            nw.load_table(str(path))

    def test_result_file_is_not_a_table(self, small_solve, tmp_path):
        path = tmp_path / "result.json"
        nw.emit(small_solve, "json", str(path))
        with pytest.raises(ValueError, match="result.json' holds a malformed sweep table"):
            nw.load_table(str(path))

    def test_json_parses_with_stock_loader(self, small_solve, tmp_path):
        path = tmp_path / "result.json"
        nw.emit(small_solve, "json", str(path))
        doc = json.loads(path.read_text())
        assert doc["kind"] == "solve_result"
        assert doc["params"]["nu"] == 1.0
        assert list(doc) == ["kind", "params", "grid", "profile_right_half", "energy",
                             "residual_sup", "iterations", "converged"]
        right_half = doc["profile_right_half"]
        assert len(right_half) == small_solve.profile.grid.n_points // 2 + 1
        assert right_half[0] == math.pi / 2
        assert right_half == small_solve.profile.values[256:].tolist()

    def test_nan_serialized_as_null(self, small_solve, tmp_path):
        clone = nw.SolveResult(
            profile=small_solve.profile,
            energy=small_solve.energy,
            residual_sup=math.nan,
            iterations=small_solve.iterations,
            converged=small_solve.converged,
        )
        path = tmp_path / "result.json"
        nw.emit(clone, "json", str(path))
        assert json.loads(path.read_text())["residual_sup"] is None
        loaded = nw.load_result(str(path))
        assert math.isnan(loaded.residual_sup)


class TestCli:
    def test_one_parser_each_call_parses_its_own_argv(self, monkeypatch, tmp_path):
        # main shares one parser between calls: no flag of one call's argv
        # reaches the next, and the commands still call the patched functions
        assert build_parser() is build_parser()
        cli = sys.modules["neelwall.cli"]
        solves, verifies = [], []
        solve_cell, verify = cli.solve_cell, cli.verify
        monkeypatch.setattr(cli, "solve_cell",
                            lambda *args: solves.append(args) or solve_cell(*args))
        monkeypatch.setattr(cli, "verify",
                            lambda result, tol: verifies.append(tol) or verify(result, tol=tol))
        out = tmp_path / "wall.json"
        assert main(["solve", "--nu", "1", "--tol", "1e-7", "--half-length", "20",
                     "--points", "512", "--out", str(out)]) == 0
        assert main(["verify", "--in", str(out)]) == 0
        assert main(["solve", "--nu", "2", "--h", "0.3", "--half-length", "20",
                     "--points", "512"]) == 0
        default = nw.SolveOptions.tol
        assert [(nu, h, opts.tol) for nu, h, opts, *_ in solves] == [
            (1.0, 0.0, 1e-7), (2.0, 0.3, default)]
        assert verifies == [1e-7, default, default]

    def test_solve_and_verify(self, tmp_path, capsys):
        out = tmp_path / "solve.json"
        code = main(["solve", "--nu", "1", "--h", "0",
                     "--half-length", "20", "--points", "512",
                     "--out", str(out)])
        assert code == 0
        assert out.exists()
        text = capsys.readouterr().out
        assert "converged: True" in text

        code = main(["verify", "--in", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "PASS" in text and "FAIL" not in text

    def test_sweep_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--nu-list", "1", "--h-list", "0", "0.3",
                     "--half-length", "20", "--points", "512",
                     "--out", str(out), "--format", "csv"])
        assert code == 0
        assert len(nw.load_table(str(out))) == 2

    def test_green_output(self, tmp_path):
        out = tmp_path / "green.json"
        code = main(["green", "--nu", "1", "--h", "0",
                     "--xmax", "5", "--samples", "11", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "green_samples"
        assert len(doc["x"]) == 11
        gs = np.array(doc["g"])
        assert np.all(gs > 0)
        assert np.allclose(gs, gs[::-1])

    def test_unconverged_exit_code(self, capsys):
        code = main(["solve", "--nu", "1", "--h", "0",
                     "--half-length", "20", "--points", "512",
                     "--max-iter", "2"])
        assert code == 2

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_unconverged_sweep_exit_code_and_null_metrics(self, tmp_path, capsys, fmt):
        out = tmp_path / f"sweep.{fmt}"
        code = main(["sweep", "--nu-list", "1", "--h-list", "0",
                     "--half-length", "20", "--points", "256", "--max-iter", "1",
                     "--out", str(out), "--format", fmt])
        assert code == 2
        assert "null" in out.read_text()
        (row,) = nw.load_table(str(out))
        assert not row.converged
        assert math.isfinite(row.energy_total) and math.isfinite(row.residual_sup)
        assert math.isnan(row.wall_width)
        assert math.isnan(row.amplitude_multipole)
        assert math.isnan(row.amplitude_tailfit)

    def test_unanalysed_tail_solve_verify_sweep(self, tmp_path, capsys):
        out = tmp_path / "coarse.json"
        code = main(["solve", "--nu", "1", "--h", "0", "--out", str(out)]
                    + COARSE_ARGV)
        assert code == 0
        assert "tail not analysed" in capsys.readouterr().out
        assert nw.load_result(str(out)).converged

        code = main(["verify", "--in", str(out)])
        assert code == 2
        assert "FAIL  monotone_strict" in capsys.readouterr().out

        code = main(["sweep", "--nu-list", "1", "--h-list", "0"] + COARSE_ARGV)
        assert code == 0

    def test_green_unconverged_quadrature_exit_code(self, capsys):
        code = main(["green", "--nu", "1e-12", "--samples", "3"])
        assert code == 2
        assert "error: fundamental-solution quadrature did not converge" \
            in capsys.readouterr().err

    def test_green_rejects_nu_beyond_the_checked_range(self):
        # through the interpreter: an error line and no traceback, where
        # (nu c)^2 overflowed before
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run(
            [sys.executable, "-m", "neelwall.cli", "green", "--nu", "1e300"],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True)
        assert out.returncode == 1
        assert out.stdout == ""
        assert out.stderr.startswith("error: nu cos(theta_h) = 1e+300 is above 1e+15")
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("xmax", ["inf", "nan"])
    def test_green_rejects_non_finite_x(self, xmax, capsys):
        # the message of green_values, not the JSON writer's, and no warning
        code = main(["green", "--nu", "1", "--xmax", xmax])
        assert code == 1
        assert "error: x must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_green_rejects_no_samples(self, samples, tmp_path, capsys):
        out = tmp_path / "green.json"
        code = main(["green", "--nu", "1", "--samples", samples, "--out", str(out)])
        assert code == 1
        assert "error: samples must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_green_is_the_kernel_evaluator(self, tmp_path, quadrature_calls):
        # no quadrature call, and the closed form to 1e-12 at every sample
        out = tmp_path / "green.json"
        code, calls = quadrature_calls(lambda: main(
            ["green", "--nu", "1", "--samples", "201", "--out", str(out)]))
        assert code == 0 and calls == 0
        doc = json.loads(out.read_text())
        params = nw.ModelParams(1.0, 0.0)
        want = np.array([nw.green_quadrature(x, params) for x in doc["x"]])
        assert np.max(np.abs(np.array(doc["g"]) - want) / want) <= 1e-12

    def test_verify_unconverged_file_exit_code(self, small_solve, tmp_path, capsys):
        path = str(tmp_path / "stalled.json")
        nw.emit(dataclasses.replace(small_solve, converged=False), "json", path)
        assert main(["verify", "--in", path]) == 2
        assert "stored result is not converged" in capsys.readouterr().out

    def test_short_domain_exit_code(self, capsys):
        # 2**44 points need 128 TiB, more than a 47-bit address space holds:
        # numpy refuses them without touching memory, whatever the overcommit
        for grid, message in ((["--half-length", "1.5", "--points", "64"],
                               "half_length must be >= 2"),
                              (["--points", str(2**44)], "error: Unable to allocate")):
            for command in (["solve", "--nu", "1"],
                            ["sweep", "--nu-list", "1", "--h-list", "0"]):
                assert main(command + grid) == 1
                assert message in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_invalid_tol_exit_code(self, small_solve, tmp_path, capsys, tol):
        path, unconverged = str(tmp_path / "wall.json"), str(tmp_path / "stalled.json")
        nw.emit(small_solve, "json", path)
        nw.emit(dataclasses.replace(small_solve, converged=False), "json", unconverged)
        for command in (["solve", "--nu", "1"],
                        ["sweep", "--nu-list", "1", "--h-list", "0"],
                        ["verify", "--in", path], ["verify", "--in", unconverged]):
            assert main(command + ["--tol", tol]) == 1
            assert "error: tol must be positive and finite" in capsys.readouterr().err

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as err:
            main(["solve"])  # missing required --nu
        assert err.value.code == 1

    def test_io_error_exit_code(self, capsys):
        code = main(["verify", "--in", "/no/such/file.json"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_green_io_error_names_path(self, capsys):
        code = main(["green", "--nu", "1", "--samples", "3",
                     "--out", "/no/such/dir/g.json"])
        assert code == 1
        assert "/no/such/dir/g.json" in capsys.readouterr().err

    def test_solve_computes_one_decay_report(self, monkeypatch):
        calls = []
        decay = analysis.decay_amplitude

        def counting_decay(p):
            calls.append(p)
            return decay(p)

        monkeypatch.setattr(analysis, "decay_amplitude", counting_decay)
        assert main(["solve", "--nu", "1", "--half-length", "20",
                     "--points", "512"]) == 0
        assert len(calls) == 1

    def test_solve_cell_computes_no_decay_report(self, monkeypatch):
        calls = []
        monkeypatch.setattr(analysis, "decay_amplitude", calls.append)
        assert nw.solve_cell(1.0, 0.0, None, 20.0, 512).converged
        assert calls == []

    def test_budget_defaults_are_solve_options(self):
        defaults = nw.SolveOptions()
        parser = build_parser()
        for argv in (["solve", "--nu", "1"],
                     ["sweep", "--nu-list", "1", "--h-list", "0"],
                     ["verify", "--in", "x.json"]):
            args = parser.parse_args(argv)
            assert args.tol == defaults.tol
            if argv[0] != "verify":
                assert args.max_iter == defaults.max_iter
        assert inspect.signature(nw.verify).parameters["tol"].default == defaults.tol

    def test_solve_has_no_format_flag(self):
        # solve results serialize to JSON only
        with pytest.raises(SystemExit) as err:
            main(["solve", "--nu", "1", "--format", "json"])
        assert err.value.code == 1

    def test_flags_not_abbreviated_ambiguously(self, tmp_path):
        # --h and --half-length must both resolve exactly
        code = main(["solve", "--nu", "1", "--h", "0.2",
                     "--half-length", "20", "--points", "512"])
        assert code == 0


class TestSerializationFormat:
    def test_floats_in_shortest_round_trip_form(self, tmp_path):
        shortest = {"energy_total": "3.141592653589793",
                    "wall_width": "0.30000000000000004",
                    "residual_sup": "1e-07"}
        row = nw.SweepRow(nu=1.0, h=0.0, energy_total=math.pi,
                          wall_width=0.1 + 0.2, amplitude_multipole=1.0,
                          amplitude_tailfit=1.0, residual_sup=1e-7,
                          converged=True)
        path = tmp_path / "sweep.json"
        nw.emit([row], "json", str(path))
        json_text = path.read_text()
        csv_cells = dict(zip(COLUMNS,
                             table_to_csv([row]).splitlines()[1].split(",")))
        for col, text in shortest.items():
            assert csv_cells[col] == text
            assert f'"{col}": {text},' in json_text
            assert float(text) == getattr(row, col)

    def test_files_are_strict_json(self, small_solve, tmp_path):
        def reject(constant):
            raise ValueError(f"{constant} is not strict JSON")

        nw.emit(dataclasses.replace(small_solve, residual_sup=math.nan),
                "json", str(tmp_path / "result.json"))
        failed = [nw.SweepRow(
            nu=1.0, h=0.0, energy_total=math.nan, wall_width=math.nan,
            amplitude_multipole=math.nan, amplitude_tailfit=math.nan,
            residual_sup=math.inf, converged=False)]
        nw.emit(failed, "json", str(tmp_path / "sweep.json"))
        assert main(["green", "--nu", "1", "--samples", "3",
                     "--out", str(tmp_path / "green.json")]) == 0
        for name in ("result.json", "sweep.json", "green.json"):
            json.loads((tmp_path / name).read_text(), parse_constant=reject)
        for cell in table_to_csv(failed).splitlines()[1].split(","):
            json.loads(cell, parse_constant=reject)


class TestScripts:
    def test_decay_study_prints_amplitudes(self, monkeypatch, capsys):
        script = Path(__file__).resolve().parents[1] / "scripts" / "decay_study.py"
        monkeypatch.setattr(sys, "argv", [str(script), "--half-length", "20",
                                          "--points", "512"])
        runpy.run_path(str(script), run_name="__main__")
        assert "amplitudes:" in capsys.readouterr().out


class TestPythonScalars:
    """Parameter records hold Python scalars, so every result serializes
    whatever real types the caller passed."""

    def test_numpy_integer_cells_write_csv(self, tmp_path):
        rows = nw.sweep(np.arange(1, 3), [0.0], half_length=20.0, n_points=256)
        path = tmp_path / "sweep.csv"
        nw.emit(rows, "csv", str(path))
        assert nw.load_table(str(path)) == rows
        assert [(type(r.nu), type(r.h)) for r in rows] == [(float, float)] * 2

    def test_bool_nu_rejected(self):
        # True was stored as nu and written as "nu": true, which
        # load_result rejects
        with pytest.raises(ValueError, match="nu must be positive"):
            nw.solve_cell(True, 0.0, None, 20.0, 256)
        with pytest.raises(ValueError, match="h must lie in"):
            nw.ModelParams(1.0, False)

    def test_numpy_tolerance_gives_a_python_bool(self, tmp_path):
        opts = nw.SolveOptions(tol=np.float64(1e-8), max_iter=np.int64(100))
        result = nw.solve_cell(1.0, 0.0, opts, 20.0, 256)
        nw.emit(result, "json", str(tmp_path / "result.json"))
        assert (type(opts.tol), type(opts.max_iter)) == (float, int)
        assert result.converged is True
        assert nw.load_result(str(tmp_path / "result.json")).converged is True
        rows = nw.sweep([1.0], [0.0], opts, half_length=20.0, n_points=256)
        assert rows[0].converged is True
        nw.emit(rows, "json", str(tmp_path / "sweep.json"))
        assert nw.load_table(str(tmp_path / "sweep.json")) == rows
