import inspect
import json
import math
import threading

import numpy as np
import pytest

import neelwall as nw
from neelwall import analysis
from neelwall.cli import build_parser, main
from neelwall.io import result_to_dict, table_to_csv


@pytest.fixture(scope="module")
def small_solve():
    grid = nw.make_grid(20.0, 512)
    params = nw.ModelParams(1.0, 0.0)
    result = nw.minimize(nw.reference_profile(grid, params))
    assert result.converged
    result.tail_amplitude = nw.decay_amplitude(result.profile).amplitude_tailfit
    return result


class TestVerify:
    def test_converged_solve_all_flags(self, small_solve):
        report = nw.verify(small_solve)
        assert report.monotone_strict
        assert report.monotone_margin > 0
        assert report.violation_index is None
        assert report.range_ok
        assert report.symmetry_defect <= 10 * 1e-6
        assert report.residual_sup <= 1e-6
        assert report.decay.amplitude_multipole > 0
        assert report.energy.total == small_solve.energy.total

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

    def test_tolerance_flags_follow_tol(self, small_solve):
        # a solve is exactly symmetric, so one sample is moved to give a defect
        v = small_solve.profile.values.copy()
        v[100] += 1e-9
        skewed = nw.SolveResult(
            profile=small_solve.profile.with_values(v),
            energy=small_solve.energy,
            residual_sup=small_solve.residual_sup,
            iterations=small_solve.iterations,
            converged=True,
        )
        defect = nw.verify(skewed).symmetry_defect
        residual = skewed.residual_sup
        assert defect > 0 and residual > 0
        loose = nw.verify(skewed, max(residual, defect / 10))
        assert loose.symmetry_ok and loose.residual_ok
        tight = nw.verify(skewed, min(residual, defect / 10) / 2)
        assert not tight.symmetry_ok and not tight.residual_ok

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
        table = nw.sweep([], [0.0])
        assert len(table) == 0
        table = nw.sweep([1.0], [])
        assert len(table) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            nw.sweep([-1.0], [0.0])
        with pytest.raises(ValueError):
            nw.sweep([1.0], [1.0])

    def test_rows_lexicographic_and_converged(self):
        table = nw.sweep([1.0, 0.5], [0.3, 0.0],
                         half_length=20.0, n_points=512)
        cells = [(r.nu, r.h) for r in table]
        assert cells == [(0.5, 0.0), (0.5, 0.3), (1.0, 0.0), (1.0, 0.3)]
        assert table.all_converged
        for r in table:
            assert r.residual_sup <= 1e-6
            assert r.wall_width > 0

    def test_serial_equals_parallel(self):
        kwargs = dict(half_length=20.0, n_points=512)
        t1 = nw.sweep([0.5, 1.0], [0.0, 0.2], parallel=False, **kwargs)
        t2 = nw.sweep([0.5, 1.0], [0.0, 0.2], parallel=True, **kwargs)
        assert t1.rows == t2.rows


    def test_parallel_workers_capped_and_one_decay_per_row(self, monkeypatch):
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
        table = nw.sweep([0.5, 1.0], [0.0, 0.2], half_length=20.0, n_points=256)
        assert table.all_converged
        assert 1 <= len(threads) <= 2
        assert len(decays) == len(table)


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
        assert loaded.tail_amplitude == small_solve.tail_amplitude

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
        table = nw.sweep([1.0], [0.0], half_length=20.0, n_points=512)
        path = tmp_path / "sweep.csv"
        nw.emit(table, "csv", str(path))
        text = path.read_text()
        assert text.splitlines()[0] == ("nu,h,energy_total,wall_width,"
                                        "amplitude_multipole,amplitude_tailfit,"
                                        "residual_sup,converged")
        loaded = nw.load_table(str(path))
        assert loaded.rows == table.rows

    def test_csv_null_metrics_load_as_nan(self, tmp_path):
        path = tmp_path / "sweep.csv"
        path.write_text(",".join(nw.SweepTable.COLUMNS)
                        + "\n1,0.5,null,null,null,null,null,false\n")
        (row,) = nw.load_table(str(path)).rows
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
        path.write_text(",".join(nw.SweepTable.COLUMNS) + "\n" + row + "\n")
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
        (row,) = nw.load_table(path).rows
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

    def test_table_json_round_trip(self, tmp_path):
        table = nw.sweep([1.0], [0.0], half_length=20.0, n_points=512)
        path = tmp_path / "sweep.json"
        nw.emit(table, "json", str(path))
        assert nw.load_table(str(path)).rows == table.rows

    def test_invalid_path_names_path(self, small_solve):
        with pytest.raises(OSError, match="no/such/dir"):
            nw.emit(small_solve, "json", "/no/such/dir/out.json")

    def test_result_csv_rejected(self, small_solve, tmp_path):
        with pytest.raises(ValueError):
            nw.emit(small_solve, "csv", str(tmp_path / "x.csv"))

    def test_json_parses_with_stock_loader(self, small_solve, tmp_path):
        path = tmp_path / "result.json"
        nw.emit(small_solve, "json", str(path))
        doc = json.loads(path.read_text())
        assert doc["kind"] == "solve_result"
        assert doc["params"]["nu"] == 1.0
        assert len(doc["profile"]) == small_solve.profile.grid.n_samples

    def test_nan_serialized_as_null(self, small_solve, tmp_path):
        clone = nw.SolveResult(
            profile=small_solve.profile,
            energy=small_solve.energy,
            residual_sup=small_solve.residual_sup,
            iterations=small_solve.iterations,
            converged=small_solve.converged,
            tail_amplitude=math.nan,
        )
        path = tmp_path / "result.json"
        nw.emit(clone, "json", str(path))
        assert math.isnan(nw.load_result(str(path)).tail_amplitude)


class TestCli:
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
    def test_floats_have_17_significant_digits(self, small_solve):
        doc = result_to_dict(small_solve)
        text = table_to_csv(nw.SweepTable(rows=[nw.SweepRow(
            nu=1.0, h=0.0, energy_total=math.pi, wall_width=1.0,
            amplitude_multipole=1.0, amplitude_tailfit=1.0,
            residual_sup=1e-7, converged=True)]))
        assert "3.1415926535897931" in text
        assert float("3.1415926535897931") == math.pi
