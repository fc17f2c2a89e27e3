"""Smoke test of the benchmark itself, at a tiny size.

    python3 perfbench/smoke.py

Runs every workload on tiny grids, untraced and traced, and asserts that
each run passes its checks and emits exactly the metrics BENCHMARK.json
names, with their units.  The traced refine run compares its iteration
count, strictly, with that of an untraced solve.  As negative controls, a
solve whose energy is perturbed and a tail reconstruction that is perturbed
must each count every operation as failed, and a wrong seed count must fail
the traced run.  Exits 0 on success and 1 at the first failed check.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import sys
import tempfile

import run
from workloads import Baseline, Refine, Sweep, Tail, cell_key

SECONDS = 0.2
TINY = {
    "baseline": (Baseline, dict(half_length=20.0, n_points=512)),
    "refine": (Refine, dict(half_length=20.0, n_points=1024)),
    "sweep": (Sweep, dict(nus=(1.0, 2.0), hs=(0.0, 0.3), half_length=20.0,
                          n_points=512)),
    "tail": (Tail, dict(half_length=20.0, n_points=512, pool=2)),
}
E2E_LINES = ("op_s.p50", "op_s.p90", "error_rate", "peak_rss_mb", "setup_s")


class PerturbedEnergy(Refine):
    def op(self):
        result = super().op()
        e = result.energy
        return dataclasses.replace(
            result, energy=dataclasses.replace(e, total=e.total * (1 + 1e-9)))


class PerturbedReconstruction(Tail):
    def op(self):
        wall, loaded, report, recon = super().op()
        shifted = recon.values + 0.02 * float(recon.values.max())
        return wall, loaded, report, self.nw.fractional.FieldSamples(recon.grid, shifted)


def expect(condition, what):
    if not condition:
        print(f"FAILED: {what}", file=sys.stderr)
        raise SystemExit(1)


def tiny_references(nw):
    """Reference energies of the tiny cells, and the tiny refine cell's iterations."""
    refs = {}
    for cls, kwargs in TINY.values():
        for nu, h, half_length, n_points in cls({}, 0, "", **kwargs).cells:
            result = nw.solve_cell(nu, h, nw.SolveOptions(tol=1e-9),
                                   half_length, n_points)
            expect(result.converged, f"tiny reference cell {nu, h, half_length, n_points}")
            refs[cell_key(nu, h, half_length, n_points)] = result.energy.total
    (cell,) = Refine({}, 0, "", **TINY["refine"][1]).cells
    iterations = nw.solve_cell(*cell[:2], None, *cell[2:]).iterations
    return refs, iterations


def quiet_run(workload, trace, seed_counts=None):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = run.run(workload, SECONDS, trace, f"smoke-{workload.name}",
                         seed_counts or {}, True)
    return result, out.getvalue()


def main():
    expect(run.use_checkout_package(), "no neelwall package in this checkout")
    import neelwall as nw

    with open(run.ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    wanted = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    expect(set(TINY) == {w["name"] for w in bench["workloads"]}, "workload names")

    refs, iterations = tiny_references(nw)
    counts = {"minimize.iterations": iterations}
    run.OUT.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="smoke-", dir=run.OUT)
    try:
        for name, (cls, kwargs) in TINY.items():
            for trace in (0, 1):
                result, text = quiet_run(cls(refs, 7, tmpdir, **kwargs), trace,
                                         counts if name == "refine" else None)
                expect(result["correct"] and result["failed"] == 0,
                       f"{name} trace={trace} failed:\n{text}")
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                expect(got == wanted[trace], f"{name} trace={trace} metrics {got}")
                if name == "refine" and trace == 1:
                    expect("count check: minimize.iterations" in text,
                           f"refine trace=1 does not check its count:\n{text}")
                if trace == 0:
                    expect(all(line in text for line in E2E_LINES),
                           f"{name} does not print every end-to-end metric:\n{text}")
                print(f"ok  {name} trace={trace}: {result['attempted']} ops")

        for cls, kwargs in ((PerturbedEnergy, TINY["refine"][1]),
                            (PerturbedReconstruction, TINY["tail"][1])):
            result, text = quiet_run(cls(refs, 7, tmpdir, **kwargs), 0)
            expect(not result["correct"]
                   and result["failed"] == result["attempted"] >= 1
                   and "error_rate   1.000000" in text,
                   f"{cls.__name__} was not counted as failed:\n{text}")
            print(f"ok  {cls.__name__} counts all {result['attempted']} ops as failed")

        wrong = {"minimize.iterations": iterations + 1}
        result, text = quiet_run(Refine(refs, 7, tmpdir, **TINY["refine"][1]), 1, wrong)
        expect(not result["correct"] and "failed check: minimize.iterations" in text,
               f"a wrong seed count did not fail the traced run:\n{text}")
        print("ok  a wrong seed count fails the traced run")
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
