"""Write references.json: reference energies, seed counts and provenance.

    python3 perfbench/make_references.py --commit <label of the commit measured>

Reference energies are solved at tol=1e-9 for every cell the solve
workloads check.  The seed counts are what the traced run compares its
counts with; a difference fails the run while the checkout's sources match
the recorded ``source_digest``.  Iterations come from untraced solves at the
default tolerance, the quadrature and decay counts from the structure of the
measured code (one green_quadrature per non-negative lag; decay_amplitude
once in solve_cell, and once more in verify or a sweep row).  Run it only on
the commit whose results the benchmark should hold later commits to.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy
import scipy

from run import source_digest
from workloads import Baseline, Refine, Sweep, Tail, cell_key

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_TOL = 1e-9

CLAIMS = {"baseline": None, "refine": None, "sweep": None, "tail": None}


def machine():
    """Hardware and software the record was made on."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            model = next(ln.split(":", 1)[1].strip() for ln in f
                         if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    indices = sorted(os.listdir(base)) if os.path.isdir(base) else []
    for index in (i for i in indices if i.startswith("index")):
        fields = {}
        for key in ("level", "type", "size"):
            with open(os.path.join(base, index, key)) as f:
                fields[key] = f.read().strip()
        caches[f"L{fields['level']} {fields['type']}"] = fields["size"]
    return {"nproc": os.cpu_count(), "cpu_model": model, "caches": caches,
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commit", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))
    import neelwall as nw

    host = machine()

    baseline, refine, sweep = (w({}, 0, HERE) for w in (Baseline, Refine, Sweep))
    energies, iterations = {}, {}
    for cell in baseline.cells + refine.cells + sweep.cells:
        nu, h, half_length, n_points = cell
        ref = nw.solve_cell(nu, h, nw.SolveOptions(tol=REFERENCE_TOL),
                            half_length, n_points)
        run = nw.solve_cell(nu, h, None, half_length, n_points)
        if not (ref.converged and run.converged):
            raise SystemExit(f"cell {cell} did not converge")
        energies[cell_key(*cell)] = ref.energy.total
        iterations[cell] = run.iterations
        rel = abs(run.energy.total - ref.energy.total) / abs(ref.energy.total)
        print(f"{cell_key(*cell)}: E_ref {ref.energy.total!r}, "
              f"{run.iterations} iterations, tol 1e-6 rel diff {rel:.2g}")

    tail = Tail({}, 0, HERE)
    record = {
        "commit": args.commit,
        "source_digest": source_digest(),
        "machine": host,
        "reference_tol": REFERENCE_TOL,
        "energies": energies,
        "seed_counts": {
            "baseline": {"minimize.iterations": iterations[baseline.cells[0]],
                         "green.decay_amplitude.calls_per_cell": 2.0},
            "refine": {"minimize.iterations": iterations[refine.cells[0]],
                       "green.decay_amplitude.calls_per_cell": 1.0},
            "sweep": {"minimize.iterations": sum(iterations[c] for c in sweep.cells),
                      "cells": [[c[0], c[1], iterations[c]] for c in sweep.cells],
                      "green.decay_amplitude.calls_per_cell": 2.0},
            "tail": {"green.green_quadrature.calls": tail.n_points + 1},
        },
        "claims": CLAIMS,
    }
    with open(os.path.join(HERE, "references.json"), "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
