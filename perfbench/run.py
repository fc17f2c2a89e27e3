"""Benchmark of the neelwall package, run from the root of a checkout.

    python3 perfbench/run.py --workload baseline --seed 1 --seconds 20 --trace 0

One process, one client thread, closed loop: the next operation starts when
the previous one returns.  The package is imported from ``src/`` of the
checkout.  Set-up (the package import, grid and reference set-up, and the
walls ``tail`` reads) runs several times (see set_up) and ``setup_s`` is the
median.  Then operations run for ``--seconds``; each is checked for
correctness after its timer stops, and a failed check counts the operation
as failed.

Times are reported in reference seconds.  On a shared machine the speed
available to one process drifts by up to 2x over minutes, which no run
length averages out.  So a fixed calibration kernel that uses no neelwall
code (see calibration_work) is timed before and after every operation and
set-up, and each wall time is divided by the ratio of the calibration time
to CALIBRATION_REF_S.  Raw wall times are printed as well.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` first runs
the same loop untraced, then again with a span around every call into each
layer (see spans.py), and reports the per-layer metrics of the traced ops
plus the tracing overhead.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Files go to
``.perfbench/`` in the checkout; the traced run leaves its spans there.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import scipy

from spans import Tracer, self_times
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
LAYERS = ("grid", "fractional", "energy", "minimize", "green", "analysis",
          "io", "cli")
CALIBRATION_POINTS = 4096
CALIBRATION_ROUNDS = 80
CALIBRATION_REF_S = 0.009  # calibration time at which wall and reference seconds agree
CALIBRATION_SHARE = 0.05   # calibration after each op, as a share of the op's time
SETUP_REPEATS = 3        # set-ups per run at least; setup_s is their median
SETUP_SECONDS = 2.0      # cheap set-ups repeat until they have taken this long
SETUP_MAX_REPEATS = 25
P90_MIN_SAMPLES = 100  # the p90 needs at least ten samples beyond it
SHOWN_PROBLEMS = 5


def load_references():
    with open(HERE / "references.json") as f:
        return json.load(f)


def calibration_work():
    """A fixed unit of FFT and ufunc work on a 4096-point grid, no neelwall code.

    The same kernel serves every workload.  Interpreter-bound work such as
    adaptive quadrature is left out: a kernel with it over-corrected the
    refine op, whose ten-seed spread rose to 0.26.
    """
    x = np.sin(np.linspace(0.0, 40.0, CALIBRATION_POINTS + 1))
    for _ in range(CALIBRATION_ROUNDS):
        y = np.fft.irfft(np.fft.rfft(x[:-1]) * 0.5, n=CALIBRATION_POINTS)
        x = np.sin(np.append(y, y[0]))
    return float(x[0])


def slowdown(budget):
    """Calibration time over CALIBRATION_REF_S: median of samples taken for `budget` s."""
    samples = []
    begin = time.perf_counter()
    while not samples or time.perf_counter() - begin < budget:
        start = time.perf_counter()
        calibration_work()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) / CALIBRATION_REF_S


def use_checkout_package():
    """Put the checkout's src/ first on the import path; False if it is missing."""
    if not (SRC / "neelwall" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def source_digest():
    """SHA-256 over the checkout's neelwall sources (paths and contents)."""
    digest = hashlib.sha256()
    package = SRC / "neelwall"
    for path in sorted(package.rglob("*.py")):
        digest.update(path.relative_to(package).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def import_package():
    """Import neelwall afresh (its dependencies stay loaded) and return its layers."""
    for key in [k for k in sys.modules if k == "neelwall" or k.startswith("neelwall.")]:
        del sys.modules[key]
    importlib.import_module("neelwall.cli")
    return SimpleNamespace(**{name: sys.modules[f"neelwall.{name}"] for name in LAYERS})


def set_up(workload):
    """Set up at least SETUP_REPEATS times and for SETUP_SECONDS; the last stays.

    Returns each set-up's wall time and the slowdown measured around it.
    """
    walls, slow = [], []
    before = slowdown(0.0)
    while (len(walls) < SETUP_REPEATS
           or (sum(walls) < SETUP_SECONDS and len(walls) < SETUP_MAX_REPEATS)):
        start = time.perf_counter()
        workload.setup(import_package())
        walls.append(time.perf_counter() - start)
        after = slowdown(CALIBRATION_SHARE * walls[-1])
        slow.append((before + after) / 2)
        before = after
    return walls, slow


def measure(workload, seconds, tracer=None):
    """Closed loop for `seconds`.

    Returns each op's wall time, the slowdown measured around it, the op's
    process CPU time (all threads), and the failed ops' reasons.
    """
    walls, slow, cpus, failures = [], [], [], []
    before = slowdown(0.0)
    begin = time.perf_counter()
    while not walls or time.perf_counter() - begin < seconds:
        workload.prepare()
        out, problems = None, []
        cpu_start = time.process_time()
        start = time.perf_counter()
        try:
            with tracer.record("op") if tracer else contextlib.nullcontext():
                out = workload.op()
        except Exception as exc:  # a raising operation counts as failed
            problems = [f"{type(exc).__name__}: {exc}"]
        finally:
            walls.append(time.perf_counter() - start)
            cpus.append(time.process_time() - cpu_start)
        after = slowdown(CALIBRATION_SHARE * walls[-1])
        slow.append((before + after) / 2)
        before = after
        if not problems:
            try:
                problems = workload.check(out)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            failures.append(problems)
    return walls, slow, cpus, failures


def reference(walls, slow):
    return [w / f for w, f in zip(walls, slow)]


def layer_metrics(spans, n_ops, factor):
    """Per-op layer metrics from the traced spans, plus a per-call table.

    Span times are divided by `factor`, the traced ops' median slowdown.
    """
    own = self_times(spans)
    calls, incl, excl, layer_self = Counter(), defaultdict(float), defaultdict(float), defaultdict(float)
    rows = defaultdict(list)
    for s in spans:
        calls[s.name] += 1
        incl[s.name] += s.end - s.start
        excl[s.name] += own[s.id]
        layer_self[s.name.split(".")[0]] += own[s.id]
        if s.name == "analysis._row_for":
            rows[s.parent].append(s)

    iterations = sum(s.result for s in spans if s.name == "minimize.minimize")
    trials = (calls["energy.energy_delta"] - iterations
              - calls["energy.symmetrize_rearrange"])
    sweeps = [s for s in spans if s.name == "analysis.sweep"]
    sweep_wall = sum(s.end - s.start for s in sweeps)
    cell_max = [max(c.end - c.start for c in rows[s.id]) for s in sweeps if rows[s.id]]

    def per(x):
        return x / n_ops

    def per_s(x):
        return x / n_ops / factor

    metrics = {
        "minimize.iterations": (per(iterations), "count"),
        "minimize.linesearch_trials_per_iter": (trials / iterations if iterations else 0.0, "1"),
        "minimize.accept_ratio": (iterations / trials if trials else 0.0, "1"),
        "minimize._precondition.calls": (per(calls["minimize._precondition"]), "count"),
        "energy.energy_delta.calls": (per(calls["energy.energy_delta"]), "count"),
        "energy.gradient_values.calls": (per(calls["energy.gradient_values"]), "count"),
        "energy.symmetrize_rearrange.calls": (per(calls["energy.symmetrize_rearrange"]), "count"),
        "energy.energy_parts.calls": (per(calls["energy.energy_parts"]), "count"),
        "fractional.half_laplacian_spectral_values.calls": (
            per(calls["fractional.half_laplacian_spectral_values"]), "count"),
        "fractional.half_laplacian_spectral_values.s": (
            per_s(incl["fractional.half_laplacian_spectral_values"]), "s"),
        "green.green_quadrature.calls": (per(calls["green.green_quadrature"]), "count"),
        "green.forcing_terms.s": (per_s(incl["green.forcing_terms"]), "s"),
        "green.decay_amplitude.s": (per_s(incl["green.decay_amplitude"]), "s"),
        "green.decay_amplitude.calls_per_cell": (
            calls["green.decay_amplitude"] / calls["analysis.solve_cell"]
            if calls["analysis.solve_cell"] else 0.0, "1"),
        "grid.self_s": (per_s(layer_self["grid"]), "s"),
        "green.self_s": (per_s(layer_self["green"]), "s"),
        "analysis.self_s": (per_s(layer_self["analysis"]), "s"),
        "io.emit.bytes": (per(sum(s.result for s in spans if s.name == "io.emit")), "B"),
        "analysis.sweep.workers": (
            max((len({c.thread for c in rows[s.id]}) for s in sweeps), default=0), "count"),
        "analysis.sweep.cpu_util": (
            sum(s.cpu_end - s.cpu_start for s in sweeps) / sweep_wall if sweeps else 0.0,
            "1"),
    }
    table = {name: (per(calls[name]), per_s(incl[name]), per_s(excl[name])) for name in calls}
    details = {
        "layer_self_s": {k: per_s(v) for k, v in layer_self.items()},
        "analysis.sweep.cell_s.max": statistics.median(cell_max) / factor if cell_max else None,
        "cells": sorted({s.result for s in spans if s.name == "analysis.solve_cell"}),
    }
    return metrics, table, details


def percentile90(times):
    return statistics.quantiles(times, n=10, method="inclusive")[-1]


def report_end_to_end(walls, slow, cpus, failures, setup_walls, setup_slow):
    times = reference(walls, slow)
    n = len(times)
    p90 = (f"{percentile90(times):.6f} s" if n >= P90_MIN_SAMPLES
           else f"n/a (needs >= {P90_MIN_SAMPLES} samples)")
    metrics = {
        "op_s.p50": (statistics.median(times), "s"),
        "setup_s": (statistics.median(reference(setup_walls, setup_slow)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(f"op_s.p50     {metrics['op_s.p50'][0]:.6f} s  ({n} samples; wall "
          f"{statistics.median(walls):.6f} s, process CPU {statistics.median(cpus):.6f} s, "
          f"at median slowdown {statistics.median(slow):.3f})")
    print(f"op_s.p90     {p90}")
    print(f"error_rate   {len(failures) / n:.6f}  ({len(failures)} of {n} failed)")
    print(f"peak_rss_mb  {metrics['peak_rss_mb'][0]:.1f} MB")
    print(f"setup_s      {metrics['setup_s'][0]:.6f} s  (median of {len(setup_walls)} "
          f"set-ups; wall {statistics.median(setup_walls):.6f} s)")
    return metrics


def report_layers(workload, untraced, traced, tracer, seed_counts, strict):
    """Print the traced run's layer table; return its per-layer metrics and problems.

    Each count in `seed_counts` is compared with the traced run's.  With
    `strict`, which main sets when the checkout's sources are those the
    record was made from, a count that differs is a problem: the wrappers
    would have changed what the program does.
    """
    walls, slow = traced
    metrics, table, details = layer_metrics(tracer.spans, len(walls),
                                            statistics.median(slow))
    before = slowdown(0.2)
    extra, problems = workload.extra()
    factor = (before + slowdown(0.2)) / 2
    extra = {name: (value / factor if unit == "s" else value, unit)
             for name, (value, unit) in extra.items()}
    p50_off = statistics.median(reference(*untraced))
    p50_on = statistics.median(reference(walls, slow))
    metrics["trace.overhead_s"] = (p50_on - p50_off, "s")

    print(f"traced ops: {len(walls)}; op_s.p50 untraced {p50_off:.6f} s, "
          f"traced {p50_on:.6f} s (reference seconds throughout)")
    print(f"{'span':44s} {'calls/op':>10s} {'s/op':>10s} {'self s/op':>10s}")
    for name, (n_calls, total, own) in sorted(table.items(), key=lambda kv: -kv[1][1]):
        print(f"{name:44s} {n_calls:10.1f} {total:10.6f} {own:10.6f}")
    for layer, own in sorted(details["layer_self_s"].items()):
        print(f"layer self time  {layer:10s} {own:.6f} s/op")
    cell_max = details["analysis.sweep.cell_s.max"]
    if cell_max is not None:
        print(f"analysis.sweep.cell_s.max {cell_max:.6f} s")
    for name, (value, unit) in extra.items():
        print(f"{name} {value:.6f} {unit}  (beside the untraced op_s.p50 {p50_off:.6f} s)")
    if details["cells"]:
        print("iterations per cell: " + ", ".join(
            f"(nu={nu:g}, h={h:g}) {it}" for nu, h, it in details["cells"]))
    for name, want in seed_counts.items():
        if name == "cells":
            got, want = [c[2] for c in details["cells"]], [c[2] for c in want]
        else:
            got = metrics[name][0]
        verdict = "same as" if got == want else "differs from"
        print(f"count check: {name} = {got} {verdict} the seed record {want}")
        if strict and got != want:
            problems.append(f"{name} = {got}, the seed record has {want}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    return metrics, problems


def run(workload, seconds, trace, label, seed_counts, strict):
    """Set up, measure and print one run; returns the result object.

    `seed_counts` and `strict` are used by the traced run, see report_layers.
    """
    setup_walls, setup_slow = set_up(workload)
    walls, slow, cpus, failures = measure(workload, seconds)
    problems = []
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced_walls, traced_slow, _, traced_failures = measure(workload, seconds, tracer)
        finally:
            tracer.uninstall()
        failures += traced_failures
        metrics, problems = report_layers(workload, (walls, slow),
                                          (traced_walls, traced_slow), tracer,
                                          seed_counts, strict)
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"trace-{label}.json", "w") as f:
            json.dump([[s.id, s.name, s.start, s.end, s.parent, s.thread]
                       for s in tracer.spans], f)
        attempted = len(walls) + len(traced_walls)
    else:
        metrics = report_end_to_end(walls, slow, cpus, failures, setup_walls, setup_slow)
        attempted = len(walls)
    for reasons in failures[:SHOWN_PROBLEMS]:
        print("failed op: " + "; ".join(reasons))
    for reason in problems:
        print("failed check: " + reason)
    return {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not use_checkout_package():
        print(f"error: no neelwall package under {SRC}", file=sys.stderr)
        return 2

    refs = load_references()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"machine: nproc {os.cpu_count()}, python {sys.version.split()[0]}, "
          f"numpy {np.__version__}, scipy {scipy.__version__}")
    strict = source_digest() == refs["source_digest"]
    if args.trace:
        print(f"count check: {'strict' if strict else 'informational'}; the sources "
              f"{'are' if strict else 'differ from'} those of the recorded commit "
              f"{refs['commit']}")
    OUT.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        workload = WORKLOADS[args.workload](refs["energies"], args.seed, tmpdir)
        result = run(workload, args.seconds, args.trace,
                     f"{args.workload}-seed{args.seed}",
                     refs["seed_counts"][args.workload], strict)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
