"""Command-line interface: solve / green / sweep / verify subcommands.

Exit codes: 0 on full convergence, 2 on any unconverged cell, failed
verification or unconverged quadrature, 1 on usage or I/O errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .analysis import (
    DEFAULT_HALF_LENGTH,
    DEFAULT_N_POINTS,
    SYMMETRY_TOL_FACTOR,
    solve_cell,
    sweep,
    verify,
    wall_width,
)
from .green import green_decay_coeff, green_values
from .grid import ModelParams
from .io import emit, load_result
from .minimize import SolveOptions


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _add_grid_and_budget_flags(sub):
    """Flags shared by solve and sweep; the budget defaults are SolveOptions'."""
    sub.add_argument("--half-length", type=float, default=DEFAULT_HALF_LENGTH)
    sub.add_argument("--points", type=int, default=DEFAULT_N_POINTS)
    sub.add_argument("--tol", type=float, default=SolveOptions.tol)
    sub.add_argument("--max-iter", type=int, default=SolveOptions.max_iter)
    sub.add_argument("--out", type=str, default=None)


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on first use and shared by all
    later calls: parse_args keeps no state, and each command's `run` looks
    up the functions it calls when it runs."""
    parser = _Parser(prog="neelwall", allow_abbrev=False,
                     description="One-dimensional Neel wall solver")
    subs = parser.add_subparsers(dest="command", required=True)

    solve = subs.add_parser("solve", help="minimize the wall energy for one (nu, h)")
    solve.add_argument("--nu", type=float, required=True, help="thin film parameter, > 0")
    solve.add_argument("--h", type=float, default=0.0, help="transverse field in [0, 1)")
    _add_grid_and_budget_flags(solve)
    solve.set_defaults(run=_cmd_solve)

    green = subs.add_parser("green", help="sample the fundamental solution")
    green.add_argument("--nu", type=float, required=True)
    green.add_argument("--h", type=float, default=0.0)
    green.add_argument("--xmax", type=float, default=10.0)
    green.add_argument("--samples", type=int, default=201)
    green.add_argument("--out", type=str, default=None)
    green.set_defaults(run=_cmd_green)

    sw = subs.add_parser("sweep", help="independent solves over a (nu, h) table")
    sw.add_argument("--nu-list", type=float, nargs="+", required=True)
    sw.add_argument("--h-list", type=float, nargs="+", required=True)
    _add_grid_and_budget_flags(sw)
    sw.add_argument("--format", type=str, choices=("json", "csv"), default="csv")
    sw.set_defaults(run=_cmd_sweep)

    ver = subs.add_parser("verify", help="re-check a stored solve result")
    ver.add_argument("--in", dest="infile", type=str, required=True)
    ver.add_argument("--tol", type=float, default=SolveOptions.tol)
    ver.set_defaults(run=_cmd_verify)

    return parser


def _cmd_solve(args) -> int:
    opts = SolveOptions(tol=args.tol, max_iter=args.max_iter)
    result = solve_cell(args.nu, args.h, opts, args.half_length, args.points)
    print(f"converged: {result.converged}  iterations: {result.iterations}  "
          f"residual_sup: {result.residual_sup}")
    print(f"energy: total {result.energy.total}  "
          f"(exchange {result.energy.exchange}, "
          f"anisotropy {result.energy.anisotropy}, "
          f"stray {result.energy.stray})")
    if result.converged:
        report = verify(result, tol=args.tol)
        print(f"monotone_strict: {report.monotone_strict}  "
              f"symmetry_defect: {report.symmetry_defect}  "
              f"range_ok: {report.range_ok}")
        if report.decay is None:
            print("tail not analysed: the wall fails the decay preconditions")
        else:
            print(f"wall_width: {wall_width(result.profile)}  "
                  f"tail amplitude: multipole {report.decay.amplitude_multipole}, "
                  f"tail fit {report.decay.amplitude_tailfit}, "
                  f"exponent {report.decay.exponent_fit}")
    if args.out:
        emit(result, "json", args.out)
        print(f"wrote {args.out}")
    return 0 if result.converged else 2


def _cmd_green(args) -> int:
    params = ModelParams(args.nu, args.h)
    if not np.isfinite(args.xmax):   # green_values' rule, before linspace warns
        raise ValueError("x must be finite")
    if args.samples < 1:
        raise ValueError("samples must be >= 1")
    xs = np.linspace(-args.xmax, args.xmax, args.samples)
    doc = {
        "kind": "green_samples",
        "params": {"nu": args.nu, "h": args.h},
        "decay_coeff": green_decay_coeff(params),
        "x": xs.tolist(),
        "g": green_values(xs, params).tolist(),
    }
    text = json.dumps(doc, allow_nan=False)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _cmd_sweep(args) -> int:
    opts = SolveOptions(tol=args.tol, max_iter=args.max_iter)
    rows = sweep(args.nu_list, args.h_list, opts,
                 half_length=args.half_length, n_points=args.points)
    for row in rows:
        status = "ok" if row.converged else "FAILED"
        print(f"nu={row.nu:g} h={row.h:g}: {status}  "
              f"E={row.energy_total:.6g}  width={row.wall_width:.4g}")
    if args.out:
        emit(rows, args.format, args.out)
        print(f"wrote {args.out}")
    return 0 if all(r.converged for r in rows) else 2


def _cmd_verify(args) -> int:
    SolveOptions(tol=args.tol)   # a bad --tol exits 1, whatever the file holds
    result = load_result(args.infile)
    if not result.converged:
        print("stored result is not converged")
        return 2
    report = verify(result, tol=args.tol)
    checks = {
        "monotone_strict": report.monotone_strict,
        f"symmetry_defect <= {SYMMETRY_TOL_FACTOR:g}*tol": report.symmetry_ok,
        "range_ok": report.range_ok,
        "residual_sup <= tol": report.residual_ok,
        "decay amplitude positive": report.decay is not None
                                    and report.decay.amplitude_multipole > 0
                                    and report.decay.amplitude_tailfit > 0,
    }
    ok = True
    for name, passed in checks.items():
        print(f"{'PASS' if passed else 'FAIL'}  {name}")
        ok = ok and passed
    exponent = report.decay.exponent_fit if report.decay else "n/a"
    print(f"symmetry_defect: {report.symmetry_defect}  "
          f"monotone_margin: {report.monotone_margin}  "
          f"exponent_fit: {exponent}")
    return 0 if ok else 2


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (OSError, ValueError, MemoryError) as exc:   # MemoryError: a grid too large
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:   # a quadrature that did not converge
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
