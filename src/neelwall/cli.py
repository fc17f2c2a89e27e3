"""Command-line interface: solve / green / sweep / verify subcommands.

Exit codes: 0 on full convergence, 2 on any unconverged cell or failed
verification, 1 on usage or I/O errors.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .analysis import (
    DEFAULT_HALF_LENGTH,
    DEFAULT_N_POINTS,
    solve_cell,
    sweep,
    verify,
    wall_width,
)
from .green import green_decay_coeff, green_quadrature
from .grid import ModelParams
from .io import emit, load_result, _encode, _fmt
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="neelwall", allow_abbrev=False,
                     description="One-dimensional Neel wall solver")
    subs = parser.add_subparsers(dest="command", required=True)

    solve = subs.add_parser("solve", help="minimize the wall energy for one (nu, h)")
    solve.add_argument("--nu", type=float, required=True, help="thin film parameter, > 0")
    solve.add_argument("--h", type=float, default=0.0, help="transverse field in [0, 1)")
    _add_grid_and_budget_flags(solve)

    green = subs.add_parser("green", help="sample the fundamental solution")
    green.add_argument("--nu", type=float, required=True)
    green.add_argument("--h", type=float, default=0.0)
    green.add_argument("--xmax", type=float, default=10.0)
    green.add_argument("--samples", type=int, default=201)
    green.add_argument("--out", type=str, default=None)

    sw = subs.add_parser("sweep", help="independent solves over a (nu, h) table")
    sw.add_argument("--nu-list", type=float, nargs="+", required=True)
    sw.add_argument("--h-list", type=float, nargs="+", required=True)
    _add_grid_and_budget_flags(sw)
    sw.add_argument("--format", type=str, choices=("json", "csv"), default="csv")

    ver = subs.add_parser("verify", help="re-check a stored solve result")
    ver.add_argument("--in", dest="infile", type=str, required=True)
    ver.add_argument("--tol", type=float, default=SolveOptions.tol)

    return parser


def _cmd_solve(args) -> int:
    opts = SolveOptions(tol=args.tol, max_iter=args.max_iter)
    result = solve_cell(args.nu, args.h, opts, args.half_length, args.points)
    print(f"converged: {result.converged}  iterations: {result.iterations}  "
          f"residual_sup: {_fmt(result.residual_sup)}")
    print(f"energy: total {_fmt(result.energy.total)}  "
          f"(exchange {_fmt(result.energy.exchange)}, "
          f"anisotropy {_fmt(result.energy.anisotropy)}, "
          f"stray {_fmt(result.energy.stray)})")
    if result.converged:
        report = verify(result, tol=args.tol)
        print(f"monotone_strict: {report.monotone_strict}  "
              f"symmetry_defect: {_fmt(report.symmetry_defect)}  "
              f"range_ok: {report.range_ok}")
        if report.decay is not None:
            print(f"wall_width: {_fmt(wall_width(result.profile))}  "
                  f"tail amplitude: multipole {_fmt(report.decay.amplitude_multipole)}, "
                  f"tail fit {_fmt(report.decay.amplitude_tailfit)}, "
                  f"exponent {_fmt(report.decay.exponent_fit)}")
    if args.out:
        emit(result, "json", args.out)
        print(f"wrote {args.out}")
    return 0 if result.converged else 2


def _cmd_green(args) -> int:
    params = ModelParams(args.nu, args.h)
    xs = np.linspace(-args.xmax, args.xmax, args.samples)
    gs = [green_quadrature(x, params) for x in xs]
    doc = {
        "kind": "green_samples",
        "params": {"nu": args.nu, "h": args.h},
        "decay_coeff": green_decay_coeff(params),
        "x": list(xs),
        "g": gs,
    }
    if args.out:
        with open(args.out, "w") as f:
            f.write(_encode(doc) + "\n")
        print(f"wrote {args.out}")
    else:
        print(_encode(doc))
    return 0


def _cmd_sweep(args) -> int:
    opts = SolveOptions(tol=args.tol, max_iter=args.max_iter)
    table = sweep(args.nu_list, args.h_list, opts,
                  half_length=args.half_length, n_points=args.points)
    for row in table:
        status = "ok" if row.converged else "FAILED"
        print(f"nu={row.nu:g} h={row.h:g}: {status}  "
              f"E={row.energy_total:.6g}  width={row.wall_width:.4g}")
    if args.out:
        emit(table, args.format, args.out)
        print(f"wrote {args.out}")
    return 0 if table.all_converged else 2


def _cmd_verify(args) -> int:
    result = load_result(args.infile)
    if not result.converged:
        print("stored result is not converged")
        return 2
    report = verify(result, tol=args.tol)
    checks = {
        "monotone_strict": report.monotone_strict,
        "symmetry_defect <= 10*tol": report.symmetry_ok,
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
    exponent = _fmt(report.decay.exponent_fit) if report.decay else "n/a"
    print(f"symmetry_defect: {_fmt(report.symmetry_defect)}  "
          f"monotone_margin: {_fmt(report.monotone_margin)}  "
          f"exponent_fit: {exponent}")
    return 0 if ok else 2


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "green":
            return _cmd_green(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "verify":
            return _cmd_verify(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 1


if __name__ == "__main__":
    sys.exit(main())
