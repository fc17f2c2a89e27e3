#!/usr/bin/env python3
"""Characterize the x^{-2} wall tail: where the asymptotic regime begins.

Solves a wall on a long domain and tabulates the local log-log slope and the
compensated profile x^2 (theta - theta_h) across fit windows, together with
the amplitude estimates: the multipole with its three charges, the tail fit
on [L/8, L/4] and the far field, the median of x^2 (theta - theta_h) on
[L/16, L/8].  A window must sit beyond the crossover from the exponentially
decaying core of the fundamental solution (scale ~ 2 / (nu cos^2 theta_h))
and beyond its x^{-4} correction; for nu ~ 1 that means x of order 15 and
up, so the far field wants a long domain (--half-length 320 --points 32768).
"""

import argparse

import numpy as np

import neelwall as nw


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nu", type=float, default=1.0)
    ap.add_argument("--h", type=float, default=0.0)
    ap.add_argument("--half-length", type=float, default=80.0)
    ap.add_argument("--points", type=int, default=8192)
    args = ap.parse_args()

    params = nw.ModelParams(args.nu, args.h)
    coeff = nw.green_decay_coeff(params)
    print(f"fundamental solution: decay coefficient {coeff:.6f}")
    for x in (5.0, 10.0, 20.0, 50.0):
        g = nw.green_quadrature(x, params)
        print(f"  x={x:5.1f}: x^2 G(x) / coeff = {x * x * g / coeff:.4f}")

    result = nw.solve_cell(args.nu, args.h, nw.SolveOptions(),
                           half_length=args.half_length, n_points=args.points)
    if not result.converged:
        raise SystemExit(2)
    p = result.profile
    x = p.grid.points
    dev = p.values - params.theta_h

    print("\nwall tail windows:")
    for lo, hi in [(5, 10), (10, 20), (15, 30), (20, 40)]:
        if hi > args.half_length - 2:
            continue
        m = (x >= lo) & (x <= hi)
        slope = np.polyfit(np.log(x[m]), np.log(dev[m]), 1)[0]
        med = float(np.median(x[m] ** 2 * dev[m]))
        print(f"  [{lo:3d},{hi:3d}]: exponent {slope:7.3f}   "
              f"median x^2 dev {med:.5f}")

    report = nw.decay_amplitude(p)
    far = (x >= args.half_length / 16) & (x <= args.half_length / 8)
    far_field = float(np.median(x[far] ** 2 * dev[far]))
    print(f"\namplitudes: multipole {report.amplitude_multipole:.6f} "
          f"= {coeff:.6f} x (forcing integral {report.forcing_integral:.6f} "
          f"+ corner charge {report.corner_charge:.6f} "
          f"+ stray-tail charge {report.stray_tail_charge:.6f}), "
          f"tail fit {report.amplitude_tailfit:.6f}, "
          f"far field [L/16, L/8] {far_field:.6f}")
    print(f"ratio multipole/tailfit = "
          f"{report.amplitude_multipole / report.amplitude_tailfit:.4f}, "
          f"multipole/far field = {report.amplitude_multipole / far_field:.4f}")

if __name__ == "__main__":
    main()
