#!/usr/bin/env python3
"""Print a bit-exact digest of the solver on a fixed set of cells.

One line per cell (nu, h, half_length, n_points): the Newton step count,
repr of the total energy and of the residual sup-norm, and the SHA-256 of
the profile's bytes; then the Newton steps summed over all cells, the
solver's step budget on this set.  A change meant to leave every solve
bit-identical is checked with one `diff` of this script's output before
and after it:

    python scripts/solve_digest.py > before.txt
    ... apply the change ...
    python scripts/solve_digest.py | diff before.txt -
"""

import hashlib

import neelwall as nw

CELLS = (
    # the baseline cell and the refine cell of the benchmark
    [(1.0, 0.0, 40.0, 4096), (1.0, 0.0, 40.0, 16384)]
    # the benchmark's 3x3 sweep
    + [(nu, h, 80.0, 8192) for nu in (0.1, 2.0, 10.0) for h in (0.0, 0.3, 0.99)]
    + [(0.5, 0.5, 20.0, 1024), (4.0, 0.2, 20.0, 2048)]
    # the smallest golden cells of tests/test_minimize.py
    + [(1.0, 0.0, 10.0, 256), (10.0, 0.99, 20.0, 512)]
)


def main():
    steps = 0
    for nu, h, half_length, n_points in CELLS:
        result = nw.solve_cell(nu, h, None, half_length, n_points)
        steps += result.iterations
        digest = hashlib.sha256(result.profile.values.tobytes()).hexdigest()
        print(f"nu={nu:g} h={h:g} L={half_length:g} N={n_points}"
              f" iterations={result.iterations} energy={result.energy.total!r}"
              f" residual={result.residual_sup!r} profile={digest}")
    print(f"total iterations={steps} over {len(CELLS)} cells")


if __name__ == "__main__":
    main()
