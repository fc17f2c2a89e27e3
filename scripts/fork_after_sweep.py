#!/usr/bin/env python3
"""Sweep on worker processes, fork, and leave the child through sys.exit.

    python -W error scripts/fork_after_sweep.py [--child-sweeps]

The parent sweeps 2x2 cells at half_length 20, N = 256, which runs them on
forked worker processes, then forks a child.  With --child-sweeps the
child repeats the sweep on a pool of its own.  It then exits through
sys.exit, so the interpreter's exit handlers run in it, multiprocessing's
among them, which must not try to join or shut down the parent's workers.
The exit status is the child's: 0, or 1 if its sweep differs from the
parent's.  A clean run writes nothing to standard error.
"""

import os
import sys

import neelwall as nw


def table():
    return nw.sweep([0.5, 1], [0, 0.2], half_length=20, n_points=256)


if __name__ == "__main__":
    want = table()
    pid = os.fork()
    if pid == 0:
        sys.exit(0 if "--child-sweeps" not in sys.argv or table() == want else 1)
    sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
