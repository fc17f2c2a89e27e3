import sys

import numpy as np
import pytest

import neelwall as nw

DEFAULT_TOL = 1e-6


def make_random_admissible(grid, params, rng, modes=12, amp=0.6):
    """Reference profile plus a random smooth field vanishing at the ends.

    Amplitudes are chosen so the raw profile regularly leaves the admissible
    angle range, which exercises the clamp.
    """
    x = grid.points
    length = grid.half_length
    field = np.zeros_like(x)
    for m in range(1, modes + 1):
        field += rng.normal(0.0, amp / m) * np.sin(np.pi * m * (x + length) / (2 * length))
    ref = nw.reference_profile(grid, params)
    return nw.Profile(grid, ref.values + field, params)


def odd_part(x):
    """The part of x that is odd about the center sample, 0.5 (x - x[::-1])."""
    return 0.5 * (x - x[::-1])


@pytest.fixture(scope="session")
def baseline():
    """Converged production-scale wall for nu=1, h=0 (the acceptance anchor)."""
    grid = nw.make_grid(40.0, 4096)
    params = nw.ModelParams(1.0, 0.0)
    result = nw.minimize(nw.reference_profile(grid, params),
                         nw.SolveOptions(tol=DEFAULT_TOL))
    assert result.converged
    return result


@pytest.fixture(scope="session")
def asymptotic_solves():
    """Walls solved on a long domain whose fit window sits in the far field."""
    out = {}
    for nu, h in [(1.0, 0.0), (2.0, 0.3), (0.5, 0.5)]:
        grid = nw.make_grid(80.0, 8192)
        params = nw.ModelParams(nu, h)
        result = nw.minimize(nw.reference_profile(grid, params),
                             nw.SolveOptions(tol=DEFAULT_TOL))
        assert result.converged
        out[(nu, h)] = result
    return out


@pytest.fixture
def quadrature_calls(monkeypatch):
    """run(f): f() and the number of green_quadrature calls it made, counted
    at every name in the package that binds the function."""
    def run(f):
        calls = []
        quadrature = nw.green.green_quadrature

        def counting(x, params):
            calls.append(x)
            return quadrature(x, params)

        with monkeypatch.context() as m:
            for name, module in list(sys.modules.items()):
                if (name.split(".")[0] == "neelwall"
                        and getattr(module, "green_quadrature", None) is quadrature):
                    m.setattr(module, "green_quadrature", counting)
            out = f()
        return out, len(calls)
    return run
