"""One-dimensional Neel wall profiles under a transverse applied field.

Solver library for the reduced thin-film wall energy: exchange + anisotropy
+ nonlocal stray field (half-Laplacian of sin theta), minimized over angle
profiles connecting the two monodomain states, with decay analysis of the
x^{-2} wall tail and a verification suite for monotonicity, symmetry, and
uniqueness of the minimizer.
"""

from .analysis import (
    SweepRow,
    SweepTable,
    VerificationReport,
    solve_cell,
    sweep,
    verify,
    wall_width,
)
from .energy import (
    EnergyBreakdown,
    clamp_rotations,
    energy,
    energy_gradient,
    sin_midpoint,
    symmetrize_rearrange,
)
from .fractional import (
    FieldSamples,
    h_half_seminorm_sq,
    half_laplacian_pv,
    half_laplacian_spectral,
)
from .green import (
    DecayReport,
    ForcingTerms,
    apply_linearized_operator,
    convolve_green,
    decay_amplitude,
    forcing_terms,
    green_decay_coeff,
    green_hat,
    green_quadrature,
    green_samples,
)
from .grid import Grid1D, ModelParams, Profile, interpolate, make_grid, reference_profile
from .io import emit, load_result, load_table
from .minimize import SolveOptions, SolveResult, minimize, recenter

__all__ = [
    "Grid1D", "ModelParams", "Profile", "make_grid", "reference_profile",
    "interpolate",
    "FieldSamples", "half_laplacian_spectral", "half_laplacian_pv",
    "h_half_seminorm_sq",
    "EnergyBreakdown", "energy", "energy_gradient",
    "clamp_rotations", "symmetrize_rearrange", "sin_midpoint",
    "SolveOptions", "SolveResult", "minimize", "recenter",
    "green_hat", "green_quadrature", "green_decay_coeff", "green_samples",
    "apply_linearized_operator", "ForcingTerms", "forcing_terms",
    "DecayReport", "decay_amplitude", "convolve_green",
    "VerificationReport", "verify", "SweepRow", "SweepTable", "sweep",
    "solve_cell", "wall_width",
    "emit", "load_result", "load_table",
]

__version__ = "0.1.0"
