"""Photoacoustic initial-pressure reconstruction in a reverberant cavity.

Boundary pressure data recorded on (part of) the walls of a perfectly
reflecting square cavity are inverted for the initial pressure by running
the wave equation backward in time with an energy-absorbing boundary
condition driven by the data, optionally refined by a geometrically
convergent fixed-point iteration.
"""

from .core import (
    BoundarySpec,
    BoundaryTrace,
    ConfigError,
    Grid2D,
    GridMismatchError,
    ScalarField,
    StabilityError,
    StatePair,
    boundary_count,
    boundary_indices,
    boundary_mean,
    energy,
    l2_norm,
    num_steps,
    project_H0,
    project_H1,
    relative_l2,
    seminorm,
    snap_duration,
)
from .fdtd import (
    dissipative_boundary_update,
    dissipative_reverse_solve,
    forward_solve,
    interior_step,
    leapfrog_levels,
    reversal_error,
)
from .phantom import PAPER_SIX, BumpSpec, add_noise, paper_six_phantom, radial_bump, render_phantom
from .recon import (
    ReconConfig,
    ReconReport,
    estimate_contraction,
    initial_approximation,
    neumann_iterate,
)
from .spectral import (
    CosineCoeffs,
    dct2_forward,
    dct2_inverse,
    mode_frequencies,
    synthesize_data,
)

__version__ = "0.1.0"

__all__ = [
    "BoundarySpec", "BoundaryTrace", "BumpSpec", "ConfigError", "CosineCoeffs",
    "Grid2D", "GridMismatchError", "PAPER_SIX", "ReconConfig", "ReconReport",
    "ScalarField", "StabilityError", "StatePair", "add_noise", "boundary_count",
    "boundary_indices", "boundary_mean", "dct2_forward", "dct2_inverse",
    "dissipative_boundary_update", "dissipative_reverse_solve", "energy",
    "estimate_contraction", "forward_solve", "initial_approximation",
    "interior_step", "l2_norm", "leapfrog_levels", "mode_frequencies",
    "neumann_iterate", "num_steps", "paper_six_phantom", "project_H0", "project_H1",
    "radial_bump", "relative_l2", "render_phantom", "reversal_error", "seminorm",
    "snap_duration", "synthesize_data",
]
