"""Photoacoustic initial-pressure reconstruction in a reverberant cavity.

Boundary pressure data recorded on (part of) the walls of a perfectly
reflecting square cavity are inverted for the initial pressure by running
the wave equation backward in time with an energy-absorbing boundary
condition driven by the data, optionally refined by a geometrically
convergent fixed-point iteration.
"""

from types import ModuleType as _ModuleType

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
    reverse_own_trace,
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
    dct2_forward,
    dct2_inverse,
    mode_frequencies,
    synthesize_data,
)

__version__ = "0.1.0"

# every public name bound above; importing them also binds their modules
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
