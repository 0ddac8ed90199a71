"""Smooth test phantoms and measurement noise.

The standard phantom is a sum of six radially symmetric bumps with compact
support strictly inside the square.  The bump kernel

    b(r) = a * (1 - (r/R)^2)^2   for r <= R,   0 otherwise

is C1 across the support edge (value and slope both vanish at r = R), so
the phantom is smooth enough that discretization error does not mask the
behavior of the reconstruction itself.  Its radial slope peaks at
8a / (3 sqrt(3) R).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import BoundaryTrace, ConfigError, Grid2D, ScalarField, boundary_count


@dataclass(frozen=True)
class BumpSpec:
    """One radial bump: center inside (-1,1)^2, support radius, peak value."""

    center: tuple[float, float]
    radius: float
    amplitude: float

    def __post_init__(self):
        cx, cy = self.center
        if not np.all(np.isfinite([cx, cy, self.radius, self.amplitude])):
            raise ConfigError(f"bump center, radius and amplitude must be finite, got "
                              f"({cx}, {cy}), {self.radius!r}, {self.amplitude!r}")
        if self.radius <= 0:
            raise ConfigError(f"bump radius must be positive, got {self.radius!r}")
        if max(abs(cx), abs(cy)) + self.radius >= 1.0:
            raise ConfigError(
                f"bump at ({cx}, {cy}) with radius {self.radius} "
                "does not fit strictly inside the domain"
            )


#: Six well-separated inclusions used by the demos and the verification runs.
PAPER_SIX = (
    BumpSpec((-0.45, 0.35), 0.22, 1.0),
    BumpSpec((0.1, 0.5), 0.22, 0.8),
    BumpSpec((0.5, 0.3), 0.22, 0.9),
    BumpSpec((-0.4, -0.25), 0.22, 0.85),
    BumpSpec((0.05, -0.4), 0.22, 1.0),
    BumpSpec((0.45, -0.35), 0.22, 0.75),
)


def radial_bump(r, radius: float, amplitude: float):
    """Bump kernel a*(1-(r/R)^2)^2 for r <= R, else 0 (vectorized in r)."""
    if radius <= 0:
        raise ConfigError(f"bump radius must be positive, got {radius!r}")
    # r is clamped to R before the division, so nothing overflows outside the
    # support, where rho = 1 gives a (signed) zero
    rho = np.minimum(np.asarray(r, dtype=float), radius) / radius
    return amplitude * (1.0 - rho * rho) ** 2


def render_phantom(specs, grid: Grid2D) -> ScalarField:
    """Pointwise sum of the BumpSpecs' bumps sampled at the grid nodes.

    Each bump is evaluated on the index box of its support, padded by one
    node on each side: every node outside that box lies farther than the
    radius from the center, where the bump would add exactly 0.0.
    """
    x = grid.coords()
    values = np.zeros((grid.n, grid.n))
    for spec in specs:
        (cx, cy), radius = spec.center, spec.radius
        # >= 0: the support lies strictly inside the square, beyond x[0] = -1
        lo = np.searchsorted(x, (cx - radius, cy - radius)) - 1
        hi = np.searchsorted(x, (cx + radius, cy + radius), side="right") + 1
        box = np.s_[lo[0]:hi[0], lo[1]:hi[1]]
        r = np.hypot(x[box[0], None] - cx, x[None, box[1]] - cy)
        values[box] += radial_bump(r, radius, spec.amplitude)
    return ScalarField(grid, values)


def paper_six_phantom(grid: Grid2D) -> ScalarField:
    """The default six-bump phantom on the given grid."""
    return render_phantom(PAPER_SIX, grid)


def add_noise(g: BoundaryTrace, level: float, seed: int) -> BoundaryTrace:
    """Add white Gaussian noise of prescribed relative L2 size to a trace.

    A seeded standard-normal draw per (time, boundary node) is made, the
    values at Gamma's nodes are kept, rescaled globally so that
    ||noise|| / ||g|| equals ``level`` exactly, and added to the samples.
    The draw is made in full-width row blocks, so the noise at a node does
    not depend on Gamma: it is that of one (J + 1) x (4n - 4) draw.  A level
    that is not finite, or so large that ||g|| + ||noise|| overflows, is
    refused.
    """
    if not np.isfinite(level):
        raise ConfigError(f"noise level must be finite, got {level!r}")
    if level < 0:
        raise ConfigError(f"noise level must be nonnegative, got {level!r}")
    if level == 0:
        return replace(g, samples=g.samples.copy())
    signal = float(np.linalg.norm(g.samples))
    if signal == 0.0:
        raise ConfigError("cannot scale noise relative to an all-zero trace")
    size = level * signal  # Python floats: an overflow is inf, with no warning
    if not np.isfinite(signal + size):
        raise ConfigError(f"noise level {level!r} is too large for a trace of norm "
                          f"{signal:g}: the noisy samples would overflow")
    # one trace-sized array: row blocks of about 2**15 draws each give it
    # Gamma's columns, and it is scaled and summed in place.  It is C-ordered,
    # so at full Gamma the norm sums in the order of one draw, to the bit
    rng = np.random.default_rng(seed)
    nb = boundary_count(g.grid.n)
    noisy = np.empty(g.samples.shape)
    step = max(1, (1 << 15) // nb)
    for i in range(0, len(noisy), step):
        rows = noisy[i:i + step]
        rows[:] = rng.standard_normal((len(rows), nb))[:, g.bspec.gamma]
    noisy *= size / np.linalg.norm(noisy)
    noisy += g.samples
    return replace(g, samples=noisy)
