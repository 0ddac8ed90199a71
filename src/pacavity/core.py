"""Grid geometry, field and trace containers, energy functionals and subspace projectors.

The computational domain is the square [-1,1] x [-1,1], discretized by an
n x n Cartesian grid that includes both endpoints, so the node spacing is
dx = 2/(n-1) and node (k, l) sits at (x_k, y_l) with x_k = -1 + k*dx.

A state of the acoustic system is a pair (u0, u1) of a pressure field and a
velocity field.  The energy of a state is

    E(u0, u1) = ||grad u0||^2_L2 + ||u1 / c||^2_L2,

its square root is the energy seminorm, and the full norm additionally
includes ||u0||_L2.  Integrals are evaluated with the tensor-product
trapezoid rule, whose per-axis weights are dx (dx/2 at the two endpoints);
with that choice constants and linear ramps integrate exactly.

Boundary nodes are enumerated counter-clockwise starting at the bottom-left
corner: bottom row left to right, right column bottom to top, top row right
to left, left column top to bottom, each corner appearing exactly once
(4n - 4 nodes total).  For boundary-condition updates a corner takes one
ghost node for each of its two walls; for line integrals along the
boundary each corner contributes half its weight to both incident sides,
which makes all boundary nodes carry equal weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

STEP_TOL = 1e-9  # num_steps accepts T / dt this close to an integer, relative
MAX_STEPS = 100_000  # ceiling on T / dt: 78 times the presets' 1280 steps; the
                     # trace at n = 257 is then 0.8 GB
MAX_N = 8193  # ceiling on the grid size: 32 times the presets' 257; one n x n
              # field of doubles is then 0.54 GB, and a solve holds several


class GridMismatchError(ValueError):
    """Operands are defined on different grids."""


class StabilityError(RuntimeError):
    """The time step violates the CFL stability bound."""


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass(frozen=True)
class Grid2D:
    """Uniform closed grid on [-1,1]^2 with n nodes per side.

    dt defaults to 0.5*dx, which satisfies the CFL bound dt <= dx/(sqrt(2)*c)
    for unit sound speed.
    """

    n: int
    dt: float = None  # type: ignore[assignment]

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or not 4 <= self.n <= MAX_N:
            raise ConfigError(f"grid size n must be an integer <= {MAX_N} and >= 4, "
                              f"got {self.n!r}")
        if isinstance(self.dt, (str, bytes, bool, np.bool_)):
            raise ConfigError(f"time step dt must be a number, got {self.dt!r}")
        # a Python float, so that dt / dx and the scheme's coefficient are doubles
        object.__setattr__(self, "dt", 0.5 * self.dx if self.dt is None else float(self.dt))
        if not 0.0 < self.dt < np.inf:
            raise ConfigError(f"time step dt must be positive, got {self.dt!r}")

    @property
    def dx(self) -> float:
        return 2.0 / (self.n - 1)

    def coords(self) -> np.ndarray:
        """Node coordinates along one axis, -1 ... 1 inclusive."""
        return -1.0 + self.dx * np.arange(self.n)

    def quad_weights(self) -> np.ndarray:
        """Per-axis trapezoid quadrature weights (length n, sums to 2)."""
        w = np.full(self.n, self.dx)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    def check_cfl(self, c_max: float) -> None:
        limit = self.dx / (np.sqrt(2.0) * c_max)
        if self.dt > limit * (1.0 + 1e-12):
            raise StabilityError(
                f"dt = {self.dt:g} exceeds the CFL limit {limit:g} "
                f"(dx = {self.dx:g}, max sound speed {c_max:g})"
            )


@dataclass(frozen=True)
class ScalarField:
    """One scalar value per grid node; values[k, l] samples (x_k, y_l).

    values is always a C-ordered float array (a copy only when the given
    array is not one), which the solvers' flat-view stencil relies on.  The
    fields cannot be reassigned, so that guarantee holds for the field's
    life; the values themselves may be written in place.
    """

    grid: Grid2D
    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=float)
        if v.shape != (self.grid.n, self.grid.n):
            raise GridMismatchError(
                f"field shape {v.shape} does not match grid {self.grid.n}x{self.grid.n}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("field contains non-finite values")
        object.__setattr__(self, "values", v)

    @classmethod
    def zeros(cls, grid: Grid2D) -> "ScalarField":
        return cls(grid, np.zeros((grid.n, grid.n)))

    @classmethod
    def constant(cls, grid: Grid2D, value: float) -> "ScalarField":
        return cls(grid, np.full((grid.n, grid.n), float(value)))

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())

    def _require_same_grid(self, other: "ScalarField") -> None:
        if self.grid != other.grid:
            raise GridMismatchError("fields live on different grids")

    def __add__(self, other: "ScalarField") -> "ScalarField":
        self._require_same_grid(other)
        return ScalarField(self.grid, self.values + other.values)

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        self._require_same_grid(other)
        return ScalarField(self.grid, self.values - other.values)

    def __mul__(self, scalar: float) -> "ScalarField":
        return ScalarField(self.grid, self.values * float(scalar))

    __rmul__ = __mul__


@dataclass(frozen=True)
class StatePair:
    """Pressure/velocity pair (u0, u1); both components share one grid, and
    neither can be reassigned."""

    first: ScalarField
    second: ScalarField

    def __post_init__(self):
        if self.first.grid != self.second.grid:
            raise GridMismatchError("state components live on different grids")

    @property
    def grid(self) -> Grid2D:
        return self.first.grid

    @classmethod
    def zeros(cls, grid: Grid2D) -> "StatePair":
        return cls(ScalarField.zeros(grid), ScalarField.zeros(grid))

    def copy(self) -> "StatePair":
        return StatePair(self.first.copy(), self.second.copy())

    def __add__(self, other: "StatePair") -> "StatePair":
        return StatePair(self.first + other.first, self.second + other.second)

    def __sub__(self, other: "StatePair") -> "StatePair":
        return StatePair(self.first - other.first, self.second - other.second)

    def __mul__(self, scalar: float) -> "StatePair":
        return StatePair(self.first * scalar, self.second * scalar)

    __rmul__ = __mul__


# ---------------------------------------------------------------------------
# boundary enumeration
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def boundary_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonical boundary node enumeration for an n x n grid.

    Returns (ks, ls), each of length 4n-4: bottom row left->right, right
    column upward, top row right->left, left column downward.
    """
    ks = np.concatenate([
        np.arange(n),                    # bottom, l = 0
        np.full(n - 1, n - 1),           # right, l = 1 .. n-1
        np.arange(n - 2, -1, -1),        # top, l = n-1
        np.zeros(n - 2, dtype=int),      # left, l = n-2 .. 1
    ])
    ls = np.concatenate([
        np.zeros(n, dtype=int),
        np.arange(1, n),
        np.full(n - 1, n - 1),
        np.arange(n - 2, 0, -1),
    ])
    ks.setflags(write=False)
    ls.setflags(write=False)
    return ks, ls


def boundary_count(n: int) -> int:
    return 4 * n - 4


@dataclass(eq=False, frozen=True)
class BoundarySpec:
    """Measurement set Gamma and the dissipation weight lambda per node.

    lam is indexed by the canonical boundary enumeration, and Gamma is where
    it is positive: gamma, the increasing canonical indices of Gamma's
    nodes, is derived from lam, never given.  A spec is immutable: its
    fields cannot be reassigned, and lam (a copy of the given array) and
    gamma are read-only, so gamma always matches lam.  Two specs are equal
    when their grids and lambdas are.  The named constructors put
    lambda = 1 on their Gamma; any other per-node lambda is given as lam
    itself.
    """

    grid: Grid2D
    lam: np.ndarray
    gamma: np.ndarray = field(init=False)

    def __post_init__(self):
        nb = boundary_count(self.grid.n)
        lam = np.array(self.lam, dtype=float)
        if lam.shape != (nb,):
            raise GridMismatchError(
                f"boundary spec lambda must have length {nb} for n = {self.grid.n}"
            )
        if np.any(lam < 0) or not np.all(np.isfinite(lam)):
            raise ValueError("lambda must be finite and nonnegative")
        gamma = np.flatnonzero(lam > 0)
        if not gamma.size:
            raise ConfigError("Gamma must contain at least one boundary node")
        lam.setflags(write=False)
        gamma.setflags(write=False)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "gamma", gamma)

    def __eq__(self, other):
        if not isinstance(other, BoundarySpec):
            return NotImplemented
        return self.grid == other.grid and np.array_equal(self.lam, other.lam)

    @classmethod
    def full(cls, grid: Grid2D) -> "BoundarySpec":
        """Measurements on all four sides, lambda = 1 on every node."""
        return cls(grid, np.ones(boundary_count(grid.n)))

    @classmethod
    def left_bottom(cls, grid: Grid2D) -> "BoundarySpec":
        """Measurements on the left and bottom sides only, lambda = 1 there.

        The corner (-1,-1) and the side endpoints (1,-1) and (-1,1) belong
        to Gamma; the opposite corner (1,1) does not.
        """
        ks, ls = boundary_indices(grid.n)
        return cls(grid, ((ls == 0) | (ks == 0)).astype(float))

    @classmethod
    def from_node_list(cls, grid: Grid2D, nodes) -> "BoundarySpec":
        """Gamma given as explicit canonical boundary indices, lambda = 1 there."""
        nb = boundary_count(grid.n)
        idx = np.asarray(list(nodes))
        if idx.size == 0:
            raise ConfigError("Gamma node list is empty")
        if not np.issubdtype(idx.dtype, np.integer):
            raise ConfigError(f"Gamma node indices must be integers, got {idx.tolist()!r}")
        if idx.min() < 0 or idx.max() >= nb:
            raise ConfigError(f"Gamma node indices must lie in [0, {nb - 1}]")
        lam = np.zeros(nb)
        lam[idx] = 1.0
        return cls(grid, lam)


@dataclass(frozen=True)
class BoundaryTrace:
    """Pressure samples at the nodes of Gamma for every time level, and the
    boundary spec they were measured on.

    samples[j, i] is the value at time t_j = j*dt at boundary node
    bspec.gamma[i], so the columns are Gamma's nodes in canonical order; a
    trace holds at least 3 time levels (2 steps), the fewest any solver
    takes.  The spec holds the grid, and with it dt, the measured set Gamma
    and lambda: a trace has none of its own, so the solvers that read it
    cannot step on another time step or absorb on another boundary, and
    neither field can be reassigned.  The trace file's header stores n, dt,
    Gamma and lambda, and its rows only the samples, one row per time level
    (no time column: the times are j*dt); a reloaded trace carries the same
    spec.
    """

    bspec: BoundarySpec
    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        width = self.bspec.gamma.size
        if s.ndim != 2 or s.shape[1] != width:
            raise GridMismatchError(f"trace must have {width} columns, one per Gamma node, "
                                    f"for n = {self.grid.n}, got shape {s.shape}")
        if s.shape[0] < 3:
            raise ConfigError(f"{s.shape[0]} time levels; a trace needs at least 3")
        # blocks of about 2**15 values: no mask the size of the samples is made
        step = max(1, (1 << 15) // width)
        for i in range(0, s.shape[0], step):
            if not np.isfinite(s[i:i + step]).all():
                raise ValueError("trace contains non-finite values")
        object.__setattr__(self, "samples", s)

    @property
    def grid(self) -> Grid2D:
        return self.bspec.grid

    @property
    def dt(self) -> float:
        return self.grid.dt

    @property
    def n_steps(self) -> int:
        return self.samples.shape[0] - 1

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.samples.shape[0])


# ---------------------------------------------------------------------------
# energy, norms and projectors
# ---------------------------------------------------------------------------

def _check_speed(s: StatePair, c: ScalarField) -> None:
    if s.grid != c.grid:
        raise GridMismatchError("state and sound speed live on different grids")
    if np.any(c.values <= 0):
        raise ValueError("sound speed must be strictly positive")


def energy(s: StatePair, c: ScalarField) -> float:
    """Acoustic energy ||grad u0||^2 + ||u1/c||^2 of a state."""
    _check_speed(s, c)
    grid = s.grid
    w = grid.quad_weights()
    W = np.outer(w, w)
    # centered differences inside, one-sided two-point at the walls
    gx, gy = np.gradient(s.first.values, grid.dx)
    dens = gx * gx + gy * gy + (s.second.values / c.values) ** 2
    return float(np.sum(W * dens))


def seminorm(s: StatePair, c: ScalarField) -> float:
    """Energy seminorm |(u0, u1)| = sqrt(E)."""
    return float(np.sqrt(energy(s, c)))


def l2_norm(f: ScalarField) -> float:
    """Trapezoid-rule L2 norm of a field over the square."""
    w = f.grid.quad_weights()
    return float(np.sqrt(np.sum(np.outer(w, w) * f.values ** 2)))


def relative_l2(a: ScalarField, b: ScalarField) -> float:
    """||a - b||_L2 / ||b||_L2."""
    denom = l2_norm(b)
    if denom == 0.0:
        raise ZeroDivisionError("reference field has zero norm")
    return l2_norm(a - b) / denom


def boundary_mean(h: ScalarField) -> float:
    """Mean of h over the boundary: line integral / perimeter (= 8).

    The line integral uses the trapezoid rule along each of the four sides,
    so each corner contributes half of its weight to both incident sides.
    """
    grid = h.grid
    w = grid.quad_weights()
    v = h.values
    total = (np.sum(w * v[:, 0]) + np.sum(w * v[:, -1])
             + np.sum(w * v[0, :]) + np.sum(w * v[-1, :]))
    return float(total / 8.0)


def project_H0(s: StatePair) -> StatePair:
    """Remove the boundary mean of the first component."""
    m = boundary_mean(s.first)
    return StatePair(ScalarField(s.grid, s.first.values - m), s.second.copy())


def project_H1(s: StatePair) -> StatePair:
    """Remove the boundary mean of the first component and zero the second."""
    return StatePair(project_H0(s).first, ScalarField.zeros(s.grid))


def _step_ratio(T: float, dt: float) -> float:
    """T / dt, for a positive T and dt whose ratio is finite and rounds to
    at most MAX_STEPS steps."""
    if T <= 0 or dt <= 0:
        raise ConfigError(f"T and dt must be positive, got T = {T!r}, dt = {dt!r}")
    x = T / dt
    if not np.isfinite(x):
        raise ConfigError(f"T/dt must be finite, got T = {T!r}, dt = {dt!r}")
    if round(x) > MAX_STEPS:
        raise ConfigError(f"T/dt = {x:.6g} is above the ceiling of {MAX_STEPS} time "
                          f"steps, got T = {T!r}, dt = {dt!r}")
    return x


def num_steps(T: float, dt: float) -> int:
    """Number of time steps covering [0, T]; T must be a multiple of dt.

    Raises ConfigError when T/dt is not an integer to within STEP_TOL
    (relative).  Use snap_duration to round a requested T to the time grid.
    """
    x = _step_ratio(T, dt)
    steps = int(round(x))
    if abs(x - steps) > STEP_TOL * max(1.0, x):
        raise ConfigError(
            f"T = {T!r} is not an integer multiple of dt = {dt!r} "
            f"(T/dt = {x!r}); adjust T or enable time snapping"
        )
    if steps < 2:
        raise ConfigError(f"measurement interval too short: T/dt = {steps}")
    return steps


def snap_duration(T: float, dt: float) -> float:
    """Round T to the nearest positive multiple of dt."""
    return max(int(round(_step_ratio(T, dt))), 2) * dt
