"""Grid geometry, field containers, energy functionals and subspace projectors.

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
        if not isinstance(self.n, (int, np.integer)) or self.n < 4:
            raise ConfigError(f"grid size n must be an integer >= 4, got {self.n!r}")
        if self.dt is None:
            object.__setattr__(self, "dt", 0.5 * self.dx)
        elif not (0.0 < float(self.dt) < np.inf):
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


@dataclass
class ScalarField:
    """One scalar value per grid node; values[k, l] samples (x_k, y_l)."""

    grid: Grid2D
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n, self.grid.n):
            raise GridMismatchError(
                f"field shape {v.shape} does not match grid {self.grid.n}x{self.grid.n}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("field contains non-finite values")
        self.values = v

    @classmethod
    def zeros(cls, grid: Grid2D) -> "ScalarField":
        return cls(grid, np.zeros((grid.n, grid.n)))

    @classmethod
    def constant(cls, grid: Grid2D, value: float) -> "ScalarField":
        return cls(grid, np.full((grid.n, grid.n), float(value)))

    @classmethod
    def from_function(cls, grid: Grid2D, fn) -> "ScalarField":
        x = grid.coords()
        X, Y = np.meshgrid(x, x, indexing="ij")
        return cls(grid, np.asarray(fn(X, Y), dtype=float))

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

    def __neg__(self) -> "ScalarField":
        return ScalarField(self.grid, -self.values)


@dataclass
class StatePair:
    """Pressure/velocity pair (u0, u1); both components share one grid."""

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


@lru_cache(maxsize=None)
def corner_positions(n: int) -> tuple[int, int, int, int]:
    """Positions of the four corners within the canonical enumeration."""
    return 0, n - 1, 2 * n - 2, 3 * n - 3


def boundary_values(f: ScalarField) -> np.ndarray:
    """Field values at the boundary nodes, in canonical order."""
    ks, ls = boundary_indices(f.grid.n)
    return f.values[ks, ls]


@dataclass
class BoundarySpec:
    """Measurement set Gamma and the dissipation weight lambda per node.

    gamma_mask and lam are indexed by the canonical boundary enumeration;
    lam must be positive exactly on Gamma and zero elsewhere.
    """

    grid: Grid2D
    gamma_mask: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        nb = boundary_count(self.grid.n)
        mask = np.asarray(self.gamma_mask, dtype=bool)
        lam = np.asarray(self.lam, dtype=float)
        if mask.shape != (nb,) or lam.shape != (nb,):
            raise GridMismatchError(
                f"boundary spec arrays must have length {nb} for n = {self.grid.n}"
            )
        if np.any(lam < 0) or not np.all(np.isfinite(lam)):
            raise ValueError("lambda must be finite and nonnegative")
        if not np.array_equal(lam > 0, mask):
            raise ValueError("lambda must be positive exactly on Gamma and zero elsewhere")
        self.gamma_mask = mask
        self.lam = lam

    @classmethod
    def full(cls, grid: Grid2D, lambda_value: float = 1.0) -> "BoundarySpec":
        """Measurements on all four sides."""
        nb = boundary_count(grid.n)
        mask = np.ones(nb, dtype=bool)
        return cls(grid, mask, np.full(nb, float(lambda_value)))

    @classmethod
    def left_bottom(cls, grid: Grid2D, lambda_value: float = 1.0,
                    taper: float = 0.0) -> "BoundarySpec":
        """Measurements on the left and bottom sides only.

        The corner (-1,-1) and the side endpoints (1,-1) and (-1,1) belong
        to Gamma; the opposite corner (1,1) does not.
        """
        ks, ls = boundary_indices(grid.n)
        mask = (ls == 0) | (ks == 0)
        return cls.from_mask(grid, mask, lambda_value, taper)

    @classmethod
    def from_mask(cls, grid: Grid2D, mask: np.ndarray, lambda_value: float = 1.0,
                  taper: float = 0.0) -> "BoundarySpec":
        """Gamma from an arbitrary boundary mask, optionally with a
        half-cosine lambda taper over arc length ``taper`` near the edge of
        Gamma (lambda stays positive at every Gamma node)."""
        mask = np.asarray(mask, dtype=bool)
        if lambda_value <= 0:
            raise ConfigError("lambda_value must be positive")
        if taper < 0:
            raise ConfigError("taper arc length must be nonnegative")
        if not mask.any():
            raise ConfigError("Gamma must contain at least one boundary node")
        lam = np.where(mask, float(lambda_value), 0.0)
        if taper > 0 and not mask.all():
            d = _arc_distance_to_complement(mask) * grid.dx
            s = np.minimum(d / taper, 1.0)
            lam = np.where(mask, lambda_value * np.sin(0.5 * np.pi * s) ** 2, 0.0)
        return cls(grid, mask, lam)

    @classmethod
    def from_node_list(cls, grid: Grid2D, nodes, lambda_value: float = 1.0,
                       taper: float = 0.0) -> "BoundarySpec":
        """Gamma given as explicit canonical boundary indices."""
        nb = boundary_count(grid.n)
        idx = np.asarray(list(nodes), dtype=int)
        if idx.size == 0:
            raise ConfigError("Gamma node list is empty")
        if idx.min() < 0 or idx.max() >= nb:
            raise ConfigError(f"Gamma node indices must lie in [0, {nb - 1}]")
        mask = np.zeros(nb, dtype=bool)
        mask[idx] = True
        return cls.from_mask(grid, mask, lambda_value, taper)


def _arc_distance_to_complement(mask: np.ndarray) -> np.ndarray:
    """Cyclic distance (in node steps) from each node to the nearest node
    outside the mask."""
    nb = mask.size
    non = np.flatnonzero(~mask)
    idx = np.arange(nb)
    diff = np.abs(idx[:, None] - non[None, :])
    return np.minimum(diff, nb - diff).min(axis=1).astype(float)


# ---------------------------------------------------------------------------
# energy, norms and projectors
# ---------------------------------------------------------------------------

def _gradient(values: np.ndarray, dx: float) -> tuple[np.ndarray, np.ndarray]:
    """Centered differences inside, one-sided two-point at the boundary."""
    gx = np.empty_like(values)
    gy = np.empty_like(values)
    gx[1:-1, :] = (values[2:, :] - values[:-2, :]) / (2.0 * dx)
    gx[0, :] = (values[1, :] - values[0, :]) / dx
    gx[-1, :] = (values[-1, :] - values[-2, :]) / dx
    gy[:, 1:-1] = (values[:, 2:] - values[:, :-2]) / (2.0 * dx)
    gy[:, 0] = (values[:, 1] - values[:, 0]) / dx
    gy[:, -1] = (values[:, -1] - values[:, -2]) / dx
    return gx, gy


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
    gx, gy = _gradient(s.first.values, grid.dx)
    dens = gx * gx + gy * gy + (s.second.values / c.values) ** 2
    return float(np.sum(W * dens))


def seminorm(s: StatePair, c: ScalarField) -> float:
    """Energy seminorm |(u0, u1)| = sqrt(E)."""
    return float(np.sqrt(energy(s, c)))


def full_norm(s: StatePair, c: ScalarField) -> float:
    """Norm with the L2 part of u0 included: sqrt(||u0||^2 + E)."""
    _check_speed(s, c)
    w = s.grid.quad_weights()
    W = np.outer(w, w)
    l2sq = float(np.sum(W * s.first.values ** 2))
    return float(np.sqrt(l2sq + energy(s, c)))


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
    m = boundary_mean(s.first)
    return StatePair(ScalarField(s.grid, s.first.values - m), ScalarField.zeros(s.grid))


def num_steps(T: float, dt: float, tol: float = 1e-9) -> int:
    """Number of time steps covering [0, T]; T must be a multiple of dt.

    Raises ConfigError when T/dt is not an integer to within ``tol``
    (relative).  Use snap_duration to round a requested T to the time grid.
    """
    if T <= 0 or dt <= 0:
        raise ConfigError(f"T and dt must be positive, got T = {T!r}, dt = {dt!r}")
    x = T / dt
    steps = int(round(x))
    if abs(x - steps) > tol * max(1.0, x):
        raise ConfigError(
            f"T = {T!r} is not an integer multiple of dt = {dt!r} "
            f"(T/dt = {x!r}); adjust T or enable time snapping"
        )
    if steps < 2:
        raise ConfigError(f"measurement interval too short: T/dt = {steps}")
    return steps


def snap_duration(T: float, dt: float) -> float:
    """Round T to the nearest positive multiple of dt."""
    if T <= 0 or dt <= 0:
        raise ConfigError(f"T and dt must be positive, got T = {T!r}, dt = {dt!r}")
    return max(int(round(T / dt)), 2) * dt
