"""Spectrally exact forward propagation in the cosine eigenbasis.

For unit sound speed, the Neumann Laplacian on the square [-1,1]^2 has
eigenfunctions

    phi_{k,l}(x, y) = cos(k*pi*(x+1)/2) * cos(l*pi*(y+1)/2)

with angular frequencies lam_{k,l} = (pi/2) * sqrt(k^2 + l^2).  On the
closed n x n grid the sampled eigenfunctions for k, l = 0 .. n-1 form an
orthogonal basis under the trapezoid weights, and the type-I discrete
cosine transform converts between node values and mode coefficients
exactly.  The solution of the wave equation with initial data (f, 0) is

    u(x, y, t) = sum c_{k,l} phi_{k,l}(x, y) cos(lam_{k,l} t),

which this module evaluates directly.  It is used to synthesize boundary
measurements independently of the finite-difference solvers, so inversion
is never tested against data produced by its own discretization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import dct

from .core import (
    BoundarySpec,
    ConfigError,
    Grid2D,
    GridMismatchError,
    ScalarField,
    boundary_indices,
    num_steps,
)
from .fdtd import BoundaryTrace

# synthesize_data restarts its cosine recurrence from exact values this often
RESEED_STEPS = 256


@dataclass
class CosineCoeffs:
    """Cosine-mode coefficients c_{k,l} of a field on its grid."""

    grid: Grid2D
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (self.grid.n, self.grid.n):
            raise GridMismatchError(
                f"coefficient shape {c.shape} does not match grid {self.grid.n}"
            )
        self.coeffs = c


def mode_frequencies(grid: Grid2D) -> np.ndarray:
    """Angular frequencies lam_{k,l} = (pi/2) sqrt(k^2 + l^2)."""
    k = np.arange(grid.n)
    return 0.5 * np.pi * np.hypot(k[:, None], k[None, :])


def _analysis_axis0(values: np.ndarray) -> np.ndarray:
    """DCT-I analysis along axis 0: values -> coefficients."""
    n = values.shape[0]
    out = dct(values, type=1, axis=0)
    out[0] *= 0.5
    out[-1] *= 0.5
    out /= (n - 1)
    return out


def _synthesis_axis0(coeffs: np.ndarray) -> np.ndarray:
    """DCT-I synthesis along axis 0: coefficients -> values."""
    y = coeffs.copy()
    y[1:-1] *= 0.5
    return dct(y, type=1, axis=0)


def dct2_forward(f: ScalarField) -> CosineCoeffs:
    """Expand a field in the sampled cosine eigenbasis (exact on the grid)."""
    a = _analysis_axis0(f.values)
    a = _analysis_axis0(a.T).T
    return CosineCoeffs(f.grid, a)


def dct2_inverse(c: CosineCoeffs) -> ScalarField:
    """Evaluate a cosine series at all grid nodes (inverse of dct2_forward)."""
    v = _synthesis_axis0(c.coeffs)
    v = _synthesis_axis0(v.T).T
    return ScalarField(c.grid, v)


def _require_unit_speed(c_sound) -> None:
    if c_sound is None:
        return
    if isinstance(c_sound, ScalarField):
        if np.allclose(c_sound.values, 1.0, rtol=0.0, atol=1e-14):
            return
    raise ConfigError(
        "the cosine series solution is only valid for unit sound speed; "
        "use the finite-difference solver for variable c(x)"
    )


def spectral_propagate(c: CosineCoeffs, t: float, c_sound: ScalarField | None = None) -> ScalarField:
    """Wave field u(., t) for initial data (f, 0), f = dct2_inverse(c)."""
    _require_unit_speed(c_sound)
    if t < 0:
        raise ConfigError("propagation time must be nonnegative")
    lam = mode_frequencies(c.grid)
    return dct2_inverse(CosineCoeffs(c.grid, c.coeffs * np.cos(lam * t)))


def spectral_velocity(c: CosineCoeffs, t: float, c_sound: ScalarField | None = None) -> ScalarField:
    """Time derivative u_t(., t) by term-wise differentiation of the series."""
    _require_unit_speed(c_sound)
    if t < 0:
        raise ConfigError("propagation time must be nonnegative")
    lam = mode_frequencies(c.grid)
    return dct2_inverse(CosineCoeffs(c.grid, -c.coeffs * lam * np.sin(lam * t)))


def spectral_energy(c: CosineCoeffs) -> float:
    """Conserved energy of the series solution, summed mode-wise.

    Modes are orthogonal with squared norms prod(2 for index 0 or n-1 else 1);
    the energy of initial data (f, 0) is sum c^2 lam^2 * weight, and stays
    constant in time by cos^2 + sin^2 = 1.
    """
    n = c.grid.n
    w1 = np.ones(n)
    w1[0] = 2.0
    w1[-1] = 2.0
    W = np.outer(w1, w1)
    lam = mode_frequencies(c.grid)
    return float(np.sum(W * (c.coeffs * lam) ** 2))


def synthesize_data(f: ScalarField, bspec: BoundarySpec, T: float, dt: float) -> BoundaryTrace:
    """Boundary pressure trace of the series solution with initial data (f, 0).

    Samples u at every boundary node at times t_j = j*dt, j = 0 .. T/dt;
    nodes outside Gamma carry zeros.  T must be an integer multiple of dt.
    Only the walls are evaluated (see _wall_coefficients); one batched DCT-I
    then turns their cosine coefficients into node values.
    """
    if f.grid != bspec.grid:
        raise GridMismatchError("field and boundary spec live on different grids")
    steps = num_steps(T, dt)
    n = f.grid.n
    walls = _wall_coefficients(dct2_forward(f), dt, steps)
    walls[..., 1:-1] *= 0.5
    walls = dct(walls, type=1, axis=-1, overwrite_x=True)
    # position of each canonical boundary node in the flattened wall rows
    ks, ls = boundary_indices(n)
    gather = np.where(ls == 0, ks, np.where(ls == n - 1, n + ks,
                                            np.where(ks == 0, 2 * n + ls, 3 * n + ls)))
    rows = np.take(walls.reshape(steps + 1, 4 * n), gather, axis=1)  # C order: one row per level
    del walls  # freed before the trace's checks allocate their temporaries
    rows[:, ~bspec.gamma_mask] = 0.0
    return BoundaryTrace(f.grid, dt, rows, gamma_mask=bspec.gamma_mask.copy(),
                         lam=bspec.lam.copy())


def _wall_coefficients(c: CosineCoeffs, dt: float, steps: int) -> np.ndarray:
    """Cosine coefficients of u(., t_j) along the walls y = -1, y = 1, x = -1
    and x = 1, shape (steps + 1, 4, n).

    On a wall every mode is a 1D cosine times +-1, so with
    M_j = c * cos(lam t_j) the wall coefficients are the row sums M_j @ S and
    the column sums S^T @ M_j, S = [1, (-1)^k].  M_j advances by the
    three-term recurrence M_{j+1} = 2 cos(lam dt) M_j - M_{j-1}, restarted
    from exact cosines every RESEED_STEPS steps so that rounding cannot
    accumulate over long horizons.  The n x n work arrays live only in this
    function, so they are freed before the caller allocates its output.
    """
    n = c.grid.n
    lam = mode_frequencies(c.grid)
    twice_cos = 2.0 * np.cos(lam * dt)
    s_t = np.stack([np.ones(n), (-1.0) ** np.arange(n)])
    walls = np.empty((steps + 1, 4, n))
    prev, cur, work = np.empty((n, n)), np.empty((n, n)), np.empty((n, n))
    for j in range(steps + 1):
        if j % RESEED_STEPS == 0:
            np.multiply(c.coeffs, np.cos(lam * ((j - 1) * dt)), out=prev)
            np.multiply(c.coeffs, np.cos(lam * (j * dt)), out=cur)
        np.matmul(s_t, cur.T, out=walls[j, :2])
        np.matmul(s_t, cur, out=walls[j, 2:])
        np.multiply(twice_cos, cur, out=work)
        np.subtract(work, prev, out=prev)
        prev, cur = cur, prev
    return walls
