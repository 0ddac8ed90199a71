"""Spectrally exact forward propagation in the cosine eigenbasis.

For unit sound speed, the Neumann Laplacian on the square [-1,1]^2 has
eigenfunctions

    phi_{k,l}(x, y) = cos(k*pi*(x+1)/2) * cos(l*pi*(y+1)/2)

with angular frequencies lam_{k,l} = (pi/2) * sqrt(k^2 + l^2).  On the
closed n x n grid the sampled eigenfunctions for k, l = 0 .. n-1 form an
orthogonal basis under the trapezoid weights, and the type-I discrete
cosine transform converts between node values and mode coefficients
exactly: dct2_forward and dct2_inverse are each one 2-D DCT-I
(scipy.fft.dctn) scaled by outer products of the trapezoid weights, and
both return C-ordered arrays.  The solution of the wave equation with
initial data (f, 0) is

    u(x, y, t) = sum c_{k,l} phi_{k,l}(x, y) cos(lam_{k,l} t),

and synthesize_data samples it on the walls to make measurement data
independently of the finite-difference solvers, so inversion is never
tested against data produced by its own discretization.  The modes advance
from step to step by Reinsch's difference form of the cosine recurrence
(see _wall_coefficients), started once from the coefficients and never
restarted.  Nothing here comes from fdtd; fdtd evaluates its own scheme
with this DCT.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import dct, dctn

from .core import (
    BoundarySpec,
    BoundaryTrace,
    ConfigError,
    Grid2D,
    GridMismatchError,
    ScalarField,
    boundary_indices,
    num_steps,
)

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


def dct2_forward(f: ScalarField) -> CosineCoeffs:
    """Expand a field in the sampled cosine eigenbasis (exact on the grid)."""
    w = 0.5 * f.grid.quad_weights()
    return CosineCoeffs(f.grid, dctn(f.values, type=1) * np.outer(w, w))


def dct2_inverse(c: CosineCoeffs) -> ScalarField:
    """Evaluate a cosine series at all grid nodes (inverse of dct2_forward)."""
    h = c.grid.dx / (2.0 * c.grid.quad_weights())
    return ScalarField(c.grid, dctn(c.coeffs * np.outer(h, h), type=1))


def synthesize_data(f: ScalarField, bspec: BoundarySpec, T: float, dt: float) -> BoundaryTrace:
    """Boundary pressure trace of the series solution with initial data (f, 0).

    Samples u at every boundary node at times t_j = j*dt, j = 0 .. T/dt;
    nodes outside Gamma carry zeros.  dt must be the grid's own time step
    f.grid.dt, the step the solvers take on the trace; any other value is a
    ConfigError.  T must be an integer multiple of dt.  Only the walls are
    evaluated (see _wall_coefficients); one batched DCT-I then turns their
    cosine coefficients into node values.
    """
    if f.grid != bspec.grid:
        raise GridMismatchError("field and boundary spec live on different grids")
    if dt != f.grid.dt:
        raise ConfigError(f"dt = {dt!r} differs from the grid's time step {f.grid.dt!r}; "
                          "the solvers step the trace on the grid's dt")
    a = 4.0 * np.sin(0.5 * dt * mode_frequencies(f.grid)) ** 2
    return _trace_from_walls(_wall_coefficients(dct2_forward(f).coeffs, a, num_steps(T, dt)),
                             bspec)


def _trace_from_walls(walls: np.ndarray, bspec: BoundarySpec) -> BoundaryTrace:
    """The boundary trace from the wall coefficients of _wall_coefficients:
    one batched DCT-I turns them into node values, a gather puts those in
    canonical order, and nodes outside Gamma are zeroed."""
    n = bspec.grid.n
    levels = walls.shape[0]
    walls[..., 1:-1] *= 0.5
    walls = dct(walls, type=1, axis=-1, overwrite_x=True)
    # position of each canonical boundary node in the flattened wall rows
    ks, ls = boundary_indices(n)
    gather = np.where(ls == 0, ks, np.where(ls == n - 1, n + ks,
                                            np.where(ks == 0, 2 * n + ls, 3 * n + ls)))
    rows = np.take(walls.reshape(levels, 4 * n), gather, axis=1)  # C order: one row per level
    del walls  # the callers pass a temporary: freed before the trace's checks allocate
    rows[:, ~bspec.gamma_mask] = 0.0
    return BoundaryTrace(bspec, rows)


def _wall_coefficients(coeffs: np.ndarray, a: np.ndarray, steps: int) -> np.ndarray:
    """Cosine coefficients of u(., t_j) along the walls y = -1, y = 1, x = -1
    and x = 1, shape (steps + 1, 4, n), for mode coefficients coeffs that
    oscillate as cos(j theta_kl), given a = 4 sin^2(theta_kl / 2).

    On a wall every mode is a 1D cosine times +-1, so with
    M_j = coeffs * cos(j theta) the wall coefficients are the row sums
    M_j @ S and the column sums S^T @ M_j, S = [1, (-1)^k].  M_j advances by
    Reinsch's difference form of the cosine recurrence,
    D_{j+1} = D_j - a M_j, M_{j+1} = M_j + D_{j+1}, started once from
    M_0 = coeffs and D_0 = (a / 2) coeffs: a carries the small part
    2 - 2 cos(theta) of the low modes that 2 cos(theta) would round away, so
    no restart from exact cosines is needed.  The n x n work arrays live
    only in this function, so they are freed before the caller allocates its
    output.
    """
    n = coeffs.shape[0]
    s_t = np.stack([np.ones(n), (-1.0) ** np.arange(n)])
    walls = np.empty((steps + 1, 4, n))
    m = coeffs.copy()
    d = 0.5 * a * coeffs
    # the update runs in row blocks of about 2**15 modes, so that a block's a,
    # M, D and product stay in cache across its three passes
    parts = -(-n * n // 2 ** 15)
    blocks = list(zip(np.array_split(a, parts), np.array_split(m, parts),
                      np.array_split(d, parts)))
    work = np.empty_like(blocks[0][1])
    for j in range(steps + 1):
        np.matmul(s_t, m.T, out=walls[j, :2])
        np.matmul(s_t, m, out=walls[j, 2:])
        for a_b, m_b, d_b in blocks:
            d_b -= np.multiply(a_b, m_b, out=work[:len(m_b)])
            m_b += d_b
    return walls
