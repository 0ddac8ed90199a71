"""Spectrally exact forward propagation in the cosine eigenbasis.

For unit sound speed, the Neumann Laplacian on the square [-1,1]^2 has
eigenfunctions

    phi_{k,l}(x, y) = cos(k*pi*(x+1)/2) * cos(l*pi*(y+1)/2)

with angular frequencies lam_{k,l} = (pi/2) * sqrt(k^2 + l^2).  On the
closed n x n grid the sampled eigenfunctions for k, l = 0 .. n-1 form an
orthogonal basis under the trapezoid weights, and the type-I discrete
cosine transform converts between node values and mode coefficients
exactly: dct2_forward(f) returns the coefficients c_{k,l} as an n x n
array, and dct2_inverse(grid, coeffs) evaluates such an array at the nodes.
Each is one 2-D DCT-I scaled by outer products of the trapezoid weights,
and both return C-ordered arrays.
A DCT-I is the real part of the real FFT of the even extension
x_0 .. x_{n-1}, x_{n-2} .. x_1 (see _dct1), so numpy.fft is the only FFT
this package needs.  The solution of the wave equation with
initial data (f, 0) is

    u(x, y, t) = sum c_{k,l} phi_{k,l}(x, y) cos(lam_{k,l} t),

and synthesize_data samples it on the walls to make measurement data
independently of the finite-difference solvers, so inversion is never
tested against data produced by its own discretization.  The modes advance
from step to step by Reinsch's difference form of the cosine recurrence
(see _wall_trace), started once from the coefficients and never
restarted; each level's wall values are turned into Gamma's samples as the
recurrence runs, so no array of all the walls' levels is made.  Nothing
here comes from fdtd; fdtd evaluates its own scheme with this DCT.
"""

from __future__ import annotations

import numpy as np

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

def mode_frequencies(grid: Grid2D) -> np.ndarray:
    """Angular frequencies lam_{k,l} = (pi/2) sqrt(k^2 + l^2)."""
    k = np.arange(grid.n)
    return 0.5 * np.pi * np.hypot(k[:, None], k[None, :])


def _dct1(x: np.ndarray) -> np.ndarray:
    """Unnormalized DCT-I of x along its last axis, y_k = x_0 +
    (-1)^k x_{n-1} + 2 sum_{m=1}^{n-2} x_m cos(pi k m / (n - 1)): the real
    part of the real FFT of the even extension, as pocketfft computes it, so
    the result is scipy.fft.dct(x, type=1) bit for bit where numpy and scipy
    vendor the same pocketfft.

    The result is a C-ordered array, allocated once.  The rows go through
    the FFT in blocks whose even extension, built in one reused buffer,
    holds about 2**14 values, so only a block of the extension and of its
    complex spectrum (~128 KB each) is held beside the result.  Each row is
    transformed on its own, so the block size does not change its bits.
    """
    n = x.shape[-1]
    rows = x.reshape(-1, n)
    out = np.empty(rows.shape)
    step = min(len(rows), max(1, 2 ** 14 // (2 * n - 2)))
    ext = np.empty((step, 2 * n - 2))
    for i in range(0, len(rows), step):
        block = rows[i:i + step]
        m = len(block)
        ext[:m, :n] = block
        out[i:i + m] = _extended_dct1(ext[:m])
    return out.reshape(x.shape)


def _extended_dct1(ext: np.ndarray) -> np.ndarray:
    """The DCT-I of the rows x_0 .. x_{n-1} held in ext[..., :n], where ext
    has 2n - 2 columns: their mirror x_{n-2} .. x_1 is written into
    ext[..., n:], and the real part of the real FFT returned."""
    n = ext.shape[-1] // 2 + 1
    ext[..., n:] = ext[..., n - 2:0:-1]
    return np.fft.rfft(ext).real


def _dct2(x: np.ndarray) -> np.ndarray:
    """2-D DCT-I, along axis 0 first, the order of scipy.fft.dctn."""
    return _dct1(_dct1(x.T).T)


def dct2_forward(f: ScalarField) -> np.ndarray:
    """Expand a field in the sampled cosine eigenbasis (exact on the grid):
    the n x n coefficients c_{k,l}."""
    w = 0.5 * f.grid.quad_weights()
    return _dct2(f.values) * np.outer(w, w)


def dct2_inverse(grid: Grid2D, coeffs: np.ndarray) -> ScalarField:
    """Evaluate the cosine series with n x n coefficients coeffs at all grid
    nodes (inverse of dct2_forward)."""
    if np.shape(coeffs) != (grid.n, grid.n):
        raise GridMismatchError(f"coefficient shape {np.shape(coeffs)} is not {grid.n}x{grid.n}")
    h = grid.dx / (2.0 * grid.quad_weights())
    return ScalarField(grid, _dct2(coeffs * np.outer(h, h)))


def synthesize_data(f: ScalarField, bspec: BoundarySpec, T: float, dt: float) -> BoundaryTrace:
    """Boundary pressure trace of the series solution with initial data (f, 0).

    Samples u at the nodes of Gamma at times t_j = j*dt, j = 0 .. T/dt.  dt
    must be the grid's own time step f.grid.dt, the step the solvers take
    on the trace; any other value is a ConfigError.  T must be an integer
    multiple of dt.  Only the walls are evaluated, and only Gamma's samples
    are kept (see _wall_trace): the trace is the one trace-sized array made.
    """
    if f.grid != bspec.grid:
        raise GridMismatchError("field and boundary spec live on different grids")
    if dt != f.grid.dt:
        raise ConfigError(f"dt = {dt!r} differs from the grid's time step {f.grid.dt!r}; "
                          "the solvers step the trace on the grid's dt")
    a = 4.0 * np.sin(0.5 * dt * mode_frequencies(f.grid)) ** 2
    return _wall_trace(dct2_forward(f), a, num_steps(T, dt), bspec)


def _wall_trace(coeffs: np.ndarray, a: np.ndarray, steps: int,
                bspec: BoundarySpec) -> BoundaryTrace:
    """The trace on Gamma, levels j = 0 .. steps, of mode coefficients coeffs
    that oscillate as cos(j theta_kl), given a = 4 sin^2(theta_kl / 2).

    On a wall every mode is a 1D cosine times +-1, so with
    M_j = coeffs * cos(j theta) the cosine coefficients along the walls
    y = -1, y = 1, x = -1 and x = 1 are the row sums M_j @ S and the column
    sums S^T @ M_j, S = [1, (-1)^k].  M_j advances by Reinsch's difference
    form of the cosine recurrence, D_{j+1} = D_j - a M_j,
    M_{j+1} = M_j + D_{j+1}, started once from M_0 = coeffs and
    D_0 = (a / 2) coeffs: a carries the small part 2 - 2 cos(theta) of the
    low modes that 2 cos(theta) would round away, so no restart from exact
    cosines is needed.  M_j is advanced in coeffs itself (the callers pass a
    temporary), so three n x n arrays live beside the trace: a, M and D.

    The wall coefficients of a few levels at a time are written into a small
    block laid out for the DCT-I (see _extended_dct1).  Only the walls from
    the first to the last that Gamma touches, in the order above, are
    transformed, and Gamma's samples are taken from their node values in
    canonical order (see boundary_indices) into the trace's rows.  The
    bottom and top walls give the four corners.
    """
    n = coeffs.shape[0]
    ks, ls = boundary_indices(n)
    # each Gamma node's place among a level's bottom, top, left and right walls
    place = np.select([ls == 0, ls == n - 1, ks == 0], [ks, n + ks, 2 * n + ls],
                      3 * n + ls)[bspec.gamma]
    first, last = place.min() // n, place.max() // n
    index = place - first * n
    s_t = np.stack([np.ones(n), (-1.0) ** np.arange(n)])
    d = 0.5 * a * coeffs
    m = coeffs
    rows = np.empty((steps + 1, bspec.gamma.size))
    # about 2**12 transformed wall values a block, so that the block and its
    # spectrum stay small beside a, M and D
    levels = min(steps + 1, max(1, 2 ** 12 // ((last + 1 - first) * n)))
    stage = np.empty((levels, 4, 2 * n - 2))
    # the update runs in row blocks of about 2**15 modes, so that a block's a,
    # M, D and product stay in cache across its three passes
    parts = -(-n * n // 2 ** 15)
    blocks = list(zip(np.array_split(a, parts), np.array_split(m, parts),
                      np.array_split(d, parts)))
    work = np.empty_like(blocks[0][1])
    for j in range(steps + 1):
        i = j % len(stage)
        np.matmul(s_t, m.T, out=stage[i, :2, :n])
        np.matmul(s_t, m, out=stage[i, 2:, :n])
        if i == len(stage) - 1 or j == steps:
            ext = stage[:i + 1, first:last + 1]
            ext[..., 1:n - 1] *= 0.5  # the DCT-I doubles the inner terms
            nodes = _extended_dct1(ext).reshape(i + 1, -1)
            np.take(nodes, index, axis=1, out=rows[j - i:j + 1])
        for a_b, m_b, d_b in blocks:
            d_b -= np.multiply(a_b, m_b, out=work[:len(m_b)])
            m_b += d_b
    return BoundaryTrace(bspec, rows)
