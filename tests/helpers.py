"""Shared utilities for the test suite."""

import numpy as np

from pacavity import (BoundarySpec, BoundaryTrace, ConfigError, CosineCoeffs, Grid2D,
                      ScalarField, StatePair, boundary_indices, dct2_forward, dct2_inverse,
                      energy, mode_frequencies, num_steps)
from pacavity.fdtd import _leapfrog_phases
from pacavity.spectral import _trace_from_walls, _wall_coefficients


def smooth_random_field(grid: Grid2D, rng, kmax: int = 9, scale: float = 1.0) -> ScalarField:
    """Seeded random field built from low-order cosine modes.

    Keeps property tests reproducible and free of grid-scale noise that
    would pollute finite-difference gradients.
    """
    kmax = min(kmax, grid.n - 1)
    coeffs = np.zeros((grid.n, grid.n))
    coeffs[: kmax + 1, : kmax + 1] = scale * rng.standard_normal((kmax + 1, kmax + 1))
    return dct2_inverse(CosineCoeffs(grid, coeffs))


def smooth_random_state(grid: Grid2D, rng, kmax: int = 9) -> StatePair:
    return StatePair(smooth_random_field(grid, rng, kmax),
                     smooth_random_field(grid, rng, kmax))


def eigenfield(grid: Grid2D, k: int, l: int) -> ScalarField:
    """Sampled product cosine mode cos(k*pi*(x+1)/2) cos(l*pi*(y+1)/2)."""
    xb = 0.5 * np.pi * (grid.coords() + 1.0)
    return ScalarField(grid, np.outer(np.cos(k * xb), np.cos(l * xb)))


def graded(grid: Grid2D) -> BoundarySpec:
    """Left+bottom Gamma with lambda rising from 0.5 to 2.5 along it: one
    value per Gamma node, so the per-node path of every solver is covered."""
    mask = BoundarySpec.left_bottom(grid).gamma_mask
    lam = np.zeros(mask.size)
    lam[mask] = np.linspace(0.5, 2.5, mask.sum())
    return BoundarySpec(grid, lam)


def plain_rel(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def full_norm(s: StatePair, c: ScalarField) -> float:
    """Norm with the L2 part of u0 included: sqrt(||u0||^2 + E)."""
    w = s.grid.quad_weights()
    l2sq = float(np.sum(np.outer(w, w) * s.first.values ** 2))
    return float(np.sqrt(l2sq + energy(s, c)))


def boundary_values(f: ScalarField) -> np.ndarray:
    """Field values at the boundary nodes, in canonical order."""
    ks, ls = boundary_indices(f.grid.n)
    return f.values[ks, ls]


def spectral_propagate(c: CosineCoeffs, t: float) -> ScalarField:
    """Wave field u(., t) for initial data (f, 0), f = dct2_inverse(c)."""
    if t < 0:
        raise ConfigError("propagation time must be nonnegative")
    lam = mode_frequencies(c.grid)
    return dct2_inverse(CosineCoeffs(c.grid, c.coeffs * np.cos(lam * t)))


def leapfrog_trace(f: ScalarField, c: ScalarField, bspec: BoundarySpec,
                   T: float) -> BoundaryTrace:
    """The trace of forward_solve from (f, 0) at constant sound speed c,
    evaluated in the scheme's own eigenbasis instead of by marching.

    Mode (k, l) of the leapfrog advances exactly as cos(j theta_kl), so the
    trace is the wall series of synthesize_data with the discrete phase
    theta_kl in place of lam_kl dt; its difference recurrence is then the
    scheme's own step in mode space, Taylor start included.  The phases
    carry the solvers' setup checks: a CFL violation raises StabilityError,
    a c that is not constant a ConfigError.
    """
    grid = f.grid
    a = 4.0 * np.sin(0.5 * _leapfrog_phases(grid, c)) ** 2
    return _trace_from_walls(
        _wall_coefficients(dct2_forward(f).coeffs, a, num_steps(T, grid.dt)), bspec)


def spectral_velocity(c: CosineCoeffs, t: float) -> ScalarField:
    """Time derivative u_t(., t) of the series solution, differentiated term-wise."""
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
    return float(np.sum(np.outer(w1, w1) * (c.coeffs * mode_frequencies(c.grid)) ** 2))


def slice_stencil_step(prev: ScalarField, curr: ScalarField, c: ScalarField) -> ScalarField:
    """One mirror-closed leapfrog level on 2-D slices, independent of the
    solvers' kernel: 2 u - u_prev + (dt/dx)^2 c^2 (neighbour sum - 4 u),
    the neighbours summed up, down, left, right, with the mirror ghost
    u_{-1} = u_1 at the walls."""
    grid = curr.grid
    coef = (grid.dt / grid.dx) ** 2 * c.values ** 2
    u = curr.values
    s = np.empty_like(u)
    s[1:] = u[:-1]
    s[0] = u[1]
    s[:-1] += u[1:]
    s[-1] += u[-2]
    s[:, 1:] += u[:, :-1]
    s[:, 0] += u[:, 1]
    s[:, :-1] += u[:, 1:]
    s[:, -1] += u[:, -2]
    return ScalarField(grid, (2.0 - 4.0 * coef) * u - prev.values + coef * s)
