"""Shared utilities for the test suite."""

import numpy as np

from pacavity import (BoundarySpec, BoundaryTrace, ConfigError, Grid2D, ScalarField,
                      StatePair, boundary_count, boundary_indices, dct2_forward, dct2_inverse,
                      energy, leapfrog_levels, mode_frequencies, num_steps)
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
    return dct2_inverse(grid, coeffs)


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
    gamma = BoundarySpec.left_bottom(grid).gamma
    lam = np.zeros(boundary_count(grid.n))
    lam[gamma] = np.linspace(0.5, 2.5, gamma.size)
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


def spectral_propagate(grid: Grid2D, coeffs: np.ndarray, t: float) -> ScalarField:
    """Wave field u(., t) for initial data (f, 0), f = dct2_inverse(grid, coeffs)."""
    if t < 0:
        raise ConfigError("propagation time must be nonnegative")
    lam = mode_frequencies(grid)
    return dct2_inverse(grid, coeffs * np.cos(lam * t))


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
        _wall_coefficients(dct2_forward(f), a, num_steps(T, grid.dt)), bspec)


def spectral_velocity(grid: Grid2D, coeffs: np.ndarray, t: float) -> ScalarField:
    """Time derivative u_t(., t) of the series solution, differentiated term-wise."""
    lam = mode_frequencies(grid)
    return dct2_inverse(grid, -coeffs * lam * np.sin(lam * t))


def spectral_energy(grid: Grid2D, coeffs: np.ndarray) -> float:
    """Conserved energy of the series solution, summed mode-wise.

    Modes are orthogonal with squared norms prod(2 for index 0 or n-1 else 1);
    the energy of initial data (f, 0) is sum c^2 lam^2 * weight, and stays
    constant in time by cos^2 + sin^2 = 1.
    """
    w1 = np.ones(grid.n)
    w1[0] = 2.0
    w1[-1] = 2.0
    return float(np.sum(np.outer(w1, w1) * (coeffs * mode_frequencies(grid)) ** 2))


def neighbour_sum(u: np.ndarray) -> np.ndarray:
    """The four neighbours of every node summed on 2-D slices, up, down,
    left, right, with the mirror ghost u_{-1} = u_1 at the walls."""
    s = np.empty_like(u)
    s[1:] = u[:-1]
    s[0] = u[1]
    s[:-1] += u[1:]
    s[-1] += u[-2]
    s[:, 1:] += u[:, :-1]
    s[:, 0] += u[:, 1]
    s[:, :-1] += u[:, 1:]
    s[:, -1] += u[:, -2]
    return s


def slice_stencil_step(prev: ScalarField, curr: ScalarField, c: ScalarField) -> ScalarField:
    """One mirror-closed leapfrog level on 2-D slices, independent of the
    solvers' kernel: 2 u - u_prev + (dt/dx)^2 c^2 (neighbour sum - 4 u),
    the neighbours summed up, down, left, right, with the mirror ghost
    u_{-1} = u_1 at the walls."""
    grid = curr.grid
    coef = (grid.dt / grid.dx) ** 2 * c.values ** 2
    u = curr.values
    return ScalarField(grid, (2.0 - 4.0 * coef) * u - prev.values + coef * neighbour_sum(u))


# The marches of fdtd written plainly from its module docstring, as the
# reference that the solvers' buffer-saving march must equal bit for bit:
# every level is a new array, four of them live, the boundary rules act on
# whole 2-D rings, with G = 0 off Gamma, and the velocities are the
# centered and one-sided differences of the levels kept.  Data rows hold
# Gamma's columns, as a trace does; the absorbing march scatters them into
# rows of all 4n - 4 nodes, zero off Gamma.

def _taylor_level(first: np.ndarray, behind: np.ndarray, c: ScalarField) -> np.ndarray:
    """The second level of a march from u = first: the mirror-closed
    second-order Taylor step u + dt u_t + (dt^2 / 2) c^2 (D_xx + D_yy) u,
    given behind = -dt u_t along the march."""
    grid = c.grid
    coef = (grid.dt / grid.dx) ** 2 * c.values ** 2
    return (1.0 - 2.0 * coef) * first - behind + 0.5 * coef * neighbour_sum(first)


def _reference_leapfrog(prev, cur, j0, j_end, c, boundary, snapshots):
    """From level j0 in cur and the level before it in prev to level j_end:
    each new level from slice_stencil_step, finished by
    boundary(j, level, level two steps back).  Returns (u, u_t) at j_end and
    {j: (u, u_t)} for the steps j in snapshots."""
    grid = c.grid
    sign = 1 if j_end > j0 else -1
    states = {}
    for j in range(j0, j_end, sign):
        nxt = slice_stencil_step(ScalarField(grid, prev), ScalarField(grid, cur), c).values
        boundary(j + sign, nxt, prev)
        if j in snapshots:
            states[j] = (cur, (sign * nxt - sign * prev) / (2.0 * grid.dt))
        prev, cur, older = cur, nxt, prev
    vel = (3.0 * sign * cur - 4.0 * sign * prev + sign * older) / (2.0 * grid.dt)
    return (cur, vel), states


def reference_forward(s0: StatePair, c: ScalarField, bspec: BoundarySpec, T: float,
                      snapshots=()):
    """forward_solve's trace rows (Gamma's columns of the ring), final
    (u, u_t) and snapshot states."""
    grid = s0.grid
    ks, ls = boundary_indices(grid.n)
    first = s0.first.values
    second = _taylor_level(first, -grid.dt * s0.second.values, c)
    rows = [first[ks, ls], second[ks, ls]]
    final, states = _reference_leapfrog(
        first, second, 1, num_steps(T, grid.dt), c,
        lambda j, level, behind: rows.append(level[ks, ls]), snapshots)
    return np.array(rows)[:, bspec.gamma], final, states


def reference_absorbing(later, cur, behind, c: ScalarField, bspec: BoundarySpec,
                        data: np.ndarray, snapshots=()):
    """The backward march from level J = len(data) - 1 in later and J - 1 in
    cur: the Taylor start's absorbing ghost on cur, reading behind (dt v_t(T)
    for the backward solve), then every level's whole ring updated by the
    centered absorbing condition, with G = 0 off Gamma and the data rows
    (one value per Gamma node) scattered into zero rows of all its nodes."""
    grid = c.grid
    n = grid.n
    ks, ls = boundary_indices(n)
    ring = np.zeros((len(data), ks.size))
    ring[:, bspec.gamma] = data
    data = ring
    walls = (ks % (n - 1) == 0).astype(float) + (ls % (n - 1) == 0)
    G = (grid.dt / grid.dx) * c.values[ks, ls] ** 2 * bspec.lam * walls
    steps = len(data) - 1
    cur = cur.copy()
    cur[ks, ls] += G * (behind[ks, ls] - data[steps] + data[steps - 1])

    def absorb(j, level, later):
        level[ks, ls] = (level[ks, ls] + G * (later[ks, ls] - data[j + 2] + data[j])) / (1.0 + G)

    return _reference_leapfrog(later, cur, steps - 1, 0, c, absorb, snapshots)


def reference_reverse(data: np.ndarray, c: ScalarField, bspec: BoundarySpec,
                      terminal: StatePair | None = None, snapshots=()):
    """dissipative_reverse_solve's (v, v_t) at t = 0 and snapshot states,
    from the terminal state or (0, 0), through its Taylor start."""
    terminal = StatePair.zeros(c.grid) if terminal is None else terminal
    first = terminal.first.values
    behind = c.grid.dt * terminal.second.values
    return reference_absorbing(first, _taylor_level(first, behind, c), behind, c, bspec,
                               data, snapshots)


def reference_own_trace(f: ScalarField, c: ScalarField, bspec: BoundarySpec,
                        T: float) -> np.ndarray:
    """reverse_own_trace's v(., 0): at constant c, f minus the zero-data
    absorbing march from the levels of leapfrog_levels; at any other c, the
    backward march on the forward march's trace."""
    grid = f.grid
    if np.ptp(c.values) == 0.0:
        before, last = leapfrog_levels(f, c, T)
        zero = np.zeros((num_steps(T, grid.dt) + 1, bspec.gamma.size))
        (e, _), _ = reference_absorbing(last.values, before.values,
                                        last.values - before.values, c, bspec, zero)
        return f.values - e
    rows, _, _ = reference_forward(StatePair(f, ScalarField.zeros(grid)), c, bspec, T)
    return reference_reverse(rows, c, bspec)[0][0]
