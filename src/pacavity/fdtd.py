"""Leapfrog solvers: the measurement map (forward) and dissipative time reversal.

Every node, wall nodes included, advances with the second-order centered
stencil

    u^{j+1} = 2 u^j - u^{j-1} + dt^2 c^2 (D_xx + D_yy) u^j.

At a wall node the stencil reaches one ghost node outside the square, whose
value comes from the boundary condition; a corner has one ghost for each of
its two walls.

* forward (perfectly reflecting walls): the zero Neumann condition, taken as
  the centered difference (u_{-1} - u_1) / (2 dx) = 0, gives the mirror ghost
  u_{-1} = u_1.  This closure is second order, like the interior stencil.

* backward (time reversal, run from t = T down to 0): on the measured part
  Gamma the energy-absorbing condition  dv/dnu - lambda v_t = -lambda g_t  is
  taken with centered differences in space and time at the wall node,

      (v_{-1} - v_1) / (2 dx) = lambda (w^{j+1} - w^{j-1}) / (2 dt),   w = v - g,

  so the ghost is v_{-1} = v_1 + gamma (w^{j+1} - w^{j-1}) with
  gamma = lambda dx / dt.  Put into the stencil, this leaves a local diagonal
  solve for the new (earlier) level j-1:

      v_b^{j-1} = [E_b + G (v_b^{j+1} - g^{j+1} + g^{j-1})] / (1 + G),

  where E_b is the mirror-closed stencil value and G = (dt/dx)^2 c^2 gamma for
  each wall through the node (twice that at a corner).  Off Gamma, G = 0 and
  the update is the forward closure.

When g is the forward solver's own trace, the forward levels satisfy the
backward update with the data terms cancelling, so the backward error u - v
obeys the homogeneous absorbing update exactly and its energy decays.

Both solvers run the same march (_march) in opposite directions of time:
one Taylor start, one leapfrog loop, one snapshot capture and one
one-sided end velocity.  They differ only in the rule that finishes each
new level: the forward solve records its trace row, the backward solve
applies the absorbing update on Gamma.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    BoundarySpec,
    ConfigError,
    Grid2D,
    GridMismatchError,
    ScalarField,
    StatePair,
    boundary_count,
    boundary_indices,
    corner_positions,
    num_steps,
)


@dataclass
class BoundaryTrace:
    """Pressure samples at every boundary node for every time level.

    samples[j, b] is the value at time t_j = j*dt at boundary node b in the
    canonical enumeration.  Nodes outside Gamma are zeroed on construction
    when a gamma_mask is supplied.  lam is the per-node dissipation weight of
    the boundary spec the trace was recorded for, or None when unknown.  The
    trace file stores dt, the mask and lam, so a reloaded trace carries all
    three.
    """

    grid: Grid2D
    dt: float
    samples: np.ndarray
    gamma_mask: np.ndarray = None  # type: ignore[assignment]
    lam: np.ndarray | None = None

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        nb = boundary_count(self.grid.n)
        if s.ndim != 2 or s.shape[1] != nb:
            raise GridMismatchError(
                f"trace must have {nb} columns for n = {self.grid.n}, got shape {s.shape}"
            )
        if not np.all(np.isfinite(s)):
            raise ValueError("trace contains non-finite values")
        if self.dt <= 0:
            raise ConfigError(f"trace time step must be positive, got {self.dt!r}")
        if self.gamma_mask is None:
            self.gamma_mask = np.ones(nb, dtype=bool)
        else:
            mask = np.asarray(self.gamma_mask, dtype=bool)
            if mask.shape != (nb,):
                raise GridMismatchError("gamma_mask length does not match the grid")
            # samples that are already zero off Gamma are kept as they are;
            # otherwise a copy is zeroed, so the caller's array never changes
            if np.any(s, axis=0)[~mask].any():
                s = s.copy()
                s[:, ~mask] = 0.0
            self.gamma_mask = mask
        if self.lam is not None:
            self.lam = np.asarray(self.lam, dtype=float)
            if self.lam.shape != (nb,):
                raise GridMismatchError("lam length does not match the grid")
        self.samples = s

    @property
    def n_steps(self) -> int:
        return self.samples.shape[0] - 1

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.samples.shape[0])


@dataclass
class SolveResult:
    """Forward solve output: boundary trace plus the terminal state."""

    trace: BoundaryTrace
    final_state: StatePair


@lru_cache(maxsize=None)
def _boundary_layout(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of the boundary nodes in canonical order, and the number
    of walls through each node (two at a corner)."""
    ks, ls = boundary_indices(n)
    flat = ks * n + ls
    walls = np.ones(boundary_count(n))
    walls[list(corner_positions(n))] = 2.0
    flat.setflags(write=False)
    walls.setflags(write=False)
    return flat, walls


def _coefficient(c: np.ndarray, dt: float, dx: float):
    """(dt/dx)^2 c^2 per node, or one scalar when c is constant."""
    coef = (dt / dx) ** 2 * c ** 2
    if np.all(coef == coef.flat[0]):
        return float(coef.flat[0])
    return coef


def _absorption(c: np.ndarray | None, bspec: BoundarySpec, dt: float) -> np.ndarray:
    """G = (dt/dx)^2 c^2 gamma per boundary node, counted once per wall.

    c is None for unit sound speed.  G is zero off Gamma.
    """
    grid = bspec.grid
    flat, walls = _boundary_layout(grid.n)
    c2 = 1.0 if c is None else c.reshape(-1)[flat] ** 2
    return (dt / grid.dx) * c2 * bspec.lam * walls


def _advance(out: np.ndarray, cur: np.ndarray, prev: np.ndarray, coef, centre,
             work: np.ndarray) -> np.ndarray:
    """out = centre cur - prev + coef (sum of the four neighbours of cur).

    Wall nodes read the mirror ghost u_{-1} = u_1.  With centre = 2 - 4 coef
    this is one leapfrog step of the mirror-closed scheme; with coef / 2,
    centre = 1 - 2 coef and prev = -dt u_t it is the second-order Taylor
    start.  work is scratch space; nothing of size n x n is allocated.
    """
    work[1:] = cur[:-1]
    work[0] = cur[1]
    work[:-1] += cur[1:]
    work[-1] += cur[-2]
    work[:, 1:] += cur[:, :-1]
    work[:, 0] += cur[:, 1]
    work[:, :-1] += cur[:, 1:]
    work[:, -1] += cur[:, -2]
    work *= coef
    np.multiply(cur, centre, out=out)
    out -= prev
    out += work
    return out


def _absorb(mirror: np.ndarray, later: np.ndarray, g_new: np.ndarray,
            g_later: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Boundary values of the new level under the centered absorbing condition.

    mirror holds the mirror-closed stencil values at the boundary nodes,
    later the values two levels later; g_new / g_later are the data rows of
    the same two levels.  Where G = 0 the mirror values come back unchanged.
    """
    return (mirror + G * (later - g_later + g_new)) / (1.0 + G)


def interior_step(prev: ScalarField, curr: ScalarField, c: ScalarField) -> ScalarField:
    """One leapfrog level from the two preceding ones, at every node.

    Wall nodes use the mirror ghost of the reflecting walls, so the result
    is the next level of the forward solve; the backward solve corrects its
    boundary values on Gamma with dissipative_boundary_update.
    Time-symmetric: stepping forward then backward from matched levels
    returns the original level.
    """
    if prev.grid != curr.grid or curr.grid != c.grid:
        raise GridMismatchError("fields live on different grids")
    grid = curr.grid
    coef = _coefficient(c.values, grid.dt, grid.dx)
    out = np.empty_like(curr.values)
    _advance(out, curr.values, prev.values, coef, 2.0 - 4.0 * coef, np.empty_like(out))
    return ScalarField(grid, out)


def dissipative_boundary_update(level_new: ScalarField, level_old: ScalarField,
                                g_new: np.ndarray, g_old: np.ndarray,
                                bspec: BoundarySpec,
                                c: ScalarField | None = None) -> np.ndarray:
    """Boundary values of the new time level under the absorbing condition.

    The backward solve steps from later to earlier times.  level_new must
    hold the mirror-closed stencil values of the new level (interior_step
    of the two levels after it); level_old is the level two steps later
    than the new one and g_old its data row; g_new is the data row of the
    new level, all rows in canonical boundary order.  c is the sound speed
    (unit speed when omitted); G is formed with the grid's own dx and dt.
    Returns the 4n-4 boundary values in canonical order.
    """
    grid = level_new.grid
    if grid != level_old.grid or grid != bspec.grid or (c is not None and c.grid != grid):
        raise GridMismatchError("fields and boundary spec live on different grids")
    nb = boundary_count(grid.n)
    g_new = np.asarray(g_new, dtype=float)
    g_old = np.asarray(g_old, dtype=float)
    if g_new.shape != (nb,) or g_old.shape != (nb,):
        raise GridMismatchError(f"data rows must have length {nb}")
    flat, _ = _boundary_layout(grid.n)
    G = _absorption(None if c is None else c.values, bspec, grid.dt)
    return _absorb(level_new.values.reshape(-1)[flat], level_old.values.reshape(-1)[flat],
                   g_new, g_old, G)


def _check_setup(grid: Grid2D, c: ScalarField, bspec: BoundarySpec, dt: float) -> None:
    if c.grid != grid or bspec.grid != grid:
        raise GridMismatchError("grid, sound speed and boundary spec are inconsistent")
    if np.any(c.values <= 0):
        raise ValueError("sound speed must be strictly positive")
    Grid2D(grid.n, dt).check_cfl(float(c.values.max()))


def _march(start: StatePair, c: ScalarField, dt: float, steps: int, sign: int,
           boundary, snapshots: dict[int, StatePair] | None) -> StatePair:
    """March the leapfrog scheme over steps levels in the direction sign.

    sign = +1 starts at t = 0 and ends at t = steps dt; sign = -1 starts at
    t = steps dt and ends at t = 0.  The second-order Taylor start from
    start gives the first new level, _advance every later one.  Each new
    level is handed to boundary(j, level, behind), with j its time index and
    behind the level two steps back along the march (at the Taylor start,
    the array -sign dt u_t that stands in for it); the rule finishes the
    boundary values of level in place.  For every key j of snapshots the
    state at t_j is stored, with the centered-difference velocity.  Returns
    the state at the last level, its velocity from the one-sided
    second-order difference of the last three levels.
    """
    if snapshots is None:
        snapshots = {}
    bad = [j for j in snapshots if not (isinstance(j, (int, np.integer)) and 0 < j < steps)]
    if bad:
        raise ConfigError(f"snapshot steps must be integers in 1 .. {steps - 1}, got {bad}")
    grid = start.grid
    coef = _coefficient(c.values, dt, grid.dx)
    centre = 2.0 - 4.0 * coef
    first = 0 if sign > 0 else steps
    work = np.empty_like(start.first.values)

    prev = start.first.values.copy()
    behind = (-sign * dt) * start.second.values
    cur = _advance(np.empty_like(prev), prev, behind, 0.5 * coef, 1.0 - 2.0 * coef, work)
    boundary(first + sign, cur, behind)
    nxt = np.empty_like(prev)
    # the velocities below negate each operand, not the difference, so they
    # equal the differences taken in time order bit for bit, signed zeros too
    for j in range(first + sign, first + sign * steps, sign):
        _advance(nxt, cur, prev, coef, centre, work)
        boundary(j + sign, nxt, prev)
        if j in snapshots:
            vel = (sign * nxt - sign * prev) / (2.0 * dt)
            snapshots[j] = StatePair(ScalarField(grid, cur.copy()), ScalarField(grid, vel))
        prev, cur, nxt = cur, nxt, prev
    # steps >= 2, so nxt now holds the level before prev
    vel = (3.0 * sign * cur - 4.0 * sign * prev + sign * nxt) / (2.0 * dt)
    return StatePair(ScalarField(grid, cur), ScalarField(grid, vel))


def forward_solve(s0: StatePair, c: ScalarField, bspec: BoundarySpec, T: float, *,
                  snapshots: dict[int, StatePair] | None = None) -> SolveResult:
    """Solve the Neumann problem from initial state s0 and record the trace.

    The trace holds u at every boundary node for t_j = 0 .. T (zeroed off
    Gamma).  The terminal velocity is extracted with the one-sided
    second-order difference (3 u^J - 4 u^{J-1} + u^{J-2}) / (2 dt).  The
    keys of snapshots are the steps j (1 .. J-1) to record: each value is
    set to the state at t_j, its velocity the centered difference.
    """
    grid = s0.grid
    dt = grid.dt
    _check_setup(grid, c, bspec, dt)
    steps = num_steps(T, dt)
    flat, _ = _boundary_layout(grid.n)
    rows = np.empty((steps + 1, flat.size))
    np.take(s0.first.values, flat, out=rows[0])

    def record(j, level, behind):
        np.take(level, flat, out=rows[j])

    final = _march(s0, c, dt, steps, +1, record, snapshots)
    rows[:, ~bspec.gamma_mask] = 0.0
    trace = BoundaryTrace(grid, dt, rows, gamma_mask=bspec.gamma_mask.copy())
    return SolveResult(trace=trace, final_state=final)


def dissipative_reverse_solve(g: BoundaryTrace, c: ScalarField, bspec: BoundarySpec,
                              terminal_state: StatePair | None = None, *,
                              snapshots: dict[int, StatePair] | None = None) -> StatePair:
    """Integrate backward from t = T with the absorbing boundary condition.

    Terminal data default to (0, 0); the measured trace g drives the
    boundary on Gamma.  Returns (v(., 0), v_t(., 0)), the velocity from the
    one-sided difference (-3 v^0 + 4 v^1 - v^2) / (2 dt).

    A nonzero terminal_state runs the same absorbing dynamics from that
    state instead, which with g = 0 realizes the free decay of the error
    equation.  snapshots records states as in forward_solve.
    """
    grid = g.grid
    dt = g.dt
    _check_setup(grid, c, bspec, dt)
    steps = g.n_steps
    if steps < 2:
        raise ConfigError(f"trace must cover at least two time steps, got {steps}")
    if terminal_state is None:
        terminal_state = StatePair.zeros(grid)
    elif terminal_state.grid != grid:
        raise GridMismatchError("terminal state lives on a different grid")
    flat, _ = _boundary_layout(grid.n)
    G = _absorption(c.values, bspec, dt)
    data = g.samples

    def absorb(j, level, behind):
        new = level.reshape(-1)
        if j == steps - 1:
            # Taylor start: the absorbing ghost at t = T takes v_t(T) (behind
            # is dt v_t) and the one-sided data derivative (g^J - g^{J-1}) / dt
            new[flat] += G * (behind.reshape(-1)[flat] - data[j + 1] + data[j])
        else:
            new[flat] = _absorb(new[flat], behind.reshape(-1)[flat], data[j], data[j + 2], G)

    return _march(terminal_state, c, dt, steps, -1, absorb, snapshots)
