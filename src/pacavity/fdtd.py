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
  each wall through the node (twice that at a corner).  Off Gamma G would
  be 0 and the update the forward closure, so the march updates Gamma's
  nodes only and leaves the others their mirror-closed values.

At constant sound speed c the type-I DCT of spectral diagonalizes the
mirror-closed leapfrog and its Taylor start: mode (k, l) advances as
cos(j theta_{k,l}) with a discrete phase theta_{k,l} in place of the
continuous lam_{k,l} dt.  leapfrog_levels evaluates the forward solve's last
two levels that way, without the march.

When g is the forward solver's own trace, the forward levels satisfy the
backward update with the data terms cancelling, so the backward error u - v
obeys the homogeneous absorbing update exactly and its energy decays.

One leapfrog loop (_leapfrog), with the snapshot capture and the one-sided
end velocity, runs every march from its first two levels; the forward solve
takes them from the Taylor start (_taylor_start) and records a trace row at
each level.  Both backward marches run one absorbing march
(_absorbing_march): the Taylor start's absorbing ghost at t = T, then the
leapfrog with the absorbing update on Gamma.  dissipative_reverse_solve
feeds it the Taylor start from the terminal state and the measured data.

A march holds three n x n buffers, two levels and a scratch, and at a
variable c the per-node coefficient and centre.  Level j - 1 is dead once
level j + 1 is formed, so each step writes j + 1 over it, every node's
sum in the stencil's order, so that every level is the same to the bit.
What later steps read of a retired level is kept apart: the absorbing
update its values on Gamma (|Gamma| per level), the centered snapshot
velocity sign u^{j-1} on snapshot steps only, and the one-sided end
velocity sign u^{L-2}, a fourth n x n array for the last step alone.

The step is the C loop of _leapfrog.c, which _native builds with the C
compiler on the first march (never at import) and caches in the package's
__pycache__.  Where none builds, the marches run _advance, its numpy
definition, which gives the same bits more slowly; step_kernel names the
one in use.

reverse_own_trace is A L (f, 0) in its first component, the backward solve
at t = 0 on the forward solve's own trace, for every c; whether c is
constant is tested in _check_setup alone.  At constant c it feeds the
absorbing march the forward levels J and J - 1 from leapfrog_levels and
zero data, which gives the backward solve's error without forming the
trace; any other c runs the forward solve and the backward solve on its
trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _native
from .core import (
    BoundarySpec,
    BoundaryTrace,
    ConfigError,
    Grid2D,
    GridMismatchError,
    ScalarField,
    StatePair,
    boundary_count,
    boundary_indices,
    num_steps,
)
from .spectral import dct2_forward, dct2_inverse

# the compiled step: None until the first march asks for it, then
# _native.load()'s function, or False when none loads
_compiled = None


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
    walls = np.isin(ks, (0, n - 1)).astype(float) + np.isin(ls, (0, n - 1))
    flat.setflags(write=False)
    walls.setflags(write=False)
    return flat, walls


def _absorption(c: np.ndarray | None, bspec: BoundarySpec) -> np.ndarray:
    """G = (dt/dx)^2 c^2 gamma per boundary node, counted once per wall.

    c is None for unit sound speed.  G is zero off Gamma.
    """
    grid = bspec.grid
    flat, walls = _boundary_layout(grid.n)
    c2 = 1.0 if c is None else c.reshape(-1)[flat] ** 2
    return (grid.dt / grid.dx) * c2 * bspec.lam * walls


def _advance(out: np.ndarray, cur: np.ndarray, prev: np.ndarray, coef, centre,
             work: np.ndarray) -> np.ndarray:
    """out = centre cur - prev + coef (sum of the four neighbours of cur).

    Wall nodes read the mirror ghost u_{-1} = u_1.  With centre = 2 - 4 coef
    this is one leapfrog step of the mirror-closed scheme; with coef / 2,
    centre = 1 - 2 coef and prev = -dt u_t it is the second-order Taylor
    start.  out may be prev itself, so that the new level takes the buffer
    of the one it retires: D = centre cur - prev goes into the scratch work
    first, and only then is the neighbour sum built in out, scaled by coef
    and D added to it.  That is (centre cur - prev) + coef sum, the order of
    the 2-D stencil, with the two operands of the last add swapped, and IEEE
    addition commutes, so the result is the same to the bit.  Nothing of
    size n x n is allocated.

    The left and right neighbours are added on the flat view, where they sit
    at offsets -1 and +1: one contiguous pass each, where the same adds on
    strided column slices cost about four times a row add.  On the flat view
    the two wall columns pick up a value from the adjacent row instead of
    the mirror ghost, so they are saved after the row adds, given their
    mirror neighbour twice and written back.  Every node thus sums its
    neighbours in the order up, down, left, right, as the 2-D stencil does.
    All arrays must be C-ordered (ScalarField guarantees it for its values):
    of any other array reshape(-1) is a copy, and the adds to out would be
    lost.

    This is the numpy step, the marches' fallback and the definition that
    the compiled loop of _leapfrog.c matches bit for bit (see _stepper).
    """
    np.multiply(cur, centre, out=work)
    work -= prev
    flat, src = out.reshape(-1), cur.reshape(-1)
    out[1:] = cur[:-1]
    out[0] = cur[1]
    out[:-1] += cur[1:]
    out[-1] += cur[-2]
    walls = out[:, [0, -1]]
    mirror = cur[:, [1, -2]]
    walls += mirror
    walls += mirror
    flat[1:] += src[:-1]
    flat[:-1] += src[1:]
    out[:, [0, -1]] = walls
    out *= coef
    out += work
    return out


def _kernel():
    """The compiled step, loaded (or built) on the first call; False when
    none loads, for the rest of the process."""
    global _compiled
    if _compiled is None:
        _compiled = _native.load() or False
    return _compiled


def step_kernel() -> str:
    """The leapfrog step the marches run: 'c' for the compiled loop, 'numpy'
    where none builds.  The first call builds or loads the compiled loop."""
    return "c" if _kernel() else "numpy"


def _stepper(coef, centre, work: np.ndarray):
    """advance(out, cur, prev): _advance(out, cur, prev, coef, centre, work)
    with coef and centre bound, run by the compiled loop once one loads.

    out may be prev but never cur.  Every array must be n x n, C-ordered and
    float, n that of work; coef and centre are one float each or one value
    per node.  The compiled path takes each array's address on the array's
    first step only and holds the array, so that its id names it while the
    stepper lives: a step then costs about 1 µs of call overhead.
    """
    step = _kernel()
    if not step:
        return lambda out, cur, prev: _advance(out, cur, prev, coef, centre, work)
    n = work.shape[0]
    stride = 0 if isinstance(coef, float) else 1
    held = {}

    def address(a: np.ndarray, shape=(n, n)) -> int:
        if id(a) not in held:
            if a.shape != shape or a.dtype != np.float64 or not a.flags.c_contiguous:
                raise ValueError("the compiled step takes n x n C-ordered float arrays")
            held[id(a)] = (a, a.ctypes.data)
        return held[id(a)][1]

    cp, ep = (address(np.asarray(v, dtype=float), (n, n) if stride else ())
              for v in (coef, centre))

    def advance(out, cur, prev):
        step(address(out), address(cur), address(prev), cp, ep, stride, n)
        return out

    return advance


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
    returns the original level.  The marches' setup checks apply: the three
    fields must share a grid (else GridMismatchError), c must be positive
    (else ValueError) and the grid's dt must satisfy the CFL bound for it
    (else StabilityError).
    """
    if prev.grid != curr.grid:
        raise GridMismatchError("fields live on different grids")
    coef = _check_setup(curr.grid, c)
    out = np.empty_like(curr.values)
    _stepper(coef, 2.0 - 4.0 * coef, np.empty_like(out))(out, curr.values, prev.values)
    return ScalarField(curr.grid, out)


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
    Returns the 4n-4 boundary values in canonical order.  The marches' setup
    checks apply: c must be positive (else ValueError) and the grid's dt
    must satisfy the CFL bound for it (else StabilityError).
    """
    grid = level_new.grid
    if grid != level_old.grid or grid != bspec.grid or (c is not None and c.grid != grid):
        raise GridMismatchError("fields and boundary spec live on different grids")
    if c is None:
        grid.check_cfl(1.0)
    else:
        _check_setup(grid, c)
    nb = boundary_count(grid.n)
    g_new = np.asarray(g_new, dtype=float)
    g_old = np.asarray(g_old, dtype=float)
    if g_new.shape != (nb,) or g_old.shape != (nb,):
        raise GridMismatchError(f"data rows must have length {nb}")
    flat, _ = _boundary_layout(grid.n)
    G = _absorption(None if c is None else c.values, bspec)
    return _absorb(level_new.values.reshape(-1)[flat], level_old.values.reshape(-1)[flat],
                   g_new, g_old, G)


def _check_setup(grid: Grid2D, c: ScalarField, bspec: BoundarySpec | None = None):
    """Check that c and bspec live on grid, that c is positive and that dt
    meets the CFL bound; return the scheme's coefficient (dt/dx)^2 c^2, one
    float when c is constant and else one value per node."""
    if c.grid != grid or (bspec is not None and bspec.grid != grid):
        raise GridMismatchError("grid, sound speed and boundary spec are inconsistent")
    if np.any(c.values <= 0):
        raise ValueError("sound speed must be strictly positive")
    grid.check_cfl(float(c.values.max()))
    coef = (grid.dt / grid.dx) ** 2 * c.values ** 2
    if np.all(coef == coef.flat[0]):
        return float(coef.flat[0])
    return coef


def _leapfrog_phases(grid: Grid2D, c: ScalarField) -> np.ndarray:
    """The discrete phases theta_kl with which the mirror-closed leapfrog
    advances mode (k, l) at constant sound speed c: cos(j theta_kl) at
    level j, sin^2(theta_kl / 2) = (dt c / dx)^2 (s_k + s_l) and
    s_k = sin^2(k pi / (2 (n - 1))).  The solvers' setup checks apply, so a
    CFL violation raises StabilityError; a c that is not constant is a
    ConfigError."""
    coef = _check_setup(grid, c)
    if not isinstance(coef, float):
        raise ConfigError("the leapfrog's eigenbasis needs a constant sound speed")
    s = np.sin(0.5 * np.pi * np.arange(grid.n) / (grid.n - 1)) ** 2
    # arcsin keeps the digits of small phases that arccos(1 - 2 x) loses; the
    # clip absorbs the rounding slack check_cfl allows at the bound itself
    return 2.0 * np.arcsin(np.sqrt(np.minimum(coef * (s[:, None] + s[None, :]), 1.0)))


def leapfrog_levels(f: ScalarField, c: ScalarField,
                    T: float) -> tuple[ScalarField, ScalarField]:
    """Levels J - 1 and J = T / dt of forward_solve from (f, 0) at
    constant sound speed c, evaluated in the scheme's own eigenbasis instead
    of by marching.

    The DCT-I diagonalizes the mirror-closed leapfrog and its Taylor start,
    so level j is the cosine series of f with each coefficient times
    cos(j theta_kl) (see _leapfrog_phases), equal to the march to rounding.
    """
    grid = f.grid
    theta = _leapfrog_phases(grid, c)
    coeffs = dct2_forward(f)
    steps = num_steps(T, grid.dt)
    return tuple(dct2_inverse(grid, coeffs * np.cos(j * theta)) for j in (steps - 1, steps))


def _taylor_start(state: StatePair, coef,
                  sign: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first two levels of a march from state in the direction sign (the
    second from the mirror-closed second-order Taylor step), and the boundary
    values, in canonical order, of -sign dt u_t, the array that stands in
    for the level before the first; coef is _check_setup's.  The second
    level is built in the buffer of -sign dt u_t, once its boundary values
    are taken."""
    first = state.first.values.copy()
    second = (-sign * state.grid.dt) * state.second.values
    behind = second.reshape(-1)[_boundary_layout(state.grid.n)[0]]
    _stepper(0.5 * coef, 1.0 - 2.0 * coef, np.empty_like(first))(second, first, second)
    return first, second, behind


def _leapfrog(prev: np.ndarray, cur: np.ndarray, j0: int, j_end: int, grid: Grid2D,
              coef, boundary, snapshots: dict[int, StatePair] | None) -> StatePair:
    """March the leapfrog scheme with _check_setup's coef from level j0 in
    cur, with the level before it along the march in prev, to level j_end,
    forward in time when j_end > j0 and backward otherwise; prev and cur are
    overwritten.

    prev, cur and one scratch buffer are the only n x n arrays the march
    holds: each new level is written over the level two steps back, which it
    retires (see _advance), and handed to boundary(j, level), with j its
    time index; the rule finishes the boundary values of level in place and
    keeps for itself what it reads of earlier levels.  For every key j of
    snapshots (levels j0 up to the one before j_end) the state at t_j is
    stored, with the centered-difference velocity, for which sign u^{j-1} is
    kept before its buffer is reused.  Returns the state at level j_end, its
    velocity from the one-sided second-order difference of the last three
    levels, formed in the scratch buffer from sign u of the third last, kept
    the same way.
    """
    sign = 1 if j_end > j0 else -1
    lo, hi = sorted((j0, j_end - sign))
    snapshots = {} if snapshots is None else snapshots
    bad = [j for j in snapshots if not (isinstance(j, (int, np.integer)) and lo <= j <= hi)]
    if bad:
        raise ConfigError(f"snapshot steps must be integers in {lo} .. {hi}, got {bad}")
    work = np.empty_like(prev)
    advance = _stepper(coef, 2.0 - 4.0 * coef, work)
    # the velocities below negate each operand, not the difference, so they
    # equal the differences taken in time order bit for bit, signed zeros too
    for j in range(j0, j_end, sign):
        if j in snapshots or j == j_end - sign:
            back = sign * prev
        advance(prev, cur, prev)
        boundary(j + sign, prev)
        if j in snapshots:
            vel = (sign * prev - back) / (2.0 * grid.dt)
            snapshots[j] = StatePair(ScalarField(grid, cur.copy()), ScalarField(grid, vel))
        prev, cur = cur, prev
    # ((3 sign u^L - 4 sign u^{L-1}) + sign u^{L-2}) / (2 dt) in the scratch
    # and in u^{L-1}'s buffer, the loop's last pass having kept sign u^{L-2}
    vel = np.multiply(cur, 3.0 * sign, out=work)
    prev *= 4.0 * sign
    vel -= prev
    vel += back
    vel /= 2.0 * grid.dt
    return StatePair(ScalarField(grid, cur), ScalarField(grid, vel))


def _absorbing_march(prev: np.ndarray, cur: np.ndarray, behind: np.ndarray,
                     c: ScalarField, coef, bspec: BoundarySpec, data: np.ndarray,
                     snapshots: dict[int, StatePair] | None) -> StatePair:
    """March backward from levels J = len(data) - 1 in prev and J - 1 in cur
    to t = 0, absorbing on Gamma with the data rows, one value per Gamma
    node (zero data may be one broadcast column); prev and cur are
    overwritten.

    cur first takes the Taylor start's absorbing ghost at t = T, which reads
    behind, the boundary values of dt v_t(T) in canonical order, and the
    one-sided data derivative (g^J - g^{J-1}) / dt.  The update of level j
    reads the values on Gamma of level j + 2, whose buffer level j + 1 has
    already taken, so the rule keeps those of the last two levels itself.
    Only Gamma's nodes are touched: G, the ghost and the two rings live on
    Gamma alone.  coef is _check_setup's for c.
    """
    gamma = bspec.gamma
    nodes = _boundary_layout(bspec.grid.n)[0][gamma]
    G = _absorption(c.values, bspec)[gamma]
    steps = data.shape[0] - 1
    rings = np.empty((2, nodes.size))
    rings[steps % 2] = prev.reshape(-1)[nodes]
    edge = cur.reshape(-1)
    edge[nodes] += G * (behind[gamma] - data[steps] + data[steps - 1])
    rings[(steps - 1) % 2] = edge[nodes]

    def absorb(j, level):
        later = rings[j % 2]
        later[:] = _absorb(level.reshape(-1)[nodes], later, data[j], data[j + 2], G)
        level.reshape(-1)[nodes] = later

    return _leapfrog(prev, cur, steps - 1, 0, bspec.grid, coef, absorb, snapshots)


def forward_solve(s0: StatePair, c: ScalarField, bspec: BoundarySpec, T: float, *,
                  snapshots: dict[int, StatePair] | None = None) -> SolveResult:
    """Solve the Neumann problem from initial state s0 and record the trace.

    The trace holds u at the nodes of Gamma, one column each, for
    t_j = 0 .. T.  The terminal velocity is extracted with the one-sided
    second-order difference (3 u^J - 4 u^{J-1} + u^{J-2}) / (2 dt).  The
    keys of snapshots are the steps j (1 .. J-1) to record: each value is
    set to the state at t_j, its velocity the centered difference.
    """
    grid = s0.grid
    coef = _check_setup(grid, c, bspec)
    steps = num_steps(T, grid.dt)
    nodes = _boundary_layout(grid.n)[0][bspec.gamma]
    rows = np.empty((steps + 1, nodes.size))

    def record(j, level):
        np.take(level, nodes, out=rows[j])

    prev, cur, _ = _taylor_start(s0, coef, +1)
    record(0, prev)
    record(1, cur)
    final = _leapfrog(prev, cur, 1, steps, grid, coef, record, snapshots)
    return SolveResult(trace=BoundaryTrace(bspec, rows), final_state=final)


def dissipative_reverse_solve(g: BoundaryTrace, c: ScalarField, *,
                              terminal_state: StatePair | None = None,
                              snapshots: dict[int, StatePair] | None = None) -> StatePair:
    """Integrate backward from t = T with the absorbing boundary condition.

    Terminal data default to (0, 0); the measured trace g drives the
    boundary on its own Gamma, with its own lambda.  Returns (v(., 0),
    v_t(., 0)), the velocity from the one-sided difference
    (-3 v^0 + 4 v^1 - v^2) / (2 dt).

    A nonzero terminal_state runs the same absorbing dynamics from that
    state instead, which with g = 0 realizes the free decay of the error
    equation.  snapshots records states as in forward_solve.
    """
    grid = g.grid
    coef = _check_setup(grid, c, g.bspec)
    if terminal_state is None:
        # the Taylor start from (0, 0) is +0 at every node, and so is dt v_t
        prev, cur = np.zeros((grid.n, grid.n)), np.zeros((grid.n, grid.n))
        behind = np.zeros(boundary_count(grid.n))
    elif terminal_state.grid != grid:
        raise GridMismatchError("terminal state lives on a different grid")
    else:
        prev, cur, behind = _taylor_start(terminal_state, coef, -1)
    return _absorbing_march(prev, cur, behind, c, coef, g.bspec, g.samples, snapshots)


def reverse_own_trace(f: ScalarField, c: ScalarField, bspec: BoundarySpec,
                      T: float) -> ScalarField:
    """v(., 0), the first component of A L (f, 0): the backward solve at
    t = 0 when its data are the trace of the forward solve over T from
    (f, 0).

    At constant sound speed c no trace is formed.  With g = u on Gamma the
    data terms cancel (see the module docstring), so the error e = u - v is
    the absorbing march with zero data from the forward levels u^J and
    u^{J-1} of leapfrog_levels, its start ghost taking u^J - u^{J-1} where
    the backward solve takes dt v_t(T) - g^J + g^{J-1}; v(., 0) = f - e^0.
    Any other c runs forward_solve and dissipative_reverse_solve.
    """
    grid = f.grid
    coef = _check_setup(grid, c, bspec)
    if not isinstance(coef, float):
        del coef  # the two solves derive their own; freed before they march
        trace = forward_solve(StatePair(f, ScalarField.zeros(grid)), c, bspec, T).trace
        return dissipative_reverse_solve(trace, c).first
    before, last = leapfrog_levels(f, c, T)
    flat, _ = _boundary_layout(grid.n)
    behind = last.values.reshape(-1)[flat] - before.values.reshape(-1)[flat]
    zero = np.zeros((num_steps(T, grid.dt) + 1, 1))
    return f - _absorbing_march(last.values, before.values, behind, c, coef, bspec, zero,
                                None).first
