"""Initial-pressure reconstruction from boundary traces.

The time-reversal operator A maps a trace g to the state (v(.,0), v_t(.,0))
of the backward absorbing solve; the measurement operator L maps an initial
state to its boundary trace.  With P = project_H1, the projector onto H1
(boundary-mean-free first component, zero second component), the
reconstruction is the Neumann series for the fixed point of

    u = (I - P A L) u + P A g,

computed by the iteration u^(k+1) = u^(k) - P A L u^(k) + P A g starting
from u^(0) = 0, so u^(1) = P A g is the one-shot approximation.  The
operator I - P A L is a contraction in the energy seminorm once the
measurement time is long enough for every ray to reach Gamma, which makes
the iteration geometrically convergent; estimate_contraction measures the
realized factor for a given configuration.

L is the finite-difference scheme of fdtd, so the operator pair (L, A) is
self-consistent.  Every state P A L is applied to has zero velocity: the
iterates are project_H1 outputs, and estimate_contraction applies it to
(f, 0).  P reads only the first component of A L u, which one call,
fdtd.reverse_own_trace, gives for every sound speed; how the scheme
evaluates it (without forming the trace L u when c is constant) is fdtd's
concern.  The data still come from the continuous lam_kl series
(spectral.synthesize_data), so no inversion uses data made by the model it
inverts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fdtd
from .core import (
    BoundarySpec,
    BoundaryTrace,
    ConfigError,
    Grid2D,
    GridMismatchError,
    ScalarField,
    StatePair,
    num_steps,
    project_H1,
    relative_l2,
    seminorm,
)


@dataclass(frozen=True)
class ReconConfig:
    """Reconstruction parameters: measurement time, iteration count, sound
    speed and boundary spec.  The iteration runs on H1 (zero-velocity
    states).  They are checked once, on construction, and cannot be
    reassigned."""

    T: float
    iterations: int
    c: ScalarField
    bspec: BoundarySpec

    def __post_init__(self):
        if self.T <= 0:
            raise ConfigError(f"measurement time must be positive, got {self.T!r}")
        if not np.isfinite(self.T):
            raise ConfigError(f"measurement time must be finite, got {self.T!r}")
        if (isinstance(self.iterations, bool)
                or not isinstance(self.iterations, (int, np.integer))):
            raise ConfigError(f"iteration count must be an integer, got {self.iterations!r}")
        if self.iterations < 0:
            raise ConfigError(f"iteration count must be >= 0, got {self.iterations!r}")
        if self.c.grid != self.bspec.grid:
            raise GridMismatchError("sound speed and boundary spec live on different grids")

    @property
    def grid(self) -> Grid2D:
        return self.c.grid


@dataclass
class ReconReport:
    """Final iterate plus, when a reference was given, the relative L2 error
    of each iterate's first component against it."""

    estimate: StatePair
    per_iteration_errors: list = field(default_factory=list)


def _check_trace(g: BoundaryTrace, cfg: ReconConfig) -> None:
    if g.grid != cfg.grid:
        raise GridMismatchError("trace and configuration live on different grids")
    if g.bspec != cfg.bspec:
        raise ConfigError("the trace was measured on another Gamma or lambda "
                          "than the configuration's boundary spec")
    steps = num_steps(cfg.T, g.dt)
    if g.n_steps != steps:
        raise ConfigError(
            f"trace covers {g.n_steps} steps but T = {cfg.T} at dt = {g.dt} needs {steps}"
        )


def _apply(u: StatePair, cfg: ReconConfig) -> StatePair:
    """P A L u for a zero-velocity u, the operator of the fixed-point
    iteration."""
    return project_H1(StatePair(fdtd.reverse_own_trace(u.first, cfg.c, cfg.bspec, cfg.T),
                                u.second))


def initial_approximation(g: BoundaryTrace, cfg: ReconConfig) -> StatePair:
    """One-shot estimate P(A g): project the backward solve at t = 0."""
    _check_trace(g, cfg)
    return project_H1(fdtd.dissipative_reverse_solve(g, cfg.c))


def neumann_iterate(g: BoundaryTrace, cfg: ReconConfig,
                    reference: ScalarField | None = None) -> ReconReport:
    """Run cfg.iterations steps of u <- u - P A L u + P A g.

    When a reference field is given, the relative L2 error of each
    iterate's first component against it is recorded.
    """
    _check_trace(g, cfg)
    if reference is not None and reference.grid != cfg.grid:
        raise GridMismatchError("reference and configuration live on different grids")
    u, errors = StatePair.zeros(cfg.grid), []
    base = initial_approximation(g, cfg) if cfg.iterations else None
    for k in range(cfg.iterations):
        u = base if k == 0 else u - _apply(u, cfg) + base
        if reference is not None:
            errors.append(relative_l2(u.first, reference))
    return ReconReport(u, errors)


def estimate_contraction(f: ScalarField, cfg: ReconConfig) -> float:
    """Realized contraction factor |(I - P A L)(f, 0)| / |(f, 0)|.

    Values below one certify that the iteration contracts for this
    measurement time and aperture; the factor decreases as T grows.
    """
    state = StatePair(f, ScalarField.zeros(f.grid))
    denom = seminorm(state, cfg.c)
    if denom == 0.0:
        raise ZeroDivisionError("contraction ratio is undefined for a zero state")
    return seminorm(state - _apply(state, cfg), cfg.c) / denom
