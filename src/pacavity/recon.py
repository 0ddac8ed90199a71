"""Initial-pressure reconstruction from boundary traces.

The time-reversal operator A maps a trace g to the state (v(.,0), v_t(.,0))
of the backward absorbing solve; the measurement operator L maps an initial
state to its boundary trace.  With P the projector onto the working
subspace (boundary-mean-free first component; the pair subspace H1
additionally has zero second component), the reconstruction is the Neumann
series for the fixed point of

    u = (I - P A L) u + P A g,

computed by the iteration u^(k+1) = u^(k) - P A L u^(k) + P A g starting
from u^(0) = 0, so u^(1) = P A g is the one-shot approximation.  The
operator I - P A L is a contraction in the energy seminorm once the
measurement time is long enough for every ray to reach Gamma, which makes
the iteration geometrically convergent; estimate_contraction measures the
realized factor for a given configuration.

The iteration applies the finite-difference forward solver, never the
spectral synthesizer, so the operator pair (L, A) is self-consistent while
the input data may come from an independent discretization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fdtd
from .core import (
    BoundarySpec,
    ConfigError,
    Grid2D,
    GridMismatchError,
    ScalarField,
    StatePair,
    num_steps,
    project_H0,
    project_H1,
    relative_l2,
    seminorm,
)
from .fdtd import BoundaryTrace


@dataclass
class ReconConfig:
    """Reconstruction parameters: measurement time, iteration count, subspace."""

    T: float
    iterations: int
    c: ScalarField
    bspec: BoundarySpec
    subspace: str = "H1"

    def __post_init__(self):
        if self.T <= 0:
            raise ConfigError(f"measurement time must be positive, got {self.T!r}")
        if self.iterations < 0:
            raise ConfigError(f"iteration count must be >= 0, got {self.iterations!r}")
        sub = str(self.subspace).upper()
        if sub not in ("H0", "H1"):
            raise ConfigError(f"subspace must be 'H0' or 'H1', got {self.subspace!r}")
        self.subspace = sub
        if self.c.grid != self.bspec.grid:
            raise GridMismatchError("sound speed and boundary spec live on different grids")

    @property
    def grid(self) -> Grid2D:
        return self.c.grid

    def project(self, s: StatePair) -> StatePair:
        return project_H1(s) if self.subspace == "H1" else project_H0(s)


@dataclass
class ReconReport:
    """Final iterate plus, when a reference was given, the relative L2 error
    of each iterate's first component against it."""

    estimate: StatePair
    per_iteration_errors: list = field(default_factory=list)


def _check_trace(g: BoundaryTrace, cfg: ReconConfig) -> None:
    if g.grid != cfg.grid:
        raise GridMismatchError("trace and configuration live on different grids")
    steps = num_steps(cfg.T, g.dt)
    if g.n_steps != steps:
        raise ConfigError(
            f"trace covers {g.n_steps} steps but T = {cfg.T} at dt = {g.dt} needs {steps}"
        )


def initial_approximation(g: BoundaryTrace, cfg: ReconConfig) -> StatePair:
    """One-shot estimate P(A g): project the backward solve at t = 0."""
    _check_trace(g, cfg)
    return cfg.project(fdtd.dissipative_reverse_solve(g, cfg.c, cfg.bspec))


def neumann_iterate(g: BoundaryTrace, cfg: ReconConfig,
                    reference: ScalarField | None = None) -> ReconReport:
    """Run cfg.iterations steps of u <- u - P A L u + P A g.

    When a reference field is given, the relative L2 error of each
    iterate's first component against it is recorded.
    """
    _check_trace(g, cfg)
    report = ReconReport(estimate=StatePair.zeros(cfg.grid))
    if cfg.iterations == 0:
        return report
    base = cfg.project(fdtd.dissipative_reverse_solve(g, cfg.c, cfg.bspec))
    u = base.copy()

    def record(state):
        if reference is not None:
            report.per_iteration_errors.append(relative_l2(state.first, reference))

    record(u)
    for _ in range(1, cfg.iterations):
        fwd = fdtd.forward_solve(u, cfg.c, cfg.bspec, cfg.T)
        back = fdtd.dissipative_reverse_solve(fwd.trace, cfg.c, cfg.bspec)
        u = u - cfg.project(back) + base
        record(u)
    report.estimate = u
    return report


def estimate_contraction(f: ScalarField, cfg: ReconConfig) -> float:
    """Realized contraction factor |(I - P A L)(f, 0)| / |(f, 0)|.

    Values below one certify that the iteration contracts for this
    measurement time and aperture; the factor decreases as T grows.
    """
    state = StatePair(f, ScalarField.zeros(f.grid))
    denom = seminorm(state, cfg.c)
    if denom == 0.0:
        raise ZeroDivisionError("contraction ratio is undefined for a zero state")
    fwd = fdtd.forward_solve(state, cfg.c, cfg.bspec, cfg.T)
    back = fdtd.dissipative_reverse_solve(fwd.trace, cfg.c, cfg.bspec)
    residual = state - cfg.project(back)
    return seminorm(residual, cfg.c) / denom
