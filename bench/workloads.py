"""The benchmark's workloads: seeded inputs, the timed operation, the gates.

Every workload is a class with three methods:

* ``setup()`` builds the inputs from the seed; its time is ``setup_s``;
* ``run(inputs)`` is the operation a user waits for; its time is
  ``time_to_solution_s``;
* ``check(inputs, output)`` recomputes the accuracy of that output and
  applies the workload's acceptance gate.

The seed decides the phantom, the noise draw and the sound speed c(x).  The
program only ever receives the generated arrays or command-line arguments.
Calls into the package go through module attributes (``spectral.synthesize_data``,
not a local import of the function) so that the tracer sees them.
"""

from __future__ import annotations

import contextlib
import io as stdio
import shutil
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from pacavity import cli, core, fdtd, phantom, recon, spectral


@dataclass(frozen=True)
class SeededInputs:
    """Everything one seed decides."""

    bumps: tuple          # six disjoint phantom.BumpSpec
    noise_seed: int       # seed handed to the noise draw
    speed_bump: tuple     # (cx, cy, width, amplitude) of c(x) = 1 + a exp(-|x-x0|^2 / w^2)


def _draw(rng, lo, hi):
    return round(float(rng.uniform(lo, hi)), 4)


def seeded_bumps(rng, jitter=0.05):
    """Six disjoint bumps with r in [0.15, 0.25] and a in [0.5, 1].

    The bumps sit in two rows of three, like the paper's phantom, each
    centre moved by up to ``jitter`` per axis.  Radii and amplitudes are
    stratified, one draw from each sixth of their range, and the bump with
    the k-th radius stratum gets the k-th amplitude stratum; the strata go
    to the slots in random order.  Every seed's phantom thus has the same
    spread of size and steepness, which keeps the accuracy figures of
    different seeds within a few percent of each other.
    Neighbouring centres are at least 0.5 apart and two radii from
    different sixths sum to less than 0.49, so the bumps never touch, and
    each stays at least 0.1 from the walls.
    """
    slots = [(x, y) for x in (-0.6, 0.0, 0.6) for y in (-0.5, 0.5)]
    count = len(slots)
    order = rng.permutation(count)

    def strata(lo, hi):
        return [round(lo + (hi - lo) * (k + float(u)) / count, 4)
                for k, u in zip(order, rng.uniform(size=count))]

    return tuple(phantom.BumpSpec((_draw(rng, x - jitter, x + jitter),
                                   _draw(rng, y - jitter, y + jitter)), r, a)
                 for (x, y), r, a in zip(slots, strata(0.15, 0.25), strata(0.5, 1.0)))


def seeded_inputs(seed: int) -> SeededInputs:
    rng = np.random.default_rng(seed)
    bumps = seeded_bumps(rng)
    noise_seed = int(rng.integers(2**31 - 1))
    speed = (_draw(rng, -0.3, 0.3), _draw(rng, -0.3, 0.3),
             _draw(rng, 0.4, 0.5), _draw(rng, 0.15, 0.25))
    return SeededInputs(bumps, noise_seed, speed)


def bumps_arg(bumps) -> str:
    """The ``--bumps`` text for the command line; repr keeps every digit."""
    return ";".join(",".join(repr(float(v)) for v in (*b.center, b.radius, b.amplitude))
                    for b in bumps)


def speed_field(grid, speed_bump) -> core.ScalarField:
    """Smooth c(x) = 1 + a exp(-|x - x0|^2 / w^2); max c <= 1.25 < sqrt(2)."""
    cx, cy, w, a = speed_bump
    x = grid.coords()
    X, Y = np.meshgrid(x, x, indexing="ij")
    return core.ScalarField(grid, 1.0 + a * np.exp(-((X - cx) ** 2 + (Y - cy) ** 2) / w**2))


@dataclass
class Check:
    ok: bool
    rel_l2_error: float
    contraction_factor: float
    detail: str


def contraction(f, estimate, c, steps: int) -> float:
    """Mean energy-seminorm contraction per fixed-point step, (|e_K| / |e_0|)^(1/K).

    e_k = (f, 0) - u_k is the error after k steps from u_0 = 0, so for one
    step on exact data this is what recon.estimate_contraction reports.
    """
    truth = core.StatePair(f, core.ScalarField.zeros(f.grid))
    return (core.seminorm(truth - estimate, c) / core.seminorm(truth, c)) ** (1.0 / steps)


def _decreasing(values) -> bool:
    return all(a > b for a, b in zip(values[:-1], values[1:]))


class Workload:
    def __init__(self, inputs: SeededInputs, n: int = 257, workdir: Path | None = None):
        self.inputs, self.n, self.workdir = inputs, n, workdir


class Iterate(Workload):
    name = "iterate"
    why = ("five fixed-point iterations on a noisy left+bottom T=3 trace: "
           "fdtd dominates and synthesis is in set-up")
    T = 3.0
    noise = 0.05
    iterations = 5
    limit = 0.09  # criterion 05

    def setup(self):
        grid = core.Grid2D(self.n)
        f = phantom.render_phantom(self.inputs.bumps, grid)
        bspec = core.BoundarySpec.left_bottom(grid)
        clean = spectral.synthesize_data(f, bspec, self.T, grid.dt)
        g = phantom.add_noise(clean, self.noise, self.inputs.noise_seed)
        c = core.ScalarField.constant(grid, 1.0)
        cfg = recon.ReconConfig(T=self.T, iterations=self.iterations, c=c, bspec=bspec)
        return SimpleNamespace(f=f, g=g, cfg=cfg)

    def run(self, s):
        return recon.neumann_iterate(s.g, s.cfg, reference=s.f)

    def check(self, s, report) -> Check:
        err = core.relative_l2(report.estimate.first, s.f)
        errs = report.per_iteration_errors
        ok = err <= self.limit and len(errs) == self.iterations and _decreasing(errs)
        return Check(ok, err, contraction(s.f, report.estimate, s.cfg.c, self.iterations),
                     f"final error {err:.4%} (limit {self.limit:.0%}), errors "
                     + " > ".join(f"{e:.4%}" for e in errs))


class CliRoundtrip(Workload):
    name = "cli-roundtrip"
    why = ("pacavity forward then reconstruct through cli.main: "
           "the only workload that writes and reads the trace CSV")
    T = 5.0
    noise = 0.1
    limit = 0.08  # one shot at 10% noise; criterion 03 allows 30% at 50% noise

    @property
    def out(self) -> Path:
        if self.workdir is None:
            raise ValueError("cli-roundtrip writes files and needs a work directory")
        return Path(self.workdir) / "cli"

    def setup(self):
        shutil.rmtree(self.out, ignore_errors=True)
        grid = core.Grid2D(self.n)
        f = phantom.render_phantom(self.inputs.bumps, grid)
        common = ["--n", str(self.n), f"--bumps={bumps_arg(self.inputs.bumps)}",
                  "--out", str(self.out)]
        forward = ["forward", "--T", repr(self.T), "--noise", repr(self.noise),
                   "--seed", str(self.inputs.noise_seed), *common]
        reconstruct = ["reconstruct", str(self.out / "trace.csv"), *common]
        return SimpleNamespace(f=f, c=core.ScalarField.constant(grid, 1.0),
                               commands=(forward, reconstruct))

    def run(self, s):
        codes = []
        with contextlib.redirect_stdout(stdio.StringIO()):
            for argv in s.commands:
                try:
                    codes.append(cli.main(argv))
                except SystemExit as exc:  # argparse rejected the arguments
                    codes.append(exc.code)
        return codes

    def check(self, s, codes) -> Check:
        if codes != [0, 0]:  # no estimate: score it as u = 0, error and factor 1
            return Check(False, 1.0, 1.0, f"exit codes {codes}")
        values = np.loadtxt(self.out / "recon.csv", delimiter=",", comments="#")
        est = core.StatePair(core.ScalarField(s.f.grid, values),
                             core.ScalarField.zeros(s.f.grid))
        err = core.relative_l2(est.first, s.f)
        return Check(err <= self.limit, err, contraction(s.f, est, s.c, 1),
                     f"error from recon.csv {err:.4%} (limit {self.limit:.0%})")


class VarcContraction(Workload):
    name = "varc-contraction"
    why = ("contraction factors at T=2*sqrt(2), 4, 5 and a noisy one-shot estimate for a "
           "smooth seeded c(x): fdtd on the per-node coefficient path")
    T_requested = (2.0 * np.sqrt(2.0), 4.0, 5.0)
    noise = 0.05
    limit = 0.05

    def setup(self):
        grid = core.Grid2D(self.n)
        f = phantom.render_phantom(self.inputs.bumps, grid)
        c = speed_field(grid, self.inputs.speed_bump)
        bspec = core.BoundarySpec.full(grid)
        cfgs = [recon.ReconConfig(T=core.snap_duration(T, grid.dt), iterations=1, c=c,
                                  bspec=bspec) for T in self.T_requested]
        return SimpleNamespace(f=f, c=c, cfgs=cfgs,
                               state=core.StatePair(f, core.ScalarField.zeros(grid)))

    def run(self, s):
        """Factors from estimate_contraction, with its solves spelled out at the longest T.

        There one forward solve feeds both the clean estimate, whose residual
        gives the factor, and the estimate from noisy data, whose error is reported.
        """
        factors = [recon.estimate_contraction(s.f, cfg) for cfg in s.cfgs[:-1]]
        cfg = s.cfgs[-1]
        fwd = fdtd.forward_solve(s.state, cfg.c, cfg.bspec, cfg.T)
        clean = recon.initial_approximation(fwd.trace, cfg)
        factors.append(core.seminorm(s.state - clean, cfg.c) / core.seminorm(s.state, cfg.c))
        noisy = phantom.add_noise(fwd.trace, self.noise, self.inputs.noise_seed)
        return SimpleNamespace(factors=factors, estimate=recon.initial_approximation(noisy, cfg))

    def check(self, s, out) -> Check:
        err = core.relative_l2(out.estimate.first, s.f)
        ok = err <= self.limit and all(v < 1.0 for v in out.factors) and _decreasing(out.factors)
        return Check(ok, err, max(out.factors),
                     "factors " + ", ".join(f"{v:.4f}" for v in out.factors)
                     + f" (all < 1, decreasing); error with {self.noise:.0%} noise at T=5 "
                     f"{err:.4%} (limit {self.limit:.0%})")


WORKLOADS = {w.name: w for w in (Iterate, CliRoundtrip, VarcContraction)}
