"""Command-line driver: phantom rendering, data synthesis, reconstruction, demos.

Every subcommand is non-interactive and deterministic for a fixed
configuration and seed.  Options override config-file entries, which
override the built-in defaults.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path

import numpy as np

from . import io as pio
from .core import (
    BoundarySpec,
    ConfigError,
    Grid2D,
    GridMismatchError,
    ScalarField,
    StabilityError,
    relative_l2,
)
from .fdtd import BoundaryTrace
from .io import RunConfig, apply_config_entry, parse_config
from .phantom import add_noise
from .recon import ReconConfig, neumann_iterate
from .spectral import synthesize_data

DEMOS = {
    "fig1-full": dict(T="5", iterations="1", gamma="full"),
    "fig1-partial": dict(T="5", iterations="1", gamma="left_bottom"),
    "fig2-noise": dict(T="5", iterations="1", noise="0.5", seed="7"),
    "fig3-iter-full": dict(T="1.6", iterations="5", gamma="full", snap_time="true"),
    "fig4-iter-partial": dict(T="3", iterations="5", gamma="left_bottom"),
}

_OVERRIDE_KEYS = ("n", "dt_factor", "T", "gamma", "lambda", "taper", "phantom",
                  "bumps", "noise", "seed", "iterations", "subspace", "snap_time")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value configuration file")
    common.add_argument("--out", help="output directory (default: out)")
    for key in _OVERRIDE_KEYS:
        common.add_argument(f"--{key.replace('_', '-')}", dest=f"opt_{key}",
                            metavar="V", help=f"override config key '{key}'")

    parser = argparse.ArgumentParser(
        prog="pacavity",
        description="Cavity photoacoustics: synthesize boundary data and "
                    "reconstruct the initial pressure by dissipative time reversal.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("phantom", parents=[common],
                   help="render the phantom and save it as CSV and PGM")
    sub.add_parser("forward", parents=[common],
                   help="synthesize the boundary trace (optionally noisy) and save it")
    p_rec = sub.add_parser("reconstruct", parents=[common],
                           help="reconstruct the initial pressure from a saved trace")
    p_rec.add_argument("trace", help="trace CSV produced by 'forward'")
    p_demo = sub.add_parser("demo", parents=[common],
                            help="run a canned end-to-end experiment")
    p_demo.add_argument("name", help="one of: " + ", ".join(sorted(DEMOS)))
    return parser


def load_config(args, preset: dict | None = None) -> RunConfig:
    """The configuration file, then a demo preset (with snap_time on), then
    the option flags, then --out; each later source overrides the earlier."""
    cfg = parse_config(args.config) if args.config else RunConfig()
    if preset is not None:
        cfg.snap_time = True
        for key, val in preset.items():
            apply_config_entry(cfg, key, val)
    for key in _OVERRIDE_KEYS:
        val = getattr(args, f"opt_{key}")
        if val is not None:
            apply_config_entry(cfg, key, val)
    if args.out is not None:
        cfg.out = args.out
    return cfg


def _outdir(cfg: RunConfig, *extra) -> Path:
    d = Path(cfg.out, *extra)
    d.mkdir(parents=True, exist_ok=True)
    return d


def _write_cross_section(path, grid: Grid2D, phantom: ScalarField,
                         estimate: ScalarField) -> None:
    """Central horizontal profile (y closest to 0) of phantom and estimate."""
    mid = grid.n // 2
    x = grid.coords()
    lines = ["x,phantom,reconstruction"]
    for k in range(grid.n):
        lines.append(",".join(repr(float(v)) for v in
                              (x[k], phantom.values[k, mid], estimate.values[k, mid])))
    Path(path).write_text("\n".join(lines) + "\n")


def cmd_phantom(cfg: RunConfig) -> int:
    grid = cfg.make_grid()
    f = cfg.make_phantom(grid)
    out = _outdir(cfg)
    pio.write_field(out / "phantom.csv", f)
    pio.write_field(out / "phantom.pgm", f)
    print(f"wrote {out / 'phantom.csv'} and {out / 'phantom.pgm'}")
    return 0


def _synthesize(cfg: RunConfig):
    grid = cfg.make_grid()
    bspec = cfg.make_bspec(grid)
    f = cfg.make_phantom(grid)
    T = cfg.resolve_T(grid.dt)
    g = synthesize_data(f, bspec, T, grid.dt)
    noise_ratio = 0.0
    if cfg.noise > 0:
        clean = g
        g = add_noise(g, cfg.noise, cfg.seed)
        noise_ratio = float(np.linalg.norm(g.samples - clean.samples)
                            / np.linalg.norm(clean.samples))
    return grid, bspec, f, T, g, noise_ratio


def cmd_forward(cfg: RunConfig) -> int:
    grid, _, _, T, g, noise_ratio = _synthesize(cfg)
    out = _outdir(cfg)
    pio.write_trace(out / "trace.csv", g)
    metrics = [f"T_effective = {T!r}", f"steps = {g.n_steps}",
               f"dt = {grid.dt!r}", f"noise_ratio = {noise_ratio!r}"]
    (out / "metrics.txt").write_text("\n".join(metrics) + "\n")
    print(f"wrote {out / 'trace.csv'} ({g.n_steps} steps, T = {T:g}, "
          f"noise ratio {noise_ratio:.3f})")
    return 0


def _require_consistent(g: BoundaryTrace, grid: Grid2D, bspec: BoundarySpec) -> None:
    """Refuse to invert a trace under a configuration it was not recorded for."""
    if g.dt != grid.dt:
        raise ConfigError(f"key 'dt_factor': the trace has dt = {g.dt!r}, "
                          f"the configuration gives dt = {grid.dt!r}")
    if not np.array_equal(g.gamma_mask, bspec.gamma_mask):
        raise ConfigError(f"key 'gamma': the trace was measured on {int(g.gamma_mask.sum())} "
                          f"boundary nodes, the configured Gamma differs "
                          f"({int(bspec.gamma_mask.sum())} nodes)")
    if g.lam is not None and not np.array_equal(g.lam, bspec.lam):
        raise ConfigError("key 'lambda': the trace was recorded for a different lambda "
                          "(or taper) than the configuration sets")


def _reconstruct(cfg: RunConfig, g: BoundaryTrace, grid: Grid2D, out: Path,
                 label: str = "") -> float:
    bspec = cfg.make_bspec(grid)
    _require_consistent(g, grid, bspec)
    c = ScalarField.constant(grid, 1.0)
    reference = cfg.make_phantom(grid)
    T = g.n_steps * g.dt
    rc = ReconConfig(T=T, iterations=cfg.iterations, c=c, bspec=bspec,
                     subspace=cfg.subspace)
    report = neumann_iterate(g, rc, reference=reference)
    est = report.estimate.first
    tag = f"{label}_" if label else ""
    pio.write_field(out / f"{tag}recon.csv", est)
    pio.write_field(out / f"{tag}recon.pgm", est)
    _write_cross_section(out / f"{tag}cross_section.csv", grid, reference, est)
    errs = report.per_iteration_errors
    lines = ["iteration,relative_l2_error"]
    lines += [f"{k},{repr(e)}" for k, e in enumerate(errs, start=1)]
    (out / f"{tag}errors.csv").write_text("\n".join(lines) + "\n")
    final = errs[-1] if errs else relative_l2(est, reference)
    name = label or "reconstruction"
    print(f"{name}: relative L2 error = {final * 100:.2f}% "
          f"({cfg.iterations} iteration(s), T = {T:g})")
    return final


def cmd_reconstruct(cfg: RunConfig, trace_path: str) -> int:
    path = Path(trace_path)
    if not path.exists():
        raise ConfigError(f"trace file not found: {path}")
    g = pio.read_trace(path)
    if g.grid.n != cfg.n:
        raise ConfigError(
            f"trace grid n = {g.grid.n} does not match configured n = {cfg.n}"
        )
    out = _outdir(cfg)
    _reconstruct(cfg, g, cfg.make_grid(), out)
    return 0


def cmd_demo(cfg: RunConfig, name: str) -> int:
    t0 = time.time()
    apertures = ["full", "left_bottom"] if name == "fig2-noise" else [cfg.gamma]
    grid = cfg.make_grid()
    f = cfg.make_phantom(grid)
    out = _outdir(cfg, name)
    pio.write_field(out / "phantom.csv", f)
    pio.write_field(out / "phantom.pgm", f)
    for aperture in apertures:
        sub = dataclasses.replace(cfg, gamma=aperture)
        _, _, _, T, g, noise_ratio = _synthesize(sub)
        label = aperture if len(apertures) > 1 else ""
        pio.write_trace(out / (f"{label}_trace.csv" if label else "trace.csv"), g)
        if sub.noise > 0:
            print(f"noise ratio = {noise_ratio:.3f}")
        _reconstruct(sub, g, grid, out, label=label)
    print(f"demo {name} finished in {time.time() - t0:.1f}s; outputs in {out}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        preset = None
        if args.command == "demo":
            preset = DEMOS.get(args.name)
            if preset is None:
                raise ConfigError(f"unknown demo {args.name!r}; valid names: "
                                  + ", ".join(sorted(DEMOS)))
        cfg = load_config(args, preset)
        if args.command == "demo":
            return cmd_demo(cfg, args.name)
        if args.command == "phantom":
            return cmd_phantom(cfg)
        if args.command == "forward":
            return cmd_forward(cfg)
        if args.command == "reconstruct":
            return cmd_reconstruct(cfg, args.trace)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, pio.ParseError, GridMismatchError, StabilityError,
            FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
