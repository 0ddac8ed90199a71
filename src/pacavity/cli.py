"""Command-line driver: phantom rendering, data synthesis, reconstruction, demos.

Every subcommand is non-interactive and deterministic for a fixed
configuration and seed.  Options override config-file entries, which
override the built-in defaults.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import io as pio
from .core import (
    BoundaryTrace,
    ConfigError,
    Grid2D,
    ScalarField,
    StabilityError,
    l2_norm,
    num_steps,
    relative_l2,
)
from .io import CONFIG_KEYS, RunConfig, apply_config_entry, parse_config
from .phantom import add_noise
from .recon import ReconConfig, neumann_iterate
from .spectral import synthesize_data

DEMOS = {
    "fig1-full": dict(T="5", iterations="1", gamma="full"),
    "fig1-partial": dict(T="5", iterations="1", gamma="left_bottom"),
    "fig2-noise": dict(T="5", iterations="1", noise="0.5", seed="7"),
    "fig3-iter-full": dict(T="1.6", iterations="5", gamma="full"),
    "fig4-iter-partial": dict(T="3", iterations="5", gamma="left_bottom"),
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value configuration file")
    for key in CONFIG_KEYS:
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
    the option flags; each later source overrides the earlier."""
    cfg = parse_config(args.config) if args.config else RunConfig()
    if preset is not None:
        cfg.snap_time = True
        for key, val in preset.items():
            apply_config_entry(cfg, key, val)
    for key in CONFIG_KEYS:
        val = getattr(args, f"opt_{key}")
        if val is not None:
            apply_config_entry(cfg, key, val)
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
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_phantom(cfg: RunConfig) -> int:
    grid = cfg.make_grid()
    f = cfg.make_phantom(grid)
    out = _outdir(cfg)
    pio.write_field(out / "phantom.csv", f)
    pio.write_field(out / "phantom.pgm", f)
    print(f"wrote {out / 'phantom.csv'} and {out / 'phantom.pgm'}")
    return 0


def _synthesize(cfg: RunConfig, scored: bool = False):
    """Phantom, T and trace; add_noise makes the noise exactly cfg.noise of it.
    The phantom must have a finite L2 norm, and one that will be scored
    against a nonzero one."""
    grid = cfg.make_grid()
    bspec = cfg.make_bspec(grid)
    T = cfg.resolve_T(grid.dt)  # refuse a T / dt above MAX_STEPS before rendering
    f = cfg.make_phantom(grid)
    with np.errstate(over="ignore"):  # an overflow is refused below, by name
        norm = l2_norm(f)
    if not np.isfinite(norm):
        raise ConfigError("key 'bumps': the phantom's L2 norm overflows, so its "
                          "trace would not be finite")
    if scored and norm == 0.0:
        raise ConfigError("key 'bumps': the phantom is zero at every node, or too small to "
                          "square, so there is nothing to score the reconstruction against")
    g = synthesize_data(f, bspec, T, grid.dt)
    if cfg.noise > 0:
        try:
            g = add_noise(g, cfg.noise, cfg.seed)
        except ConfigError as exc:
            raise ConfigError(f"key 'noise': {exc}") from None
    return f, T, g


def cmd_forward(cfg: RunConfig) -> int:
    _, T, g = _synthesize(cfg)
    out = _outdir(cfg)
    pio.write_trace(out / "trace.csv", g)
    metrics = [f"T_effective = {T!r}", f"steps = {g.n_steps}",
               f"dt = {g.dt!r}", f"noise_ratio = {cfg.noise!r}"]
    (out / "metrics.txt").write_text("\n".join(metrics) + "\n", encoding="utf-8")
    print(f"wrote {out / 'trace.csv'} ({g.n_steps} steps, T = {T:g}, "
          f"noise ratio {cfg.noise:.3f})")
    return 0


def _require_consistent(g: BoundaryTrace, cfg: RunConfig) -> None:
    """Refuse to invert a trace under a configuration it was not recorded for,
    naming the first key at fault.  T is compared as a step count on the
    configured dt; the keys that only make the phantom and its noise (bumps,
    noise, seed) are not recorded in a trace and pass unchecked."""
    grid = cfg.make_grid()
    for key, recorded, configured in (
            ("n", g.grid.n, grid.n),
            ("dt_factor", g.dt, grid.dt),
            ("T", g.n_steps * grid.dt, num_steps(cfg.resolve_T(grid.dt), grid.dt) * grid.dt),
            ("gamma", g.bspec.gamma, cfg.make_bspec(grid).gamma)):
        if not np.array_equal(recorded, configured):
            raise ConfigError(f"key {key!r}: the trace's value ({_brief(recorded)}) does "
                              f"not match the configured value ({_brief(configured)})")


def _brief(value) -> str:
    """A scalar as itself; Gamma's node indices by their count."""
    return f"on {len(value)} nodes" if np.ndim(value) else repr(value)


def _reconstruct(cfg: RunConfig, g: BoundaryTrace, out: Path,
                 reference: ScalarField | None = None) -> None:
    """Invert the trace with the Gamma and lambda it records; write recon.csv
    and recon.pgm.  With the phantom the trace was made from as reference,
    also score the estimate in errors.csv and cross_section.csv."""
    T = g.n_steps * g.dt
    rc = ReconConfig(T=T, iterations=cfg.iterations, c=ScalarField.constant(g.grid, 1.0),
                     bspec=g.bspec)
    report = neumann_iterate(g, rc, reference=reference)
    est = report.estimate.first
    pio.write_field(out / "recon.csv", est)
    pio.write_field(out / "recon.pgm", est)
    ran = f"{cfg.iterations} iteration(s), T = {T:g}"
    if reference is None:
        print(f"reconstruction ({ran}): wrote {out / 'recon.csv'} and {out / 'recon.pgm'}")
        return
    _write_cross_section(out / "cross_section.csv", g.grid, reference, est)
    errs = report.per_iteration_errors
    lines = ["iteration,relative_l2_error"]
    lines += [f"{k},{repr(e)}" for k, e in enumerate(errs, start=1)]
    (out / "errors.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    final = errs[-1] if errs else relative_l2(est, reference)
    print(f"reconstruction: relative L2 error = {final * 100:.2f}% ({ran})")


def cmd_reconstruct(cfg: RunConfig, trace_path: str) -> int:
    g = pio.read_trace(trace_path)
    _require_consistent(g, cfg)
    _reconstruct(cfg, g, _outdir(cfg))
    return 0


def cmd_demo(cfg: RunConfig, name: str) -> int:
    """One configured run: phantom, trace, reconstruction, all under out/name."""
    t0 = time.time()
    f, _, g = _synthesize(cfg, scored=True)
    out = _outdir(cfg, name)
    pio.write_field(out / "phantom.csv", f)
    pio.write_field(out / "phantom.pgm", f)
    pio.write_trace(out / "trace.csv", g)
    if cfg.noise > 0:
        print(f"noise ratio = {cfg.noise:.3f}")
    _reconstruct(cfg, g, out, reference=f)
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
        return cmd_reconstruct(cfg, args.trace)
    except (ValueError, StabilityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
