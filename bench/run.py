"""Run one pacavity benchmark workload and print its result as a JSON line.

    python3 bench/run.py --workload iterate --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy.  The set-up is repeated
(at least three times and for at least one second).  A first, untimed
operation warms caches and the heap; the peak RSS is read after it.  The
operation is then repeated until the next one would overrun ``--seconds``,
counted from the warm-up's start.  Times are reported as medians.  Every
operation's output, the warm-up's too, is checked against its workload's
gate.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` every set-up and operation is traced and the metrics are the
per-layer ones.
The last line of standard output is the result object; the lines before it
give each metric, the environment and, for traced runs, the computed kernel
counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20), "MALLOC_TRIM_THRESHOLD_": str(64 << 20)}


def pin_allocator() -> None:
    """Run this script again with glibc's malloc thresholds fixed, unless they are.

    By default glibc raises its mmap threshold to the size of the largest
    mapped block freed so far (up to 32 MiB), and its trim threshold to twice
    that.  Whether cli-roundtrip's 27 MB trace text then lands on the heap or
    in a mapping of its own turns on a few bytes of text length, and moves
    the peak RSS between ~159 MB and ~181 MB from run to run.  Fixing both
    thresholds at the values that scheme tops out at gives every run the
    same allocator policy.  Other C libraries ignore these variables.
    """
    if any(os.environ.get(k) != v for k, v in MALLOC_ENV.items()):
        os.environ.update(MALLOC_ENV)
        os.execv(sys.executable, sys.orig_argv)


def cap_thread_pools() -> dict:
    """Cap every thread-pool variable at nproc; must run before numpy loads."""
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, NPROC))
        except ValueError:
            current = NPROC
        os.environ[var] = str(max(1, min(current, NPROC)))
    return {var: os.environ[var] for var in THREAD_VARS}


def import_package():
    """Put the checkout's src/ first on the path and insist pacavity loads from it."""
    src = ROOT / "src"
    if not (src / "pacavity" / "__init__.py").is_file():
        sys.exit(f"bench: no package source at {src}; run from a full checkout")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import pacavity
    if Path(pacavity.__file__).resolve().parent != src / "pacavity":
        sys.exit(f"bench: pacavity loaded from {pacavity.__file__}, not from {src}")
    return pacavity


def environment(threads: dict) -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():  # an exported checkout has no history to name
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": NPROC, "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads": threads, "malloc": {k: os.environ.get(k) for k in MALLOC_ENV},
            "commit": commit}


def kernel_counts(n: int) -> dict:
    """Flops and bytes per leapfrog step and per synthesis level, from array sizes.

    Computed, not measured.  "min" bytes move every input array once and
    write the output once; "numpy" bytes count every array pass of the
    expression as written, temporaries included.  Cache effects are ignored.
    """
    m, f = (n - 2) ** 2, 8
    fft_len = 2 * (n - 1)  # DCT-I of length n through a real FFT of this length
    dct_flops = 5 * fft_len * (fft_len.bit_length() - 1) // 2
    return {
        "label": "computed",
        "n": n,
        "leapfrog_step": {
            "flops": 9 * m,
            "bytes_min": 4 * m * f,    # read u^j, u^(j-1), coef; write u^(j+1)
            "bytes_numpy": 27 * m * f,  # nine arithmetic passes and the store, 27 array touches
            "boundary_values": 4 * n - 4,
        },
        "synthesis_level": {
            "flops": 3 * n * n + 2 * n * dct_flops,
            "cosines": n * n,
            "bytes_min": 2 * n * n * f + (4 * n - 4) * f,  # read lam and coeffs; write the row
            "bytes_numpy": 19 * n * n * f,  # lam*t, cos, product; per axis copy, scale, DCT
        },
    }


def probe_fdtd(n: int, calls: int = 30) -> dict:
    """Median ms per call of the public interior_step and dissipative_boundary_update."""
    import numpy as np
    from pacavity import core, fdtd
    grid = core.Grid2D(n)
    rng = np.random.default_rng(0)
    prev, curr = (core.ScalarField(grid, rng.standard_normal((n, n))) for _ in range(2))
    c = core.ScalarField.constant(grid, 1.0)
    bspec = core.BoundarySpec.full(grid)
    g_new, g_old = rng.standard_normal((2, core.boundary_count(n)))
    probes = {
        "fdtd.interior_step_ms": lambda: fdtd.interior_step(prev, curr, c),
        "fdtd.boundary_update_ms": lambda: fdtd.dissipative_boundary_update(
            curr, prev, g_new, g_old, bspec),
    }
    out = {}
    for name, call in probes.items():
        times = []
        for _ in range(calls):
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
        out[name] = 1e3 * statistics.median(times)
    return out


def measure(workload, seconds: float, tracer=None) -> dict:
    """Set up, run and check one workload; return the raw figures of the run."""
    from tracing import median_totals

    def timed(kind, fn, *args):
        span = nullcontext() if tracer is None else tracer.root(kind)
        t0 = time.perf_counter()
        with span:
            result = fn(*args)
        return result, time.perf_counter() - t0

    setup_times = []
    while len(setup_times) < 3 or sum(setup_times) < 1.0:
        inputs, dt = timed("setup", workload.setup)
        setup_times.append(dt)

    # the first operation fills caches and the heap: it is checked, not timed
    start = time.perf_counter()
    output, warmup = timed("warmup", workload.run, inputs)
    checks = [workload.check(inputs, output)]
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    times = []
    while not times or time.perf_counter() - start + statistics.median(times) <= seconds:
        output, dt = timed("op", workload.run, inputs)
        times.append(dt)
        checks.append(workload.check(inputs, output))
    run = {"setup_times": setup_times, "warmup": warmup, "op_times": times,
           "checks": checks, "peak_rss_mb": peak_rss}
    if tracer is not None:
        run["totals"] = {kind: median_totals([tracer.root_totals(i) for i in tracer.roots(kind)])
                         for kind in ("setup", "op")}
    return run


def main(argv=None) -> int:
    threads = cap_thread_pools()
    import_package()
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS, seeded_inputs

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--n", type=int, default=257, help="grid size (257 is the benchmark)")
    args = parser.parse_args(argv)

    workdir = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    try:
        workload = WORKLOADS[args.workload](seeded_inputs(args.seed), n=args.n, workdir=workdir)
        if tracer is not None:
            tracer.install()
        try:
            run = measure(workload, args.seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checks = run["checks"]
    failed = sum(not c.ok for c in checks)
    time_to_solution = statistics.median(run["op_times"])
    print(f"# {args.workload} seed {args.seed}: {len(checks)} op(s), "
          f"{len(run['setup_times'])} set-up(s), failed_frac {failed / len(checks):g}; "
          f"last check: {checks[-1].detail}")
    print(f"# op times (s): warm-up {run['warmup']:.3f}, timed "
          + " ".join(f"{t:.3f}" for t in run["op_times"]))
    if tracer is None:
        values = {
            "time_to_solution_s": time_to_solution,
            "setup_s": statistics.median(run["setup_times"]),
            "peak_rss_mb": run["peak_rss_mb"],
            "rel_l2_error": statistics.median(c.rel_l2_error for c in checks),
            "contraction_factor": statistics.median(c.contraction_factor for c in checks),
        }
    else:
        values = layer_metrics(run["totals"]["setup"], run["totals"]["op"])
        values.update(probe_fdtd(args.n))
        values["traced.time_to_solution_s"] = time_to_solution
        print(json.dumps({"computed": kernel_counts(args.n)}))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if tracer else "end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError("computed metrics differ from those BENCHMARK.json declares")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for k, m in metrics.items():
        print(f"# {k} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"environment": environment(threads)}))
    print(json.dumps({"correct": failed == 0, "attempted": len(checks), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    pin_allocator()
    sys.exit(main())
