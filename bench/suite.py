"""Run every workload and print every metric by name and unit, with its spread.

    python3 bench/suite.py                       # every workload, seed 1, traced too
    python3 bench/suite.py --seeds 1-10 --no-trace

Each run is a separate ``bench/run.py`` process, so ``peak_rss_mb`` is that
of one workload alone.  For every end-to-end metric the table gives the
median over seeds, the quartiles, the spread (interquartile range over
median) and that spread as a share of the metric's bound in
BENCHMARK.json.  With tracing on, one traced run per workload (first
seed) adds the layer shares and the tracing overhead: the traced run's
``time_to_solution_s`` minus that of the untraced run of the same seed.
The exit code is non-zero if any run fails or any output misses its gate.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1]), lines[:-1]


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and (Q3 - Q1) / median."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,7")
    parser.add_argument("--no-trace", action="store_true", help="skip the traced runs")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    bad = 0
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in seeds:
            result, notes = run_once(workload, seed, spec["run_seconds"], 0)
            results.append(result)
            print(next((n for n in notes if n.startswith(f"# {workload} seed")), ""), flush=True)
            if seed == seeds[0]:
                print(next(n for n in notes if n.startswith('{"environment"')))
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        bad += failed + sum(not r["correct"] for r in results)
        print(f"\n{workload}: {len(seeds)} seed(s), failed_frac {failed / attempted:g} "
              f"({failed}/{attempted})")
        print(f"  {'metric':<22}{'unit':<8}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>9}{'/bound':>8}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, rel = spread(values)
            print(f"  {name:<22}{results[0]['metrics'][name]['unit']:<8}{med:>12.6g}"
                  f"{q1:>12.6g}{q3:>12.6g}{rel:>9.4f}{rel / bounds[name]:>8.3f}")
        if args.no_trace:
            continue
        traced, notes = run_once(workload, seeds[0], spec["run_seconds"], 1)
        m = {k: v["value"] for k, v in traced["metrics"].items()}
        shares = ", ".join(f"{k.split('.')[0]} {v:.1%}" for k, v in m.items()
                           if k.endswith(".share") and v >= 0.005)
        print(f"  traced (seed {seeds[0]}): layer shares of the op: {shares}")
        untraced = results[0]["metrics"]["time_to_solution_s"]["value"]
        print(f"  tracing overhead (traced minus untraced time_to_solution_s, seed {seeds[0]}): "
              f"{m['traced.time_to_solution_s'] - untraced:+.4f} s on {untraced:.4f} s")
        print("  " + next(n for n in notes if n.startswith('{"computed"')))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
