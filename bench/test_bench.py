"""Self-tests of the benchmark at small n.

    python3 -m pytest -q bench

They check that every workload runs and prints every metric named in
BENCHMARK.json with its unit, that a corrupted estimate trips each gate,
that span self times are non-negative and add up to their root, and that
the benchmark refuses to run without the package source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import run

run.import_package()  # the checkout's src/, before anything imports pacavity
from pacavity import core, recon  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, seeded_inputs  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
N = 65  # the smallest grid at which every workload's output keeps its shape


def result_of(capsys, *args) -> dict:
    assert run.main(list(args)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(capsys, workload, trace, key):
    result = result_of(capsys, "--workload", workload, "--seed", "3", "--seconds", "0",
                       "--trace", str(trace), "--n", "33")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC[key]}
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())


def test_benchmark_json_matches_the_workloads():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]


def test_seeded_inputs_are_reproducible_and_in_range():
    a, b = seeded_inputs(5), seeded_inputs(5)
    assert a == b and a != seeded_inputs(6)
    bumps = a.bumps
    assert len(bumps) == 6
    for i, p in enumerate(bumps):
        assert 0.15 <= p.radius <= 0.25 and 0.5 <= p.amplitude <= 1.0
        for q in bumps[i + 1:]:
            assert np.hypot(p.center[0] - q.center[0], p.center[1] - q.center[1]) \
                > p.radius + q.radius


def _corrupt(state):
    """Add half the estimate to itself: a 50% error no gate may pass."""
    return core.StatePair(state.first * 1.5, state.second)


def _corrupt_output(workload, output):
    if workload.name == "iterate":
        output.estimate = _corrupt(output.estimate)
        return output
    if workload.name == "cli-roundtrip":
        path = workload.out / "recon.csv"
        np.savetxt(path, 1.5 * np.loadtxt(path, delimiter=",", comments="#"), delimiter=",")
        return output
    return SimpleNamespace(**{**vars(output), "estimate": _corrupt(output.estimate)})


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_corrupted_estimate_trips_the_gate(tmp_path, name):
    workload = WORKLOADS[name](seeded_inputs(1), n=N, workdir=tmp_path)
    inputs = workload.setup()
    output = workload.run(inputs)
    clean = workload.check(inputs, output)
    # the limits hold at n = 257; at this n the clean error sets the limit
    workload.limit = 1.5 * clean.rel_l2_error
    assert workload.check(inputs, output).ok, clean.detail
    assert not workload.check(inputs, _corrupt_output(workload, output)).ok


def test_spelled_out_factor_equals_estimate_contraction():
    workload = WORKLOADS["varc-contraction"](seeded_inputs(2), n=N)
    inputs = workload.setup()
    out = workload.run(inputs)
    assert out.factors[-1] == recon.estimate_contraction(inputs.f, inputs.cfgs[-1])


@pytest.mark.parametrize("name", ["iterate", "cli-roundtrip"])
def test_span_self_times_are_nonnegative_and_sum_to_the_root(tmp_path, name):
    workload = WORKLOADS[name](seeded_inputs(1), n=33, workdir=tmp_path)
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.root("setup"):
            inputs = workload.setup()
        with tracer.root("op"):
            workload.run(inputs)
    finally:
        tracer.uninstall()
    own = tracer.self_seconds()
    assert min(own) >= 0.0
    roots = [i for i, s in enumerate(tracer.spans) if s.parent == -1]
    assert len(roots) == 2 and len(tracer.spans) > 10
    bounds = roots + [len(tracer.spans)]
    for start, end in zip(bounds[:-1], bounds[1:]):
        assert sum(own[start:end]) == pytest.approx(tracer.spans[start].seconds, rel=1e-9)
    layers = {s.name.split(".")[0] for s in tracer.spans if s.parent >= 0}
    assert {"core", "fdtd", "recon", "phantom"} <= layers
    # uninstall put every original back
    import pacavity.fdtd
    assert pacavity.fdtd.forward_solve.__module__ == "pacavity.fdtd"
    assert not hasattr(pacavity.fdtd.forward_solve, "__wrapped__")


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "iterate",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
