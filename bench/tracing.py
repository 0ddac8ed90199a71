"""Spans around calls into pacavity's public functions, installed from outside.

``Tracer.install()`` wraps every public function of the layer modules and
rebinds the wrapper wherever a pacavity module binds the function, so calls
from one layer into another are seen too; ``uninstall()`` puts the originals
back.  Spans are kept in memory and recorded only inside a root span, so
calls made outside the measured regions (the correctness checks) cost
nothing and leave no trace.  A layer is a package module.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

LAYERS = ("core", "spectral", "fdtd", "recon", "phantom", "io", "cli")


def _interior(grid) -> int:
    return (grid.n - 2) ** 2


# Counts taken at the layer boundary: span name -> fn(args, result) -> {key: count}.
COUNTERS = {
    "spectral.synthesize_data": lambda a, r: {"spectral.levels": r.samples.shape[0]},
    "fdtd.forward_solve": lambda a, r: {
        "fdtd.forward_steps": r.trace.n_steps,
        "fdtd.cell_updates": r.trace.n_steps * _interior(r.trace.grid)},
    "fdtd.dissipative_reverse_solve": lambda a, r: {
        "fdtd.backward_steps": a[0].n_steps,
        "fdtd.cell_updates": a[0].n_steps * _interior(a[0].grid)},
    "recon.neumann_iterate": lambda a, r: {"recon.iterations": a[1].iterations},
    "io.write_trace": lambda a, r: {"io.bytes_written": os.path.getsize(a[0])},
    "io.read_trace": lambda a, r: {"io.bytes_read": os.path.getsize(a[0])},
}


@dataclass
class Span:
    name: str            # "<layer>.<function>", or the root's own name
    start: float
    parent: int          # index of the enclosing span, -1 for a root
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._saved: list[tuple] = []

    def _enter(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _exit(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._open.pop()

    @contextmanager
    def root(self, name: str):
        """Record the spans of everything called inside the block under one root."""
        if self._open:
            raise RuntimeError("root spans do not nest")
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._open:
                return fn(*args, **kwargs)
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if count is not None:
                self.spans[idx].counts = count(args, result)
            return result

        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"pacavity.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for ns in (importlib.import_module("pacavity"), *modules.values()):
            for attr, val in list(vars(ns).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._saved.append((ns, attr, val))
                    setattr(ns, attr, wrappers[val])

    def uninstall(self) -> None:
        while self._saved:
            ns, attr, val = self._saved.pop()
            setattr(ns, attr, val)

    def roots(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s.parent == -1 and s.name == name]

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.seconds
        return own

    def root_totals(self, root: int) -> dict:
        """Sums over the spans under one root, keyed by metric-like names.

        ``<span>.s`` inclusive seconds, ``<span>.calls`` call count,
        ``<layer>.self_s`` self seconds, ``<layer>.calls`` calls into the
        layer, plus every counter; ``root.s`` is the root's duration.
        """
        own = self.self_seconds()
        tot = defaultdict(float)
        tot["root.s"] = self.spans[root].seconds
        inside = {root}
        for i in range(root + 1, len(self.spans)):
            s = self.spans[i]
            if s.parent not in inside:
                break
            inside.add(i)
            layer = s.name.split(".", 1)[0]
            tot[f"{s.name}.s"] += s.seconds
            tot[f"{s.name}.calls"] += 1
            tot[f"{layer}.self_s"] += own[i]
            tot[f"{layer}.calls"] += 1
            for key, val in s.counts.items():
                tot[key] += val
        return tot


def median_totals(totals: list[dict]) -> dict:
    """Key-wise median over roots; a key missing from a root counts as 0."""
    keys = set().union(*totals) if totals else set()
    return {k: statistics.median(t.get(k, 0.0) for t in totals) for k in keys}


def _ratio(a: float, b: float, scale: float = 1.0) -> float:
    return scale * a / b if b else 0.0


def layer_metrics(setup: dict, op: dict) -> dict:
    """Per-layer metrics from the median set-up totals plus the median op totals.

    Layer shares are of the op alone: a layer's self time over the op's time.
    """
    t = defaultdict(float)
    for part in (setup, op):
        for k, v in part.items():
            t[k] += v
    fwd_s, bwd_s = t["fdtd.forward_solve.s"], t["fdtd.dissipative_reverse_solve.s"]
    fwd_n, bwd_n = t["fdtd.forward_steps"], t["fdtd.backward_steps"]
    m = {
        "spectral.synth_s": t["spectral.synthesize_data.s"],
        "spectral.levels": t["spectral.levels"],
        "spectral.level_ms": _ratio(t["spectral.synthesize_data.s"], t["spectral.levels"], 1e3),
        "fdtd.forward_s": fwd_s,
        "fdtd.backward_s": bwd_s,
        "fdtd.forward_calls": t["fdtd.forward_solve.calls"],
        "fdtd.backward_calls": t["fdtd.dissipative_reverse_solve.calls"],
        "fdtd.steps": fwd_n + bwd_n,
        "fdtd.forward_step_ms": _ratio(fwd_s, fwd_n, 1e3),
        "fdtd.backward_step_ms": _ratio(bwd_s, bwd_n, 1e3),
        "fdtd.mcups": _ratio(t["fdtd.cell_updates"], fwd_s + bwd_s, 1e-6),
        "recon.iteration_s": _ratio(t["recon.neumann_iterate.s"], t["recon.iterations"]),
        "recon.iterations": t["recon.iterations"],
        "recon.self_s": t["recon.self_s"],
        "core.project_s": t["core.project_H1.s"] + t["core.project_H0.s"],
        "core.calls": t["core.calls"],
        "io.write_trace_s": t["io.write_trace.s"],
        "io.read_trace_s": t["io.read_trace.s"],
        "io.trace_bytes": t["io.bytes_written"],
        "io.write_trace_mbps": _ratio(t["io.bytes_written"], t["io.write_trace.s"], 1e-6),
        "io.read_trace_mbps": _ratio(t["io.bytes_read"], t["io.read_trace.s"], 1e-6),
        "io.write_field_s": t["io.write_field.s"],
        "cli.forward_s": t["cli.cmd_forward.s"],
        "cli.reconstruct_s": t["cli.cmd_reconstruct.s"],
        "cli.self_s": t["cli.self_s"],
        "phantom.render_s": t["phantom.render_phantom.s"],
        "phantom.noise_s": t["phantom.add_noise.s"],
    }
    for layer in LAYERS:
        m[f"{layer}.share"] = _ratio(op.get(f"{layer}.self_s", 0.0), op.get("root.s", 0.0))
    return m
