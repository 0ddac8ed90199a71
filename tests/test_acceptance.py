"""End-to-end verification of the reconstruction pipeline at production scale.

Each test prints a labeled PASS/FAIL line with the measured quantities
before asserting, so a full run (pytest -v -s tests/test_acceptance.py)
doubles as the numbers table for the standard experiments: n = 257,
unit sound speed, six-bump phantom, measurements on the full boundary or
on the left and bottom sides.
"""

import time

import numpy as np
import pytest
from scipy import ndimage

import pacavity as pv
from pacavity import io as pio
from pacavity.core import boundary_indices

from helpers import smooth_random_field, smooth_random_state


def verdict(label: str, ok: bool, detail: str) -> bool:
    print(f"[{label}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def one_shot(trace, bspec, c):
    cfg = pv.ReconConfig(T=trace.n_steps * trace.dt, iterations=1, c=c, bspec=bspec)
    return pv.initial_approximation(trace, cfg).first


def test_criterion_01_full_data_one_shot(grid257, phantom257, unit_speed257,
                                         bspec_full257, trace_full_t5):
    t0 = time.time()
    est = one_shot(trace_full_t5.value, bspec_full257, unit_speed257)
    err = pv.relative_l2(est, phantom257)
    elapsed = trace_full_t5.seconds + (time.time() - t0)
    ok = verdict("criterion 01 full-data one-shot",
                 err <= 0.03 and elapsed <= 30.0,
                 f"T=5 full boundary: relative L2 error {err * 100:.2f}% "
                 f"(limit 3%), runtime {elapsed:.1f}s (limit 30s)")
    assert ok


def test_criterion_02_partial_data_one_shot(phantom257, unit_speed257,
                                            bspec_lb257, trace_partial_t5):
    est = one_shot(trace_partial_t5, bspec_lb257, unit_speed257)
    err = pv.relative_l2(est, phantom257)
    ok = verdict("criterion 02 partial-data one-shot",
                 err <= 0.10,
                 f"T=5 left+bottom: relative L2 error {err * 100:.2f}% (limit 10%)")
    assert ok


def test_criterion_03_noise_robustness(grid257, phantom257, unit_speed257,
                                       bspec_full257, bspec_lb257,
                                       trace_full_t5, trace_partial_t5):
    ref_mask = phantom257.values >= 0.5 * phantom257.values.max()
    ref_labels, n_ref = ndimage.label(ref_mask)
    results = {}
    for name, trace, bspec in (("full", trace_full_t5.value, bspec_full257),
                               ("partial", trace_partial_t5, bspec_lb257)):
        noisy = pv.add_noise(trace, 0.5, seed=7)
        est = one_shot(noisy, bspec, unit_speed257)
        err = pv.relative_l2(est, phantom257)
        mask = est.values >= 0.5 * est.values.max()
        overlap = (mask & ref_mask).sum() / (mask | ref_mask).sum()
        # an inclusion counts as recovered when most of its half-max support
        # shows up in the reconstruction's half-max support
        recovered = sum(
            mask[ref_labels == lab].mean() >= 0.5 for lab in range(1, n_ref + 1)
        )
        results[name] = (err, overlap, recovered)
    ok = verdict(
        "criterion 03 50% noise one-shot",
        all(err <= 0.30 and ov >= 0.8 and rec == n_ref
            for err, ov, rec in results.values()),
        "; ".join(f"{k}: error {e * 100:.1f}% (limit 30%), overlap {o:.3f} "
                  f"(floor 0.8), {r}/{n_ref} inclusions" for k, (e, o, r) in results.items()),
    )
    assert ok


def test_criterion_04_iterative_full_data(grid257, phantom257, unit_speed257,
                                          bspec_full257):
    T = pv.snap_duration(1.6, grid257.dt)
    g = pv.synthesize_data(phantom257, bspec_full257, T, grid257.dt)
    cfg = pv.ReconConfig(T=T, iterations=5, c=unit_speed257, bspec=bspec_full257)
    errs = pv.neumann_iterate(g, cfg, reference=phantom257).per_iteration_errors
    decreasing = all(a > b for a, b in zip(errs[:-1], errs[1:]))
    ok = verdict("criterion 04 iterative full data",
                 errs[-1] <= 0.06 and decreasing,
                 f"T={T:.4f}, 5 iterations: errors "
                 + " > ".join(f"{e * 100:.2f}%" for e in errs)
                 + f"; final limit 6%, strictly decreasing: {decreasing}")
    assert ok


def test_criterion_05_iterative_partial_data(grid257, phantom257, unit_speed257,
                                             bspec_lb257):
    g = pv.synthesize_data(phantom257, bspec_lb257, 3.0, grid257.dt)
    cfg = pv.ReconConfig(T=3.0, iterations=5, c=unit_speed257, bspec=bspec_lb257)
    errs = pv.neumann_iterate(g, cfg, reference=phantom257).per_iteration_errors
    decreasing = all(a > b for a, b in zip(errs[:-1], errs[1:]))
    ok = verdict("criterion 05 iterative partial data",
                 errs[-1] <= 0.09 and decreasing,
                 f"T=3, left+bottom, 5 iterations: errors "
                 + " > ".join(f"{e * 100:.2f}%" for e in errs)
                 + f"; final limit 9%, strictly decreasing: {decreasing}")
    assert ok


def test_criterion_06_empirical_contraction(grid257, phantom257, unit_speed257,
                                            bspec_full257):
    ratios = {}
    for T_req in (2.0 * np.sqrt(2.0), 4.0, 5.0):
        T = pv.snap_duration(T_req, grid257.dt)
        cfg = pv.ReconConfig(T=T, iterations=1, c=unit_speed257, bspec=bspec_full257)
        ratios[round(T_req, 2)] = pv.estimate_contraction(phantom257, cfg)
    vals = list(ratios.values())
    ok = verdict("criterion 06 contraction factors",
                 all(v < 1.0 for v in vals) and vals[0] > vals[1] > vals[2],
                 "; ".join(f"T={k}: {v:.4f}" for k, v in ratios.items())
                 + " (all < 1, strictly decreasing in T)")
    assert ok


def test_criterion_07_dissipation(grid257, phantom257, unit_speed257,
                                  bspec_full257, forward_t5_recorded):
    # (a) the backward error u - v sheds energy monotonically toward t = 0
    fwd, u = forward_t5_recorded
    vsnaps = dict.fromkeys(u)
    pv.dissipative_reverse_solve(fwd.trace, unit_speed257, snapshots=vsnaps)
    pairs = sorted((j, pv.energy(u[j] - v, unit_speed257)) for j, v in vsnaps.items())
    worst = max((earlier - later) / later
                for (_, earlier), (_, later) in zip(pairs[:-1], pairs[1:]))
    # (b) free decay: zero data from a random smooth state loses >= 50% by T=5
    rng = np.random.default_rng(3)
    w = smooth_random_state(grid257, rng, kmax=7)
    steps = pv.num_steps(5.0, grid257.dt)
    zero = pv.BoundaryTrace(bspec_full257, np.zeros((steps + 1, pv.boundary_count(257))))
    out = pv.dissipative_reverse_solve(zero, unit_speed257, terminal_state=w)
    kept = pv.energy(out, unit_speed257) / pv.energy(w, unit_speed257)
    ok = verdict("criterion 07 dissipation",
                 worst <= 1e-3 and kept <= 0.5,
                 f"max error-energy uptick per checkpoint {worst * 100:.4f}% "
                 f"(limit 0.1%); free decay keeps {kept * 100:.4f}% of the "
                 f"energy by T=5 (limit 50%)")
    assert ok


def test_criterion_08_conservation(grid257, phantom257, unit_speed257,
                                   bspec_full257, forward_t5_recorded):
    s0 = pv.StatePair(phantom257, pv.ScalarField.zeros(grid257))
    e0 = pv.energy(s0, unit_speed257)
    _, snaps = forward_t5_recorded
    drift = max(abs(pv.energy(s, unit_speed257) - e0) / e0 for s in snaps.values())
    # the scheme conserves a discrete energy exactly; energy() differs from
    # it at second order, so the drift shrinks about fourfold when n doubles
    g129 = pv.Grid2D(129)
    f129 = pv.paper_six_phantom(g129)
    snaps129 = dict.fromkeys(range(100, pv.num_steps(5.0, g129.dt), 100))
    pv.forward_solve(pv.StatePair(f129, pv.ScalarField.zeros(g129)),
                     pv.ScalarField.constant(g129, 1.0),
                     pv.BoundarySpec.full(g129), 5.0, snapshots=snaps129)
    e0_129 = pv.energy(pv.StatePair(f129, pv.ScalarField.zeros(g129)),
                       pv.ScalarField.constant(g129, 1.0))
    drift129 = max(abs(pv.energy(s, pv.ScalarField.constant(g129, 1.0)) - e0_129) / e0_129
                   for s in snaps129.values())
    ok = verdict("criterion 08 forward conservation",
                 drift < 0.02 and drift129 > drift,
                 f"energy drift over T=5 at n=257: {drift * 100:.3f}% (limit 2%); "
                 f"n=129 drift {drift129 * 100:.3f}% shrinks with refinement: {drift129 > drift}")
    assert ok


def test_criterion_09_oracle_equivalences(tmp_path):
    details = []
    checks = []

    # (a) transform vs brute-force weighted projection, n = 33
    g33 = pv.Grid2D(33)
    f = smooth_random_field(g33, np.random.default_rng(1), kmax=32)
    n = g33.n
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    xb = 0.5 * np.pi * (g33.coords() + 1.0)
    W = np.outer(w, w)
    oracle = np.empty((n, n))
    for k in range(n):
        for l in range(n):
            phi = np.outer(np.cos(k * xb), np.cos(l * xb))
            oracle[k, l] = np.sum(W * phi * f.values) / np.sum(W * phi * phi)
    dct_err = np.abs(pv.dct2_forward(f) - oracle).max() / np.abs(oracle).max()
    checks.append(dct_err <= 1e-10)
    details.append(f"transform vs projection oracle {dct_err:.2e} (limit 1e-10)")

    # (b) finite differences vs the series solution, n = 129 and 257
    errs = {}
    for nn in (129, 257):
        gg = pv.Grid2D(nn)
        x = 0.5 * np.pi * (gg.coords() + 1.0)
        vals = (np.outer(np.cos(x), np.ones(nn)) + 0.5 * np.outer(np.ones(nn), np.cos(x))
                + 0.25 * np.outer(np.cos(x), np.cos(x)) + 0.1 * np.outer(np.cos(2 * x), np.cos(x)))
        ff = pv.ScalarField(gg, vals)
        bs = pv.BoundarySpec.full(gg)
        ref = pv.synthesize_data(ff, bs, 1.0, gg.dt)
        got = pv.forward_solve(pv.StatePair(ff, pv.ScalarField.zeros(gg)),
                               pv.ScalarField.constant(gg, 1.0), bs, 1.0)
        errs[nn] = float(np.linalg.norm(got.trace.samples - ref.samples)
                         / np.linalg.norm(ref.samples))
    ratio = errs[129] / errs[257]
    checks.append(errs[129] <= 0.02)
    details.append(f"solver vs series at n=129: {errs[129] * 100:.4f}% (limit 2%)")
    ratio_ok = 3.0 <= ratio <= 5.0
    checks.append(ratio_ok)
    details.append(f"refinement error ratio {ratio:.2f} (expected ~4: the interior "
                   f"stencil and the mirror-ghost wall closure are both second order)")

    # (c) absorbing update, hand-computed gamma = 2 case
    g8 = pv.Grid2D(8)
    bs8 = pv.BoundarySpec.full(g8)
    nb8 = pv.boundary_count(8)
    new = np.zeros((8, 8))
    old = np.zeros((8, 8))
    new[3, 0] = 0.4
    old[3, 0] = 0.1
    g_new = np.zeros(nb8)
    g_old = np.zeros(nb8)
    g_new[3] = 0.6
    g_old[3] = 0.3
    got = pv.dissipative_boundary_update(pv.ScalarField(g8, new), pv.ScalarField(g8, old),
                                         g_new, g_old, bs8)[3]
    checks.append(abs(got - 0.4) <= 1e-15)
    details.append(f"gamma=2 hand case -> {got!r} (expected 0.4)")

    # (d) file round trips are bit identical
    gf = pv.Grid2D(17)
    field = smooth_random_field(gf, np.random.default_rng(2))
    pio.write_field(tmp_path / "f.csv", field)
    field_ok = np.array_equal(pio.read_field(tmp_path / "f.csv").values, field.values)
    trace = pv.synthesize_data(field, pv.BoundarySpec.full(gf), 1.0, gf.dt)
    pio.write_trace(tmp_path / "t.csv", trace)
    back = pio.read_trace(tmp_path / "t.csv")
    trace_ok = np.array_equal(back.samples, trace.samples) and back.dt == trace.dt
    checks.append(field_ok and trace_ok)
    details.append(f"csv round trips bit-identical: field {field_ok}, trace {trace_ok}")

    verdict("criterion 09 oracle equivalences", all(checks), "; ".join(details))
    assert checks[0] and checks[1] and checks[3] and checks[4]
    assert ratio_ok, (
        f"refinement ratio {ratio:.2f} is not ~4: the wall closure has lost "
        f"the second-order accuracy of the interior stencil"
    )


def test_criterion_10_structural_invariants():
    g = pv.Grid2D(33)
    unit = pv.ScalarField.constant(g, 1.0)
    rng = np.random.default_rng(9)
    checks = []
    details = []

    # projector idempotence and seminorm monotonicity over 100 random states
    idem = 0.0
    mono = True
    for _ in range(100):
        s = smooth_random_state(g, rng)
        scale = max(np.abs(s.first.values).max(), 1.0)
        base = pv.seminorm(s, unit)
        for proj in (pv.project_H0, pv.project_H1):
            once = proj(s)
            twice = proj(once)
            idem = max(idem, np.abs(twice.first.values - once.first.values).max() / scale)
            mono = mono and pv.seminorm(once, unit) <= base * (1 + 1e-12)
    checks.append(idem <= 1e-15 and mono)
    details.append(f"projector idempotence {idem:.1e} (limit 1e-15), "
                   f"seminorm non-increase {mono}")

    # subspace invariance of the iterates
    g65 = pv.Grid2D(65)
    unit65 = pv.ScalarField.constant(g65, 1.0)
    bs65 = pv.BoundarySpec.full(g65)
    f65 = pv.paper_six_phantom(g65)
    T = pv.snap_duration(1.6, g65.dt)
    data = pv.synthesize_data(f65, bs65, T, g65.dt)
    worst_mean = 0.0
    second_zero = True
    for k in (1, 2, 3):
        cfg = pv.ReconConfig(T=T, iterations=k, c=unit65, bspec=bs65)
        est = pv.neumann_iterate(data, cfg).estimate
        worst_mean = max(worst_mean, abs(pv.boundary_mean(est.first)))
        second_zero = second_zero and not est.second.values.any()
    checks.append(worst_mean <= 1e-10 and second_zero)
    details.append(f"iterate boundary mean {worst_mean:.1e} (limit 1e-10), "
                   f"H1 second component zero: {second_zero}")

    # superposition of the measurement map, the reversal, and the full chain
    bs = pv.BoundarySpec.full(g)
    f1 = smooth_random_field(g, rng, kmax=5)
    f2 = smooth_random_field(g, rng, kmax=5)
    a, b = 0.7, -1.3
    tr1 = pv.forward_solve(pv.StatePair(f1, pv.ScalarField.zeros(g)), unit, bs, 1.0).trace
    tr2 = pv.forward_solve(pv.StatePair(f2, pv.ScalarField.zeros(g)), unit, bs, 1.0).trace
    combo = pv.StatePair(pv.ScalarField(g, a * f1.values + b * f2.values),
                         pv.ScalarField.zeros(g))
    trc = pv.forward_solve(combo, unit, bs, 1.0).trace
    lin_fwd = np.abs(trc.samples - a * tr1.samples - b * tr2.samples).max() \
        / np.abs(trc.samples).max()
    r1 = pv.dissipative_reverse_solve(tr1, unit)
    r2 = pv.dissipative_reverse_solve(tr2, unit)
    rc = pv.dissipative_reverse_solve(trc, unit)
    lin_rev = np.abs(rc.first.values - a * r1.first.values - b * r2.first.values).max() \
        / np.abs(rc.first.values).max()
    cfg = pv.ReconConfig(T=1.0, iterations=2, c=unit, bspec=bs)
    m1 = pv.neumann_iterate(tr1, cfg).estimate
    m2 = pv.neumann_iterate(tr2, cfg).estimate
    mc = pv.neumann_iterate(
        pv.BoundaryTrace(bs, a * tr1.samples + b * tr2.samples), cfg).estimate
    lin_map = np.abs(mc.first.values - a * m1.first.values - b * m2.first.values).max() \
        / np.abs(mc.first.values).max()
    lin = max(lin_fwd, lin_rev, lin_map)
    checks.append(lin <= 1e-9)
    details.append(f"superposition residual {lin:.1e} (limit 1e-9)")

    ok = verdict("criterion 10 structural invariants", all(checks), "; ".join(details))
    assert ok
