"""Reconstruction layer: one-shot estimate, fixed-point iteration, diagnostics."""

import numpy as np
import pytest

import pacavity as pv

from helpers import smooth_random_field


@pytest.fixture(scope="module")
def setup65():
    g = pv.Grid2D(65)
    return {
        "grid": g,
        "c": pv.ScalarField.constant(g, 1.0),
        "bs": pv.BoundarySpec.full(g),
        "phantom": pv.paper_six_phantom(g),
    }


def make_cfg(s, T, iterations, subspace="H1"):
    return pv.ReconConfig(T=T, iterations=iterations, c=s["c"], bspec=s["bs"],
                          subspace=subspace)


@pytest.fixture(scope="module")
def data65(setup65):
    g = setup65["grid"]
    T = pv.snap_duration(1.6, g.dt)
    return T, pv.synthesize_data(setup65["phantom"], setup65["bs"], T, g.dt)


class TestInitialApproximation:
    def test_zero_data(self, setup65):
        g = setup65["grid"]
        steps = pv.num_steps(1.0, g.dt)
        z = pv.BoundaryTrace(g, g.dt, np.zeros((steps + 1, pv.boundary_count(g.n))))
        out = pv.initial_approximation(z, make_cfg(setup65, 1.0, 1))
        assert np.all(out.first.values == 0.0)
        assert np.all(out.second.values == 0.0)

    def test_single_iteration_matches(self, setup65, data65):
        T, g = data65
        cfg = make_cfg(setup65, T, 1)
        direct = pv.initial_approximation(g, cfg)
        via_iterate = pv.neumann_iterate(g, cfg).estimate
        assert np.array_equal(direct.first.values, via_iterate.first.values)
        assert np.array_equal(direct.second.values, via_iterate.second.values)

    def test_trace_length_mismatch_rejected(self, setup65, data65):
        _, g = data65
        cfg = make_cfg(setup65, 3.0, 1)
        with pytest.raises(pv.ConfigError):
            pv.initial_approximation(g, cfg)


class TestNeumannIterate:
    def test_zero_iterations(self, setup65, data65):
        T, g = data65
        report = pv.neumann_iterate(g, make_cfg(setup65, T, 0), reference=setup65["phantom"])
        assert np.all(report.estimate.first.values == 0.0)
        assert report.per_iteration_errors == []

    def test_errors_decrease(self, setup65, data65):
        T, g = data65
        report = pv.neumann_iterate(g, make_cfg(setup65, T, 3), reference=setup65["phantom"])
        errs = report.per_iteration_errors
        assert len(errs) == 3
        assert errs[0] > errs[1] > errs[2]

    def test_history_requires_reference(self, setup65, data65):
        T, g = data65
        report = pv.neumann_iterate(g, make_cfg(setup65, T, 2))
        assert report.per_iteration_errors == []

    def test_iterates_stay_in_subspace(self, setup65, data65):
        T, g = data65
        scale = np.abs(setup65["phantom"].values).max()
        for k in (1, 2, 3):
            est = pv.neumann_iterate(g, make_cfg(setup65, T, k)).estimate
            assert abs(pv.boundary_mean(est.first)) <= 1e-10 * scale
            assert np.all(est.second.values == 0.0)
        est0 = pv.neumann_iterate(g, make_cfg(setup65, T, 2, subspace="H0")).estimate
        assert abs(pv.boundary_mean(est0.first)) <= 1e-10 * scale

    def test_geometric_decay_on_self_consistent_data(self, setup65):
        # data from the forward solver itself: the iteration converges to the
        # phantom and every error ratio stays below one
        g = setup65["grid"]
        T = 2.0
        s0 = pv.StatePair(setup65["phantom"], pv.ScalarField.zeros(g))
        data = pv.forward_solve(s0, setup65["c"], setup65["bs"], T).trace
        cfg = make_cfg(setup65, T, 6)
        report = pv.neumann_iterate(data, cfg, reference=setup65["phantom"])
        errs = report.per_iteration_errors
        assert max(b / a for a, b in zip(errs[:-1], errs[1:])) <= 0.97
        assert errs[-1] <= 0.01

    def test_first_ratio_consistent_with_contraction_estimate(self, setup65):
        g = setup65["grid"]
        T = 2.0
        s0 = pv.StatePair(setup65["phantom"], pv.ScalarField.zeros(g))
        data = pv.forward_solve(s0, setup65["c"], setup65["bs"], T).trace
        # the first step u(1) = P A L f of the iteration on the data L f
        # leaves the residual f - u(1), whose energy seminorm relative to f is
        # exactly what estimate_contraction measures
        cfg = make_cfg(setup65, T, 1)
        u1 = pv.neumann_iterate(data, cfg).estimate
        ratio = pv.seminorm(u1 - s0, setup65["c"]) / pv.seminorm(s0, setup65["c"])
        delta = pv.estimate_contraction(setup65["phantom"], cfg)
        assert ratio == pytest.approx(delta, rel=1e-10)

    def test_fixed_point_consistency(self, setup65, data65):
        T, g = data65
        cfg = make_cfg(setup65, T, 5)
        report = pv.neumann_iterate(g, cfg, reference=setup65["phantom"])
        u = report.estimate
        fwd = pv.forward_solve(u, setup65["c"], setup65["bs"], T)
        back = pv.dissipative_reverse_solve(fwd.trace, setup65["c"], setup65["bs"])
        base = cfg.project(pv.dissipative_reverse_solve(g, setup65["c"], setup65["bs"]))
        u_next = u - cfg.project(back) + base
        change = (np.linalg.norm((u_next - u).first.values)
                  / np.linalg.norm(setup65["phantom"].values))
        assert change < report.per_iteration_errors[-1]

    def test_full_map_linearity(self):
        g = pv.Grid2D(33)
        c = pv.ScalarField.constant(g, 1.0)
        bs = pv.BoundarySpec.full(g)
        cfg = pv.ReconConfig(T=1.0, iterations=2, c=c, bspec=bs)
        f1 = smooth_random_field(g, np.random.default_rng(1), kmax=5)
        f2 = smooth_random_field(g, np.random.default_rng(2), kmax=5)
        g1 = pv.synthesize_data(f1, bs, 1.0, g.dt)
        g2 = pv.synthesize_data(f2, bs, 1.0, g.dt)
        a, b = 0.7, -1.3
        gc = pv.BoundaryTrace(g, g.dt, a * g1.samples + b * g2.samples,
                              gamma_mask=bs.gamma_mask)
        r1 = pv.neumann_iterate(g1, cfg).estimate
        r2 = pv.neumann_iterate(g2, cfg).estimate
        rc = pv.neumann_iterate(gc, cfg).estimate
        target = a * r1.first.values + b * r2.first.values
        assert np.abs(rc.first.values - target).max() <= 1e-9 * np.abs(target).max()


class TestEstimateContraction:
    def test_below_one_at_adequate_time(self, setup65):
        cfg = make_cfg(setup65, 2.0, 1)
        assert pv.estimate_contraction(setup65["phantom"], cfg) < 1.0

    def test_scale_invariance(self, setup65):
        cfg = make_cfg(setup65, 1.0, 1)
        r1 = pv.estimate_contraction(setup65["phantom"], cfg)
        r2 = pv.estimate_contraction(10.0 * setup65["phantom"], cfg)
        assert r2 == pytest.approx(r1, rel=1e-12)

    def test_zero_field_rejected(self, setup65):
        cfg = make_cfg(setup65, 1.0, 1)
        with pytest.raises(ZeroDivisionError):
            pv.estimate_contraction(pv.ScalarField.zeros(setup65["grid"]), cfg)


class TestConfigValidation:
    def test_bad_subspace(self, setup65):
        with pytest.raises(pv.ConfigError):
            make_cfg(setup65, 1.0, 1, subspace="H2")

    def test_negative_iterations(self, setup65):
        with pytest.raises(pv.ConfigError):
            make_cfg(setup65, 1.0, -1)

    def test_nonpositive_time(self, setup65):
        with pytest.raises(pv.ConfigError):
            make_cfg(setup65, 0.0, 1)
