"""Reconstruction layer: one-shot estimate, fixed-point iteration, diagnostics."""

import dataclasses

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


def make_cfg(s, T, iterations):
    return pv.ReconConfig(T=T, iterations=iterations, c=s["c"], bspec=s["bs"])


@pytest.fixture(scope="module")
def data65(setup65):
    g = setup65["grid"]
    T = pv.snap_duration(1.6, g.dt)
    return T, pv.synthesize_data(setup65["phantom"], setup65["bs"], T, g.dt)


class TestInitialApproximation:
    def test_zero_data(self, setup65):
        g = setup65["grid"]
        steps = pv.num_steps(1.0, g.dt)
        z = pv.BoundaryTrace(setup65["bs"], np.zeros((steps + 1, pv.boundary_count(g.n))))
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

    @pytest.mark.parametrize("configured", [
        lambda grid: pv.BoundarySpec.full(grid),
        lambda grid: pv.BoundarySpec(grid, 3.0 * pv.BoundarySpec.left_bottom(grid).lam),
    ], ids=["full_gamma", "lambda_3"])
    def test_trace_from_another_boundary_spec_rejected(self, setup65, configured):
        # a left+bottom trace inverted as full data returns ~54% error where
        # its own Gamma gives ~11%; a trace is only inverted on its own spec
        grid = setup65["grid"]
        g = pv.synthesize_data(setup65["phantom"], pv.BoundarySpec.left_bottom(grid), 3.0,
                               grid.dt)
        cfg = pv.ReconConfig(T=3.0, iterations=3, c=setup65["c"], bspec=configured(grid))
        with pytest.raises(pv.ConfigError, match="Gamma or lambda"):
            pv.initial_approximation(g, cfg)
        with pytest.raises(pv.ConfigError, match="Gamma or lambda"):
            pv.neumann_iterate(g, cfg)


class TestNeumannIterate:
    def test_trace_on_another_grid_rejected(self, setup65):
        other = pv.Grid2D(33)
        steps = pv.num_steps(1.0, other.dt)
        g = pv.BoundaryTrace(pv.BoundarySpec.full(other),
                             np.zeros((steps + 1, pv.boundary_count(other.n))))
        with pytest.raises(pv.GridMismatchError, match="different grids"):
            pv.neumann_iterate(g, make_cfg(setup65, 1.0, 2))

    def test_reference_on_another_grid_rejected_before_any_solve(self, setup65, data65,
                                                                 monkeypatch):
        T, g = data65
        solves = []
        monkeypatch.setattr(pv.fdtd, "dissipative_reverse_solve",
                            lambda *args, **kwargs: solves.append(1))
        reference = pv.paper_six_phantom(pv.Grid2D(33))
        with pytest.raises(pv.GridMismatchError, match="reference"):
            pv.neumann_iterate(g, make_cfg(setup65, T, 2), reference=reference)
        assert solves == []

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
        back = pv.dissipative_reverse_solve(fwd.trace, setup65["c"])
        base = pv.project_H1(pv.dissipative_reverse_solve(g, setup65["c"]))
        u_next = u - pv.project_H1(back) + base
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
        gc = pv.BoundaryTrace(bs, a * g1.samples + b * g2.samples)
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
    def test_negative_iterations(self, setup65):
        with pytest.raises(pv.ConfigError):
            make_cfg(setup65, 1.0, -1)

    def test_nonpositive_time(self, setup65):
        with pytest.raises(pv.ConfigError):
            make_cfg(setup65, 0.0, 1)

    @pytest.mark.parametrize("T", [np.nan, np.inf])
    def test_non_finite_time(self, setup65, T):
        with pytest.raises(pv.ConfigError, match="must be finite"):
            make_cfg(setup65, T, 1)

    @pytest.mark.parametrize("iterations", [2.5, 2.0, "2", True])
    def test_non_integer_iterations(self, setup65, iterations):
        with pytest.raises(pv.ConfigError, match="must be an integer"):
            make_cfg(setup65, 1.0, iterations)

    def test_fields_cannot_be_reassigned(self, setup65):
        # the checks of construction hold for the configuration's life
        cfg = make_cfg(setup65, 1.0, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.T = np.nan
        bspec = cfg.bspec
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.bspec = pv.BoundarySpec.left_bottom(setup65["grid"])
        assert cfg.T == 1.0 and cfg.bspec is bspec


class TestModeSpaceMeasurement:
    """At constant c the iteration applies P A L through the reversal error,
    with no trace L u: counts of the leapfrog solves keep that speed-up from
    silently going away."""

    @staticmethod
    def counter(monkeypatch, name):
        calls = []
        solve = getattr(pv.fdtd, name)

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(pv.fdtd, name, counted)
        return calls

    @pytest.fixture
    def count_forward_solves(self, monkeypatch):
        return self.counter(monkeypatch, "forward_solve")

    @pytest.fixture
    def count_backward_solves(self, monkeypatch):
        return self.counter(monkeypatch, "dissipative_reverse_solve")

    @staticmethod
    def spelled_out(g, cfg):
        # the iteration with every L a leapfrog forward solve
        base = pv.project_H1(pv.dissipative_reverse_solve(g, cfg.c))
        u = base.copy()
        for _ in range(1, cfg.iterations):
            fwd = pv.forward_solve(u, cfg.c, cfg.bspec, cfg.T)
            u = u - pv.project_H1(pv.dissipative_reverse_solve(fwd.trace, cfg.c)) + base
        return u

    def varying_speed(self, grid):
        x = grid.coords()
        X, Y = np.meshgrid(x, x, indexing="ij")
        return pv.ScalarField(grid, 1.0 + 0.2 * np.exp(-((X - 0.2) ** 2 + Y ** 2) / 0.2))

    def test_constant_speed_h1_needs_no_leapfrog_forward_solve(self, setup65, data65,
                                                                count_forward_solves,
                                                                count_backward_solves):
        T, g = data65
        cfg = make_cfg(setup65, T, 4)
        got = pv.neumann_iterate(g, cfg).estimate
        assert len(count_forward_solves) == 0
        # the one backward solve driven by the data g; every P A L u marches
        # the reversal error instead
        assert len(count_backward_solves) == 1
        want = self.spelled_out(g, cfg)
        for a, b in ((got.first, want.first), (got.second, want.second)):
            assert np.abs(a.values - b.values).max() <= 1e-12 * np.abs(want.first.values).max()

    def test_varying_speed_keeps_the_leapfrog_bit_for_bit(self, setup65, data65,
                                                          count_forward_solves):
        T, g = data65
        cfg = pv.ReconConfig(T=T, iterations=4, c=self.varying_speed(setup65["grid"]),
                             bspec=setup65["bs"])
        got = pv.neumann_iterate(g, cfg).estimate
        assert len(count_forward_solves) == 3
        want = self.spelled_out(g, cfg)
        assert np.array_equal(got.first.values, want.first.values)

    def test_contraction_estimate_at_constant_speed(self, setup65, count_forward_solves):
        cfg = make_cfg(setup65, 2.0, 1)
        f = setup65["phantom"]
        factor = pv.estimate_contraction(f, cfg)
        assert len(count_forward_solves) == 0
        state = pv.StatePair(f, pv.ScalarField.zeros(setup65["grid"]))
        fwd = pv.forward_solve(state, cfg.c, cfg.bspec, cfg.T)
        back = pv.project_H1(pv.dissipative_reverse_solve(fwd.trace, cfg.c))
        want = pv.seminorm(state - back, cfg.c) / pv.seminorm(state, cfg.c)
        assert factor == pytest.approx(want, rel=1e-12)
