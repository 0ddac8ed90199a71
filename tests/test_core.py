"""Grid geometry, energy functionals, boundary mean and projectors."""

import dataclasses

import numpy as np
import pytest

import pacavity as pv
from pacavity.core import MAX_N, MAX_STEPS, GridMismatchError

from helpers import eigenfield, full_norm, smooth_random_state, zero_state


@pytest.fixture
def grid():
    return pv.Grid2D(33)


@pytest.fixture
def unit(grid):
    return pv.ScalarField.constant(grid, 1.0)


def xramp(grid):
    x = grid.coords()
    return pv.ScalarField(grid, np.outer(x, np.ones(grid.n)))


class TestGrid:
    def test_spacing_and_default_step(self):
        g = pv.Grid2D(257)
        assert g.dx == 2.0 / 256
        assert g.dt == 0.5 * g.dx
        assert g.coords()[0] == -1.0 and g.coords()[-1] == 1.0

    def test_default_step_satisfies_cfl(self):
        pv.Grid2D(65).check_cfl(1.0)

    def test_cfl_violation_detected(self):
        g = pv.Grid2D(65, dt=0.9 * 2.0 / 64)
        with pytest.raises(pv.StabilityError):
            g.check_cfl(1.0)

    def test_bad_size_rejected(self):
        with pytest.raises(pv.ConfigError):
            pv.Grid2D(2)

    def test_size_above_ceiling_rejected(self):
        # a grid allocates nothing, so the ceiling itself can be built
        assert pv.Grid2D(MAX_N).n == MAX_N
        with pytest.raises(pv.ConfigError, match=f"<= {MAX_N} and >= 4, got {MAX_N + 1}"):
            pv.Grid2D(MAX_N + 1)

    def test_nonpositive_step_rejected(self):
        with pytest.raises(pv.ConfigError, match="dt must be positive"):
            pv.Grid2D(9, dt=0.0)
        for dt in ("0.1", True, np.True_):
            with pytest.raises(pv.ConfigError, match="dt must be a number"):
                pv.Grid2D(9, dt=dt)
        # a float32 step is held as a double, so the scheme runs in doubles
        dt = pv.Grid2D(9, np.float32(0.125)).dt
        assert type(dt) is float and dt == 0.125

    def test_quad_weights_sum_to_side_length(self, grid):
        assert np.sum(grid.quad_weights()) == pytest.approx(2.0, abs=1e-14)


class TestFields:
    def test_nonfinite_rejected(self, grid):
        vals = np.zeros((grid.n, grid.n))
        vals[3, 3] = np.nan
        with pytest.raises(ValueError):
            pv.ScalarField(grid, vals)

    def test_shape_mismatch_rejected(self, grid):
        with pytest.raises(GridMismatchError):
            pv.ScalarField(grid, np.zeros((grid.n, grid.n + 1)))

    def test_values_are_c_ordered(self, grid):
        # the solvers' stencil adds on the flat view of C-ordered arrays
        vals = np.arange(grid.n * grid.n, dtype=float).reshape(grid.n, grid.n)
        assert pv.ScalarField(grid, vals).values is vals
        wide = np.repeat(vals, 2, axis=1)
        for other in (np.asfortranarray(vals), vals.T.copy().T, wide[:, ::2]):
            f = pv.ScalarField(grid, other)
            assert f.values.flags.c_contiguous and np.array_equal(f.values, vals)

    def test_state_components_share_grid(self, grid):
        other = pv.Grid2D(17)
        with pytest.raises(GridMismatchError):
            pv.StatePair(pv.ScalarField.zeros(grid), pv.ScalarField.zeros(other))

    def test_field_values_cannot_be_reassigned(self, grid):
        # a reassigned Fortran-ordered array would bypass the C-order copy of
        # construction, and the flat-view stencil would read it in the wrong order
        f = pv.ScalarField.zeros(grid)
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.values = np.asfortranarray(np.ones((grid.n, grid.n)))
        f.values[1, 2] = 3.0  # writing the values in place stays allowed
        assert f.values[1, 2] == 3.0

    def test_state_components_cannot_be_reassigned(self, grid):
        s = zero_state(grid)
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.second = pv.ScalarField.zeros(pv.Grid2D(17))

    def test_trace_fields_cannot_be_reassigned(self, grid):
        # a left+bottom trace given the full spec would be inverted as if its
        # unmeasured walls had read zero pressure
        bs = pv.BoundarySpec.left_bottom(grid)
        trace = pv.BoundaryTrace(bs, np.ones((3, bs.gamma.size)))
        with pytest.raises(dataclasses.FrozenInstanceError):
            trace.bspec = pv.BoundarySpec.full(grid)
        with pytest.raises(dataclasses.FrozenInstanceError):
            trace.samples = np.ones((3, 4 * grid.n - 4))
        assert trace.bspec is bs and trace.samples.shape == (3, bs.gamma.size)


class TestEnergy:
    def test_zero_state(self, grid, unit):
        assert pv.energy(zero_state(grid), unit) == 0.0

    def test_linear_ramp_exact(self, grid, unit):
        # grad(x) = 1 under both the centered and the one-sided stencils,
        # and the trapezoid rule integrates the constant exactly.
        s = pv.StatePair(xramp(grid), pv.ScalarField.zeros(grid))
        assert pv.energy(s, unit) == pytest.approx(4.0, abs=1e-10)

    def test_grid_mismatch(self, grid):
        c = pv.ScalarField.constant(pv.Grid2D(17), 1.0)
        with pytest.raises(GridMismatchError):
            pv.energy(zero_state(grid), c)

    def test_nonpositive_speed_rejected(self, grid):
        with pytest.raises(ValueError):
            pv.energy(zero_state(grid), pv.ScalarField.zeros(grid))

    def test_first_mode_against_quadrature_oracle(self):
        # independent oracle: dense trapezoid quadrature of the analytic
        # |grad phi|^2 on a 4097-point per-axis grid
        m = 4097
        x = np.linspace(-1.0, 1.0, m)
        w = np.full(m, x[1] - x[0])
        w[0] *= 0.5
        w[-1] *= 0.5
        dphi = -0.5 * np.pi * np.sin(0.5 * np.pi * (x + 1.0))
        phi = np.cos(0.5 * np.pi * (x + 1.0))
        # separable integrand: dphi(x)^2 * 1(y)
        oracle = np.sum(w * dphi**2) * np.sum(w * np.ones(m))
        errs = []
        for n in (65, 129, 257):
            g = pv.Grid2D(n)
            s = pv.StatePair(eigenfield(g, 1, 0), pv.ScalarField.zeros(g))
            errs.append(abs(pv.energy(s, pv.ScalarField.constant(g, 1.0)) - oracle))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.3)
        assert errs[-1] <= 1e-3 * oracle

    def test_velocity_term_uses_inverse_speed(self, grid):
        c = pv.ScalarField.constant(grid, 2.0)
        s = pv.StatePair(pv.ScalarField.zeros(grid), pv.ScalarField.constant(grid, 1.0))
        # ||u1/c||^2 = (1/4) * area
        assert pv.energy(s, c) == pytest.approx(1.0, rel=1e-12)


class TestNorms:
    def test_seminorm_is_sqrt_energy(self, grid, unit):
        s = pv.StatePair(xramp(grid), pv.ScalarField.zeros(grid))
        assert pv.seminorm(s, unit) == pytest.approx(2.0, abs=1e-10)
        assert pv.seminorm(zero_state(grid), unit) == 0.0

    def test_constant_field_norm(self, grid, unit):
        s = pv.StatePair(pv.ScalarField.constant(grid, 1.0), pv.ScalarField.zeros(grid))
        assert full_norm(s, unit) == pytest.approx(2.0, rel=1e-12)

    def test_norm_identity_and_domination(self, grid, unit):
        rng = np.random.default_rng(11)
        for _ in range(100):
            s = smooth_random_state(grid, rng)
            semi = pv.seminorm(s, unit)
            full = full_norm(s, unit)
            assert semi <= full
            l2sq = pv.l2_norm(s.first) ** 2
            assert full**2 == pytest.approx(semi**2 + l2sq, rel=1e-12)

    def test_relative_l2_needs_a_nonzero_reference(self, grid):
        with pytest.raises(ZeroDivisionError, match="zero norm"):
            pv.relative_l2(pv.ScalarField.constant(grid, 1.0), pv.ScalarField.zeros(grid))


class TestBoundaryMean:
    def test_constant(self, grid):
        assert pv.boundary_mean(pv.ScalarField.constant(grid, 3.0)) == pytest.approx(3.0, abs=1e-14)

    def test_odd_symmetry(self, grid):
        assert pv.boundary_mean(xramp(grid)) == pytest.approx(0.0, abs=1e-14)

    def test_against_direct_summation_oracle(self):
        g = pv.Grid2D(257)
        f = pv.paper_six_phantom(g)
        rng = np.random.default_rng(3)
        from helpers import smooth_random_field
        for h in (f, smooth_random_field(g, rng)):
            # oracle: per-side trapezoid sums written out longhand
            v = h.values
            dx = g.dx
            total = 0.0
            for side in (v[:, 0], v[:, -1], v[0, :], v[-1, :]):
                total += dx * (0.5 * side[0] + side[1:-1].sum() + 0.5 * side[-1])
            assert pv.boundary_mean(h) == pytest.approx(total / 8.0, abs=1e-12)


class TestProjectors:
    def test_zero_mean_state_unchanged(self, grid):
        s = pv.StatePair(xramp(grid), pv.ScalarField.constant(grid, 2.0))
        out = pv.project_H0(s)
        assert np.allclose(out.first.values, s.first.values, atol=1e-14)
        assert np.array_equal(out.second.values, s.second.values)

    def test_constant_shift(self, grid):
        u1 = pv.ScalarField.constant(grid, 7.0)
        out = pv.project_H0(pv.StatePair(pv.ScalarField.constant(grid, 5.0), u1))
        assert np.allclose(out.first.values, 0.0, atol=1e-14)
        assert np.array_equal(out.second.values, u1.values)

    def test_H1_zeroes_second(self, grid):
        out = pv.project_H1(pv.StatePair(pv.ScalarField.constant(grid, 5.0),
                                         pv.ScalarField.constant(grid, 3.0)))
        assert np.all(out.first.values == pytest.approx(0.0, abs=1e-14))
        assert np.all(out.second.values == 0.0)

    def test_idempotence(self, grid):
        rng = np.random.default_rng(4)
        for _ in range(20):
            s = smooth_random_state(grid, rng)
            scale = np.abs(s.first.values).max()
            for proj in (pv.project_H0, pv.project_H1):
                once = proj(s)
                twice = proj(once)
                assert np.abs(twice.first.values - once.first.values).max() <= 1e-15 * max(scale, 1.0)
                assert np.array_equal(twice.second.values, once.second.values)

    def test_projection_output_has_zero_boundary_mean(self, grid):
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = smooth_random_state(grid, rng)
            m = pv.boundary_mean(pv.project_H0(s).first)
            assert abs(m) <= 1e-12 * max(np.abs(s.first.values).max(), 1.0)

    def test_seminorm_non_increase(self, grid, unit):
        rng = np.random.default_rng(6)
        for _ in range(100):
            s = smooth_random_state(grid, rng)
            base = pv.seminorm(s, unit)
            assert pv.seminorm(pv.project_H0(s), unit) <= base * (1 + 1e-12)
            assert pv.seminorm(pv.project_H1(s), unit) <= base * (1 + 1e-12)


class TestTimeGrid:
    def test_exact_multiple(self):
        assert pv.num_steps(5.0, 1.0 / 256) == 1280

    def test_non_multiple_rejected(self):
        with pytest.raises(pv.ConfigError):
            pv.num_steps(1.6, 1.0 / 256)

    @pytest.mark.parametrize("T", [0.0, -1.0])
    def test_nonpositive_time_rejected(self, T):
        for count in (pv.num_steps, pv.snap_duration):
            with pytest.raises(pv.ConfigError, match="must be positive"):
                count(T, 1.0 / 256)

    @pytest.mark.parametrize("T, dt", [
        (np.nan, 1.0 / 256), (np.inf, 1.0 / 256), (1e308, 1.0 / 256), (1.0, np.nan),
    ], ids=["T_nan", "T_inf", "T_over_dt_overflows", "dt_nan"])
    def test_non_finite_ratio_rejected(self, T, dt):
        for count in (pv.num_steps, pv.snap_duration):
            with pytest.raises(pv.ConfigError, match="T/dt must be finite"):
                count(T, dt)

    def test_step_count_ceiling(self):
        dt = 1.0 / 256
        for count in (pv.num_steps, pv.snap_duration):
            count(MAX_STEPS * dt, dt)
            with pytest.raises(pv.ConfigError, match=f"ceiling of {MAX_STEPS} time steps"):
                count((MAX_STEPS + 1) * dt, dt)

    def test_snap(self):
        dt = 1.0 / 256
        T = pv.snap_duration(1.6, dt)
        assert T == 410 * dt
        assert pv.num_steps(T, dt) == 410
