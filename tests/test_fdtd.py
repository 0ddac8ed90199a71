"""Leapfrog stepping, boundary updates, and the two solvers."""

import dataclasses
import platform
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import pacavity as pv
from pacavity import _native, fdtd
from pacavity.core import GridMismatchError, boundary_indices

from helpers import (eigenfield, graded, reference_forward, reference_own_trace,
                     reference_reverse, slice_stencil_step, smooth_random_field,
                     smooth_random_state, zero_state)


@pytest.fixture
def grid():
    return pv.Grid2D(33)


@pytest.fixture
def unit(grid):
    return pv.ScalarField.constant(grid, 1.0)


@pytest.fixture
def bs_full(grid):
    return pv.BoundarySpec.full(grid)


def zero_trace(grid, bspec, T):
    steps = pv.num_steps(T, grid.dt)
    samples = np.zeros((steps + 1, bspec.gamma.size))
    return pv.BoundaryTrace(bspec, samples)


class TestBoundaryEnumeration:
    def test_canonical_walk_n5(self):
        ks, ls = boundary_indices(5)
        expected = [
            (0, 0), (1, 0), (2, 0), (3, 0), (4, 0),          # bottom
            (4, 1), (4, 2), (4, 3), (4, 4),                  # right
            (3, 4), (2, 4), (1, 4), (0, 4),                  # top
            (0, 3), (0, 2), (0, 1),                          # left
        ]
        assert list(zip(ks.tolist(), ls.tolist())) == expected

    def test_count_and_uniqueness(self):
        for n in (5, 8, 33):
            ks, ls = boundary_indices(n)
            assert ks.size == 4 * n - 4
            assert len({(k, l) for k, l in zip(ks, ls)}) == ks.size

    def test_left_bottom_preset_membership(self):
        n = 9
        g = pv.Grid2D(n)
        bs = pv.BoundarySpec.left_bottom(g)
        ks, ls = boundary_indices(n)
        # bottom row and left column, corner (1,1) excluded
        assert bs.gamma.size == 2 * n - 1
        assert bs.gamma.tolist() == [pos for pos, (k, l) in enumerate(zip(ks, ls))
                                     if l == 0 or k == 0]

    def test_lambda_positive_exactly_on_gamma(self, grid):
        # Gamma is the support of lambda: the spec is its grid and lambda
        bs = graded(grid)
        assert [f.name for f in dataclasses.fields(pv.BoundarySpec) if f.init] == ["grid", "lam"]
        assert np.array_equal(bs.gamma, np.flatnonzero(bs.lam > 0))
        assert np.array_equal(bs.gamma, pv.BoundarySpec.left_bottom(grid).gamma)

    def test_spec_cannot_be_changed_after_construction(self):
        # a reassigned or edited lambda would leave gamma and the checks
        # of construction behind
        lam = np.ones(32)
        bs = pv.BoundarySpec(pv.Grid2D(9), lam)
        with pytest.raises(dataclasses.FrozenInstanceError):
            bs.lam = np.zeros(32)
        with pytest.raises(ValueError, match="read-only"):
            bs.lam[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            bs.gamma[0] = 5
        # the spec holds a copy: the caller's array stays its own, writable
        lam[0] = 0.0
        assert bs.lam[0] == 1.0 and bs.gamma.size == 32

    def test_lambda_of_another_length_rejected(self, grid):
        nb = pv.boundary_count(grid.n)
        with pytest.raises(GridMismatchError, match=f"must have length {nb} for n = 33"):
            pv.BoundarySpec(grid, np.ones(nb - 1))

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_negative_or_non_finite_lambda_rejected(self, grid, bad):
        lam = np.ones(pv.boundary_count(grid.n))
        lam[3] = bad
        with pytest.raises(ValueError, match="lambda must be finite and nonnegative") as info:
            pv.BoundarySpec(grid, lam)
        assert info.type is ValueError

    def test_equality_with_another_type_is_left_to_python(self, grid):
        bs = pv.BoundarySpec.full(grid)
        assert bs.__eq__(3) is NotImplemented
        assert bs != 3 and not bs == 3

    def test_empty_gamma_rejected(self, grid):
        with pytest.raises(pv.ConfigError, match="at least one boundary node"):
            pv.BoundarySpec(grid, np.zeros(pv.boundary_count(grid.n)))

    def test_named_constructors_put_lambda_one_exactly_on_gamma(self, grid):
        ks, ls = boundary_indices(grid.n)
        nb = pv.boundary_count(grid.n)
        for bs, on in ((pv.BoundarySpec.full(grid), np.ones(nb, dtype=bool)),
                       (pv.BoundarySpec.left_bottom(grid), (ls == 0) | (ks == 0)),
                       (pv.BoundarySpec.from_node_list(grid, [2, 5, 7]),
                        np.isin(np.arange(nb), [2, 5, 7]))):
            assert np.array_equal(bs.gamma, np.flatnonzero(on))
            assert np.array_equal(bs.lam, np.where(on, 1.0, 0.0))

    @pytest.mark.parametrize("nodes", [[1.7, 3], [1.0, 3.0], [True, False]],
                             ids=["fraction", "integral_floats", "bools"])
    def test_from_node_list_rejects_non_integers(self, grid, nodes):
        # a cast to int would measure on nodes no one listed
        with pytest.raises(pv.ConfigError, match="must be integers"):
            pv.BoundarySpec.from_node_list(grid, nodes)

    def test_from_node_list_takes_any_integer_sequence(self, grid):
        for nodes in ([1, 3], np.array([1, 3]), range(1, 4, 2)):
            bs = pv.BoundarySpec.from_node_list(grid, nodes)
            assert bs.gamma.tolist() == [1, 3]

    def test_equality_compares_grid_gamma_and_lambda(self, grid):
        bs = graded(grid)
        assert bs == graded(pv.Grid2D(grid.n))
        assert bs != pv.BoundarySpec.left_bottom(grid)
        assert bs != pv.BoundarySpec.full(grid)
        assert bs != graded(pv.Grid2D(grid.n, 0.4 * grid.dx))


class TestBoundaryTrace:
    def test_wrong_column_count(self, grid):
        with pytest.raises(GridMismatchError):
            pv.BoundaryTrace(pv.BoundarySpec.full(grid), np.zeros((4, 7)))

    def test_one_column_per_gamma_node(self, grid):
        # the samples of a left+bottom trace are its 65 Gamma columns: a row
        # of all 128 boundary nodes is refused, not cut down
        bs = pv.BoundarySpec.left_bottom(grid)
        with pytest.raises(GridMismatchError, match="must have 65 columns, one per Gamma node"):
            pv.BoundaryTrace(bs, np.ones((3, pv.boundary_count(grid.n))))
        samples = np.ones((3, bs.gamma.size))
        assert np.shares_memory(pv.BoundaryTrace(bs, samples).samples, samples)

    @pytest.mark.parametrize("row", [0, -1], ids=["first_row", "last_row"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_refused(self, grid, row, bad):
        # 1200 rows of 65 values span three blocks of the check
        bs = pv.BoundarySpec.left_bottom(grid)
        samples = np.ones((1200, bs.gamma.size))
        samples[row, 5] = bad
        with pytest.raises(ValueError, match="non-finite"):
            pv.BoundaryTrace(bs, samples)

    def test_finite_samples_whose_sum_overflows_accepted(self, grid):
        bs = pv.BoundarySpec.left_bottom(grid)
        samples = np.full((1200, bs.gamma.size), 1.5e308)
        with np.errstate(over="ignore"):
            assert not np.isfinite(samples.sum())
        g = pv.BoundaryTrace(bs, samples)
        assert np.all(g.samples == 1.5e308)

    def test_construction_memory_far_below_the_samples(self):
        # n = 257 and 1281 levels: 10.5 MB of samples, checked a block at a
        # time, so no samples-sized mask is made
        grid = pv.Grid2D(257)
        samples = np.random.default_rng(0).standard_normal((1281, pv.boundary_count(grid.n)))
        bs = pv.BoundarySpec.full(grid)
        tracemalloc.start()
        try:
            pv.BoundaryTrace(bs, samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5e6

    def test_boundary_spec_is_the_only_metadata(self, grid, unit, bs_full):
        # Gamma, lambda and dt have one home, the spec; the backward solve
        # takes none of them separately, so a call that passes a spec fails
        assert [f.name for f in dataclasses.fields(pv.BoundaryTrace)] == ["bspec", "samples"]
        g = zero_trace(grid, bs_full, 1.0)
        assert g.grid is bs_full.grid and g.dt == grid.dt
        with pytest.raises(TypeError):
            pv.dissipative_reverse_solve(g, unit, bs_full)

    def test_times(self, grid):
        g = zero_trace(grid, pv.BoundarySpec.full(grid), 20 * grid.dt)
        assert g.n_steps == 20
        assert np.allclose(g.dt * np.arange(g.n_steps + 1), grid.dt * np.arange(21))


def mirror_closed_step(prev, curr, r2):
    """Leapfrog level at every node, the walls closed by mirror ghosts u_{-1} = u_1."""
    p = np.pad(curr, 1, mode="reflect")
    lap = p[2:, 1:-1] + p[:-2, 1:-1] + p[1:-1, 2:] + p[1:-1, :-2] - 4.0 * curr
    return 2.0 * curr - prev + r2 * lap


LAYOUTS = ["fortran", "transposed", "strided"]


def relaid(field, layout):
    """The same field built from its values in the memory layout named:
    Fortran order, the transposed view of a C array, or every other column
    of a wider one."""
    v = field.values
    if layout == "fortran":
        v = np.asfortranarray(v)
    elif layout == "transposed":
        v = np.ascontiguousarray(v.T).T
    else:
        wide = np.zeros((v.shape[0], 2 * v.shape[1]))
        wide[:, ::2] = v
        v = wide[:, ::2]
    return pv.ScalarField(field.grid, v)


def varying_speed(grid, rng):
    """A per-node sound speed in [0.5, 1], below the default step's CFL bound."""
    return pv.ScalarField(grid, 0.5 + 0.5 * rng.random((grid.n, grid.n)))


def assert_same_bits(a: np.ndarray, b: np.ndarray):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture(params=["c", "numpy"])
def kernel(request, monkeypatch):
    """Run the test with the compiled step of _leapfrog.c loaded, and again
    with the numpy step _advance."""
    step = False
    if request.param == "c":
        step = _native.load()
        if step is None:
            pytest.skip("no C compiler here builds _leapfrog.c; the numpy case still runs")
    monkeypatch.setattr(fdtd, "_compiled", step)
    assert fdtd.step_kernel() == request.param
    return request.param


class TestInteriorStep:
    @pytest.mark.parametrize("per_node", [False, True], ids=["constant_c", "per_node_c"])
    @pytest.mark.parametrize("n", [4, 5, 33])
    def test_equals_the_slice_stencil_bit_for_bit(self, n, per_node, kernel):
        g = pv.Grid2D(n)
        rng = np.random.default_rng(n)
        prev, curr = (pv.ScalarField(g, rng.standard_normal((n, n))) for _ in range(2))
        c = varying_speed(g, rng) if per_node else pv.ScalarField.constant(g, 0.75)
        assert_same_bits(pv.interior_step(prev, curr, c).values,
                         slice_stencil_step(prev, curr, c).values)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_memory_layout_does_not_change_the_bits(self, grid, layout):
        rng = np.random.default_rng(3)
        prev, curr = (pv.ScalarField(grid, rng.standard_normal((grid.n, grid.n)))
                      for _ in range(2))
        c = varying_speed(grid, rng)
        expected = pv.interior_step(prev, curr, c).values
        got = pv.interior_step(relaid(prev, layout), relaid(curr, layout), relaid(c, layout))
        assert_same_bits(got.values, expected)

    def test_zero(self, grid, unit):
        z = pv.ScalarField.zeros(grid)
        assert np.all(pv.interior_step(z, z, unit).values == 0.0)

    def test_constant_interior(self, grid, unit):
        k = pv.ScalarField.constant(grid, 3.5)
        out = pv.interior_step(k, k, unit)
        assert np.allclose(out.values[1:-1, 1:-1], 3.5, atol=1e-14)

    def test_impulse_expansion(self, grid, unit):
        r2 = (grid.dt / grid.dx) ** 2
        amp = 2.0
        cur = np.zeros((grid.n, grid.n))
        cur[10, 12] = amp
        out = pv.interior_step(pv.ScalarField.zeros(grid), pv.ScalarField(grid, cur), unit)
        assert out.values[10, 12] == pytest.approx((2 - 4 * r2) * amp, rel=1e-14)
        for dk, dl in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            assert out.values[10 + dk, 12 + dl] == pytest.approx(r2 * amp, rel=1e-14)

    def test_walls_use_mirror_ghosts(self, grid, unit):
        rng = np.random.default_rng(10)
        prev = smooth_random_field(grid, rng)
        curr = smooth_random_field(grid, rng)
        out = pv.interior_step(prev, curr, unit).values
        expected = mirror_closed_step(prev.values, curr.values, (grid.dt / grid.dx) ** 2)
        assert np.abs(out - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_fields_on_different_grids_rejected(self, grid, unit):
        other = pv.ScalarField.zeros(pv.Grid2D(17))
        with pytest.raises(GridMismatchError):
            pv.interior_step(other, pv.ScalarField.zeros(grid), unit)

    def test_speed_on_another_grid_rejected(self, grid):
        z = pv.ScalarField.zeros(grid)
        with pytest.raises(GridMismatchError):
            pv.interior_step(z, z, pv.ScalarField.constant(pv.Grid2D(17), 1.0))

    def test_cfl_violation_rejected(self, grid):
        # dt = dx / 2 exceeds the bound dx / (sqrt(2) c) at c = 2
        z = pv.ScalarField.zeros(grid)
        with pytest.raises(pv.StabilityError):
            pv.interior_step(z, z, pv.ScalarField.constant(grid, 2.0))

    def test_nonpositive_speed_rejected(self, grid):
        z = pv.ScalarField.zeros(grid)
        c = np.ones((grid.n, grid.n))
        c[5, 7] = 0.0
        with pytest.raises(ValueError, match="strictly positive"):
            pv.interior_step(z, z, pv.ScalarField(grid, c))

    def test_time_reversibility(self, grid, unit):
        rng = np.random.default_rng(0)
        prev = smooth_random_field(grid, rng)
        curr = smooth_random_field(grid, rng)
        nxt = pv.interior_step(prev, curr, unit)
        back = pv.interior_step(nxt, curr, unit)
        scale = np.abs(prev.values).max()
        assert np.abs(back.values[1:-1, 1:-1] - prev.values[1:-1, 1:-1]).max() <= 1e-12 * scale


class TestDissipativeBoundaryUpdate:
    def test_hand_computed_gamma2_case(self):
        grid = pv.Grid2D(8)  # default dt = dx/2 so gamma = 2 for lambda = 1
        bs = pv.BoundarySpec.full(grid)
        nb = pv.boundary_count(grid.n)
        new = np.zeros((8, 8))
        old = np.zeros((8, 8))
        pos = 3              # bottom-side node (k=3, l=0), on one wall
        new[3, 0] = 0.4      # mirror-closed stencil value of the new level
        old[3, 0] = 0.1      # the same node two levels later
        g_new = np.zeros(nb)
        g_old = np.zeros(nb)
        g_old[pos] = 0.3
        g_new[pos] = 0.6
        # G = (dt/dx)^2 c^2 gamma = 0.25 * 2 = 0.5, so the update gives
        # (0.4 + 0.5 * (0.1 - 0.3 + 0.6)) / (1 + 0.5) = (0.4 + 0.5 * 0.4) / 1.5 = 0.4
        out = pv.dissipative_boundary_update(pv.ScalarField(grid, new),
                                             pv.ScalarField(grid, old),
                                             g_new, g_old, bs,
                                             pv.ScalarField.constant(grid, 1.0))
        assert out[pos] == pytest.approx(0.4, abs=1e-15)

    def test_corner_and_sound_speed_scale_the_absorption(self):
        # dt = dx / 4 meets the CFL bound dx / (2 sqrt(2)) of c = 2
        grid = pv.Grid2D(8, pv.Grid2D(8).dx / 4)
        bs = pv.BoundarySpec.full(grid)
        nb = pv.boundary_count(grid.n)
        new = np.full((8, 8), 0.3)
        old = np.full((8, 8), 0.1)
        g_new = np.full(nb, 0.6)
        g_old = np.full(nb, 0.3)
        args = (pv.ScalarField(grid, new), pv.ScalarField(grid, old), g_new, g_old, bs)
        # w-term 0.1 - 0.3 + 0.6 = 0.4; c = 1: G = (dt/dx) c^2 lambda = 0.25
        # on a side, 0.5 at a corner (one ghost per wall); c = 2 quadruples G
        unit = pv.dissipative_boundary_update(*args)
        fast = pv.dissipative_boundary_update(*args, pv.ScalarField.constant(grid, 2.0))
        assert unit[3] == pytest.approx((0.3 + 0.25 * 0.4) / 1.25, rel=1e-14)
        assert unit[0] == pytest.approx((0.3 + 0.5 * 0.4) / 1.5, rel=1e-14)
        assert fast[3] == pytest.approx((0.3 + 1.0 * 0.4) / 2.0, rel=1e-14)
        assert fast[0] == pytest.approx((0.3 + 2.0 * 0.4) / 3.0, rel=1e-14)

    def test_lambda_zero_degenerates_to_neumann_fill(self, grid, unit):
        bs = pv.BoundarySpec.left_bottom(grid)
        rng = np.random.default_rng(1)
        prev = smooth_random_field(grid, rng)
        curr = smooth_random_field(grid, rng)
        later = smooth_random_field(grid, rng)
        nb = pv.boundary_count(grid.n)
        new = pv.interior_step(prev, curr, unit)
        on = bs.lam > 0
        out = pv.dissipative_boundary_update(new, later, rng.standard_normal(nb) * on,
                                             rng.standard_normal(nb) * on, bs, unit)
        mirror = mirror_closed_step(prev.values, curr.values, (grid.dt / grid.dx) ** 2)
        ks, ls = boundary_indices(grid.n)
        scale = np.abs(mirror).max()
        # on the top row away from corners lambda = 0: the value is the
        # mirror-closed stencil value of the new level
        top = [p for p, (k, l) in enumerate(zip(ks, ls))
               if l == grid.n - 1 and 0 < k < grid.n - 1]
        for p in top:
            assert abs(out[p] - mirror[ks[p], ls[p]]) <= 1e-13 * scale

    def test_inconsistent_arguments_rejected(self, grid):
        bs = pv.BoundarySpec.full(grid)
        level = pv.ScalarField.zeros(grid)
        row = np.zeros(pv.boundary_count(grid.n))
        with pytest.raises(GridMismatchError, match=f"length {row.size}"):
            pv.dissipative_boundary_update(level, level, row[1:], row, bs)
        other = pv.ScalarField.zeros(pv.Grid2D(17))
        with pytest.raises(GridMismatchError, match="different grids"):
            pv.dissipative_boundary_update(level, other, row, row, bs)

    def test_nonpositive_speed_rejected(self, grid):
        bs = pv.BoundarySpec.full(grid)
        level = pv.ScalarField.zeros(grid)
        row = np.zeros(pv.boundary_count(grid.n))
        with pytest.raises(ValueError, match="strictly positive"):
            pv.dissipative_boundary_update(level, level, row, row, bs,
                                           pv.ScalarField.constant(grid, -2.0))

    def test_cfl_violation_rejected(self):
        # at n = 9, dt = 0.5 exceeds the bound dx / sqrt(2) = 0.177 of the
        # unit speed an omitted c stands for, and dt = dx / 2 that of c = 2
        for grid, c in ((pv.Grid2D(9, 0.5), None), (pv.Grid2D(9), 2.0)):
            bs = pv.BoundarySpec.full(grid)
            level = pv.ScalarField.zeros(grid)
            row = np.zeros(pv.boundary_count(grid.n))
            speed = None if c is None else pv.ScalarField.constant(grid, c)
            with pytest.raises(pv.StabilityError):
                pv.dissipative_boundary_update(level, level, row, row, bs, speed)

    def test_steady_state_is_fixed_point(self, grid):
        bs = pv.BoundarySpec.full(grid)
        kappa = 0.7
        nb = pv.boundary_count(grid.n)
        new = pv.ScalarField.constant(grid, kappa)
        old = pv.ScalarField.constant(grid, kappa)
        g = np.full(nb, 0.25)
        out = pv.dissipative_boundary_update(new, old, g, g, bs)
        assert np.allclose(out, kappa, atol=1e-14)


class TestForwardSolve:
    def test_zero_state(self, grid, unit, bs_full):
        res = pv.forward_solve(zero_state(grid), unit, bs_full, 1.0)
        assert np.all(res.trace.samples == 0.0)
        assert np.all(res.final_state.first.values == 0.0)
        assert np.all(res.final_state.second.values == 0.0)

    def test_constant_is_exact_solution(self, grid, unit, bs_full):
        s0 = pv.StatePair(pv.ScalarField.constant(grid, 1.0), pv.ScalarField.zeros(grid))
        res = pv.forward_solve(s0, unit, bs_full, 2.0)
        assert np.abs(res.trace.samples - 1.0).max() <= 1e-13
        assert np.abs(res.final_state.first.values - 1.0).max() <= 1e-13

    def test_cfl_violation_refused(self, grid, bs_full):
        fast = pv.ScalarField.constant(grid, 3.0)
        with pytest.raises(pv.StabilityError):
            pv.forward_solve(zero_state(grid), fast, bs_full, 1.0)

    def test_nonpositive_speed_refused(self, grid, bs_full):
        c = np.ones((grid.n, grid.n))
        c[5, 7] = 0.0
        with pytest.raises(ValueError, match="strictly positive"):
            pv.forward_solve(zero_state(grid), pv.ScalarField(grid, c), bs_full, 1.0)

    def test_trace_is_masked_by_gamma(self, grid, unit):
        bs = pv.BoundarySpec.left_bottom(grid)
        rng = np.random.default_rng(2)
        s0 = pv.StatePair(smooth_random_field(grid, rng), pv.ScalarField.zeros(grid))
        res = pv.forward_solve(s0, unit, bs, 1.0)
        full = pv.forward_solve(s0, unit, pv.BoundarySpec.full(grid), 1.0)
        # Gamma's columns of the full trace, to the bit
        assert res.trace.samples.shape == (full.trace.samples.shape[0], bs.gamma.size)
        assert_same_bits(res.trace.samples, full.trace.samples[:, bs.gamma])
        assert np.abs(res.trace.samples).max() > 0

    def test_linearity(self, grid, unit, bs_full):
        rng = np.random.default_rng(3)
        s1 = smooth_random_state(grid, rng)
        s2 = smooth_random_state(grid, rng)
        a, b = 0.6, -1.7
        combo = pv.StatePair(a * s1.first + b * s2.first, a * s1.second + b * s2.second)
        r1 = pv.forward_solve(s1, unit, bs_full, 1.0)
        r2 = pv.forward_solve(s2, unit, bs_full, 1.0)
        rc = pv.forward_solve(combo, unit, bs_full, 1.0)
        target = a * r1.trace.samples + b * r2.trace.samples
        assert np.abs(rc.trace.samples - target).max() <= 1e-10 * np.abs(target).max()

    def test_terminal_velocity_tracks_single_mode(self, unit, grid, bs_full):
        f = eigenfield(grid, 1, 0)
        lam = 0.5 * np.pi
        T = 1.0
        res = pv.forward_solve(pv.StatePair(f, pv.ScalarField.zeros(grid)), unit, bs_full, T)
        expected = -lam * np.sin(lam * T) * f.values
        err = np.linalg.norm(res.final_state.second.values - expected) / np.linalg.norm(expected)
        assert err <= 0.05

    def test_snapshot_recording(self, grid, unit, bs_full):
        rng = np.random.default_rng(4)
        s0 = pv.StatePair(smooth_random_field(grid, rng), pv.ScalarField.zeros(grid))
        steps = pv.num_steps(1.0, grid.dt)
        snaps = dict.fromkeys(range(10, steps, 10))
        pv.forward_solve(s0, unit, bs_full, 1.0, snapshots=snaps)
        for j, s in snaps.items():
            direct = pv.forward_solve(s0, unit, bs_full, j * grid.dt).final_state
            assert np.array_equal(s.first.values, direct.first.values)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_memory_layout_does_not_change_the_bits(self, layout):
        g = pv.Grid2D(17)
        rng = np.random.default_rng(4)
        s0, c, bs = smooth_random_state(g, rng), varying_speed(g, rng), graded(g)

        def run(state, speed):
            snaps = dict.fromkeys((1, 5, 9))
            res = pv.forward_solve(state, speed, bs, 12 * g.dt, snapshots=snaps)
            return [res.trace.samples, res.final_state.first.values,
                    res.final_state.second.values] + [
                v.values for j in sorted(snaps) for v in (snaps[j].first, snaps[j].second)]

        expected = run(s0, c)
        got = run(pv.StatePair(relaid(s0.first, layout), relaid(s0.second, layout)),
                  relaid(c, layout))
        for a, b in zip(got, expected, strict=True):
            assert_same_bits(a, b)

    def test_snapshot_step_outside_the_march_rejected(self, grid, unit, bs_full):
        s0 = zero_state(grid)
        g = zero_trace(grid, bs_full, 1.0)
        for j in (0, g.n_steps, 2.5):
            with pytest.raises(pv.ConfigError):
                pv.forward_solve(s0, unit, bs_full, 1.0, snapshots={j: None})
            with pytest.raises(pv.ConfigError):
                pv.dissipative_reverse_solve(g, unit, snapshots={j: None})


class TestReverseSolve:
    def test_zero_data_zero_terminal(self, grid, unit, bs_full):
        out = pv.dissipative_reverse_solve(zero_trace(grid, bs_full, 1.0), unit)
        assert np.all(out.first.values == 0.0)
        assert np.all(out.second.values == 0.0)

    def test_free_decay_is_monotone_per_step(self):
        # needs a grid fine enough that the per-step absorption dominates the
        # centered-difference evaluation wiggle of the leapfrog energy
        g = pv.Grid2D(65)
        unit = pv.ScalarField.constant(g, 1.0)
        bs = pv.BoundarySpec.full(g)
        rng = np.random.default_rng(5)
        w = smooth_random_state(g, rng, kmax=7)
        zero = zero_trace(g, bs, 2.0)
        snaps = dict.fromkeys(range(1, zero.n_steps))
        pv.dissipative_reverse_solve(zero, unit, terminal_state=w, snapshots=snaps)
        energies = [pv.energy(s, unit) for _, s in sorted(snaps.items())]
        assert len(energies) > 100
        for earlier, later in zip(energies[:-1], energies[1:]):
            assert earlier <= later * (1.0 + 1e-12)

    def test_free_decay_loses_most_energy(self, grid, unit, bs_full):
        rng = np.random.default_rng(6)
        w = smooth_random_state(grid, rng, kmax=7)
        out = pv.dissipative_reverse_solve(zero_trace(grid, bs_full, 2.0), unit,
                                           terminal_state=w)
        assert pv.energy(out, unit) <= 0.5 * pv.energy(w, unit)

    def test_linearity_in_data(self, grid, unit, bs_full):
        rng = np.random.default_rng(7)
        f1 = smooth_random_field(grid, rng, kmax=6)
        f2 = smooth_random_field(grid, rng, kmax=6)
        g1 = pv.synthesize_data(f1, bs_full, 1.0, grid.dt)
        g2 = pv.synthesize_data(f2, bs_full, 1.0, grid.dt)
        a, b = 1.3, -0.4
        gc = pv.BoundaryTrace(bs_full, a * g1.samples + b * g2.samples)
        r1 = pv.dissipative_reverse_solve(g1, unit)
        r2 = pv.dissipative_reverse_solve(g2, unit)
        rc = pv.dissipative_reverse_solve(gc, unit)
        target = a * r1.first.values + b * r2.first.values
        assert np.abs(rc.first.values - target).max() <= 1e-10 * np.abs(target).max()

    def test_taylor_start_takes_the_absorbing_ghost(self, grid, unit, bs_full):
        # from (0, w1) with zero data the first backward level is -dt w1, times
        # (1 - G) on Gamma, where G = (dt/dx) lambda for each wall through a node
        w1 = smooth_random_field(grid, np.random.default_rng(9))
        zero = zero_trace(grid, bs_full, 1.0)
        snaps = {zero.n_steps - 1: None}
        pv.dissipative_reverse_solve(zero, unit, snapshots=snaps,
                                     terminal_state=pv.StatePair(pv.ScalarField.zeros(grid), w1))
        ks, ls = boundary_indices(grid.n)
        walls = (ks % (grid.n - 1) == 0).astype(float) + (ls % (grid.n - 1) == 0)
        expected = -grid.dt * w1.values
        expected[ks, ls] *= 1.0 - grid.dt / grid.dx * bs_full.lam * walls
        got = snaps[zero.n_steps - 1].first.values
        assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_memory_layout_does_not_change_the_bits(self, layout):
        g = pv.Grid2D(17)
        rng = np.random.default_rng(5)
        c, bs = varying_speed(g, rng), graded(g)
        data = pv.forward_solve(smooth_random_state(g, rng), c, bs, 12 * g.dt).trace
        end = smooth_random_state(g, rng)
        expected = pv.dissipative_reverse_solve(data, c, terminal_state=end)
        got = pv.dissipative_reverse_solve(
            data, relaid(c, layout),
            terminal_state=pv.StatePair(relaid(end.first, layout), relaid(end.second, layout)))
        assert_same_bits(got.first.values, expected.first.values)
        assert_same_bits(got.second.values, expected.second.values)

    def test_short_trace_rejected(self, grid, unit, bs_full):
        # the floor of 3 levels lives in the trace, so no solver meets a
        # shorter one; the shortest trace there is runs
        for levels in (0, 2):
            with pytest.raises(pv.ConfigError, match=f"{levels} time levels"):
                pv.BoundaryTrace(bs_full, np.zeros((levels, pv.boundary_count(grid.n))))
        g = pv.BoundaryTrace(bs_full, np.zeros((3, pv.boundary_count(grid.n))))
        assert np.all(pv.dissipative_reverse_solve(g, unit).first.values == 0.0)

    def test_terminal_state_on_another_grid_rejected(self, grid, unit, bs_full):
        other = zero_state(pv.Grid2D(17))
        with pytest.raises(GridMismatchError, match="terminal state"):
            pv.dissipative_reverse_solve(zero_trace(grid, bs_full, 1.0), unit,
                                         terminal_state=other)

    def test_reversal_of_own_forward_data_recovers_phantom(
            self, grid257, phantom257, unit_speed257, bspec_full257, forward_t5_recorded):
        # with data produced by the forward solver itself, one backward pass
        # at T = 5 already lands within about 1% of the initial pressure
        fwd, _ = forward_t5_recorded
        back = pv.dissipative_reverse_solve(fwd.trace, unit_speed257)
        est = pv.project_H1(back).first
        assert pv.relative_l2(est, phantom257) <= 0.011

    def test_error_field_obeys_free_decay(self, grid, unit, bs_full):
        # data produced by the forward solver itself: u - v then follows the
        # homogeneous absorbing dynamics, so its energy decays backward in time
        rng = np.random.default_rng(8)
        f = smooth_random_field(grid, rng, kmax=6)
        s0 = pv.StatePair(f, pv.ScalarField.zeros(grid))
        u = dict.fromkeys(range(16, pv.num_steps(2.0, grid.dt), 16))
        fwd = pv.forward_solve(s0, unit, bs_full, 2.0, snapshots=u)
        vsnaps = dict.fromkeys(u)
        pv.dissipative_reverse_solve(fwd.trace, unit, snapshots=vsnaps)
        pairs = sorted((j, pv.energy(u[j] - v, unit)) for j, v in vsnaps.items())
        for (_, earlier), (_, later) in zip(pairs[:-1], pairs[1:]):
            assert earlier <= later * (1.0 + 1e-3)


class TestReversalError:
    """reverse_own_trace, v(., 0) of time reversal on the forward solve's own
    trace, and its error e^0 = f - v(., 0)."""

    APERTURES = {
        "full": pv.BoundarySpec.full,
        "left_bottom": pv.BoundarySpec.left_bottom,
        "tapered": graded,
    }

    @pytest.mark.parametrize("n", [33, 65])
    @pytest.mark.parametrize("dt_factor", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("speed", [1.0, 0.8])
    @pytest.mark.parametrize("aperture", ["full", "left_bottom", "tapered"])
    def test_gives_the_nodal_operator_at_every_node(self, n, dt_factor, speed, aperture):
        # with the forward solve's own trace as data the backward error obeys
        # the absorbing update with zero data, so P(u - e^0) is P A L u; a
        # rough field excites every mode, wall and corner nodes included.
        # c is constant, so reverse_own_trace takes its eigenbasis branch
        grid = pv.Grid2D(n, dt_factor * pv.Grid2D(n).dx)
        bs = self.APERTURES[aperture](grid)
        c = pv.ScalarField.constant(grid, speed)
        f = pv.ScalarField(grid, np.random.default_rng(n).standard_normal((n, n)))
        T = 150 * grid.dt
        fwd = pv.forward_solve(pv.StatePair(f, pv.ScalarField.zeros(grid)), c, bs, T)
        want = pv.project_H1(pv.dissipative_reverse_solve(fwd.trace, c)).first.values
        v0 = pv.reverse_own_trace(f, c, bs, T)
        got = pv.project_H1(pv.StatePair(v0, pv.ScalarField.zeros(grid))).first.values
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("aperture", ["full", "tapered"])
    def test_equals_the_error_march_of_the_public_steps(self, aperture):
        # the nodal test above runs the same absorbing march on both sides; this
        # one builds the error march from interior_step and
        # dissipative_boundary_update with zero data, from e^J = u^J and the
        # Taylor start's absorbing ghost e^{J-1} = u^{J-1} + G (u^J - u^{J-1})
        grid = pv.Grid2D(17)
        bs = self.APERTURES[aperture](grid)
        speed = 0.8
        c = pv.ScalarField.constant(grid, speed)
        f = smooth_random_field(grid, np.random.default_rng(11))
        T = 20 * grid.dt
        before, later = pv.leapfrog_levels(f, c, T)
        ks, ls = boundary_indices(grid.n)
        walls = (ks % (grid.n - 1) == 0).astype(float) + (ls % (grid.n - 1) == 0)
        G = grid.dt / grid.dx * speed ** 2 * bs.lam * walls
        cur = before.copy()
        cur.values[ks, ls] += G * (later.values[ks, ls] - before.values[ks, ls])
        zero = np.zeros(pv.boundary_count(grid.n))
        for _ in range(pv.num_steps(T, grid.dt) - 1):
            new = pv.interior_step(later, cur, c)
            new.values[ks, ls] = pv.dissipative_boundary_update(new, later, zero, zero, bs, c)
            later, cur = cur, new
        got = (f - pv.reverse_own_trace(f, c, bs, T)).values
        assert np.abs(got - cur.values).max() <= 1e-13 * np.abs(cur.values).max()

    @pytest.mark.parametrize("aperture", ["full", "left_bottom", "tapered"])
    def test_variable_speed_runs_the_trace_composition(self, aperture):
        # any c that is not constant goes through the forward solve's trace,
        # the same operations to the bit
        grid = pv.Grid2D(33)
        rng = np.random.default_rng(12)
        c, bs = varying_speed(grid, rng), self.APERTURES[aperture](grid)
        f = smooth_random_field(grid, rng)
        T = 60 * grid.dt
        trace = pv.forward_solve(pv.StatePair(f, pv.ScalarField.zeros(grid)), c, bs, T).trace
        want = pv.dissipative_reverse_solve(trace, c).first.values
        assert_same_bits(pv.reverse_own_trace(f, c, bs, T).values, want)

    def test_field_is_not_modified(self, grid, unit, bs_full):
        f = smooth_random_field(grid, np.random.default_rng(10))
        kept = f.values.copy()
        pv.reverse_own_trace(f, unit, bs_full, 1.0)
        assert np.array_equal(f.values, kept)

    def test_short_time_rejected(self, grid, unit, bs_full):
        with pytest.raises(pv.ConfigError):
            pv.reverse_own_trace(pv.ScalarField.zeros(grid), unit, bs_full, grid.dt)

    def test_field_on_another_grid_rejected(self, grid, unit, bs_full):
        other = pv.ScalarField.zeros(pv.Grid2D(17))
        with pytest.raises(GridMismatchError):
            pv.reverse_own_trace(other, unit, bs_full, 1.0)


def march_setup(n, speed, aperture):
    """Grid, sound speed and boundary spec of one reference-march case."""
    dx = pv.Grid2D(n).dx
    grid = pv.Grid2D(n, 0.3 * dx if speed == "unit_dt0.3dx" else 0.5 * dx)
    if speed == "smooth":
        x = grid.coords()
        r2 = (x[:, None] - 0.2) ** 2 + (x[None, :] + 0.1) ** 2
        c = pv.ScalarField(grid, 1.0 + 0.25 * np.exp(-r2 / 0.3))
    else:
        c = pv.ScalarField.constant(grid, 1.0)
    if aperture == "node_list":
        bs = pv.BoundarySpec.from_node_list(grid, range(0, pv.boundary_count(n), 3))
    else:
        bs = {"full": pv.BoundarySpec.full, "left_bottom": pv.BoundarySpec.left_bottom,
              "graded": graded}[aperture](grid)
    return grid, c, bs


MARCH_APERTURES = pytest.mark.parametrize("aperture",
                                          ["full", "left_bottom", "node_list", "graded"])
MARCH_SPEEDS = pytest.mark.parametrize("speed", ["unit_dt0.5dx", "unit_dt0.3dx", "smooth"])
MARCH_SIZES = pytest.mark.parametrize("n", [17, 33])


@pytest.mark.usefixtures("kernel")
class TestAgainstTheReferenceMarch:
    """Every output of the marches equals, bit for bit, the plain four-level
    march of tests/helpers.py, whatever buffers the solvers reuse, on the
    compiled step and on the numpy one."""

    STEPS = 24

    @MARCH_SIZES
    @MARCH_SPEEDS
    @MARCH_APERTURES
    def test_forward_solve(self, n, speed, aperture):
        grid, c, bs = march_setup(n, speed, aperture)
        s0 = smooth_random_state(grid, np.random.default_rng(n))
        T = self.STEPS * grid.dt
        snaps = dict.fromkeys((5, self.STEPS - 1))
        res = pv.forward_solve(s0, c, bs, T, snapshots=snaps)
        rows, (u, ut), states = reference_forward(s0, c, bs, T, snaps)
        assert_same_bits(res.trace.samples, rows)
        assert_same_bits(res.final_state.first.values, u)
        assert_same_bits(res.final_state.second.values, ut)
        for j, (uj, utj) in states.items():
            assert_same_bits(snaps[j].first.values, uj)
            assert_same_bits(snaps[j].second.values, utj)

    @MARCH_SIZES
    @MARCH_SPEEDS
    @MARCH_APERTURES
    @pytest.mark.parametrize("terminal", ["zero", "nonzero"])
    def test_dissipative_reverse_solve(self, n, speed, aperture, terminal):
        grid, c, bs = march_setup(n, speed, aperture)
        rng = np.random.default_rng(n)
        T = self.STEPS * grid.dt
        data = pv.forward_solve(smooth_random_state(grid, rng), c, bs, T).trace
        end = None if terminal == "zero" else smooth_random_state(grid, rng)
        snaps = dict.fromkeys((2, self.STEPS - 1))
        out = pv.dissipative_reverse_solve(data, c, terminal_state=end, snapshots=snaps)
        (v, vt), states = reference_reverse(data.samples, c, bs, end, snaps)
        assert_same_bits(out.first.values, v)
        assert_same_bits(out.second.values, vt)
        for j, (vj, vtj) in states.items():
            assert_same_bits(snaps[j].first.values, vj)
            assert_same_bits(snaps[j].second.values, vtj)

    @MARCH_SIZES
    @MARCH_SPEEDS
    @MARCH_APERTURES
    def test_reverse_own_trace(self, n, speed, aperture):
        grid, c, bs = march_setup(n, speed, aperture)
        f = smooth_random_field(grid, np.random.default_rng(n))
        T = self.STEPS * grid.dt
        assert_same_bits(pv.reverse_own_trace(f, c, bs, T).values,
                         reference_own_trace(f, c, bs, T))


class TestKernelLoading:
    """The compiled step is built on first use into a cache; where it cannot
    be built the marches keep the numpy step, silently and to the bit."""

    def case(self):
        grid, c, bs = march_setup(17, "smooth", "left_bottom")
        s0 = smooth_random_state(grid, np.random.default_rng(5))
        return s0, c, bs, 24 * grid.dt

    def test_a_failing_compiler_leaves_the_numpy_step(self, tmp_path, monkeypatch, capfd):
        cache = tmp_path / "cache"
        monkeypatch.setenv("CC", "false")
        monkeypatch.setattr(_native, "CACHE", cache)
        monkeypatch.setattr(fdtd, "_compiled", None)
        s0, c, bs, T = self.case()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = pv.forward_solve(s0, c, bs, T)
        assert fdtd.step_kernel() == "numpy"
        assert capfd.readouterr() == ("", "")
        assert list(cache.iterdir()) == []  # the failed build leaves no file
        rows, (u, ut), _ = reference_forward(s0, c, bs, T, {})
        assert_same_bits(res.trace.samples, rows)
        assert_same_bits(res.final_state.first.values, u)
        assert_same_bits(res.final_state.second.values, ut)

    def test_a_cache_that_cannot_be_made_leaves_the_numpy_step(self, tmp_path, monkeypatch):
        blocker = tmp_path / "file"
        blocker.write_text("")
        monkeypatch.setattr(_native, "CACHE", blocker / "cache")
        monkeypatch.setattr(fdtd, "_compiled", None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fdtd.step_kernel() == "numpy"

    def test_the_compiled_step_refuses_arrays_it_cannot_walk(self, monkeypatch):
        # the C loop reads n x n C-ordered float64 memory: anything else is
        # refused before a pointer is passed
        step = _native.load()
        if step is None:
            pytest.skip("no C compiler here builds _leapfrog.c")
        monkeypatch.setattr(fdtd, "_compiled", step)
        advance = fdtd._stepper(0.25, 1.0, np.zeros((5, 5)))
        for out in (np.zeros((5, 5), order="F"), np.zeros((5, 4)), np.zeros((5, 5), np.float32)):
            with pytest.raises(ValueError, match="C-ordered float"):
                advance(out, np.ones((5, 5)), out)

    def test_the_build_is_cached_and_reused(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        monkeypatch.setattr(_native, "CACHE", cache)
        if _native.load() is None:
            pytest.skip("no C compiler here builds _leapfrog.c")
        built = list(cache.iterdir())
        assert len(built) == 1
        tag = f"{sys.implementation.cache_tag}-{platform.machine()}"
        assert built[0].name.startswith(f"_leapfrog.{tag}-")
        # a cached library is loaded without the compiler
        monkeypatch.setenv("CC", "false")
        assert _native.load() is not None
        assert list(cache.iterdir()) == built


def traced_peak(fn, *args) -> int:
    """Peak bytes fn allocates while it runs, its result included, above
    what is live when it starts."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMarchMemory:
    """A march holds three n x n buffers (two levels and a scratch), and
    s u^{L-2} once for the end velocity; at variable c also the per-node
    coefficient and centre.  The
    bounds, in n x n arrays at n = 129, are set from measurement: the
    backward solve from (0, 0) read 4.27 at constant and 6.27 at variable c
    (10.05 and 12.05 with four rotating levels and a full-size start)."""

    N = 129

    def case(self, speed):
        grid = pv.Grid2D(self.N)
        if speed == "variable":
            x = grid.coords()
            r2 = x[:, None] ** 2 + x[None, :] ** 2
            c = pv.ScalarField(grid, 1.0 + 0.25 * np.exp(-r2 / 0.3))
        else:
            c = pv.ScalarField.constant(grid, 1.0)
        return grid, c, pv.BoundarySpec.left_bottom(grid), pv.paper_six_phantom(grid)

    @pytest.mark.parametrize("speed, bound", [("constant", 4.5), ("variable", 6.5)])
    def test_reverse_solve_from_zero(self, speed, bound):
        grid, c, bs, f = self.case(speed)
        trace = pv.forward_solve(pv.StatePair(f, pv.ScalarField.zeros(grid)), c, bs, 1.0).trace
        peak = traced_peak(pv.dissipative_reverse_solve, trace, c)
        assert peak < bound * f.values.nbytes

    # at constant c the peak is leapfrog_levels' transforms (11.95 arrays
    # with whole-array DCTs, 9.95 in blocks); at variable c it is the
    # forward solve beside its trace (13.05 beyond it with four levels,
    # 8.18 with three, 7.18 once reverse_own_trace frees its own
    # coefficient before the solves)
    @pytest.mark.parametrize("speed, bound", [("constant", 10.5), ("variable", 7.5)])
    def test_reverse_own_trace(self, speed, bound):
        grid, c, bs, f = self.case(speed)
        T = 1.0
        levels = pv.num_steps(T, grid.dt) + 1
        trace = 0 if speed == "constant" else levels * bs.gamma.size * 8
        peak = traced_peak(pv.reverse_own_trace, f, c, bs, T)
        assert peak - trace < bound * f.values.nbytes
