"""Leapfrog stepping, boundary updates, and the two solvers."""

import numpy as np
import pytest

import pacavity as pv
from pacavity.core import GridMismatchError, boundary_indices, corner_positions

from helpers import eigenfield, smooth_random_field, smooth_random_state


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
    samples = np.zeros((steps + 1, pv.boundary_count(grid.n)))
    return pv.BoundaryTrace(grid, grid.dt, samples, gamma_mask=bspec.gamma_mask)


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
        assert bs.gamma_mask.sum() == 2 * n - 1
        for pos, (k, l) in enumerate(zip(ks, ls)):
            assert bs.gamma_mask[pos] == (l == 0 or k == 0)

    def test_lambda_positive_exactly_on_gamma(self, grid):
        bs = pv.BoundarySpec.left_bottom(grid, lambda_value=2.5)
        assert np.array_equal(bs.lam > 0, bs.gamma_mask)
        with pytest.raises(ValueError):
            pv.BoundarySpec(grid, bs.gamma_mask, np.ones_like(bs.lam))

    def test_taper_keeps_lambda_positive_on_gamma(self, grid):
        bs = pv.BoundarySpec.left_bottom(grid, taper=0.3)
        assert np.array_equal(bs.lam > 0, bs.gamma_mask)
        assert bs.lam.max() <= 1.0


class TestBoundaryTrace:
    def test_wrong_column_count(self, grid):
        with pytest.raises(GridMismatchError):
            pv.BoundaryTrace(grid, grid.dt, np.zeros((4, 7)))

    def test_off_gamma_zeroed_on_construction(self, grid):
        bs = pv.BoundarySpec.left_bottom(grid)
        samples = np.ones((3, pv.boundary_count(grid.n)))
        g = pv.BoundaryTrace(grid, grid.dt, samples, gamma_mask=bs.gamma_mask)
        assert np.all(g.samples[:, ~bs.gamma_mask] == 0.0)
        assert np.all(g.samples[:, bs.gamma_mask] == 1.0)
        assert np.all(samples == 1.0)

    def test_masked_samples_kept_without_copy(self, grid):
        bs = pv.BoundarySpec.left_bottom(grid)
        samples = np.ones((3, pv.boundary_count(grid.n))) * bs.gamma_mask
        g = pv.BoundaryTrace(grid, grid.dt, samples, gamma_mask=bs.gamma_mask)
        assert np.shares_memory(g.samples, samples)

    def test_times(self, grid):
        g = zero_trace(grid, pv.BoundarySpec.full(grid), 20 * grid.dt)
        assert g.n_steps == 20
        assert np.allclose(g.times, grid.dt * np.arange(21))


def mirror_closed_step(prev, curr, r2):
    """Leapfrog level at every node, the walls closed by mirror ghosts u_{-1} = u_1."""
    p = np.pad(curr, 1, mode="reflect")
    lap = p[2:, 1:-1] + p[:-2, 1:-1] + p[1:-1, 2:] + p[1:-1, :-2] - 4.0 * curr
    return 2.0 * curr - prev + r2 * lap


class TestInteriorStep:
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
        grid = pv.Grid2D(8)
        bs = pv.BoundarySpec.full(grid)
        nb = pv.boundary_count(grid.n)
        new = np.full((8, 8), 0.3)
        old = np.full((8, 8), 0.1)
        g_new = np.full(nb, 0.6)
        g_old = np.full(nb, 0.3)
        args = (pv.ScalarField(grid, new), pv.ScalarField(grid, old), g_new, g_old, bs)
        # w-term 0.1 - 0.3 + 0.6 = 0.4; c = 1: G = 0.5 on a side, 1.0 at a
        # corner (one ghost per wall); c = 2 quadruples G
        unit = pv.dissipative_boundary_update(*args)
        fast = pv.dissipative_boundary_update(*args, pv.ScalarField.constant(grid, 2.0))
        assert unit[3] == pytest.approx((0.3 + 0.5 * 0.4) / 1.5, rel=1e-14)
        assert unit[0] == pytest.approx((0.3 + 1.0 * 0.4) / 2.0, rel=1e-14)
        assert fast[3] == pytest.approx((0.3 + 2.0 * 0.4) / 3.0, rel=1e-14)
        assert fast[0] == pytest.approx((0.3 + 4.0 * 0.4) / 5.0, rel=1e-14)

    def test_lambda_zero_degenerates_to_neumann_fill(self, grid, unit):
        bs = pv.BoundarySpec.left_bottom(grid)
        rng = np.random.default_rng(1)
        prev = smooth_random_field(grid, rng)
        curr = smooth_random_field(grid, rng)
        later = smooth_random_field(grid, rng)
        nb = pv.boundary_count(grid.n)
        new = pv.interior_step(prev, curr, unit)
        out = pv.dissipative_boundary_update(new, later, rng.standard_normal(nb) * bs.gamma_mask,
                                             rng.standard_normal(nb) * bs.gamma_mask, bs, unit)
        mirror = mirror_closed_step(prev.values, curr.values, (grid.dt / grid.dx) ** 2)
        ks, ls = boundary_indices(grid.n)
        scale = np.abs(mirror).max()
        # on the top row away from corners lambda = 0: the value is the
        # mirror-closed stencil value of the new level
        top = [p for p, (k, l) in enumerate(zip(ks, ls))
               if l == grid.n - 1 and 0 < k < grid.n - 1]
        for p in top:
            assert abs(out[p] - mirror[ks[p], ls[p]]) <= 1e-13 * scale

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
        res = pv.forward_solve(pv.StatePair.zeros(grid), unit, bs_full, 1.0)
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
            pv.forward_solve(pv.StatePair.zeros(grid), fast, bs_full, 1.0)

    def test_trace_is_masked_by_gamma(self, grid, unit):
        bs = pv.BoundarySpec.left_bottom(grid)
        rng = np.random.default_rng(2)
        s0 = pv.StatePair(smooth_random_field(grid, rng), pv.ScalarField.zeros(grid))
        res = pv.forward_solve(s0, unit, bs, 1.0)
        assert np.all(res.trace.samples[:, ~bs.gamma_mask] == 0.0)
        assert np.abs(res.trace.samples[:, bs.gamma_mask]).max() > 0

    def test_linearity(self, grid, unit, bs_full):
        rng = np.random.default_rng(3)
        s1 = smooth_random_state(grid, rng)
        s2 = smooth_random_state(grid, rng)
        a, b = 0.6, -1.7
        combo = a * s1 + b * s2
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

    def test_snapshot_step_outside_the_march_rejected(self, grid, unit, bs_full):
        s0 = pv.StatePair.zeros(grid)
        g = zero_trace(grid, bs_full, 1.0)
        for j in (0, g.n_steps, 2.5):
            with pytest.raises(pv.ConfigError):
                pv.forward_solve(s0, unit, bs_full, 1.0, snapshots={j: None})
            with pytest.raises(pv.ConfigError):
                pv.dissipative_reverse_solve(g, unit, bs_full, snapshots={j: None})


class TestReverseSolve:
    def test_zero_data_zero_terminal(self, grid, unit, bs_full):
        out = pv.dissipative_reverse_solve(zero_trace(grid, bs_full, 1.0), unit, bs_full)
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
        pv.dissipative_reverse_solve(zero, unit, bs, terminal_state=w, snapshots=snaps)
        energies = [pv.energy(s, unit) for _, s in sorted(snaps.items())]
        assert len(energies) > 100
        for earlier, later in zip(energies[:-1], energies[1:]):
            assert earlier <= later * (1.0 + 1e-12)

    def test_free_decay_loses_most_energy(self, grid, unit, bs_full):
        rng = np.random.default_rng(6)
        w = smooth_random_state(grid, rng, kmax=7)
        out = pv.dissipative_reverse_solve(zero_trace(grid, bs_full, 2.0), unit, bs_full,
                                           terminal_state=w)
        assert pv.energy(out, unit) <= 0.5 * pv.energy(w, unit)

    def test_linearity_in_data(self, grid, unit, bs_full):
        rng = np.random.default_rng(7)
        f1 = smooth_random_field(grid, rng, kmax=6)
        f2 = smooth_random_field(grid, rng, kmax=6)
        g1 = pv.synthesize_data(f1, bs_full, 1.0, grid.dt)
        g2 = pv.synthesize_data(f2, bs_full, 1.0, grid.dt)
        a, b = 1.3, -0.4
        gc = pv.BoundaryTrace(grid, grid.dt, a * g1.samples + b * g2.samples,
                              gamma_mask=bs_full.gamma_mask)
        r1 = pv.dissipative_reverse_solve(g1, unit, bs_full)
        r2 = pv.dissipative_reverse_solve(g2, unit, bs_full)
        rc = pv.dissipative_reverse_solve(gc, unit, bs_full)
        target = a * r1.first.values + b * r2.first.values
        assert np.abs(rc.first.values - target).max() <= 1e-10 * np.abs(target).max()

    def test_taylor_start_takes_the_absorbing_ghost(self, grid, unit, bs_full):
        # from (0, w1) with zero data the first backward level is -dt w1, times
        # (1 - G) on Gamma, where G = (dt/dx) lambda for each wall through a node
        w1 = smooth_random_field(grid, np.random.default_rng(9))
        zero = zero_trace(grid, bs_full, 1.0)
        snaps = {zero.n_steps - 1: None}
        pv.dissipative_reverse_solve(zero, unit, bs_full, snapshots=snaps,
                                     terminal_state=pv.StatePair(pv.ScalarField.zeros(grid), w1))
        walls = np.ones(pv.boundary_count(grid.n))
        walls[list(corner_positions(grid.n))] = 2.0
        expected = -grid.dt * w1.values
        expected[boundary_indices(grid.n)] *= 1.0 - grid.dt / grid.dx * bs_full.lam * walls
        got = snaps[zero.n_steps - 1].first.values
        assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()

    def test_short_trace_rejected(self, grid, unit, bs_full):
        samples = np.zeros((2, pv.boundary_count(grid.n)))
        g = pv.BoundaryTrace(grid, grid.dt, samples)
        with pytest.raises(pv.ConfigError):
            pv.dissipative_reverse_solve(g, unit, bs_full)

    def test_reversal_of_own_forward_data_recovers_phantom(
            self, grid257, phantom257, unit_speed257, bspec_full257, forward_t5_recorded):
        # with data produced by the forward solver itself, one backward pass
        # at T = 5 already lands within about 1% of the initial pressure
        fwd, _ = forward_t5_recorded
        back = pv.dissipative_reverse_solve(fwd.trace, unit_speed257, bspec_full257)
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
        pv.dissipative_reverse_solve(fwd.trace, unit, bs_full, snapshots=vsnaps)
        pairs = sorted((j, pv.energy(u[j] - v, unit)) for j, v in vsnaps.items())
        for (_, earlier), (_, later) in zip(pairs[:-1], pairs[1:]):
            assert earlier <= later * (1.0 + 1e-3)
