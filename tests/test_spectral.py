"""Cosine transform exactness and the series propagator."""

import tracemalloc

import numpy as np
import pytest

import pacavity as pv
from pacavity.spectral import _dct1, _trace_from_walls, mode_frequencies

from helpers import (boundary_values, eigenfield, leapfrog_trace, smooth_random_field,
                     spectral_energy, spectral_propagate, spectral_velocity)


@pytest.fixture
def grid():
    return pv.Grid2D(33)


class TestTransform:
    def test_constant_maps_to_dc_mode(self, grid):
        c = pv.dct2_forward(pv.ScalarField.constant(grid, 1.0))
        assert c[0, 0] == pytest.approx(1.0, abs=1e-12)
        rest = c.copy()
        rest[0, 0] = 0.0
        assert np.abs(rest).max() <= 1e-12

    def test_single_eigenfunction(self, grid):
        c = pv.dct2_forward(eigenfield(grid, 2, 3))
        assert c[2, 3] == pytest.approx(1.0, abs=1e-12)
        rest = c.copy()
        rest[2, 3] = 0.0
        assert np.abs(rest).max() <= 1e-12

    def test_round_trip_identity(self, grid):
        rng = np.random.default_rng(0)
        for _ in range(100):
            f = pv.ScalarField(grid, rng.standard_normal((grid.n, grid.n)))
            coeffs = pv.dct2_forward(f)
            back = pv.dct2_inverse(grid, coeffs)
            assert np.abs(back.values - f.values).max() <= 1e-12 * np.abs(f.values).max()
        # C order, so that reshape(-1) is a view through which the solvers write
        assert coeffs.flags.c_contiguous and back.values.flags.c_contiguous

    def test_inverse_of_zero_and_dc(self, grid):
        z = pv.dct2_inverse(grid, np.zeros((grid.n, grid.n)))
        assert np.all(z.values == 0.0)
        dc = np.zeros((grid.n, grid.n))
        dc[0, 0] = 1.0
        one = pv.dct2_inverse(grid, dc)
        assert np.allclose(one.values, 1.0, atol=1e-13)

    def test_inverse_refuses_coefficients_of_another_shape(self, grid):
        n = grid.n
        for shape in ((n, n - 1), (n + 1, n + 1), (n * n,), (1, n, n)):
            with pytest.raises(pv.GridMismatchError, match="coefficient shape"):
                pv.dct2_inverse(grid, np.zeros(shape))

    def test_against_weighted_projection_oracle(self, grid):
        # brute force: project onto every sampled eigenfunction with the
        # trapezoid weights under which the sampled modes are orthogonal
        rng = np.random.default_rng(1)
        f = smooth_random_field(grid, rng, kmax=grid.n - 1)
        n = grid.n
        w = np.full(n, 1.0)
        w[0] = 0.5
        w[-1] = 0.5
        xb = 0.5 * np.pi * (grid.coords() + 1.0)
        oracle = np.empty((n, n))
        for k in range(n):
            for l in range(n):
                phi = np.outer(np.cos(k * xb), np.cos(l * xb))
                num = np.sum(np.outer(w, w) * phi * f.values)
                den = np.sum(np.outer(w, w) * phi * phi)
                oracle[k, l] = num / den
        mine = pv.dct2_forward(f)
        assert np.abs(mine - oracle).max() <= 1e-10 * np.abs(oracle).max()


@pytest.mark.parametrize("n", [4, 5, 33, 257])
def test_dct1_blocks_do_not_change_the_bits(n):
    # 300 rows span several of _dct1's blocks from n = 33 on; the
    # transposed input is the strided one that _dct2 hands it
    x = np.random.default_rng(n).standard_normal((n, 300)).T
    whole = np.fft.rfft(np.concatenate([x, x[:, -2:0:-1]], axis=1)).real
    got = _dct1(x)
    assert got.flags.c_contiguous
    assert got.tobytes() == np.ascontiguousarray(whole).tobytes()


@pytest.mark.parametrize("n", [4, 5, 33, 257])
class TestAgainstScipyFft:
    # the DCT-I is the real FFT of the even extension, as pocketfft computes
    # it; another numpy and scipy may vendor another pocketfft, so the
    # agreement asked for is to rounding, not bit for bit
    def test_dct2_forward(self, n):
        fft = pytest.importorskip("scipy.fft")
        grid = pv.Grid2D(n)
        f = smooth_random_field(grid, np.random.default_rng(n), kmax=n - 1)
        w = 0.5 * grid.quad_weights()
        expected = fft.dctn(f.values, type=1) * np.outer(w, w)
        got = pv.dct2_forward(f)
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_dct2_inverse(self, n):
        fft = pytest.importorskip("scipy.fft")
        grid = pv.Grid2D(n)
        coeffs = np.random.default_rng(n).standard_normal((n, n))
        h = grid.dx / (2.0 * grid.quad_weights())
        expected = fft.dctn(coeffs * np.outer(h, h), type=1)
        got = pv.dct2_inverse(grid, coeffs).values
        assert got.flags.c_contiguous
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_batched_wall_transform(self, n):
        # 70 levels span several of the transform's blocks at n = 257; the
        # corners come from the bottom and top walls
        fft = pytest.importorskip("scipy.fft")
        grid = pv.Grid2D(n)
        bs = pv.BoundarySpec.left_bottom(grid)
        walls = np.random.default_rng(n).standard_normal((70, 4, n))
        halved = walls.copy()
        halved[..., 1:-1] *= 0.5
        bottom, top, left, right = fft.dct(halved, type=1, axis=-1).transpose(1, 0, 2)
        ks, ls = pv.boundary_indices(n)
        expected = np.where(ls == 0, bottom[:, ks], np.where(
            ls == n - 1, top[:, ks], np.where(ks == 0, left[:, ls], right[:, ls])))
        expected = expected[:, bs.gamma]
        got = _trace_from_walls(walls, bs).samples
        assert got.shape == expected.shape
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


class TestPropagate:
    def test_time_zero_is_identity(self, grid):
        rng = np.random.default_rng(2)
        f = smooth_random_field(grid, rng)
        c = pv.dct2_forward(f)
        u0 = spectral_propagate(grid, c, 0.0)
        assert np.abs(u0.values - f.values).max() <= 1e-12 * np.abs(f.values).max()

    def test_single_mode_phase(self, grid):
        phi = eigenfield(grid, 1, 0)
        c = pv.dct2_forward(phi)
        lam = 0.5 * np.pi
        for t in (0.3, 1.0, 2.0):
            u = spectral_propagate(grid, c, t)
            assert np.allclose(u.values, np.cos(lam * t) * phi.values, atol=1e-12)
        u2 = spectral_propagate(grid, c, 2.0)
        assert np.allclose(u2.values, -phi.values, atol=1e-12)

    def test_energy_conserved_mode_wise(self, grid):
        # transform the propagated state back and assemble the quadratic
        # form mode by mode; cos^2 + sin^2 keeps it constant in time
        rng = np.random.default_rng(3)
        f = smooth_random_field(grid, rng, kmax=8)
        c = pv.dct2_forward(f)
        lam = mode_frequencies(grid)
        wmode = np.ones(grid.n)
        wmode[0] = 2.0
        wmode[-1] = 2.0
        W = np.outer(wmode, wmode)

        def series_energy(t):
            cu = pv.dct2_forward(spectral_propagate(grid, c, t))
            cv = pv.dct2_forward(spectral_velocity(grid, c, t))
            return float(np.sum(W * ((lam * cu) ** 2 + cv**2)))

        e0 = series_energy(0.0)
        for t in (0.5, 1.25, 3.0):
            assert series_energy(t) == pytest.approx(e0, rel=1e-8)

    def test_discrete_energy_matches_series_energy(self):
        # the finite-difference energy of the sampled series solution agrees
        # with the conserved mode-wise energy to second order in dx
        g = pv.Grid2D(65)
        rng = np.random.default_rng(4)
        f = smooth_random_field(g, rng, kmax=7)
        c = pv.dct2_forward(f)
        e_series = spectral_energy(g, c)
        unit = pv.ScalarField.constant(g, 1.0)
        for t in (0.0, 0.7):
            state = pv.StatePair(spectral_propagate(g, c, t), spectral_velocity(g, c, t))
            assert pv.energy(state, unit) == pytest.approx(e_series, rel=0.05)

    def test_even_time_extension_composition(self, grid):
        # re-expanding the position snapshot at t1 and propagating by t2
        # yields the even extension [u(t1+t2) + u(t1-t2)] / 2
        rng = np.random.default_rng(5)
        f = smooth_random_field(grid, rng, kmax=6)
        c = pv.dct2_forward(f)
        t1, t2 = 0.8, 0.45
        comp = spectral_propagate(grid, pv.dct2_forward(spectral_propagate(grid, c, t1)), t2)
        target = 0.5 * (spectral_propagate(grid, c, t1 + t2).values
                        + spectral_propagate(grid, c, t1 - t2).values)
        assert np.abs(comp.values - target).max() <= 1e-10 * np.abs(target).max()

    def test_cosine_parity_in_time(self, grid):
        rng = np.random.default_rng(6)
        f = smooth_random_field(grid, rng, kmax=6)
        c = pv.dct2_forward(f)
        lam = mode_frequencies(grid)
        t = 0.9
        forward = spectral_propagate(grid, c, t).values
        mirrored = pv.dct2_inverse(grid, c * np.cos(-lam * t)).values
        assert np.array_equal(forward, mirrored)


class TestSynthesize:
    def test_zero_field_gives_zero_trace(self, grid):
        bs = pv.BoundarySpec.full(grid)
        g = pv.synthesize_data(pv.ScalarField.zeros(grid), bs, 1.0, grid.dt)
        assert np.all(g.samples == 0.0)

    def test_first_row_is_initial_restriction(self, grid):
        bs = pv.BoundarySpec.left_bottom(grid)
        rng = np.random.default_rng(7)
        f = smooth_random_field(grid, rng)
        g = pv.synthesize_data(f, bs, 1.0, grid.dt)
        expected = boundary_values(f)[bs.gamma]
        assert np.allclose(g.samples[0], expected, atol=1e-12)

    def test_corner_time_series_is_analytic(self, grid):
        bs = pv.BoundarySpec.full(grid)
        f = eigenfield(grid, 1, 1)
        g = pv.synthesize_data(f, bs, 1.5, grid.dt)
        lam = 0.5 * np.pi * np.sqrt(2.0)
        expected = np.cos(lam * g.times)  # phi_{1,1}(-1,-1) = 1, node index 0
        assert np.allclose(g.samples[:, 0], expected, atol=1e-10)

    @pytest.mark.parametrize("n, T", [(33, 5.0), (65, 20.0)])
    @pytest.mark.parametrize("aperture", ["full", "left_bottom"])
    def test_matches_full_field_series_at_every_step(self, n, T, aperture):
        # the wall-only synthesis agrees with the boundary of the full-field
        # series solution; T = 20 at n = 65 is 1280 steps of one recurrence on
        # a field with energy in every mode, at phases lam_kl dt up to
        # pi / sqrt(2): above pi / 2 the difference form is less accurate
        # than at the low phases it is built for
        grid = pv.Grid2D(n)
        bs = getattr(pv.BoundarySpec, aperture)(grid)
        f = smooth_random_field(grid, np.random.default_rng(8), kmax=n - 1)
        g = pv.synthesize_data(f, bs, T, grid.dt)
        c = pv.dct2_forward(f)
        oracle = np.array([boundary_values(spectral_propagate(grid, c, t)) for t in g.times])
        oracle = oracle[:, bs.gamma]
        assert g.samples.shape == oracle.shape
        assert np.abs(g.samples - oracle).max() <= 1e-11 * np.abs(oracle).max()

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="np.longdouble is no wider than double here")
    def test_matches_extended_precision_series_without_restarts(self):
        # 640 steps of the wall recurrence from one start stay within 1e-14 of
        # the series cos(j lam_kl dt) evaluated in extended precision at the
        # same frequencies
        grid = pv.Grid2D(129)
        n = grid.n
        f = pv.paper_six_phantom(grid)
        g = pv.synthesize_data(f, pv.BoundarySpec.full(grid), 5.0, grid.dt)
        coeffs = pv.dct2_forward(f).astype(np.longdouble)
        # the phases depend on k^2 + l^2 only: take each cosine once
        lam, where = np.unique(mode_frequencies(grid), return_inverse=True)
        lam = lam.astype(np.longdouble)
        k = np.arange(n, dtype=np.longdouble)
        cos_km = np.cos(np.arccos(np.longdouble(-1)) * np.outer(k, k) / (n - 1))
        sign = (-1.0) ** np.arange(n)
        ks, ls = pv.boundary_indices(n)
        oracle = np.empty_like(g.samples)
        for j, t in enumerate(np.arange(g.n_steps + 1) * np.longdouble(grid.dt)):
            m = coeffs * np.cos(lam * t)[where].reshape(n, n)
            bottom, top = cos_km @ m.sum(axis=1), cos_km @ (m @ sign)
            left, right = cos_km @ m.sum(axis=0), cos_km @ (sign @ m)
            oracle[j] = np.where(ls == 0, bottom[ks], np.where(
                ls == n - 1, top[ks], np.where(ks == 0, left[ls], right[ls])))
        assert np.abs(g.samples - oracle).max() <= 1e-14 * np.abs(oracle).max()

    def test_memory_near_the_trace(self, phantom257, bspec_full257):
        # n = 257, T = 5: 1281 levels of 1024 nodes, 10.5 MB of samples; the
        # trace is written over the buffer of its wall coefficients
        grid = phantom257.grid
        tracemalloc.start()
        try:
            g = pv.synthesize_data(phantom257, bspec_full257, 5.0, grid.dt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.samples.shape == (1281, 1024)
        assert peak < 1.25 * g.samples.nbytes

    def test_mode_space_memory_beyond_the_trace(self, phantom257, bspec_full257):
        # over 32 steps the peak is in mode space: the coefficients, a, M, D
        # and the transforms' blocks, 3.58 n x n arrays beyond the trace
        # (6.72 with whole-array DCT-I extensions and spectra)
        grid = phantom257.grid
        tracemalloc.start()
        try:
            g = pv.synthesize_data(phantom257, bspec_full257, 32 * grid.dt, grid.dt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - g.samples.nbytes < 4.0 * phantom257.values.nbytes

    def test_non_integer_step_count_rejected(self, grid):
        bs = pv.BoundarySpec.full(grid)
        with pytest.raises(pv.ConfigError):
            pv.synthesize_data(pv.ScalarField.zeros(grid), bs, 1.0 + 0.3 * grid.dt, grid.dt)

    def test_time_step_other_than_the_grids_rejected(self, grid):
        # the solvers step every trace on grid.dt: data sampled at half that
        # step would be inverted on the wrong time grid, with an error that
        # grows under iteration instead of decaying
        bs = pv.BoundarySpec.full(grid)
        f = smooth_random_field(grid, np.random.default_rng(7))
        with pytest.raises(pv.ConfigError, match=r"\bdt\b"):
            pv.synthesize_data(f, bs, 2.0, 0.5 * grid.dt)
        assert pv.synthesize_data(f, bs, 2.0, grid.dt).dt == grid.dt


class TestCrossValidation:
    def test_forward_solver_tracks_series_solution(self):
        # the mirror-ghost wall closure is second order, like the interior
        # stencil: the trace error quarters per refinement
        errs = {}
        for n in (65, 129):
            g = pv.Grid2D(n)
            x = 0.5 * np.pi * (g.coords() + 1.0)
            vals = (np.outer(np.cos(x), np.ones(n)) + 0.5 * np.outer(np.ones(n), np.cos(x))
                    + 0.25 * np.outer(np.cos(x), np.cos(x)))
            f = pv.ScalarField(g, vals)
            bs = pv.BoundarySpec.full(g)
            ref = pv.synthesize_data(f, bs, 1.0, g.dt)
            got = pv.forward_solve(pv.StatePair(f, pv.ScalarField.zeros(g)),
                                   pv.ScalarField.constant(g, 1.0), bs, 1.0)
            errs[n] = (np.linalg.norm(got.trace.samples - ref.samples)
                       / np.linalg.norm(ref.samples))
        assert errs[65] <= 0.03
        assert errs[129] <= 0.015
        assert errs[65] / errs[129] == pytest.approx(4.0, rel=0.25)


class TestLeapfrogTrace:
    @pytest.mark.parametrize("n", [33, 65])
    @pytest.mark.parametrize("dt_factor", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("speed", [1.0, 0.8])
    @pytest.mark.parametrize("aperture", ["full", "left_bottom"])
    def test_equals_forward_solve_at_every_node(self, n, dt_factor, speed, aperture):
        # the DCT-I diagonalizes the mirror-closed leapfrog exactly, so the
        # mode-space trace pins every wall and corner node of the march to
        # rounding, for a rough field that excites every mode
        grid = pv.Grid2D(n, dt_factor * pv.Grid2D(n).dx)
        bs = getattr(pv.BoundarySpec, aperture)(grid)
        c = pv.ScalarField.constant(grid, speed)
        f = pv.ScalarField(grid, np.random.default_rng(n).standard_normal((n, n)))
        T = 150 * grid.dt
        ref = pv.forward_solve(pv.StatePair(f, pv.ScalarField.zeros(grid)), c, bs, T).trace
        got = leapfrog_trace(f, c, bs, T)
        assert got.samples.shape == ref.samples.shape
        assert np.array_equal(got.bspec.gamma, ref.bspec.gamma)
        assert np.abs(got.samples - ref.samples).max() <= 1e-12 * np.abs(ref.samples).max()

    def test_speed_above_the_cfl_bound_rejected(self, grid):
        # dt = dx/2 allows c up to sqrt(2); beyond it the phase would be NaN
        bs = pv.BoundarySpec.full(grid)
        f = smooth_random_field(grid, np.random.default_rng(9))
        with pytest.raises(pv.StabilityError):
            leapfrog_trace(f, pv.ScalarField.constant(grid, 1.5), bs, 1.0)

    def test_varying_speed_rejected(self, grid):
        bs = pv.BoundarySpec.full(grid)
        c = pv.ScalarField(grid, np.linspace(0.9, 1.0, grid.n)[:, None] * np.ones(grid.n))
        with pytest.raises(pv.ConfigError, match="constant"):
            leapfrog_trace(pv.ScalarField.zeros(grid), c, bs, 1.0)


class TestLeapfrogLevels:
    @pytest.mark.parametrize("n", [33, 65])
    @pytest.mark.parametrize("dt_factor", [0.3, 0.7])
    @pytest.mark.parametrize("speed", [1.0, 0.8])
    def test_equal_the_last_two_levels_of_forward_solve(self, n, dt_factor, speed):
        grid = pv.Grid2D(n, dt_factor * pv.Grid2D(n).dx)
        c = pv.ScalarField.constant(grid, speed)
        f = pv.ScalarField(grid, np.random.default_rng(n).standard_normal((n, n)))
        T = 150 * grid.dt
        snaps = {149: None}
        fwd = pv.forward_solve(pv.StatePair(f, pv.ScalarField.zeros(grid)), c,
                               pv.BoundarySpec.full(grid), T, snapshots=snaps)
        before, last = pv.leapfrog_levels(f, c, T)
        for got, want in ((before, snaps[149].first), (last, fwd.final_state.first)):
            assert np.abs(got.values - want.values).max() <= 1e-12 * np.abs(want.values).max()
            assert got.values.flags.c_contiguous

    def test_speed_above_the_cfl_bound_rejected(self, grid):
        f = smooth_random_field(grid, np.random.default_rng(9))
        with pytest.raises(pv.StabilityError):
            pv.leapfrog_levels(f, pv.ScalarField.constant(grid, 1.5), 1.0)

    def test_varying_speed_rejected(self, grid):
        c = pv.ScalarField(grid, np.linspace(0.9, 1.0, grid.n)[:, None] * np.ones(grid.n))
        with pytest.raises(pv.ConfigError, match="constant"):
            pv.leapfrog_levels(pv.ScalarField.zeros(grid), c, 1.0)
