"""Phantom rendering and measurement noise."""

import tracemalloc
import warnings

import numpy as np
import pytest

import pacavity as pv

from helpers import smooth_random_field


class TestRadialBump:
    def test_peak_value(self):
        assert pv.radial_bump(0.0, 0.3, 2.5) == 2.5

    def test_half_radius(self):
        assert pv.radial_bump(0.15, 0.3, 1.0) == pytest.approx(0.5625, abs=1e-15)

    def test_c1_matching_at_edge(self):
        R = 0.3
        for eps in (1e-3, 1e-4, 1e-5):
            val = pv.radial_bump(R - eps, R, 1.0)
            assert val <= 5.0 * (eps / R) ** 2  # value and slope vanish at r = R
        assert pv.radial_bump(R, R, 1.0) == 0.0
        assert pv.radial_bump(R + 1e-12, R, 1.0) == 0.0

    @pytest.mark.parametrize("radius", [0.0, -0.3])
    def test_nonpositive_radius_rejected(self, radius):
        with pytest.raises(pv.ConfigError, match="bump radius must be positive"):
            pv.radial_bump(0.1, radius, 1.0)

    def test_silent_outside_a_tiny_support_and_under_a_tall_one(self):
        # r is clamped to R before the division: a tiny R does not overflow
        # (r/R)^2, and a tall bump is not multiplied by it outside its support
        r = np.array([0.0, 0.5, 1.0])
        tiny = pv.BumpSpec((0.0, 0.0), 1e-300, 1.0)
        tall = pv.BumpSpec((0.0, 0.0), 0.5, 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pv.radial_bump(r, 1e-300, 1.0).tolist() == [1.0, 0.0, 0.0]
            assert pv.radial_bump(r, 5e-324, 1.0).tolist() == [1.0, 0.0, 0.0]
            assert pv.radial_bump(r, 0.5, 1e308).tolist() == [1e308, 0.0, 0.0]
            for spec in (tiny, tall):
                f = pv.render_phantom([spec], pv.Grid2D(9))
                assert f.values[4, 4] == spec.amplitude
                assert np.count_nonzero(f.values) == (1 if spec is tiny else 9)

    def test_vectorized(self):
        r = np.array([0.0, 0.15, 0.3, 0.5])
        out = pv.radial_bump(r, 0.3, 1.0)
        assert out.shape == r.shape
        assert out[-1] == 0.0


class TestRenderPhantom:
    def test_empty_list(self):
        g = pv.Grid2D(33)
        assert np.all(pv.render_phantom([], g).values == 0.0)

    def test_single_bump_peak(self):
        g = pv.Grid2D(257)
        f = pv.render_phantom([pv.BumpSpec((-0.45, 0.35), 0.22, 1.0)], g)
        assert f.values.max() <= 1.0 + 1e-12
        assert f.values.max() >= 0.99  # node within one cell of the center

    def test_default_preset_support(self):
        g = pv.Grid2D(257)
        f = pv.paper_six_phantom(g)
        assert np.count_nonzero(f.values) < 0.5 * g.n * g.n
        assert np.all(f.values[pv.boundary_indices(g.n)] == 0.0)

    @pytest.mark.parametrize("radius", [0.0, -0.2])
    def test_nonpositive_radius_rejected(self, radius):
        with pytest.raises(pv.ConfigError, match="bump radius must be positive"):
            pv.BumpSpec((0.0, 0.0), radius, 1.0)

    def test_support_outside_domain_rejected(self):
        with pytest.raises(pv.ConfigError):
            pv.BumpSpec((0.9, 0.0), 0.2, 1.0)

    @pytest.mark.parametrize("center, radius, amplitude", [
        ((np.nan, 0.0), 0.2, 1.0), ((0.0, np.inf), 0.2, 1.0),
        ((0.0, 0.0), np.nan, 1.0), ((0.0, 0.0), 0.2, np.nan),
        ((0.0, 0.0), 0.2, -np.inf),
    ], ids=["cx_nan", "cy_inf", "radius_nan", "amplitude_nan", "amplitude_-inf"])
    def test_non_finite_bump_rejected(self, center, radius, amplitude):
        # a NaN radius or center fails every comparison, so the bump would
        # pass the fit check and render as zero everywhere
        with pytest.raises(pv.ConfigError, match="must be finite"):
            pv.BumpSpec(center, radius, amplitude)

    def test_equals_the_full_grid_sum(self):
        # each bump is evaluated near its support only; the sum over every
        # node, as a meshgrid, must come out bit for bit the same
        rng = np.random.default_rng(3)
        for _ in range(60):
            g = pv.Grid2D(int(rng.integers(4, 130)))
            x = g.coords()
            specs = []
            for _ in range(int(rng.integers(1, 5))):
                # the center and the support edge on grid lines, or anywhere
                cx, cy = x[rng.integers(1, g.n - 1, 2)]
                radius = min(rng.integers(1, 6) * g.dx, 0.999 - max(abs(cx), abs(cy)))
                if rng.random() < 0.5:
                    radius = rng.uniform(0.01, 0.4)
                    cx, cy = rng.uniform(radius - 0.999, 0.999 - radius, 2)
                if radius > 0:
                    specs.append(pv.BumpSpec((cx, cy), radius, rng.uniform(-2.0, 2.0)))
            X, Y = np.meshgrid(x, x, indexing="ij")
            expected = np.zeros((g.n, g.n))
            for b in specs:
                expected += pv.radial_bump(np.hypot(X - b.center[0], Y - b.center[1]),
                                           b.radius, b.amplitude)
            got = pv.render_phantom(specs, g).values
            assert got.tobytes() == expected.tobytes()

    def test_memory_near_the_field(self, grid257):
        # n = 257: 0.53 MB a field; a bump's arrays cover its support only
        tracemalloc.start()
        try:
            f = pv.paper_six_phantom(grid257)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.0 * f.values.nbytes

    def test_gradient_bounded_by_analytic_slope(self):
        g = pv.Grid2D(257)
        f = pv.paper_six_phantom(g)
        gx, gy = np.gradient(f.values, g.dx)
        bound = sum(8.0 * b.amplitude / (3.0 * np.sqrt(3.0) * b.radius)
                    for b in pv.PAPER_SIX)
        assert np.hypot(gx, gy).max() <= 1.05 * bound


class TestAddNoise:
    @pytest.fixture
    def trace(self):
        g = pv.Grid2D(65)
        bs = pv.BoundarySpec.left_bottom(g)
        rng = np.random.default_rng(0)
        f = smooth_random_field(g, rng)
        return pv.synthesize_data(f, bs, 2.0, g.dt)

    def test_zero_level_bit_exact(self, trace):
        out = pv.add_noise(trace, 0.0, seed=1)
        assert np.array_equal(out.samples, trace.samples)

    def test_relative_level_is_exact(self, trace):
        out = pv.add_noise(trace, 0.5, seed=1)
        ratio = np.linalg.norm(out.samples - trace.samples) / np.linalg.norm(trace.samples)
        assert ratio == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("levels", [127, 128, 129, 300])
    @pytest.mark.parametrize("gamma", ["full", "left_bottom"])
    def test_noise_is_gamma_columns_of_one_full_width_draw(self, gamma, levels):
        # at n = 65 the draw runs in blocks of 128 rows of all 256 boundary
        # nodes; the noise is that of one (J + 1) x 256 draw, masked to
        # Gamma and scaled to the level, as a trace with zeros off Gamma
        # took it: bit for bit at full Gamma, and to the rounding of the
        # scale's norm, now taken over Gamma's columns only, elsewhere
        g = pv.Grid2D(65)
        bs = getattr(pv.BoundarySpec, gamma)(g)
        samples = np.random.default_rng(1).standard_normal((levels, bs.gamma.size))
        out = pv.add_noise(pv.BoundaryTrace(bs, samples), 0.5, seed=4)
        noise = np.random.default_rng(4).standard_normal((levels, pv.boundary_count(g.n)))
        noise *= bs.lam > 0
        noise *= 0.5 * float(np.linalg.norm(samples)) / np.linalg.norm(noise)
        expected = noise[:, bs.gamma] + samples
        if gamma == "full":
            assert out.samples.tobytes() == expected.tobytes()
        else:
            assert np.linalg.norm(out.samples - expected) <= 1e-15 * np.linalg.norm(expected)

    def test_seed_determinism(self, trace):
        a = pv.add_noise(trace, 0.3, seed=42)
        b = pv.add_noise(trace, 0.3, seed=42)
        c = pv.add_noise(trace, 0.3, seed=43)
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_input_trace_untouched(self, trace):
        before = trace.samples.tobytes()
        out = pv.add_noise(trace, 0.5, seed=1)
        assert trace.samples.tobytes() == before
        assert not np.shares_memory(out.samples, trace.samples)

    @pytest.mark.parametrize("which", ["trace_full_t5", "trace_partial_t5"])
    def test_memory_near_the_trace(self, request, which):
        # n = 257, T = 5: 10.5 MB of samples at full Gamma, 5.3 MB at
        # left+bottom; the draw is made a row block at a time, then scaled
        # and summed in place, so it is the only trace-sized array made
        g = request.getfixturevalue(which)
        g = g.value if which == "trace_full_t5" else g
        tracemalloc.start()
        try:
            pv.add_noise(g, 0.1, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * g.samples.nbytes

    def test_zero_trace_rejected(self):
        g = pv.Grid2D(33)
        z = pv.BoundaryTrace(pv.BoundarySpec.full(g), np.zeros((9, pv.boundary_count(g.n))))
        with pytest.raises(pv.ConfigError):
            pv.add_noise(z, 0.5, seed=0)

    def test_overflowing_level_rejected(self, trace):
        # the noisy samples would overflow to inf: refused with no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(pv.ConfigError, match="too large"):
                pv.add_noise(trace, 1e308, seed=0)
            big = pv.add_noise(trace, 1e300, seed=0)
        assert np.all(np.isfinite(big.samples))

    def test_negative_level_rejected(self, trace):
        with pytest.raises(pv.ConfigError, match="noise level must be nonnegative"):
            pv.add_noise(trace, -0.1, seed=0)

    @pytest.mark.parametrize("level", [np.nan, np.inf])
    def test_non_finite_level_rejected(self, trace, level):
        with pytest.raises(pv.ConfigError, match="must be finite"):
            pv.add_noise(trace, level, seed=0)

    def test_noise_is_white(self):
        # lag-1 autocorrelation of > 1e5 injected samples stays near zero
        g = pv.Grid2D(129)
        bs = pv.BoundarySpec.full(g)
        f = smooth_random_field(g, np.random.default_rng(2))
        trace = pv.synthesize_data(f, bs, 2.0, g.dt)
        out = pv.add_noise(trace, 0.5, seed=3)
        noise = (out.samples - trace.samples).ravel()
        assert noise.size >= 1e5
        corr = np.corrcoef(noise[:-1], noise[1:])[0, 1]
        assert abs(corr) <= 0.05
