"""Render the six-bump phantom and synthesize boundary pressure data.

The phantom is a sum of six C1 radial bumps with compact support inside
the square cavity [-1,1]^2.  Boundary data are produced by the cosine
series propagator, which is exact in space for grid-sampled fields, so
the reconstruction demos never invert data generated by their own
finite-difference discretization.

Outputs land in demos/out/01/.  Reduce N for a quick look.
"""

from pathlib import Path

import numpy as np

import pacavity as pv
from pacavity import io as pio

N = 257
OUT = Path(__file__).parent / "out" / "01"
OUT.mkdir(parents=True, exist_ok=True)

grid = pv.Grid2D(N)
print(f"grid: {N} x {N} nodes, dx = {grid.dx:.5f}, dt = {grid.dt:.5f}")

phantom = pv.paper_six_phantom(grid)
pio.write_field(OUT / "phantom.csv", phantom)
pio.write_field(OUT / "phantom.pgm", phantom)
print(f"phantom peak {phantom.values.max():.3f}, "
      f"support on {np.count_nonzero(phantom.values) / N**2:.1%} of nodes")

# the cosine transform is an exact interpolant on the grid
coeffs = pv.dct2_forward(phantom)
recovered = pv.dct2_inverse(grid, coeffs)
print(f"transform round-trip error: {np.abs(recovered.values - phantom.values).max():.2e}")

# boundary data on the full boundary over [0, 5]
bspec = pv.BoundarySpec.full(grid)
trace = pv.synthesize_data(phantom, bspec, 5.0, grid.dt)
pio.write_trace(OUT / "trace_full_T5.csv", trace)
print(f"synthesized {trace.n_steps + 1} time samples at {trace.samples.shape[1]} "
      f"boundary nodes -> {OUT / 'trace_full_T5.csv'}")

# one corner time series for a quick sanity look: the signal keeps
# reverberating instead of decaying, which is what makes this problem hard
corner = trace.samples[:, 0]
print(f"corner signal: initial {corner[0]:.4f}, "
      f"rms over [0,5] {np.sqrt(np.mean(corner**2)):.4f}, "
      f"rms over the last unit of time "
      f"{np.sqrt(np.mean(corner[-trace.n_steps // 5:]**2)):.4f}")
