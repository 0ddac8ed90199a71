"""Energy diagnostics behind the method.

Three measurements on the standard setup:

* the forward Neumann solve conserves the acoustic energy of the phantom
  to a fraction of a percent over T = 5 (the cavity reverberates, nothing
  leaves), which is exactly why plain time reversal has nothing to decay;

* the backward absorbing dynamics with zero data drains a random state's
  energy by orders of magnitude over the same interval;

* the realized contraction factor of the refinement operator drops well
  below one as T grows, which is the quantity that controls how fast the
  iterative reconstruction converges.
"""

from pathlib import Path

import numpy as np

import pacavity as pv

N = 257
OUT = Path(__file__).parent / "out" / "05"
OUT.mkdir(parents=True, exist_ok=True)

grid = pv.Grid2D(N)
speed = pv.ScalarField.constant(grid, 1.0)
bspec = pv.BoundarySpec.full(grid)
phantom = pv.paper_six_phantom(grid)
state0 = pv.StatePair(phantom, pv.ScalarField.zeros(grid))
steps = pv.num_steps(5.0, grid.dt)

# 1. forward conservation
snaps = dict.fromkeys(range(100, steps, 100))
pv.forward_solve(state0, speed, bspec, 5.0, snapshots=snaps)
e0 = pv.energy(state0, speed)
drift = max(abs(pv.energy(s, speed) - e0) / e0 for s in snaps.values())
print(f"forward energy drift over T=5: {drift * 100:.3f}%")

# 2. free decay under the absorbing boundary (zero data)
rng = np.random.default_rng(3)
coeffs = np.zeros((N, N))
coeffs[:8, :8] = rng.standard_normal((8, 8))
w0 = pv.dct2_inverse(pv.CosineCoeffs(grid, coeffs))
coeffs2 = np.zeros((N, N))
coeffs2[:8, :8] = rng.standard_normal((8, 8))
w1 = pv.dct2_inverse(pv.CosineCoeffs(grid, coeffs2))
zero = pv.BoundaryTrace(grid, grid.dt, np.zeros((steps + 1, pv.boundary_count(N))),
                        gamma_mask=bspec.gamma_mask)
snaps = dict.fromkeys(range(100, steps, 100))
out = pv.dissipative_reverse_solve(zero, speed, bspec,
                                   terminal_state=pv.StatePair(w0, w1), snapshots=snaps)
e_term = pv.energy(pv.StatePair(w0, w1), speed)
print("free decay of a random state (energy relative to t = T):")
for j, s in sorted(snaps.items(), reverse=True):
    print(f"  t = {j * grid.dt:5.2f}: {pv.energy(s, speed) / e_term:9.2e}")
print(f"  t =  0.00: {pv.energy(out, speed) / e_term:9.2e}")

# 3. contraction factor of the refinement operator vs measurement time
lines = ["T,contraction"]
for T_req in (2.0 * np.sqrt(2.0), 4.0, 5.0):
    T = pv.snap_duration(T_req, grid.dt)
    cfg = pv.ReconConfig(T=T, iterations=1, c=speed, bspec=bspec)
    delta = pv.estimate_contraction(phantom, cfg)
    lines.append(f"{T!r},{delta!r}")
    print(f"contraction factor at T = {T:.3f}: {delta:.4f}")
(OUT / "contraction.csv").write_text("\n".join(lines) + "\n")
