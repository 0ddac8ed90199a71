"""Session-wide fixtures; the expensive n=257 artifacts are built once."""

import time
from dataclasses import dataclass

import numpy as np
import pytest

import pacavity as pv


@dataclass
class Timed:
    value: object
    seconds: float


@pytest.fixture(scope="session")
def grid257():
    return pv.Grid2D(257)


@pytest.fixture(scope="session")
def unit_speed257(grid257):
    return pv.ScalarField.constant(grid257, 1.0)


@pytest.fixture(scope="session")
def phantom257(grid257):
    return pv.paper_six_phantom(grid257)


@pytest.fixture(scope="session")
def bspec_full257(grid257):
    return pv.BoundarySpec.full(grid257)


@pytest.fixture(scope="session")
def bspec_lb257(grid257):
    return pv.BoundarySpec.left_bottom(grid257)


@pytest.fixture(scope="session")
def trace_full_t5(grid257, phantom257, bspec_full257):
    """Spectrally synthesized full-boundary data over [0, 5], with timing."""
    t0 = time.time()
    g = pv.synthesize_data(phantom257, bspec_full257, 5.0, grid257.dt)
    return Timed(g, time.time() - t0)


@pytest.fixture(scope="session")
def trace_partial_t5(trace_full_t5, grid257, bspec_lb257):
    g = trace_full_t5.value
    samples = g.samples * bspec_lb257.gamma_mask[None, :]
    return pv.BoundaryTrace(grid257, g.dt, samples, gamma_mask=bspec_lb257.gamma_mask)


@pytest.fixture(scope="session")
def forward_t5_recorded(grid257, phantom257, unit_speed257, bspec_full257):
    """Forward Neumann solve of the phantom over [0, 5], and its snapshots
    every 100 steps."""
    s0 = pv.StatePair(phantom257, pv.ScalarField.zeros(grid257))
    snaps = dict.fromkeys(range(100, pv.num_steps(5.0, grid257.dt), 100))
    return pv.forward_solve(s0, unit_speed257, bspec_full257, 5.0, snapshots=snaps), snaps
