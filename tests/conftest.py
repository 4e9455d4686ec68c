import tracemalloc
from contextlib import contextmanager
from fractions import Fraction
from types import SimpleNamespace

import pytest

import wordperim as wp

# The acceptance runs are seeded; this seed is the one frozen into the suite.
ACCEPTANCE_SEED = 9


@pytest.fixture(scope="session")
def k6_endpoints():
    """Uniform k=6, m=500, N=100000 endpoint ensemble (the main acceptance run)."""
    cfg = wp.SimulationConfig(
        model=wp.Model.uniform(6), m=500, trajectories=100000, seed=ACCEPTANCE_SEED
    )
    return wp.simulate(cfg)


@pytest.fixture(scope="session")
def k6_paths():
    """Uniform k=6, m=500, N=20000 with full paths (Brownian marginal checks)."""
    cfg = wp.SimulationConfig(
        model=wp.Model.uniform(6),
        m=500,
        trajectories=20000,
        seed=ACCEPTANCE_SEED,
        record_full_paths=True,
    )
    return wp.simulate(cfg)


@pytest.fixture(scope="session")
def geometric_half_endpoints():
    """Geometric p=1/2, m=500, N=100000 endpoint ensemble (the parity check's odd case)."""
    cfg = wp.SimulationConfig(
        model=wp.Model.geometric(Fraction(1, 2)), m=500, trajectories=100000,
        seed=ACCEPTANCE_SEED,
    )
    return wp.simulate(cfg)


@contextmanager
def _traced():
    traced = SimpleNamespace(peak=None)
    tracemalloc.start()
    try:
        yield traced
        traced.peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def peak_memory():
    """``with peak_memory() as traced:`` traces the block; ``traced.peak`` is then the
    peak bytes allocated while it ran, by ``tracemalloc``."""
    return _traced
