"""Shared fixtures for the test suite."""

import pytest

from repro.families.grids import CylindricalGrid, SimpleGrid, ToroidalGrid
from repro.families.triangular import TriangularGrid
from repro.graphs.graph import Graph
from repro.graphs.traversal import BallCache


@pytest.fixture(autouse=True)
def _fresh_ball_cache_pool():
    """Isolate tests from the process-wide shared ball pool.

    The pool is keyed by structural fingerprint, so two tests building
    the same small fixture graph would otherwise warm each other's
    caches and perturb hit/miss expectations.
    """
    BallCache.clear_shared_store()
    yield
    BallCache.clear_shared_store()


@pytest.fixture
def path_graph():
    """A 6-node path 0-1-2-3-4-5."""
    return Graph(edges=[(i, i + 1) for i in range(5)])


@pytest.fixture
def cycle_graph():
    """A 6-cycle."""
    return Graph(edges=[(i, (i + 1) % 6) for i in range(6)])


@pytest.fixture
def small_grid():
    """A 5x7 simple grid."""
    return SimpleGrid(5, 7)


@pytest.fixture
def small_torus():
    """A 5x5 toroidal grid (odd columns: not bipartite)."""
    return ToroidalGrid(5, 5)


@pytest.fixture
def small_cylinder():
    """A 4x5 cylindrical grid."""
    return CylindricalGrid(4, 5)


@pytest.fixture
def small_triangular():
    """A side-5 triangular grid (degenerate corners excluded)."""
    return TriangularGrid(5)


@pytest.fixture
def hash_calls(monkeypatch):
    """Every game ``repro.analysis.campaign.hash_of`` hashes, in call
    order (the name the benchmark's traced run wraps)."""
    import repro.analysis.campaign as campaign_module

    calls = []
    real = campaign_module.hash_of

    def counting(spec):
        calls.append(spec)
        return real(spec)

    monkeypatch.setattr(campaign_module, "hash_of", counting)
    return calls
