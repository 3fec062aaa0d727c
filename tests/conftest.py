import numpy as np
import pytest

from bhgs import LandscapeParams, build_grid, mass_threshold, minimizer


@pytest.fixture(scope="session")
def p53():
    p = LandscapeParams(N=5, q=3.0, mu=1.0)
    # its (N, q) profile is built before any test patches the solver
    minimizer._profile(p.N, p.q)
    return p


@pytest.fixture()
def fresh_profiles():
    """An empty (N, q) profile table for the test, emptied again after it,
    so a profile built under a patched solver is not held past the test."""
    minimizer._profile.cache_clear()
    yield
    minimizer._profile.cache_clear()


@pytest.fixture(scope="session")
def thresholds53(p53):
    return mass_threshold(p53)


@pytest.fixture(scope="session")
def grid12():
    # short radius, fine spacing: quadrature and stencil oracles
    return build_grid(5, 1025, 12.0)


@pytest.fixture(scope="session")
def grid30():
    # wide enough for bump fields with centers out to r ~ 26
    return build_grid(5, 1025, 30.0)


@pytest.fixture(scope="session")
def grid_solve():
    # production solver grid; minimizers at small mass spread to width ~ 200
    return build_grid(5, 2049, 1000.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(987654321)
