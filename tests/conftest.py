import numpy as np
import pytest

from bhgs import LandscapeParams, build_grid, mass_threshold


@pytest.fixture(scope="session")
def p53():
    p = LandscapeParams(N=5, q=3.0, mu=1.0)
    # its reference state, held for the session, is built before any test
    # patches the solver
    p._reference
    return p


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
