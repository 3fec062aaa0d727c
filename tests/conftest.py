import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bhgs import LandscapeParams, build_grid, mass_threshold, minimizer

SRC = Path(__file__).resolve().parents[1] / "src"


def fresh_python(*args, env=None, cwd=None, check=True):
    """The finished run of `python *args` in a fresh interpreter that
    imports bhgs from this checkout's src/, put ahead of PYTHONPATH, and
    sees no BHGS_ variable but those in `env`; with `check` it must exit
    0."""
    full = {k: v for k, v in os.environ.items() if not k.startswith("BHGS_")}
    full["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), full.get("PYTHONPATH")]))
    full.update(env or {})
    proc = subprocess.run([sys.executable, *args], env=full, cwd=cwd,
                          capture_output=True, encoding="utf-8", timeout=300)
    assert not check or proc.returncode == 0, proc.stderr
    return proc


@pytest.fixture(autouse=True)
def default_config(monkeypatch):
    """Every test starts from the default configuration: the BHGS_
    overrides of the shell that runs pytest are removed for its length."""
    for name in [k for k in os.environ if k.startswith("BHGS_")]:
        monkeypatch.delenv(name)


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
