"""The band kernels against scipy.linalg, their error contract, and the
commands' runs without scipy, on the scipy fallback and with no backend.

bhgs._lapack calls pbtrf, pbtrs and gbsv in the OpenBLAS that numpy's wheel
bundles. scipy.linalg is the reference: every kernel result must equal
scipy's bit for bit, on the bands the solver factors and on the Newton
matrices it solves.
"""
import ctypes
import glob
import json
import os
import subprocess
import sys

import numpy as np
import pytest

sl = pytest.importorskip("scipy.linalg")

import bhgs  # noqa: E402
from bhgs import (LandscapeParams, build_grid, mass_threshold,  # noqa: E402
                  minimizer)
from bhgs import _lapack  # noqa: E402
from bhgs.minimizer import (SolverConfig, _newton_finish,  # noqa: E402
                            _residuals)

P53 = LandscapeParams(N=5, q=3.0, mu=1.0)
SHIFTS = (1e-12, 0.37, 5.0)
KERNELS = ("cholesky_banded", "cho_solve_banded", "solve_banded")


@pytest.fixture(scope="module", params=[1025, 2049, 8193])
def newton_system(request):
    """(grid, K, [-W g, W u]) of the first Newton step of a solve at 0.5 c0,
    as _newton_finish passed them to solve_banded."""
    grid = build_grid(5, request.param, 1000.0)
    seen = []

    def capture(l_and_u, ab, b, *args):
        seen.append((ab.copy(), b.copy()))
        return orig(l_and_u, ab, b, *args)

    orig = minimizer.solve_banded
    minimizer.solve_banded = capture
    try:
        minimizer.minimize(P53, grid, 0.5 * mass_threshold(P53)[1])
    finally:
        minimizer.solve_banded = orig
    return (grid,) + seen[0]


def frozen(*arrays):
    return [a.copy() for a in arrays]


def unchanged(before, *arrays):
    return all(np.array_equal(a, b) for a, b in zip(arrays, before))


# ------------------------------------------------------------------ backend


def test_bundled_library_is_taken():
    # a lost speed-up must not hide behind the scipy fallback: where
    # numpy.libs holds the library with all three routines, it is the backend
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs", "libscipy_openblas64_*.so")
    names = ("scipy_dpbtrf_64_", "scipy_dpbtrs_64_", "scipy_dgbsv_64_")
    if not any(all(hasattr(ctypes.CDLL(path), s) for s in names)
               for path in glob.glob(libs)):
        pytest.skip("numpy.libs holds no OpenBLAS with pbtrf, pbtrs, gbsv")
    assert _lapack.BACKEND == "numpy.libs"
    for name in KERNELS:
        assert getattr(minimizer._kernels(), name).__module__ == "bhgs._lapack"


# ------------------------------------------------------- bitwise against scipy


@pytest.mark.parametrize("a", SHIFTS)
def test_cholesky_factor_and_solve_match_scipy(newton_system, a, rng):
    grid = newton_system[0]
    ab = grid.normal_band(a)
    b1 = grid.weights * rng.standard_normal(grid.n)
    b2 = np.column_stack((b1, grid.weights))
    before = frozen(ab, b1, b2)
    cb = _lapack.cholesky_banded(ab)
    assert np.array_equal(cb, sl.cholesky_banded(ab))
    for b in (b1, b2):
        x = _lapack.cho_solve_banded((cb, False), b)
        want = sl.cho_solve_banded((cb, False), b)
        assert x.shape == want.shape and np.array_equal(x, want)
    assert unchanged(before, ab, b1, b2)


def test_newton_solve_matches_scipy(newton_system):
    _, K, rhs = newton_system
    before = frozen(K, rhs)
    for b in (rhs, rhs[:, 0], np.ascontiguousarray(rhs[:, 1])):
        x = _lapack.solve_banded((4, 4), K, b)
        want = sl.solve_banded((4, 4), K, b)
        assert x.shape == want.shape and np.array_equal(x, want)
    assert unchanged(before, K, rhs)


def test_fortran_ordered_inputs_are_not_written(newton_system):
    # a Fortran-ordered float64 input is exactly what LAPACK overwrites, so
    # it must still be copied first
    grid, K, rhs = newton_system
    ab, K, rhs = (np.asfortranarray(x) for x in
                  (grid.normal_band(0.37), K, rhs))
    before = frozen(ab, K, rhs)
    cb = _lapack.cholesky_banded(ab)
    _lapack.cho_solve_banded((cb, False), rhs)
    _lapack.solve_banded((4, 4), K, rhs)
    assert unchanged(before, ab, K, rhs)
    assert not np.shares_memory(cb, ab)


# ---------------------------------------------------------- error contract


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_raises_value_error(newton_system, bad):
    grid, K, rhs = newton_system
    ab = grid.normal_band(0.37)
    cb = _lapack.cholesky_banded(ab)

    def planted(x, idx):
        x = x.copy()
        x[idx] = bad
        return x

    calls = [
        lambda: _lapack.cholesky_banded(planted(ab, (4, 7))),
        lambda: _lapack.cho_solve_banded((planted(cb, (3, 9)), False),
                                         rhs[:, 1]),
        lambda: _lapack.cho_solve_banded((cb, False), planted(rhs, (5, 0))),
        lambda: _lapack.solve_banded((4, 4), planted(K, (6, 11)), rhs),
        lambda: _lapack.solve_banded((4, 4), K, planted(rhs, (13, 1))),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="infs or NaNs"):
            call()


def test_band_that_is_not_positive_definite_raises(newton_system):
    grid = newton_system[0]
    ab = -grid.normal_band(0.37)
    with pytest.raises(np.linalg.LinAlgError) as got:
        _lapack.cholesky_banded(ab)
    with pytest.raises(np.linalg.LinAlgError) as want:
        sl.cholesky_banded(ab)
    assert str(got.value) == str(want.value)


def test_singular_newton_matrix_raises(newton_system):
    _, K, rhs = newton_system
    K = K.copy()
    K[:, 100] = 0.0                  # column 100 of the matrix is zero
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        _lapack.solve_banded((4, 4), K, rhs)
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        sl.solve_banded((4, 4), K, rhs)


def test_misshapen_input_is_rejected_before_lapack(newton_system):
    # LAPACK would read past the buffers; the shapes are checked first
    grid, K, rhs = newton_system
    cb = _lapack.cholesky_banded(grid.normal_band(0.37))
    with pytest.raises(ValueError):
        _lapack.solve_banded((4, 3), K, rhs)
    with pytest.raises(ValueError):
        _lapack.solve_banded((4, 4), K, rhs[1:])
    with pytest.raises(ValueError):
        _lapack.cho_solve_banded((cb, False), rhs[1:])


def test_nan_in_newton_matrix_gives_up_the_finish(grid_solve, monkeypatch):
    # _newton_finish reads the kernel's ValueError as "no step": it returns
    # (None, steps) and the descent carries on
    _, c0, rho0 = mass_threshold(P53)
    c = 0.5 * c0
    fld, b = minimizer.seed(P53, mass_threshold(P53), c, grid_solve)
    u = fld.values
    res = _residuals(P53, grid_solve, c, u, b)
    orig = minimizer.solve_banded

    def planted(l_and_u, K, rhs):
        K = K.copy()
        K[4, 17] = np.nan
        return orig(l_and_u, K, rhs)

    monkeypatch.setattr(minimizer, "solve_banded", planted)
    done, steps = _newton_finish(P53, grid_solve, c, u, b, res,
                                 SolverConfig(), rho0)
    assert (done, steps) == (None, 0)


# --------------------------------------------------------- runs without scipy

# the commands the scipy-free and the backend-free runs repeat: argv, extra
# environment, output files
RUNS = {
    "solve": (["solve", "--c", "0.6", "--out", "f.csv"], {}, ["f.csv"]),
    "sweep": (["sweep"], {}, ["sweep_report.json"]),
    "constants-estimated": (["constants"],
                            {"BHGS_CONSTANTS__MODE": "estimated"}, []),
}

NO_SCIPY = 'sys.modules["scipy"] = None'
NO_BUNDLE = """
import ctypes
class Disabled:
    def __init__(self, *args, **kwargs):
        raise OSError("disabled")
ctypes.CDLL = Disabled
"""


def run_command(name, setup, cwd):
    """The finished process of command `name`, run in a fresh interpreter
    after the lines `setup`, reporting the kernel backend it took last."""
    argv, env_extra, _ = RUNS[name]
    code = (f"import sys\n{setup}\nimport bhgs.cli\n"
            f"rc = bhgs.cli.main({argv!r})\n"
            "lapack = sys.modules.get('bhgs._lapack')\n"
            "print(getattr(lapack, 'BACKEND', None))\n"
            "sys.exit(rc)")
    src = os.path.dirname(os.path.dirname(os.path.abspath(bhgs.__file__)))
    env = dict(os.environ, PYTHONPATH=src, **env_extra)
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                          capture_output=True, text=True)


@pytest.mark.parametrize("name", list(RUNS))
def test_commands_agree_without_scipy_and_on_the_fallback(name, tmp_path):
    # byte-identical stdout and output files from a normal run, a run with
    # scipy unimportable, and a run on the scipy fallback
    runs = []
    for setup in ("", NO_SCIPY, NO_BUNDLE):
        cwd = tmp_path / f"run{len(runs)}"
        cwd.mkdir()
        proc = run_command(name, setup, cwd)
        assert (proc.returncode, proc.stderr) == (0, "")
        *records, backend = proc.stdout.splitlines()
        runs.append((backend, records,
                     [(cwd / f).read_bytes() for f in RUNS[name][2]]))
    assert [r[0] for r in runs] == ["numpy.libs", "numpy.libs",
                                    "scipy.linalg"]
    assert runs[0][1:] == runs[1][1:] == runs[2][1:]


@pytest.mark.parametrize("name", list(RUNS))
def test_no_backend_is_a_named_failure(name, tmp_path):
    # neither the bundled library nor scipy.linalg: exit 2 with one
    # no-lapack JSON line on stderr, not a traceback
    proc = run_command(name, NO_SCIPY + NO_BUNDLE, tmp_path)
    assert proc.returncode == 2
    (line,) = proc.stderr.splitlines()
    rec = json.loads(line)
    assert rec["error"] == "no-lapack"
    assert "scipy.linalg cannot be imported" in rec["message"]
