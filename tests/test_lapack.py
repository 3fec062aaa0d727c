"""The band kernels against scipy.linalg, their error contract, and the
commands' runs without scipy, on the scipy fallback and with no backend.

bhgs._lapack calls pbtrf, pbtrs, gbsv and gbtrs in the OpenBLAS that
numpy's wheel bundles. scipy.linalg is the reference: every kernel result
must equal scipy's bit for bit, on the bands the solver factors and on the
Newton matrices it solves. gbsv works in place on the band in its own
layout, so its factors and pivots are checked against scipy's dgbsv as well
as its solution, and gbtrs solves with them.
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
from bhgs.minimizer import NEWTON_STEPS, _newton  # noqa: E402

P53 = LandscapeParams(N=5, q=3.0, mu=1.0)
SHIFTS = (1e-12, 0.37, 5.0)
KERNELS = ("cholesky_banded", "cho_solve_banded", "gbsv", "gbtrs")


@pytest.fixture(scope="module", params=[1025, 2049, 8193])
def newton_system(request):
    """(grid, K, [-W g, W u]) of the first Newton step on the grid itself of
    a solve at 0.5 c0, as the Newton loop passed them to gbsv; the (N, q)
    profile is built first, so its steps are not seen. K is in
    gbsv's (13, n) layout, with its fill-in rows, which gbsv does not read,
    zeroed here; both arrays are Fortran-ordered."""
    grid = build_grid(5, request.param, 1000.0)
    minimizer._profile(P53.N, P53.q)
    seen = []

    def capture(kl, ku, ab, b, piv=None):
        if ab.shape[1] == grid.n:
            K = ab.copy(order="F")
            K[:kl] = 0.0
            seen.append((K, b.copy(order="F")))
        return orig(kl, ku, ab, b, piv)

    orig = minimizer.gbsv
    minimizer.gbsv = capture
    try:
        minimizer.minimize(P53, grid, 0.5 * mass_threshold(P53)[1])
    finally:
        minimizer.gbsv = orig
    return (grid,) + seen[0]


def precond_band(grid, a):
    """a W + L^T W L in upper band storage, the band the descent factors
    (minimizer._banded_factor; its build is pinned in test_seed_family)."""
    seen = []
    orig = minimizer.cholesky_banded
    minimizer.cholesky_banded = seen.append
    try:
        minimizer._banded_factor(grid, a)
    finally:
        minimizer.cholesky_banded = orig
    return seen[0]


def frozen(*arrays):
    return [a.copy(order="K") for a in arrays]


def fortran(*arrays):
    return [np.array(a, order="F") for a in arrays]


def unchanged(before, *arrays):
    return all(np.array_equal(a, b) for a, b in zip(arrays, before))


# ------------------------------------------------------------------ backend


def test_bundled_library_is_taken():
    # a lost speed-up must not hide behind the scipy fallback: where
    # numpy.libs holds the library with all three routines, it is the backend
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs", "libscipy_openblas64_*.so")
    names = ("scipy_dpbtrf_64_", "scipy_dpbtrs_64_", "scipy_dgbsv_64_",
             "scipy_dgbtrs_64_")
    if not any(all(hasattr(ctypes.CDLL(path), s) for s in names)
               for path in glob.glob(libs)):
        pytest.skip("numpy.libs holds no OpenBLAS with pbtrf, pbtrs, gbsv, "
                    "gbtrs")
    assert _lapack.BACKEND == "numpy.libs"
    for name in KERNELS:
        assert getattr(minimizer, name).__module__ == "bhgs._lapack"


# ------------------------------------------------------- bitwise against scipy


@pytest.mark.parametrize("a", SHIFTS)
def test_cholesky_factor_and_solve_match_scipy(newton_system, a, rng):
    grid = newton_system[0]
    ab = precond_band(grid, a)
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
    # the solution equals scipy.linalg.solve_banded's on the 9-row band,
    # and the factors gbsv leaves in the band equal scipy's dgbsv's
    _, K, rhs = newton_system
    for b in (rhs, rhs[:, 0], rhs[:, 1]):
        ab, x = fortran(K, b)
        got = _lapack.gbsv(4, 4, ab, x)
        want = sl.solve_banded((4, 4), K[4:], b)
        assert got is x and x.shape == want.shape
        assert np.array_equal(x, want)
        lub, _, _, info = sl.lapack.dgbsv(4, 4, K, b)
        assert info == 0 and np.array_equal(ab[4:], lub[4:])


def test_solve_with_kept_factors_matches_scipy(newton_system, rng):
    # gbtrs with the factors and pivots gbsv left solves as
    # scipy.linalg.solve_banded does, in place, for one or two columns, and
    # leaves the factors as they are; the pivots are scipy's dgbsv's, which
    # count from 0
    grid, K, rhs = newton_system
    ab, x = fortran(K, rhs)
    piv = np.empty(grid.n, dtype=np.int64)
    _lapack.gbsv(4, 4, ab, x, piv)
    _, want_piv, _, _ = sl.lapack.dgbsv(4, 4, K, rhs)
    assert np.array_equal(piv, want_piv + 1)
    factors = frozen(ab, piv)
    b1 = grid.weights * rng.standard_normal(grid.n)
    for b in (b1, np.column_stack((b1, rhs[:, 1]))):
        x = np.array(b, order="F")
        assert _lapack.gbtrs(4, 4, ab, piv, x) is x
        assert np.array_equal(x, sl.solve_banded((4, 4), K[4:], b))
    assert unchanged(factors, ab, piv)
    bad = np.array(b1)
    bad[7] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        _lapack.gbtrs(4, 4, ab, piv, bad)
    for p in (piv.astype(np.int32), piv[:-1]):
        with pytest.raises(ValueError):
            _lapack.gbtrs(4, 4, ab, p, np.array(b1))


def test_fortran_ordered_inputs_are_not_written(newton_system):
    # a Fortran-ordered float64 input is exactly what LAPACK overwrites, so
    # the Cholesky kernels must still copy it first; gbsv instead
    # overwrites its band with the LU factors and b with the solution
    grid, K, rhs = newton_system
    ab, K, rhs = fortran(precond_band(grid, 0.37), K, rhs)
    before = frozen(ab, K, rhs)
    cb = _lapack.cholesky_banded(ab)
    _lapack.cho_solve_banded((cb, False), rhs)
    assert unchanged(before, ab, K, rhs)
    assert not np.shares_memory(cb, ab)
    x = _lapack.gbsv(4, 4, K, rhs)
    assert x is rhs
    assert not np.array_equal(K[4:], before[1][4:])
    assert not np.array_equal(rhs, before[2])
    assert np.array_equal(rhs, sl.solve_banded((4, 4), before[1][4:],
                                               before[2]))


# ---------------------------------------------------------- error contract


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_raises_value_error(newton_system, bad):
    grid, K, rhs = newton_system
    ab = precond_band(grid, 0.37)
    cb = _lapack.cholesky_banded(ab)

    def planted(x, idx):
        x = x.copy(order="K")
        x[idx] = bad
        return x

    calls = [
        lambda: _lapack.cholesky_banded(planted(ab, (4, 7))),
        lambda: _lapack.cho_solve_banded((planted(cb, (3, 9)), False),
                                         rhs[:, 1]),
        lambda: _lapack.cho_solve_banded((cb, False), planted(rhs, (5, 0))),
        lambda: _lapack.gbsv(4, 4, planted(K, (10, 11)), rhs.copy(order="F")),
        lambda: _lapack.gbsv(4, 4, K.copy(order="F"), planted(rhs, (13, 1))),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="infs or NaNs"):
            call()
    # gbsv's first kl rows are workspace that LAPACK sets before use: what
    # they hold, a non-finite value included, does not change the solution
    for junk in (7.0, bad):
        ws = K.copy(order="F")
        ws[:4] = junk
        x = _lapack.gbsv(4, 4, ws, rhs.copy(order="F"))
        assert np.array_equal(x, sl.solve_banded((4, 4), K[4:], rhs))


def test_band_that_is_not_positive_definite_raises(newton_system):
    grid = newton_system[0]
    ab = -precond_band(grid, 0.37)
    with pytest.raises(np.linalg.LinAlgError) as got:
        _lapack.cholesky_banded(ab)
    with pytest.raises(np.linalg.LinAlgError) as want:
        sl.cholesky_banded(ab)
    assert str(got.value) == str(want.value)


def test_singular_newton_matrix_raises(newton_system):
    _, K, rhs = newton_system
    K = K.copy(order="F")
    K[:, 100] = 0.0                  # column 100 of the matrix is zero
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        _lapack.gbsv(4, 4, K.copy(order="F"), rhs.copy(order="F"))
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        sl.solve_banded((4, 4), K[4:], rhs)


def test_misshapen_input_is_rejected_before_lapack(newton_system):
    # LAPACK would read past the buffers; the shapes are checked first
    grid, K, rhs = newton_system
    cb = _lapack.cholesky_banded(precond_band(grid, 0.37))
    with pytest.raises(ValueError):
        _lapack.gbsv(4, 3, K, rhs)
    with pytest.raises(ValueError):
        _lapack.gbsv(4, 4, K, rhs[1:].copy(order="F"))
    with pytest.raises(ValueError):
        _lapack.cho_solve_banded((cb, False), rhs[1:])
    # and gbsv takes only arrays it can overwrite as they stand
    for ab, b in ((K, np.ascontiguousarray(rhs)), (np.ascontiguousarray(K), rhs),
                  (K, rhs.astype(np.float32)), (K[:, :-1], rhs[:-1])):
        before = frozen(ab, b)
        with pytest.raises(ValueError):
            _lapack.gbsv(4, 4, ab, b)
        assert unchanged(before, ab, b)


def test_scipy_fallback_gbsv_matches_in_place(newton_system, monkeypatch):
    # the fallback through scipy.linalg.lapack.dgbsv leaves the same
    # factors and solution, in the same arrays, and raises the same errors
    _, K, rhs = newton_system
    ab, b = fortran(K, rhs)
    _lapack.gbsv(4, 4, ab, b)
    monkeypatch.setattr(_lapack, "_dgbsv", sl.lapack.dgbsv, raising=False)
    monkeypatch.setattr(_lapack, "_gbsv_info", _lapack._scipy_gbsv)
    ab2, b2 = fortran(K, rhs)
    assert _lapack.gbsv(4, 4, ab2, b2) is b2
    assert np.array_equal(ab2[4:], ab[4:]) and np.array_equal(b2, b)
    singular = K.copy(order="F")
    singular[:, 100] = 0.0
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        _lapack.gbsv(4, 4, singular, rhs.copy(order="F"))
    bad = rhs.copy(order="F")
    bad[13, 1] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        _lapack.gbsv(4, 4, K.copy(order="F"), bad)


def test_scipy_fallback_gbtrs_matches(newton_system, monkeypatch):
    # through scipy.linalg.lapack's dgbsv and dgbtrs the pivots and the
    # solutions with the kept factors are the bundled kernels', bit for bit
    grid, K, rhs = newton_system
    got = []
    for fallback in (False, True):
        if fallback:
            monkeypatch.setattr(_lapack, "_dgbsv", sl.lapack.dgbsv,
                                raising=False)
            monkeypatch.setattr(_lapack, "_dgbtrs", sl.lapack.dgbtrs,
                                raising=False)
            monkeypatch.setattr(_lapack, "_gbsv_info", _lapack._scipy_gbsv)
            monkeypatch.setattr(_lapack, "_gbtrs_info", _lapack._scipy_gbtrs)
        ab, x = fortran(K, rhs)
        piv = np.empty(grid.n, dtype=np.int64)
        _lapack.gbsv(4, 4, ab, x, piv)
        y, y2 = np.array(grid.weights), np.array(rhs, order="F")
        _lapack.gbtrs(4, 4, ab, piv, y)
        _lapack.gbtrs(4, 4, ab, piv, y2)
        got.append((piv, y, y2))
    for a, b in zip(*got):
        assert np.array_equal(a, b)


def test_nan_in_newton_matrix_gives_up_the_finish(grid_solve, monkeypatch):
    # the Newton loop reads the kernel's ValueError as "no step": the
    # loose-point finish returns (None, steps) and the descent carries on
    c = 0.5 * mass_threshold(P53)[1]
    fld, b = minimizer.seed(P53, mass_threshold(P53), c, grid_solve)
    orig = minimizer.gbsv

    def planted(kl, ku, ab, rhs, piv=None):
        ab[8, 17] = np.nan           # a diagonal entry of K
        return orig(kl, ku, ab, rhs, piv)

    monkeypatch.setattr(minimizer, "gbsv", planted)
    done, steps = _newton(P53, c, fld, b, NEWTON_STEPS, loose=True)
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
