"""The band kernels against scipy.linalg and numpy.linalg, their error
contract, and the commands' runs without scipy, on the scipy fallback and
with no backend.

bhgs._lapack calls dpbtrf and dtbsv in the OpenBLAS that numpy's wheel
bundles, on the lower band. The pivot-free LDL^T of the Newton matrix has
no scipy counterpart: its count of flipped columns must equal the count of
negative eigenvalues, and its solutions must solve the system, on random
symmetric bands and on the Newton matrices the solver factors; the scipy
fallback must give the same factor, flips and solutions bit for bit. The
descent's preconditioner P = a W + L^T W L is factored and solved by the
same kernels (minimizer.cholesky_banded, minimizer.cho_solve_banded):
scipy.linalg's lower-band Cholesky is the reference its factor and solves
must equal bit for bit, and a P that is not positive definite must raise.

Only the comparisons with scipy.linalg need scipy, and each imports it
where it compares. Without scipy these skip:
test_cholesky_factor_and_solve_match_scipy,
test_preconditioner_solves_to_rounding, test_newton_solve_matches_scipy
and the two test_scipy_fallback_* tests; these skip after their
scipy-free checks: test_solve_with_kept_factors_matches_scipy,
test_fortran_ordered_inputs_are_not_written,
test_band_that_is_not_positive_definite_raises,
test_singular_newton_matrix_raises and the fallback run of
test_commands_agree_without_scipy_and_on_the_fallback. The rest, the
flip count among them, run on numpy alone.
"""
import ctypes
import glob
import json
import os

import numpy as np
import pytest

from bhgs import (LandscapeParams, _lapack, build_grid, mass_threshold,
                  minimizer)
from bhgs.minimizer import NEWTON_STEPS, _newton
from conftest import fresh_python

P53 = LandscapeParams(N=5, q=3.0, mu=1.0)
SHIFTS = (1e-12, 0.37, 5.0)
KERNELS = ("ldlt_banded", "ldlt_solve_banded")


@pytest.fixture(scope="module", params=[1025, 2049, 8193])
def newton_system(request):
    """(grid, K, [-W g, W u]) of the first Newton step on the grid itself of
    a solve at 0.5 c0, as the Newton loop passed them to the kernels, its
    two one-column solves stacked as the columns of one (n, 2) array; the
    (N, q) profile is built first, so its steps are not seen. K is its
    (5, n) lower band; both arrays are Fortran-ordered."""
    grid = build_grid(5, request.param, 1000.0)
    minimizer._profile(P53.N, P53.q)
    seen = []

    def capture_factor(ab):
        if ab.shape[1] == grid.n and not seen:
            seen.append(ab.copy(order="F"))
        return factor(ab)

    def capture_solve(ab, flips, b):
        if ab.shape[1] == grid.n and 1 <= len(seen) <= 2:
            seen.append(b.copy())
        return solve(ab, flips, b)

    factor, solve = minimizer.ldlt_banded, minimizer.ldlt_solve_banded
    minimizer.ldlt_banded = capture_factor
    minimizer.ldlt_solve_banded = capture_solve
    try:
        minimizer.minimize(P53, grid, 0.5 * mass_threshold(P53)[1])
    finally:
        minimizer.ldlt_banded, minimizer.ldlt_solve_banded = factor, solve
    return grid, seen[0], np.array(np.column_stack(seen[1:]), order="F")


def precond_band(grid, a):
    """a W + L^T W L in lower band storage, Fortran-ordered, the band the
    descent factors (minimizer.cholesky_banded; its build is pinned in
    test_seed_family)."""
    seen = []
    orig = minimizer.ldlt_banded

    def capture(ab):
        seen.append(ab.copy(order="F"))
        return orig(ab)

    minimizer.ldlt_banded = capture
    try:
        minimizer.cholesky_banded(grid, a)
    except np.linalg.LinAlgError:
        pass                # an indefinite P: its band was seen first
    finally:
        minimizer.ldlt_banded = orig
    return seen[0]


def full_band(low):
    """The (9, n) band of the symmetric matrix with lower band low, in
    scipy.linalg.solve_banded's (4, 4) layout."""
    n = low.shape[1]
    ab = np.zeros((9, n))
    for d in range(5):
        ab[4 + d, :n - d] = low[d, :n - d]
        ab[4 - d, d:] = low[d, :n - d]
    return ab


def band_matvec(low, x):
    """K x for the symmetric matrix K with lower band low."""
    n = low.shape[1]
    y = low[0] * x
    for d in range(1, 5):
        y[d:] += low[d, :n - d] * x[:n - d]
        y[:n - d] += low[d, :n - d] * x[d:]
    return y


def negative_count(low):
    """K's count of negative eigenvalues, by scipy.linalg.eigvals_banded."""
    sl = pytest.importorskip("scipy.linalg")
    return int(np.count_nonzero(sl.eigvals_banded(low, lower=True) < 0.0))


def random_band(rng, n, negatives):
    """The lower band of a random symmetric band matrix of bandwidth 4 and
    size n with the given count of negative eigenvalues, and the matrix."""
    K = np.zeros((n, n))
    for d in range(5):
        v = rng.standard_normal(n - d)
        K += np.diag(v, d) + (np.diag(v, -d) if d else 0.0)
    ev = np.linalg.eigvalsh(K)
    # a shift between the eigenvalues negatives - 1 and negatives
    K += np.eye(n) * (-(ev[negatives - 1] + ev[negatives]) / 2.0
                      if negatives else 0.5 - ev[0])
    low = np.zeros((5, n), order="F")
    for d in range(5):
        low[d, :n - d] = np.diagonal(K, d)
    return low, K


def frozen(*arrays):
    return [a.copy(order="K") for a in arrays]


def fortran(*arrays):
    return [np.array(a, order="F") for a in arrays]


def unchanged(before, *arrays):
    return all(np.array_equal(a, b) for a, b in zip(arrays, before))


def relative_residual(low, x, b):
    return np.linalg.norm(band_matvec(low, x) - b) / np.linalg.norm(b)


def solves_as_well_as_lu(low, x, b):
    """Whether x, column by column, solves K x = b to a relative residual
    at most twice that of scipy.linalg.solve_banded's pivoted LU: the
    Newton matrices span many decades, and neither solves them to
    roundoff in the Euclidean norm."""
    sl = pytest.importorskip("scipy.linalg")
    want = sl.solve_banded((4, 4), full_band(low), b)
    xs, bs, ws = (np.reshape(a, (len(a), -1)) for a in (x, b, want))
    return all(relative_residual(low, xs[:, k], bs[:, k])
               <= 2.0 * relative_residual(low, ws[:, k], bs[:, k])
               for k in range(xs.shape[1]))


# ------------------------------------------------------------------ backend


def test_bundled_library_is_taken():
    # a lost speed-up must not hide behind the scipy fallback: where
    # numpy.libs holds the library with both routines, it is the backend
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs", "libscipy_openblas64_*.so")
    names = ("scipy_dpbtrf_64_", "scipy_dtbsv_64_")
    if not any(all(hasattr(ctypes.CDLL(path), s) for s in names)
               for path in glob.glob(libs)):
        pytest.skip("numpy.libs holds no OpenBLAS with dpbtrf and dtbsv")
    assert _lapack.BACKEND == "numpy.libs"
    for name in KERNELS:
        assert getattr(minimizer, name).__module__ == "bhgs._lapack"


# ------------------------------------------------------- bitwise against scipy


@pytest.mark.parametrize("a", SHIFTS)
def test_cholesky_factor_and_solve_match_scipy(newton_system, a, rng):
    # the descent's P = a W + L^T W L, factored by the LDL^T with no flip:
    # its factor is scipy's lower-band Cholesky bit for bit, and its solve
    # P^-1 W v makes dpbtrs's two dtbsv calls, so it is scipy's
    # cho_solve_banded bit for bit; neither writes the grid's band or v
    sl = pytest.importorskip("scipy.linalg")
    grid = newton_system[0]
    ab = precond_band(grid, a)
    v = rng.standard_normal(grid.n)
    before = frozen(grid.newton_band, v)
    factor = minimizer.cholesky_banded(grid, a)
    cl = sl.cholesky_banded(ab, lower=True)
    assert np.array_equal(factor, cl)
    x = minimizer.cho_solve_banded(factor, grid, v)
    assert np.array_equal(x, sl.cho_solve_banded((cl, True),
                                                 grid.weights * v))
    assert unchanged(before, grid.newton_band, v)
    assert np.array_equal(factor, cl)


@pytest.mark.parametrize("N", range(5, 11))
def test_preconditioner_solves_to_rounding(N, rng):
    # on the default grid of every N = 5..10 and at each shift, the factor
    # is scipy's lower-band Cholesky bit for bit, and P x = W v holds to
    # the rounding of the terms P x sums: the solve is backward stable
    sl = pytest.importorskip("scipy.linalg")
    grid = build_grid(N, 2049, 1000.0)
    for a in SHIFTS:
        ab = precond_band(grid, a)
        factor = minimizer.cholesky_banded(grid, a)
        assert np.array_equal(factor, sl.cholesky_banded(ab, lower=True))
        v = rng.standard_normal(grid.n)
        x = minimizer.cho_solve_banded(factor, grid, v)
        wv = grid.weights * v
        scale = band_matvec(np.abs(ab), np.abs(x)) + np.abs(wv)
        assert np.all(np.abs(band_matvec(ab, x) - wv) <= 1e-14 * scale)


# ------------------------------------------------------ the pivot-free LDL^T


@pytest.mark.parametrize("negatives", range(4))
def test_flips_count_the_negative_eigenvalues(negatives):
    # random symmetric bands with 0-3 negative eigenvalues: one flip per
    # negative eigenvalue, and solutions for each of two right-hand sides
    # that numpy.linalg.solve's match to a relative residual of 1e-10
    rng = np.random.default_rng(4400 + negatives)
    for _ in range(40):
        n = int(rng.integers(8, 80))
        low, K = random_band(rng, n, negatives)
        assert int(np.count_nonzero(np.linalg.eigvalsh(K) < 0.0)) == negatives
        ab = low.copy(order="F")
        flips = _lapack.ldlt_banded(ab)
        assert flips.dtype == np.int64 and len(flips) == negatives
        b = rng.standard_normal((n, 2))
        for rhs in (b[:, 0], b[:, 1]):
            x = _lapack.ldlt_solve_banded(ab, flips, np.array(rhs))
            want = np.linalg.solve(K, rhs)
            assert np.linalg.norm(x - want) <= 1e-10 * np.linalg.norm(want)
            assert np.linalg.norm(K @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_newton_solve_matches_scipy(newton_system):
    # on the Newton matrix of a solve, one flip, as many as K has negative
    # eigenvalues, and solutions as good as scipy.linalg.solve_banded's
    # pivoted LU; <W u, K^-1 W u> < 0, as at a local minimum on the mass
    # sphere
    _, K, rhs = newton_system
    ab = K.copy(order="F")
    flips = _lapack.ldlt_banded(ab)
    assert len(flips) == negative_count(K) == 1
    for b in (rhs[:, 0], rhs[:, 1]):
        x = np.array(b)
        assert _lapack.ldlt_solve_banded(ab, flips, x) is x
        assert solves_as_well_as_lu(K, x, b)
    y = _lapack.ldlt_solve_banded(ab, flips, np.array(rhs[:, 1]))
    assert np.dot(rhs[:, 1], y) < 0.0


def test_solve_with_kept_factors_matches_scipy(newton_system, rng):
    # ldlt_solve_banded with the factor and flips ldlt_banded left solves
    # in place, as well as scipy.linalg.solve_banded, and leaves the factor
    # as it is: a solve after another solve is the first's bit for bit
    grid, K, rhs = newton_system
    ab = K.copy(order="F")
    flips = _lapack.ldlt_banded(ab)
    factors = frozen(ab, flips)
    b1 = grid.weights * rng.standard_normal(grid.n)
    x1 = np.array(b1)
    assert _lapack.ldlt_solve_banded(ab, flips, x1) is x1
    assert solves_as_well_as_lu(K, x1, b1)
    _lapack.ldlt_solve_banded(ab, flips, np.array(rhs[:, 1]))
    assert np.array_equal(_lapack.ldlt_solve_banded(ab, flips, np.array(b1)),
                          x1)
    assert unchanged(factors, ab, flips)
    bad = np.array(b1)
    bad[7] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        _lapack.ldlt_solve_banded(ab, flips, bad)


def test_fortran_ordered_inputs_are_not_written(newton_system):
    # the preconditioner's factor and solve write neither the grid's band,
    # the factor nor v, though each is what LAPACK would overwrite; the
    # LDL^T instead overwrites its band with the factor and b with the
    # solution
    grid, K, rhs = newton_system
    K, rhs = fortran(K, rhs)
    v = rhs[:, 1]
    before = frozen(K, rhs)
    cb = minimizer.cholesky_banded(grid, 0.37)
    held = frozen(cb)
    x = minimizer.cho_solve_banded(cb, grid, v)
    assert unchanged(before, K, rhs) and unchanged(held, cb)
    assert not np.shares_memory(cb, grid.newton_band)
    assert not np.shares_memory(x, v)
    flips = _lapack.ldlt_banded(K)
    for k in range(2):
        col = rhs[:, k]
        assert _lapack.ldlt_solve_banded(K, flips, col) is col
    assert not np.array_equal(K, before[0])
    assert not np.array_equal(rhs, before[1])
    assert solves_as_well_as_lu(before[0], rhs, before[1])


# ---------------------------------------------------------- error contract


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_raises_value_error(newton_system, bad):
    grid, K, rhs = newton_system
    cb = minimizer.cholesky_banded(grid, 0.37)
    factor = K.copy(order="F")
    flips = _lapack.ldlt_banded(factor)

    def planted(x, idx):
        x = x.copy(order="K")
        x[idx] = bad
        return x

    calls = [
        # the preconditioner's shift and right-hand side
        lambda: minimizer.cholesky_banded(grid, bad),
        lambda: minimizer.cho_solve_banded(cb, grid, planted(rhs[:, 1], 5)),
        # dpbtrf does not stop on a NaN: the diagonal row is checked
        lambda: _lapack.ldlt_banded(planted(K, (0, 11))),
        lambda: _lapack.ldlt_solve_banded(factor, flips,
                                          planted(rhs[:, 1], 13)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="infs or NaNs"):
            call()


def test_band_that_is_not_positive_definite_raises(newton_system):
    # a negative shift leaves the descent's P with negative eigenvalues
    # (the least shift has one, and P falls with a): the factor flips a
    # column, and cholesky_banded raises LinAlgError, as scipy's lower-band
    # Cholesky does on the same band
    grid = newton_system[0]
    shifts = (-2.5e-3, -0.37, -7.0)
    for a in shifts:
        with pytest.raises(np.linalg.LinAlgError,
                           match="not positive definite"):
            minimizer.cholesky_banded(grid, a)
    sl = pytest.importorskip("scipy.linalg")
    assert negative_count(precond_band(grid, shifts[0])) >= 1
    for a in shifts:
        with pytest.raises(np.linalg.LinAlgError):
            sl.cholesky_banded(precond_band(grid, a), lower=True)


def test_singular_newton_matrix_raises(newton_system):
    # an exact zero Schur pivot: a zero first column, and a zero row and
    # column 100, whose pivot is 0 less nothing; scipy's pivoted LU finds
    # both singular too
    _, K, rhs = newton_system
    first = K.copy(order="F")
    first[:, 0] = 0.0
    middle = K.copy(order="F")
    middle[:, 100] = 0.0
    for d in range(1, 5):
        middle[d, 100 - d] = 0.0
    for ab in (first, middle):
        with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
            _lapack.ldlt_banded(ab.copy(order="F"))
    sl = pytest.importorskip("scipy.linalg")
    for ab in (first, middle):
        with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
            sl.solve_banded((4, 4), full_band(ab), rhs)


def test_misshapen_input_is_rejected_before_lapack(newton_system):
    # LAPACK would read past the buffers, or write the grid's held band;
    # the arrays are checked first. A solve takes one right-hand side of
    # shape (n,): an (n, 2) array is rejected too
    grid, K, rhs = newton_system
    for ab in (np.ascontiguousarray(K), K.astype(np.float32),
               grid.newton_band):
        before = frozen(ab)
        with pytest.raises(ValueError):
            _lapack.ldlt_banded(ab)
        assert unchanged(before, ab)
    fixed = K.copy(order="F")
    flips = _lapack.ldlt_banded(fixed)
    col = rhs[:, 1]
    for b in (col[1:].copy(), np.ascontiguousarray(rhs)[:, 1],
              col.astype(np.float32), np.zeros((grid.n, 2, 1), order="F"),
              rhs.copy(order="F")):
        before = frozen(b)
        with pytest.raises(ValueError):
            _lapack.ldlt_solve_banded(fixed, flips, b)
        assert unchanged(before, b)
    b = col.copy()
    with pytest.raises(ValueError):
        _lapack.ldlt_solve_banded(np.ascontiguousarray(fixed), flips, b)
    assert np.array_equal(b, col)


def scipy_fallback(monkeypatch):
    """Route _lapack's two routines through scipy.linalg, as where
    numpy.libs holds no bundled OpenBLAS."""
    sl = pytest.importorskip("scipy.linalg")
    monkeypatch.setattr(_lapack, "_lapack_dpbtrf", sl.lapack.dpbtrf,
                        raising=False)
    monkeypatch.setattr(_lapack, "_blas_dtbsv", sl.blas.dtbsv,
                        raising=False)
    monkeypatch.setattr(_lapack, "_pbtrf", _lapack._scipy_pbtrf)
    monkeypatch.setattr(_lapack, "_tbsv", _lapack._scipy_tbsv)


def test_scipy_fallback_factor_matches_in_place(newton_system, monkeypatch):
    # the fallback through scipy.linalg.lapack.dpbtrf leaves the same
    # factor and flips, in the same array, and raises the same errors
    _, K, rhs = newton_system
    ab = K.copy(order="F")
    flips = _lapack.ldlt_banded(ab)
    scipy_fallback(monkeypatch)
    ab2 = K.copy(order="F")
    assert np.array_equal(_lapack.ldlt_banded(ab2), flips)
    assert np.array_equal(ab2, ab)
    singular = K.copy(order="F")
    singular[:, 0] = 0.0
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        _lapack.ldlt_banded(singular)
    bad = K.copy(order="F")
    bad[0, 13] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        _lapack.ldlt_banded(bad)


def test_scipy_fallback_solves_match(newton_system, monkeypatch, rng):
    # through scipy.linalg.blas.dtbsv the solutions with the kept factor,
    # and the preconditioner's factor and solutions, are the bundled
    # kernels', bit for bit
    grid, K, rhs = newton_system
    ab = K.copy(order="F")
    flips = _lapack.ldlt_banded(ab)
    v = rng.standard_normal(grid.n)
    got = []
    for fallback in (False, True):
        if fallback:
            scipy_fallback(monkeypatch)
        ys = [np.array(b) for b in (grid.weights, rhs[:, 0], rhs[:, 1])]
        for y in ys:
            _lapack.ldlt_solve_banded(ab, flips, y)
        cb = minimizer.cholesky_banded(grid, 0.37)
        got.append(ys + [cb, minimizer.cho_solve_banded(cb, grid, v)])
    for a, b in zip(*got):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("tail", [0, 1, 2, 3])
def test_flips_near_the_end_of_the_band(tail):
    # a negative pivot at column n - 1 - tail, where fewer than kd = 4 rows
    # lie below it, alone and beside one at column 5: the flips name those
    # columns, count eigvalsh's negative eigenvalues and solve K x = b
    rng = np.random.default_rng(4500 + tail)
    n = 23
    for cols in ([n - 1 - tail], [5, n - 1 - tail]):
        K = np.zeros((n, n))
        for d in range(1, 5):
            v = 0.3 * rng.uniform(-1.0, 1.0, n - d)
            K += np.diag(v, d) + np.diag(v, -d)
        # by Gershgorin, one negative eigenvalue per column set to -5
        diag = np.full(n, 3.0)
        diag[cols] = -5.0
        K += np.diag(diag)
        low = np.zeros((5, n), order="F")
        for d in range(5):
            low[d, :n - d] = np.diagonal(K, d)
        flips = _lapack.ldlt_banded(low)
        assert list(flips) == cols
        assert len(flips) == np.count_nonzero(np.linalg.eigvalsh(K) < 0.0)
        b = rng.standard_normal(n)
        x = _lapack.ldlt_solve_banded(low, flips, b.copy())
        assert np.linalg.norm(K @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_import_builds_no_table():
    # the flip index tables are built by the flips that first need them,
    # not at import
    proc = fresh_python("-c", "import bhgs._lapack as k; "
                        "print(k._tril.cache_info().currsize)")
    assert (proc.stdout, proc.stderr) == ("0\n", "")


def test_nan_in_newton_matrix_gives_up_the_finish(grid_solve, monkeypatch):
    # the Newton loop reads the kernel's ValueError as "no step": the
    # loose-point finish returns (None, steps) and the descent carries on
    c = 0.5 * mass_threshold(P53)[1]
    fld, b = minimizer.seed(P53, mass_threshold(P53), c, grid_solve)
    orig = minimizer.ldlt_banded

    def planted(ab):
        ab[0, 17] = np.nan           # a diagonal entry of K
        return orig(ab)

    monkeypatch.setattr(minimizer, "ldlt_banded", planted)
    done, steps = _newton(P53, c, [fld, b], NEWTON_STEPS, loose=True)
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

# runs command {argv} after the lines {setup}, then prints the kernel
# backend it took last
COMMAND = """
import sys
{setup}
import bhgs.cli
rc = bhgs.cli.main({argv!r})
print(getattr(sys.modules.get("bhgs._lapack"), "BACKEND", None))
sys.exit(rc)
"""


@pytest.mark.parametrize("name", list(RUNS))
def test_commands_agree_without_scipy_and_on_the_fallback(name, tmp_path):
    # byte-identical stdout and output files from a normal run, a run with
    # scipy unimportable, and, where scipy is installed, a run on the
    # scipy fallback
    argv, env, files = RUNS[name]
    runs = []
    for setup, backend in (("", "numpy.libs"), (NO_SCIPY, "numpy.libs"),
                           (NO_BUNDLE, "scipy.linalg")):
        if setup == NO_BUNDLE:
            pytest.importorskip("scipy.linalg")
        cwd = tmp_path / f"run{len(runs)}"
        cwd.mkdir()
        proc = fresh_python("-c", COMMAND.format(setup=setup, argv=argv),
                            env=env, cwd=cwd)
        assert proc.stderr == ""
        *records, took = proc.stdout.splitlines()
        assert took == backend
        runs.append((records, [(cwd / f).read_bytes() for f in files]))
        assert runs[-1] == runs[0]


@pytest.mark.parametrize("name", list(RUNS))
def test_no_backend_is_a_named_failure(name, tmp_path):
    # neither the bundled library nor scipy.linalg: exit 2 with one
    # no-lapack JSON line on stderr, not a traceback
    argv, env, _ = RUNS[name]
    proc = fresh_python("-c", COMMAND.format(setup=NO_SCIPY + NO_BUNDLE,
                                             argv=argv),
                        env=env, cwd=tmp_path, check=False)
    assert proc.returncode == 2
    (line,) = proc.stderr.splitlines()
    rec = json.loads(line)
    assert rec["error"] == "no-lapack"
    assert "scipy.linalg cannot be imported" in rec["message"]
