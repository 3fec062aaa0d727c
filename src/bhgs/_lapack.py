"""The three LAPACK band kernels the solver needs, without scipy.

pbtrf and pbtrs (banded Cholesky factor and solve) serve the descent
preconditioner and the C_gn ascent; gbsv (banded LU solve) serves the Newton
finish. numpy's wheels bundle an OpenBLAS, numpy.libs/libscipy_openblas64_*.so,
that exports them as scipy_dpbtrf_64_, scipy_dpbtrs_64_ and scipy_dgbsv_64_
with 64-bit integers; this module calls them through ctypes. That file name
and those symbols are wheel internals, not an API, so where either is
missing the module takes scipy.linalg's functions of the same names instead.
BACKEND names the one taken when the module was first imported.

For the 2-D band storage and the one or more right-hand sides the solver
passes, the functions keep scipy.linalg's contract: ValueError on a
non-finite entry, LinAlgError when LAPACK finds the matrix singular or not
positive definite, and inputs are never written. Each call copies its band
and right-hand side into Fortran-ordered work arrays for LAPACK to overwrite;
the overwrite flags are accepted and ignored.
"""
import ctypes
import glob
import os

import numpy as np

__all__ = ["BACKEND", "cholesky_banded", "cho_solve_banded", "solve_banded"]


# per routine: the count of its pointer arguments, info last, and of its
# one-character flags, whose hidden Fortran lengths follow info
_SIGNATURES = {"pbtrf": (6, 1), "pbtrs": (9, 1), "gbsv": (10, 0)}


def _bundled_routines():
    # [pbtrf, pbtrs, gbsv] from the OpenBLAS in numpy.libs, or None
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs", "libscipy_openblas64_*.so")
    for path in sorted(glob.glob(libs)):
        try:
            lib = ctypes.CDLL(path)
            routines = [getattr(lib, f"scipy_d{name}_64_")
                        for name in _SIGNATURES]
        except (OSError, AttributeError):
            continue
        for fn, (pointers, flags) in zip(routines, _SIGNATURES.values()):
            fn.argtypes = ([ctypes.c_void_p] * pointers
                           + [ctypes.c_size_t] * flags)
            fn.restype = None
        return routines
    return None


def _checked(a: np.ndarray, check_finite: bool) -> np.ndarray:
    if check_finite and not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    return a


def _ref(a):
    # LAPACK takes every argument by reference: arrays as their buffers,
    # a one-character flag as bytes, integers as int64
    if isinstance(a, np.ndarray):
        return a.ctypes
    return a if isinstance(a, bytes) else ctypes.byref(ctypes.c_int64(a))


def _call(routine, *args) -> int:
    # returns info, raising on an illegal argument
    info = ctypes.c_int64()
    routine(*map(_ref, args), ctypes.byref(info),
            *(len(a) for a in args if isinstance(a, bytes)))
    if info.value < 0:
        raise ValueError(
            f"illegal value in argument {-info.value} of {routine.__name__}")
    return info.value


def _rhs(b, n: int, check_finite: bool) -> tuple[np.ndarray, int]:
    # a Fortran-ordered copy of b for LAPACK to overwrite, and its columns
    x = _checked(np.array(b, dtype=np.float64, order="F"), check_finite)
    if x.ndim not in (1, 2) or x.shape[0] != n:
        raise ValueError(f"right-hand side of shape {x.shape} does not fit "
                         f"a band of {n} columns")
    return x, 1 if x.ndim == 1 else x.shape[1]


def cholesky_banded(ab, overwrite_ab=False, lower=False, check_finite=True):
    c = _checked(np.array(ab, dtype=np.float64, order="F"), check_finite)
    kd1, n = c.shape
    info = _call(_pbtrf, b"L" if lower else b"U", n, kd1 - 1, c, kd1)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor not positive definite")
    return c


def cho_solve_banded(cb_and_lower, b, overwrite_b=False, check_finite=True):
    cb, lower = cb_and_lower
    # pbtrs only reads the factor, so a Fortran-ordered one is not copied
    c = _checked(np.asfortranarray(cb, dtype=np.float64), check_finite)
    kd1, n = c.shape
    x, nrhs = _rhs(b, n, check_finite)
    _call(_pbtrs, b"L" if lower else b"U", n, kd1 - 1, nrhs, c, kd1, x, n)
    return x


def solve_banded(l_and_u, ab, b, overwrite_ab=False, overwrite_b=False,
                 check_finite=True):
    kl, ku = l_and_u
    a = np.asarray(ab)
    if a.ndim != 2 or a.shape[0] != kl + ku + 1:
        raise ValueError(f"band of shape {a.shape} does not hold "
                         f"{kl} + {ku} + 1 diagonals")
    n = a.shape[1]
    # gbsv needs kl extra rows above the band for the fill-in of pivoting
    lu = np.zeros((2 * kl + ku + 1, n), order="F")
    lu[kl:] = a
    _checked(lu, check_finite)
    x, nrhs = _rhs(b, n, check_finite)
    piv = np.empty(n, dtype=np.int64)
    if _call(_gbsv, n, kl, ku, nrhs, lu, 2 * kl + ku + 1, piv, x, n):
        raise np.linalg.LinAlgError("singular matrix")
    return x


_routines = _bundled_routines()
if _routines is not None:
    BACKEND = "numpy.libs"
    _pbtrf, _pbtrs, _gbsv = _routines
else:
    BACKEND = "scipy.linalg"
    try:
        from scipy.linalg import (  # noqa: F811
            cho_solve_banded, cholesky_banded, solve_banded)
    except ImportError as exc:
        raise ImportError(
            "no LAPACK band kernels: numpy.libs holds no "
            "libscipy_openblas64_ library with pbtrf, pbtrs and gbsv, and "
            "scipy.linalg cannot be imported") from exc
