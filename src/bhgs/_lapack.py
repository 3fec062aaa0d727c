"""The four LAPACK band kernels the solver needs, without scipy.

pbtrf and pbtrs (banded Cholesky factor and solve) serve the descent
preconditioner; gbsv (banded LU solve) and gbtrs (a solve with the LU
factors gbsv left) serve Newton. numpy's wheels bundle an
OpenBLAS, numpy.libs/libscipy_openblas64_*.so, that exports them as
scipy_dpbtrf_64_, scipy_dpbtrs_64_, scipy_dgbsv_64_ and scipy_dgbtrs_64_
with 64-bit integers; this module calls them through ctypes. That file name
and those symbols are wheel internals, not an API, so where either is
missing the module takes scipy.linalg's cholesky_banded and cho_solve_banded
and scipy.linalg.lapack's dgbsv and dgbtrs instead. BACKEND names the one
taken when the module was first imported. Where neither loads, importing
the module raises landscape.KernelsUnavailable, which the CLI reports as
no-lapack.

cholesky_banded and cho_solve_banded keep scipy.linalg's contract for the
2-D band storage and the one or more right-hand sides the solver passes,
with its default arguments: cholesky_banded takes the upper band,
cho_solve_banded the (factor, lower) pair, ValueError on a non-finite entry,
LinAlgError when LAPACK finds the matrix not positive definite, and inputs
are never written. Each call copies its band and right-hand side into
Fortran-ordered work arrays for LAPACK to overwrite.

gbsv is LAPACK's own contract instead: it works in place on a band its
caller has already laid out in gbsv's (2 kl + ku + 1, n) Fortran storage,
overwriting the band with its LU factors and the right-hand side with the
solution, so a caller that solves many systems of one shape reuses two
arrays and copies nothing. It raises ValueError on a non-finite entry or an
array it cannot overwrite as it stands, and LinAlgError when singular.
gbtrs keeps the same contract for b, and reads the factors and the pivots
gbsv left as they stand.
"""
import ctypes
import glob
import os

import numpy as np

from .landscape import KernelsUnavailable

__all__ = ["BACKEND", "cholesky_banded", "cho_solve_banded", "gbsv", "gbtrs"]


# per routine: the count of its pointer arguments, info last, and of its
# one-character flags, whose hidden Fortran lengths follow info
_SIGNATURES = {"pbtrf": (6, 1), "pbtrs": (9, 1), "gbsv": (10, 0),
               "gbtrs": (11, 1)}


def _bundled_routines():
    # [pbtrf, pbtrs, gbsv, gbtrs] from the OpenBLAS in numpy.libs, or None
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


def _checked(a: np.ndarray) -> np.ndarray:
    if not np.isfinite(a).all():
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


def _rhs(b, n: int) -> tuple[np.ndarray, int]:
    # a Fortran-ordered copy of b for LAPACK to overwrite, and its columns
    x = _checked(np.array(b, dtype=np.float64, order="F"))
    if x.ndim not in (1, 2) or x.shape[0] != n:
        raise ValueError(f"right-hand side of shape {x.shape} does not fit "
                         f"a band of {n} columns")
    return x, 1 if x.ndim == 1 else x.shape[1]


def cholesky_banded(ab):
    c = _checked(np.array(ab, dtype=np.float64, order="F"))
    kd1, n = c.shape
    info = _call(_pbtrf, b"U", n, kd1 - 1, c, kd1)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor not positive definite")
    return c


def cho_solve_banded(cb_and_lower, b):
    cb, lower = cb_and_lower
    # pbtrs only reads the factor, so a Fortran-ordered one is not copied
    c = _checked(np.asfortranarray(cb, dtype=np.float64))
    kd1, n = c.shape
    x, nrhs = _rhs(b, n)
    _call(_pbtrs, b"L" if lower else b"U", n, kd1 - 1, nrhs, c, kd1, x, n)
    return x


def gbsv(kl: int, ku: int, ab: np.ndarray, b: np.ndarray,
         piv: np.ndarray | None = None) -> np.ndarray:
    """Solve A x = b for the band matrix A, in place, as LAPACK gbsv.

    ab is a Fortran-ordered float64 array of shape (2 kl + ku + 1, n) with
    A[i, j] at ab[kl + ku + i - j, j]; its first kl rows are LAPACK's
    fill-in workspace, which it sets before use, so they need not be set
    and are not read. b is a Fortran-ordered float64 array of shape (n,)
    or (n, nrhs). On return ab holds the LU factors and b the solution,
    which is also returned, and piv, an int64 array of n entries if given,
    the row interchanges. ValueError on a non-finite entry of the band
    or of b, or on an array of another shape, dtype or order; LinAlgError
    when the matrix is singular.
    """
    _inplace(ab, 2, 2 * kl + ku + 1)
    _inplace(b, np.ndim(b), ab.shape[1])
    _checked(ab[kl:])
    _checked(b)
    if piv is None:
        piv = np.empty(ab.shape[1], dtype=np.int64)
    _inplace(piv, 1, ab.shape[1], np.int64)
    if _gbsv_info(kl, ku, ab, b, piv):
        raise np.linalg.LinAlgError("singular matrix")
    return b


def gbtrs(kl: int, ku: int, ab: np.ndarray, piv: np.ndarray,
          b: np.ndarray) -> np.ndarray:
    """Solve A x = b, in place in b, with the factors ab and the pivots piv
    of A that gbsv left; b as for gbsv, and returned."""
    _inplace(ab, 2, 2 * kl + ku + 1)
    _inplace(piv, 1, ab.shape[1], np.int64)
    _inplace(b, np.ndim(b), ab.shape[1])
    _checked(b)
    _gbtrs_info(kl, ku, ab, piv, b)
    return b


def _inplace(a, ndim: int, rows: int, dtype=np.float64) -> None:
    # an array LAPACK may overwrite as it stands: of dtype, Fortran-ordered,
    # writeable, of ndim 1 or 2 and with the given leading dimension
    if not (isinstance(a, np.ndarray) and a.dtype == dtype
            and a.flags.f_contiguous and a.flags.writeable
            and a.ndim == ndim and ndim in (1, 2) and a.shape[0] == rows):
        raise ValueError(
            f"gbsv and gbtrs need writeable Fortran-ordered {np.dtype(dtype)} "
            f"arrays of {rows} rows; got {getattr(a, 'shape', a)!r}")


def _bundled_gbsv(kl: int, ku: int, ab: np.ndarray, b: np.ndarray,
                  piv: np.ndarray) -> int:
    n = ab.shape[1]
    return _call(_gbsv, n, kl, ku, 1 if b.ndim == 1 else b.shape[1], ab,
                 ab.shape[0], piv, b, n)


def _bundled_gbtrs(kl: int, ku: int, ab: np.ndarray, piv: np.ndarray,
                   b: np.ndarray) -> int:
    n = ab.shape[1]
    return _call(_gbtrs, b"N", n, kl, ku, 1 if b.ndim == 1 else b.shape[1],
                 ab, ab.shape[0], piv, b, n)


def _scipy_gbsv(kl: int, ku: int, ab: np.ndarray, b: np.ndarray,
                piv: np.ndarray) -> int:
    # f2py overwrites Fortran-ordered float64 arrays in place; should it
    # ever copy, the results are written back
    lu, ipiv, x, info = _dgbsv(kl, ku, ab, b, overwrite_ab=True,
                               overwrite_b=True)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dgbsv")
    if lu is not ab:
        ab[...] = lu
    if x is not b:
        b[...] = x
    piv[...] = ipiv + 1                # f2py counts pivots from 0
    return info


def _scipy_gbtrs(kl: int, ku: int, ab: np.ndarray, piv: np.ndarray,
                 b: np.ndarray) -> int:
    x, info = _dgbtrs(ab, kl, ku, b.reshape(b.shape[0], -1, order="F"),
                      (piv - 1).astype(np.int32), overwrite_b=True)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dgbtrs")
    b[...] = x.reshape(b.shape)
    return info


_routines = _bundled_routines()
if _routines is not None:
    BACKEND = "numpy.libs"
    _pbtrf, _pbtrs, _gbsv, _gbtrs = _routines
    _gbsv_info, _gbtrs_info = _bundled_gbsv, _bundled_gbtrs
else:
    BACKEND = "scipy.linalg"
    try:
        from scipy.linalg import (  # noqa: F811
            cho_solve_banded, cholesky_banded)
        from scipy.linalg.lapack import dgbsv as _dgbsv, dgbtrs as _dgbtrs
    except ImportError as exc:
        raise KernelsUnavailable(
            "no LAPACK band kernels: numpy.libs holds no "
            "libscipy_openblas64_ library with pbtrf, pbtrs, gbsv and gbtrs, "
            "and scipy.linalg cannot be imported") from exc
    _gbsv_info, _gbtrs_info = _scipy_gbsv, _scipy_gbtrs
