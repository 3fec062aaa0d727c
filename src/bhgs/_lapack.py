"""The solver's band kernels from two routines, dpbtrf (banded Cholesky
factor) and dtbsv (triangular band solve), without scipy, both on the lower
band in LAPACK's storage.

numpy's wheels bundle an OpenBLAS, numpy.libs/libscipy_openblas64_*.so,
that exports them as scipy_dpbtrf_64_ and scipy_dtbsv_64_ with 64-bit
integers; this module calls them through ctypes. That file name and those
symbols are wheel internals, not an API, so where either is missing the
module takes scipy.linalg.lapack's dpbtrf and scipy.linalg.blas's dtbsv
instead. BACKEND names the one taken when the module was first imported.
Where neither loads, importing the module raises
landscape.KernelsUnavailable, which the CLI reports as no-lapack.

ldlt_banded and ldlt_solve_banded serve every banded solve, Newton's and
the descent preconditioner's: they factor and solve a symmetric band
matrix K that need not be definite, in place, without pivots. ldlt_banded
runs dpbtrf on the lower band, whose unit-stride rank-1 updates OpenBLAS
makes without a work buffer (0.31 ms at n = 8193 on a 2-vCPU Xeon, against
0.77 ms for dpbtrf's other storage). Where K is positive definite it flips no
column and leaves dpbtrf's Cholesky factor. Where it stops at a Schur
pivot d < 0, it flips that column (pivot -d, the column r below it
negated, 2 r r^T / |d| added to the trailing block) and resumes there.
Then K = L S L^T, S diagonal, -1 at the flipped columns and +1 elsewhere,
so by Sylvester's law of inertia the flips count K's negative eigenvalues.
ldlt_solve_banded solves for one right-hand side of shape (n,) with L, S
and two dtbsv calls. Both overwrite their arrays, which must be writeable,
Fortran-ordered float64; they check the band's diagonal row and the
right-hand side finite (ValueError), as dpbtrf does not stop on a NaN, and
trust the off-diagonal rows. LinAlgError where a Schur pivot is zero or
not finite.

The bundled routines take every argument by reference: arrays as their
buffers' addresses, integers as ctypes int64s built per call. A flip reads
the index tables of its trailing block, held per size (_tril) and built at
the first flip that needs one, not at import. Every check above runs on
every call.
"""
import ctypes
import glob
import math
import os
from functools import lru_cache

import numpy as np

from .landscape import KernelsUnavailable

__all__ = ["BACKEND", "ldlt_banded", "ldlt_solve_banded"]


def _bundled_routines():
    # [dpbtrf, dtbsv] from the OpenBLAS in numpy.libs, or None. Every
    # argument is a pointer: dpbtrf's 6 (info last) are followed by the
    # hidden length of its one flag, dtbsv's 9 by those of its three
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs", "libscipy_openblas64_*.so")
    for path in sorted(glob.glob(libs)):
        try:
            lib = ctypes.CDLL(path)
            routines = [lib.scipy_dpbtrf_64_, lib.scipy_dtbsv_64_]
        except (OSError, AttributeError):
            continue
        for fn, (pointers, flags) in zip(routines, ((6, 1), (9, 3))):
            fn.argtypes = ([ctypes.c_void_p] * pointers
                           + [ctypes.c_size_t] * flags)
            fn.restype = None
        return routines
    return None


def _checked(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


def _int(v: int):
    # BLAS and LAPACK take every argument by reference: an integer as an
    # int64, which the reference keeps alive; a one-character flag as
    # bytes, an array as its buffer's address
    return ctypes.byref(ctypes.c_int64(v))


def _bundled_pbtrf(ab: np.ndarray) -> int:
    # factor the lower band ab in place; LAPACK's info, raising on an
    # illegal argument
    kd1, n = ab.shape
    info = ctypes.c_int64()
    _dpbtrf(b"L", _int(n), _int(kd1 - 1), ab.ctypes.data, _int(kd1),
            ctypes.byref(info), 1)
    if info.value < 0:
        raise ValueError(f"illegal value in argument {-info.value} of dpbtrf")
    return info.value


def _bundled_tbsv(trans: bytes, ab: np.ndarray, x: np.ndarray) -> None:
    # x <- T^-1 x (trans N) or T^-T x (trans T), in place, T the lower
    # triangular band factor ab; x contiguous
    kd1, n = ab.shape
    _dtbsv(b"L", trans, b"N", _int(n), _int(kd1 - 1), ab.ctypes.data,
           _int(kd1), x.ctypes.data, _int(1), 1, 1, 1)


def _scipy_pbtrf(ab: np.ndarray) -> int:
    # f2py writes in place to the Fortran-ordered float64 arrays both pass
    info = _lapack_dpbtrf(ab, lower=1, overwrite_ab=1)[1]
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpbtrf")
    return info


def _scipy_tbsv(trans: bytes, ab: np.ndarray, x: np.ndarray) -> None:
    _blas_dtbsv(ab.shape[0] - 1, ab, x, lower=1, trans=trans == b"T",
                overwrite_x=1)


def _fits(x: np.ndarray, n: int) -> None:
    # x, one right-hand side for a band of n columns
    if x.shape != (n,):
        raise ValueError(f"right-hand side of shape {x.shape} does not fit "
                         f"a band of {n} columns")


def _overwritable(a, what: str) -> np.ndarray:
    # an array BLAS and LAPACK may overwrite as it stands
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64
            and a.flags.f_contiguous and a.flags.writeable):
        raise ValueError(f"{what} must be a writeable Fortran-ordered "
                         f"float64 array")
    return a


@lru_cache(maxsize=None)
def _tril(m: int) -> tuple:
    # (a, b, a - b) over the lower triangle a >= b of an m x m block, held
    # read-only per m, built at the first flip that needs it: m is at most
    # the bandwidth, so the table holds a few entries
    a, b = np.tril_indices(m)
    out = (a, b, a - b)
    for x in out:
        x.flags.writeable = False
    return out


def ldlt_banded(ab: np.ndarray) -> np.ndarray:
    """Factor the symmetric band matrix K as L S L^T, in place in ab.

    ab is K's lower band in LAPACK's storage, K[i, j] at ab[i - j, j] for
    the kd + 1 rows of ab, and is overwritten with the lower band of L.
    Returns the int64 array of the columns where S is -1, as many as K has
    negative eigenvalues. ValueError on a non-finite diagonal entry or an
    array of another dtype or order; LinAlgError where a Schur pivot is
    zero or not finite.
    """
    kd1, n = _overwritable(ab, "band").shape
    _checked(ab[0])
    flips = []
    j = 0
    while info := _pbtrf(ab[:, j:]):
        j += info - 1
        d = ab[0, j]
        if not -math.inf < d < 0.0:
            raise np.linalg.LinAlgError("singular matrix")
        # column j of the Schur complement below the pivot, r, and its
        # trailing block's entry (j + a, j + b), a >= b, at ab[a - b, j + b]
        m = min(kd1 - 1, n - 1 - j)
        r = -ab[1:m + 1, j]
        ab[0, j], ab[1:m + 1, j] = -d, r
        a, b, rows = _tril(m)
        ab[rows, j + 1 + b] += (2.0 / -d) * r[a] * r[b]
        flips.append(j)
    return np.array(flips, dtype=np.int64)


def ldlt_solve_banded(ab: np.ndarray, flips: np.ndarray,
                      b: np.ndarray) -> np.ndarray:
    """Solve K x = b in place in b with the factor ab and the flips that
    ldlt_banded left, and return b; b of shape (n,). ValueError on a
    non-finite entry of b or an array of another dtype, order or shape.

    K = L S L^T with L = ab, S -1 at flips and +1 elsewhere: two dtbsv
    calls, as LAPACK's dpbtrs makes, with S between."""
    _fits(_overwritable(b, "right-hand side"),
          _overwritable(ab, "factor").shape[1])
    _checked(b)
    _tbsv(b"N", ab, b)
    if len(flips):
        b[flips] = -b[flips]
    _tbsv(b"T", ab, b)
    return b


_routines = _bundled_routines()
if _routines is not None:
    BACKEND = "numpy.libs"
    _dpbtrf, _dtbsv = _routines
    _pbtrf, _tbsv = _bundled_pbtrf, _bundled_tbsv
else:
    BACKEND = "scipy.linalg"
    try:
        from scipy.linalg.blas import dtbsv as _blas_dtbsv
        from scipy.linalg.lapack import dpbtrf as _lapack_dpbtrf
    except ImportError as exc:
        raise KernelsUnavailable(
            "no LAPACK band kernels: numpy.libs holds no "
            "libscipy_openblas64_ library with dpbtrf and dtbsv, and "
            "scipy.linalg cannot be imported") from exc
    _pbtrf, _tbsv = _scipy_pbtrf, _scipy_tbsv
