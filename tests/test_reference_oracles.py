"""Bitwise oracles for the cold-start path.

The quadrature weights come from closed-form power sums and the Laplacian is
stored as one (5, n) band. Both must reproduce, bit for bit, the original
implementations kept below as references: the O(n) Fraction weight loop, the
CSR Laplacian with its cached CSR transpose, and the sparse triple product
that fed the banded Cholesky.
"""
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

import bhgs
from bhgs import build_grid, minimizer
from bhgs.grid import _bernoulli, _solve5, _weight_core

# ---------------------------------------------------------------- references


def ref_weight_core(N, n):
    X = n - 1
    v = [Fraction(i) ** (N - 1) for i in range(n)]
    v[X] /= 2
    pin = Fraction(1, N * (N + 1))
    v[0] = pin
    A = [[Fraction(i) ** m for i in range(1, 6)] for m in range(5)]
    bL = []
    for m in range(5):
        t = _bernoulli(m + N) / (m + N) if (m + N) % 2 == 0 else Fraction(0)
        if m == 0:
            t -= pin
        bL.append(t)
    dL = _solve5(A, bL)
    bR = []
    for k in range(5):
        T = (Fraction((-1) ** k) * Fraction(X) ** (k + N)
             * Fraction(math.factorial(k) * math.factorial(N - 1),
                        math.factorial(k + N)))
        S = sum(v[i] * Fraction(i - X) ** k for i in range(n))
        dLq = sum(dL[j] * Fraction(j + 1 - X) ** k for j in range(5))
        bR.append(T - S - dLq)
    AR = [[Fraction(t) ** k for t in range(-4, 1)] for k in range(5)]
    dR = _solve5(AR, bR)
    for j in range(5):
        v[1 + j] += dL[j]
        v[X - 4 + j] += dR[j]
    return np.array([float(x) for x in v])


def ref_laplacian(N, n, r_max):
    h = r_max / (n - 1)
    c2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * h * h)
    c1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * h)
    rows, cols, vals = [0, 0, 0], [0, 1, 2], [
        N * (-30.0) / (12.0 * h * h),
        N * 32.0 / (12.0 * h * h),
        N * (-2.0) / (12.0 * h * h),
    ]
    for i in range(1, n):
        r = i * h
        for off in range(-2, 3):
            j = i + off
            coeff = c2[off + 2] + (N - 1) / r * c1[off + 2]
            if j < 0:
                j = -j
            if j < n:
                rows.append(i)
                cols.append(j)
                vals.append(coeff)
    m = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    m.sum_duplicates()
    return m


def ref_band_input(lap, weights, a):
    # the cholesky_banded input the sparse assembly produced
    lap_t = sp.csr_matrix(lap.T)
    K = (lap_t @ sp.diags(weights) @ lap + sp.diags(a * weights)).todia()
    ab = np.zeros((5, lap.shape[0]))
    for off, diag in zip(K.offsets, K.data):
        if off >= 0:
            ab[4 - off, :] = diag
    return ab


# ------------------------------------------------------------------- weights


@pytest.mark.parametrize("n", [64, 65, 257, 2049, 8193])
@pytest.mark.parametrize("N", [5, 6, 7, 8, 9, 10])
def test_weights_match_fraction_loop(N, n):
    assert np.array_equal(_weight_core.__wrapped__(N, n), ref_weight_core(N, n))


def test_weights_match_fraction_loop_large_n():
    assert np.array_equal(_weight_core.__wrapped__(5, 32769),
                          ref_weight_core(5, 32769))


# ------------------------------------------------------------------ operator

GRIDS = [(5, 64, 12.0), (5, 2049, 1000.0), (7, 257, 3.3), (10, 65, 40.0),
         (8, 1025, 30.0)]


@pytest.mark.parametrize("N,n,r_max", GRIDS)
def test_band_holds_the_csr_entries(N, n, r_max):
    D = build_grid(N, n, r_max).lap_band
    L = ref_laplacian(N, n, r_max).toarray()
    want = np.zeros((5, n))
    for k in range(5):
        i = np.arange(max(0, 2 - k), min(n, n + 2 - k))
        want[k, i] = L[i, i + k - 2]
    assert np.array_equal(D, want)


@pytest.mark.parametrize("N,n,r_max", GRIDS)
def test_apply_matches_csr(N, n, r_max, rng):
    g = build_grid(N, n, r_max)
    lap = ref_laplacian(N, n, r_max)
    lap_t = sp.csr_matrix(lap.T)
    for _ in range(4):
        x = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
        x[rng.random(n) < 0.1] = 0.0
        assert np.array_equal(g.lap_apply(x), lap @ x)
        assert np.array_equal(g.lap_t_apply(x), lap_t @ x)


@pytest.mark.parametrize("a", [1e-12, 0.37, 5.0])
@pytest.mark.parametrize("N,n,r_max", GRIDS)
def test_factor_input_matches_sparse_assembly(N, n, r_max, a, monkeypatch):
    g = build_grid(N, n, r_max)
    seen = []
    monkeypatch.setattr(minimizer, "cholesky_banded",
                        lambda ab, lower: seen.append(ab.copy()))
    minimizer._banded_factor(g, a)
    want = ref_band_input(ref_laplacian(N, n, r_max), g.weights, a)
    assert len(seen) == 1 and np.array_equal(seen[0], want)


# ------------------------------------------------------------ import footprint


def test_cli_import_skips_sparse_and_interpolate():
    src = os.path.dirname(os.path.dirname(os.path.abspath(bhgs.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    code = ("import sys, bhgs.cli; "
            "print(sorted(m for m in ('scipy.sparse', 'scipy.interpolate') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
