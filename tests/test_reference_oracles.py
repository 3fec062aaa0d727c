"""Bitwise oracles for the cold-start path.

The quadrature weights come from closed-form power sums and the Laplacian is
stored as one (5, n) band. Both must reproduce, bit for bit, the original
implementations kept below as references: the O(n) Fraction weight loop, the
CSR Laplacian with its cached CSR transpose, and the sparse triple product
that fed the banded Cholesky.
"""
import importlib.util
import json
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


LAZY = ("scipy.linalg", "scipy.sparse", "scipy.interpolate", "mpmath",
        "bhgs.verify")


def run_fresh(code, cwd=None, env_extra=None):
    """stdout of `code` run in a fresh interpreter that imports bhgs from
    this checkout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(bhgs.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    env.update(env_extra or {})
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                          check=True, capture_output=True, text=True).stdout


def loaded_after(code, cwd=None, env_extra=None):
    report = f"import sys; print(sorted(m for m in {LAZY!r} if m in sys.modules))"
    out = run_fresh(code + "\n" + report, cwd, env_extra)
    return out.strip().splitlines()[-1]


def test_cli_import_skips_sparse_and_interpolate():
    # nor scipy.linalg: no command loads it; nor bhgs.verify
    for code in ("import bhgs", "import bhgs.cli"):
        assert loaded_after(code) == "[]", code


# runs {code}, recording the libraries ctypes opens, then prints whether
# bhgs._lapack is loaded and whether an OpenBLAS library was opened
KERNEL_PROBE = """
import ctypes, sys
opened = []
class Counting(ctypes.CDLL):
    def __init__(self, name, *args, **kwargs):
        opened.append(name)
        super().__init__(name, *args, **kwargs)
ctypes.CDLL = Counting
{code}
print("bhgs._lapack" in sys.modules,
      any("openblas" in str(name) for name in opened))
"""


def test_import_leaves_the_band_kernels_unloaded(tmp_path):
    # the kernel module and its library load on the first factorization,
    # so importing the package costs no set-up time for them
    for code in ("import bhgs", "import bhgs.cli"):
        out = run_fresh(KERNEL_PROBE.format(code=code), tmp_path)
        assert out.split() == ["False", "False"], code
    solve = ("import bhgs.cli; "
             "assert bhgs.cli.main(['solve', '--c', '0.6']) == 0")
    out = run_fresh(KERNEL_PROBE.format(code=solve), tmp_path)
    assert out.splitlines()[-1].split() == ["True", "True"]


@pytest.mark.parametrize("argv,env_extra,want", [
    (["constants"], None, "[]"),
    (["landscape"], None, "['bhgs.verify']"),
    (["fiber", "--field", "gs.csv"], None, "[]"),
    (["verify"], None, "['bhgs.verify']"),
    (["solve", "--c", "0.6", "--out", "out.csv"], None, "[]"),
    (["sweep"], None, "[]"),
    (["constants"], {"BHGS_CONSTANTS__MODE": "estimated"}, "[]"),
], ids=["constants", "landscape", "fiber", "verify", "solve", "sweep",
        "constants-estimated"])
def test_command_import_footprint(argv, env_extra, want, tmp_path):
    # the band kernels come from numpy's bundled LAPACK, so no command
    # loads scipy.linalg, scipy.sparse or scipy.interpolate; none loads
    # mpmath; only landscape and verify load bhgs.verify
    if argv[0] == "fiber":
        g = build_grid(5, 2049, 1000.0)
        bhgs.save_field(bhgs.RadialField(g, np.exp(-0.5 * g.nodes ** 2)),
                        str(tmp_path / "gs.csv"))
    code = f"import bhgs.cli; rc = bhgs.cli.main({argv!r}); assert rc == 0, rc"
    assert loaded_after(code, tmp_path, env_extra) == want


# -------------------------------------------------------------- trace contract

def test_traced_layer_names_resolve(monkeypatch):
    # the benchmark's tracer wraps bench/spans.py LAYERS by name, so a
    # rename in bhgs would otherwise break only the traced benchmark run;
    # load the file without writing bytecode next to it
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                        "spans.py")
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for layer, names in spans.LAYERS.items():
        mod = importlib.import_module(f"bhgs.{layer}")
        missing += [f"{layer}.{name}" for name in names
                    if not callable(getattr(mod, name, None))]
    assert missing == []


TRACE_CONTRACT = """
import json, sys
import numpy as np
from bhgs import LandscapeParams, build_grid, mass_threshold, minimizer

names = ("cholesky_banded", "cho_solve_banded", "solve_banded")
resolved = [callable(getattr(minimizer, n)) for n in names]
linalg_before = "scipy.linalg" in sys.modules

# rebind the module attributes, as an outside tracer does
calls = dict.fromkeys(names, 0)
orig = {n: getattr(minimizer, n) for n in names}
def counting(n):
    def wrapper(*args, **kwargs):
        calls[n] += 1
        return orig[n](*args, **kwargs)
    return wrapper
for n in names:
    setattr(minimizer, n, counting(n))

p = LandscapeParams(N=5, q=3.0, mu=1.0)
grid = build_grid(5, 2049, 1000.0)
c = 0.5 * mass_threshold(p)[1]
traced = minimizer.minimize(p, grid, c)
solve_calls = dict(calls)
calls.update(dict.fromkeys(names, 0))
minimizer.estimate_gn_constant(p, build_grid(5, 1025, 40.0))
gn_calls = dict(calls)

for n in names:
    setattr(minimizer, n, orig[n])
plain = minimizer.minimize(p, grid, c)
same = (np.array_equal(traced.field.values, plain.field.values)
        and all(getattr(traced, k) == getattr(plain, k)
                for k in ("c", "m", "lam", "q_residual", "bend", "iters",
                          "constraint_active")))
print(json.dumps({"resolved": resolved, "linalg_before": linalg_before,
                  "iters": traced.iters, "solve_calls": solve_calls,
                  "gn_calls": gn_calls, "same": same}))
"""


def test_banded_kernels_are_traceable_before_any_solve():
    out = json.loads(run_fresh(TRACE_CONTRACT))
    assert out["resolved"] == [True, True, True]
    assert out["linalg_before"] is False
    calls = out["solve_calls"]
    # one linear solve per iteration but the last: preconditioned descent
    # steps, then the Newton finish
    assert calls["cho_solve_banded"] + calls["solve_banded"] == out["iters"] - 1
    assert calls["solve_banded"] >= 1
    assert calls["cholesky_banded"] >= 1
    assert out["gn_calls"]["cholesky_banded"] >= 1
    assert out["gn_calls"]["cho_solve_banded"] >= 1
    assert out["same"] is True
