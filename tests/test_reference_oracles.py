"""Bitwise oracles for the cold-start path.

The quadrature weights come from the Euler-Maclaurin boundary sums and the
Laplacian is stored as one (5, n) band. Both must reproduce, bit for bit, the original
implementations kept below as references: the O(n) Fraction weight loop, the
CSR Laplacian with its cached CSR transpose, and the sparse triple product
that fed the banded Cholesky. The operator references build on scipy.sparse;
without scipy their tests skip, and the weight and import-footprint tests
still run on numpy alone.
"""
import importlib.util
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np
import pytest

import bhgs
from bhgs import build_grid, minimizer
from bhgs.grid import _bernoulli, _solve5, _weight_core
from conftest import fresh_python

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
    sp = pytest.importorskip("scipy.sparse")
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
    # the preconditioner's band the sparse assembly produced, in lower
    # band storage
    sp = pytest.importorskip("scipy.sparse")
    n = lap.shape[0]
    lap_t = sp.csr_matrix(lap.T)
    K = (lap_t @ sp.diags(weights) @ lap + sp.diags(a * weights)).todia()
    ab = np.zeros((5, n))
    for off, diag in zip(K.offsets, K.data):
        if off >= 0:
            ab[off, :n - off] = diag[off:]
    return ab


# ------------------------------------------------------------------- weights


# every dim build_grid accepts up to 28, on small grids; dims 5-10 also on
# the solver's grids
WEIGHT_DIMS = [*range(5, 17), 19, 20, 21, 24, 25, 28]
WEIGHT_CASES = ([(N, n) for N in WEIGHT_DIMS for n in (64, 65, 257)]
                + [(N, n) for N in range(5, 11) for n in (2049, 8193)])


@pytest.mark.parametrize("N,n", WEIGHT_CASES)
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
    lap_t = lap.T.tocsr()
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

    def capture(ab):
        seen.append(ab.copy())
        return np.empty(0, dtype=np.int64)

    monkeypatch.setattr(minimizer, "ldlt_banded", capture)
    minimizer.cholesky_banded(g, a)
    want = ref_band_input(ref_laplacian(N, n, r_max), g.weights, a)
    assert len(seen) == 1 and np.array_equal(seen[0], want)


# ------------------------------------------------------------ import footprint


LAZY = ("scipy.linalg", "scipy.sparse", "scipy.interpolate", "mpmath",
        "bhgs.verify")


# runs {code}, recording the libraries ctypes opens, then prints whether
# bhgs.minimizer and bhgs._lapack are loaded and whether an OpenBLAS
# library was opened
KERNEL_PROBE = """
import ctypes, sys
opened = []
class Counting(ctypes.CDLL):
    def __init__(self, name, *args, **kwargs):
        opened.append(name)
        super().__init__(name, *args, **kwargs)
ctypes.CDLL = Counting
{code}
print("bhgs.minimizer" in sys.modules, "bhgs._lapack" in sys.modules,
      any("openblas" in str(name) for name in opened))
"""


def test_import_leaves_the_band_kernels_unloaded(tmp_path):
    # the minimizer binds the kernels at import, so only the commands that
    # solve load it and them: importing the package, the closed-form
    # commands and the sharp Sobolev constant load neither, and solve both
    g = build_grid(5, 2049, 1000.0)
    bhgs.save_field(bhgs.RadialField(g, np.exp(-0.5 * g.nodes ** 2)),
                    str(tmp_path / "gs.csv"))
    cli = "import bhgs.cli; assert bhgs.cli.main({!r}) == 0"
    for code in ("import bhgs", "import bhgs.cli",
                 cli.format(["constants"]), cli.format(["landscape"]),
                 cli.format(["fiber", "--field", "gs.csv"]),
                 cli.format(["verify"])):
        out = fresh_python("-c", KERNEL_PROBE.format(code=code),
                           cwd=tmp_path).stdout
        assert out.splitlines()[-1].split() == ["False"] * 3, code
    sob = ("import bhgs; bhgs.estimate_sobolev_constant("
           "bhgs.LandscapeParams(N=5, q=3.0)); "
           "assert 'numpy' not in sys.modules")
    out = fresh_python("-c", KERNEL_PROBE.format(code=sob),
                       cwd=tmp_path).stdout
    assert out.split() == ["False"] * 3
    out = fresh_python("-c", KERNEL_PROBE.format(
        code=cli.format(["solve", "--c", "0.6"])), cwd=tmp_path).stdout
    assert out.splitlines()[-1].split() == ["True"] * 3


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
    # mpmath; only landscape and verify load bhgs.verify. Each run imports
    # bhgs.cli first, so constants' empty list covers that import too
    if argv[0] == "fiber":
        g = build_grid(5, 2049, 1000.0)
        bhgs.save_field(bhgs.RadialField(g, np.exp(-0.5 * g.nodes ** 2)),
                        str(tmp_path / "gs.csv"))
    code = (f"import sys, bhgs.cli; assert bhgs.cli.main({argv!r}) == 0\n"
            f"print(sorted(m for m in {LAZY!r} if m in sys.modules))")
    out = fresh_python("-c", code, cwd=tmp_path, env=env_extra).stdout
    assert out.splitlines()[-1] == want


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

names = ("cholesky_banded", "cho_solve_banded", "ldlt_banded")
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
# the (N, q) profile, which the first solve would build
minimizer._profile(p.N, p.q)
ref_calls = dict(calls)
calls.update(dict.fromkeys(names, 0))
first = minimizer.minimize(p, grid, c)
first_calls = dict(calls)
calls.update(dict.fromkeys(names, 0))
# the seed loop and the descent alone
minimizer._moved_start = lambda *args: None
traced = minimizer.minimize(p, grid, c)
solve_calls = dict(calls)
calls.update(dict.fromkeys(names, 0))
minimizer.estimate_gn_constant(p)
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
                  "first_iters": first.iters, "first_calls": first_calls,
                  "ref_calls": ref_calls,
                  "gn_calls": gn_calls, "same": same}))
"""


def test_banded_kernels_are_traceable_before_any_solve():
    out = json.loads(fresh_python("-c", TRACE_CONTRACT).stdout)
    assert out["resolved"] == [True, True, True]
    assert out["linalg_before"] is False
    calls = out["solve_calls"]
    # one linear solve per iteration but the last: preconditioned descent
    # steps, then the Newton finish. The preconditioner's factors run on
    # ldlt_banded too, so Newton's are its calls less cholesky_banded's
    newton = calls["ldlt_banded"] - calls["cholesky_banded"]
    assert calls["cho_solve_banded"] + newton == out["iters"] - 1
    assert newton >= 1
    assert calls["cholesky_banded"] >= 1
    # Newton-first: one banded LDL^T per iteration but the last, no
    # descent; the profile's Newton steps are traced too, and not counted
    assert out["first_calls"]["ldlt_banded"] == out["first_iters"] - 1
    assert out["ref_calls"]["ldlt_banded"] >= 1
    for name in ("cholesky_banded", "cho_solve_banded"):
        assert out["ref_calls"][name] == out["first_calls"][name] == 0
    # estimated C_gn reads the held profile: no band kernel runs
    assert out["gn_calls"] == dict.fromkeys(out["gn_calls"], 0)
    assert out["same"] is True
