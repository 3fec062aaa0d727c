"""Radial discretization of R^N.

Uniform mesh on [0, R], quadrature weights that carry the full spherical
measure omega_{N-1} r^{N-1} dr, a fourth-order radial Laplacian with the
symmetry limit at the origin, and field CSV input/output. Fields are never
rescaled on the grid: dilations act on norm bundles through exact laws
(functionals.rescale_bundle, the fiber module).

Quadrature design: interior weights are the smooth product h * omega * r^{N-1}
(trapezoid measure, half weight at r = R), node 0 carries the exact integral
of the first cell's linear hat against r^{N-1}, and the five nodes adjacent to
each endpoint receive exact-rational Euler-Maclaurin corrections (Bernoulli
closed form on the left, moment matching against the Beta closed form on the
right). All corrections are computed in Fraction arithmetic, so the rule is
exact for integrands r^m * r^{N-1}, m <= 4, to float rounding. The interior
moment sums the right corrections need are closed-form power sums
(Faulhaber's formula) in exact rationals, so their cost does not depend on n;
only the final float conversion of the nodes is O(n). build_grid accepts
only all-positive weights, because the energy gradient divides by them.
The left corrections are rational multiples of h^N, so their sign pattern
depends on dim alone: they outgrow the node-1 or node-2 weight at dims 17,
18, 22, 23, 26, 27 and every dim from 29 to 91 (the largest checked), while
5-16, 19-21, 24, 25 and 28 build.

Operator layout: the Laplacian L is pentadiagonal and is stored once, as a
(5, n) band array D with D[k, i] = L[i, i + k - 2]. Row 0 is the origin
limit, row 1 folds the even reflection of u_{-1} onto u_1, and entries whose
column falls past R are zero. L u, L^T v and the band of a W + L^T W L (the
minimizer's preconditioner) are all computed by slicing this one array.

Held per grid: the shift-free band L^T W L, to which normal_band adds a W,
and the minimizer's seed families. Both are filled on first use and live
and die with the grid instance (cached_property writes the instance
__dict__, which a frozen dataclass allows); no module-level cache holds
them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .landscape import DomainError

__all__ = [
    "EXP_REACH",
    "RadialGrid",
    "RadialField",
    "build_grid",
    "integrate",
    "laplacian",
    "sphere_area",
    "save_field",
    "load_field",
]


# exp(-x) rounds to +0 from x = 745.2 on, so a Gaussian evaluated only where
# its argument is at most EXP_REACH equals the full-grid one bit for bit,
# without numpy's slow path for underflowing lanes
EXP_REACH = 760.0


def sphere_area(N: int) -> float:
    """Surface measure of the unit (N-1)-sphere."""
    return 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)


@lru_cache(maxsize=None)
def _bernoulli(m: int) -> Fraction:
    # B_0..B_m by the defining recurrence, exact
    if m == 0:
        return Fraction(1)
    acc = Fraction(0)
    for j in range(m):
        acc += Fraction(math.comb(m + 1, j)) * _bernoulli(j)
    return -acc / (m + 1)


def _solve5(A, b):
    # 5x5 Gaussian elimination over Fractions, partial structure not needed
    M = [row[:] + [b[i]] for i, row in enumerate(A)]
    for col in range(5):
        piv = next(r for r in range(col, 5) if M[r][col] != 0)
        M[col], M[piv] = M[piv], M[col]
        pv = M[col][col]
        M[col] = [x / pv for x in M[col]]
        for r in range(5):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [a - f * c for a, c in zip(M[r], M[col])]
    return [M[r][5] for r in range(5)]


def _power_sum(m: int, X: int) -> Fraction:
    # Faulhaber: sum_{i=1}^{X} i^m for m >= 1, exact (B_1 = -1/2 convention)
    return X ** m + sum(math.comb(m + 1, j) * _bernoulli(j) * X ** (m + 1 - j)
                        for j in range(m + 1)) / (m + 1)


@lru_cache(maxsize=16)
def _weight_core(N: int, n: int) -> np.ndarray:
    # r_max enters only through the h^N prefactor, so the exact-arithmetic
    # part is cached per (N, n); callers must not mutate the result
    X = n - 1
    # node 0: integral of the linear hat on [0, h] against x^{N-1}
    pin = Fraction(1, N * (N + 1))
    # left corrections d_1..d_5: match moments x^m, m = 0..4, whose exact
    # trapezoid defect is the Euler-Maclaurin boundary value at x = 0
    A = [[Fraction(i) ** m for i in range(1, 6)] for m in range(5)]
    bL = []
    for m in range(5):
        t = _bernoulli(m + N) / (m + N) if (m + N) % 2 == 0 else Fraction(0)
        if m == 0:
            t -= pin
        bL.append(t)
    dL = _solve5(A, bL)
    # right corrections in the shifted basis (x - X)^k, matched against the
    # exact Beta-function integral of (x - X)^k x^{N-1} over [0, X]. The
    # trapezoid moment sum_i v_i (i - X)^k of the uncorrected nodes (v_i =
    # i^{N-1}, halved at X, pinned at 0) expands binomially into power sums
    P = [_power_sum(N - 1 + j, X) for j in range(5)]
    bR = []
    for k in range(5):
        T = (Fraction((-1) ** k) * Fraction(X) ** (k + N)
             * Fraction(math.factorial(k) * math.factorial(N - 1),
                        math.factorial(k + N)))
        S = (sum(math.comb(k, j) * (-X) ** (k - j) * P[j] for j in range(k + 1))
             + pin * (-X) ** k)
        if k == 0:
            S -= Fraction(X ** (N - 1), 2)
        dLq = sum(dL[j] * Fraction(j + 1 - X) ** k for j in range(5))
        bR.append(T - S - dLq)
    AR = [[Fraction(t) ** k for t in range(-4, 1)] for k in range(5)]
    dR = _solve5(AR, bR)
    # interior nodes are powers of Python ints (object dtype), so each float
    # is correctly rounded
    w = (np.arange(n).astype(object) ** (N - 1)).astype(float)
    w[0] = float(pin)
    w[X] = float(Fraction(X ** (N - 1), 2) + dR[4])
    for j in range(5):
        w[1 + j] = float((1 + j) ** (N - 1) + dL[j])
    for j in range(4):
        w[X - 4 + j] = float((X - 4 + j) ** (N - 1) + dR[j])
    return w


def _weights(N: int, n: int, r_max: float) -> np.ndarray:
    h = r_max / (n - 1)
    return _weight_core(N, n) * (h ** N * sphere_area(N))


def _laplacian_band(N: int, n: int, r_max: float) -> np.ndarray:
    # D[k, i] = L[i, i + k - 2]
    h = r_max / (n - 1)
    c2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * h * h)
    c1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * h)
    D = np.zeros((5, n))
    # r = 0: N * u''(0), second-derivative stencil folded evenly
    D[2:, 0] = N * np.array([-30.0, 32.0, -2.0]) / (12.0 * h * h)
    D[:, 1:] = c2[:, None] + (N - 1) / (np.arange(1, n) * h) * c1[:, None]
    D[2, 1] += D[0, 1]      # even extension through the origin: u_{-1} = u_1
    D[0, 1] = 0.0
    D[3, n - 1] = D[4, n - 2:] = 0.0    # zero extension past R
    return D


@dataclass(frozen=True)
class RadialGrid:
    dim: int
    n: int
    r_max: float
    nodes: np.ndarray = field(repr=False, compare=False)
    weights: np.ndarray = field(repr=False, compare=False)
    lap_band: np.ndarray = field(repr=False, compare=False)

    @property
    def h(self) -> float:
        return self.r_max / (self.n - 1)

    def lap_apply(self, u: np.ndarray) -> np.ndarray:
        """L u; each row sums its stencil terms by ascending column."""
        n = self.n
        padded = np.zeros(n + 4)
        padded[2:n + 2] = u
        out, term = np.zeros(n), np.empty(n)
        for k in range(5):
            np.multiply(self.lap_band[k], padded[k:k + n], out=term)
            out += term
        return out

    def lap_t_apply(self, v: np.ndarray) -> np.ndarray:
        """L^T v; each entry sums its terms by ascending row of L."""
        n = self.n
        out, term = np.zeros(n + 4), np.empty(n)
        for k in range(4, -1, -1):
            np.multiply(self.lap_band[k], v, out=term)
            out[k:k + n] += term
        return out[2:n + 2]

    def normal_band(self, a: float) -> np.ndarray:
        """a W + L^T W L in upper band storage: row 4 - d holds P[j, j+d].

        P[j, j+d] sums (L[i, j] w_i) L[i, j+d] over the rows i = j - t in
        descending order, and a w_j is added last. The shift-free band is
        held on the grid; each call returns a fresh array.
        """
        ab = self._normal_band0.copy()
        ab[4] += a * self.weights
        return ab

    @cached_property
    def _normal_band0(self) -> np.ndarray:
        # L^T W L, summed as normal_band documents, read-only
        n, D, w = self.n, self.lap_band, self.weights
        DW = D * w
        ab = np.zeros((5, n))
        for d in range(5):
            acc = np.zeros(n + 4)   # acc[2 + j] = P[j, j+d]; j < 0, j >= n: pad
            for t in range(-2, 3 - d):
                acc[t + 2:t + 2 + n] += DW[t + 2] * D[t + d + 2]
            ab[4 - d, d:] = acc[2:n + 2 - d]
        ab.flags.writeable = False
        return ab

    @cached_property
    def seed_families(self) -> dict:
        """The minimizer's seed families on this grid, by q, filled by
        minimizer.seed."""
        return {}


@dataclass(frozen=True)
class RadialField:
    grid: RadialGrid
    values: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n,):
            raise DomainError(
                f"field length {vals.shape} does not match grid n={self.grid.n}")
        if not np.all(np.isfinite(vals)):
            raise DomainError("field values must be finite")
        object.__setattr__(self, "values", vals)


def build_grid(dim: int, n: int, r_max: float) -> RadialGrid:
    """Uniform radial grid with spherical quadrature weights.

    dim >= 5 integer, n >= 64 nodes, r_max positive and finite, with
    every quadrature weight a positive normal float. The float range is
    checked from logarithms before the exact-rational weight work; the
    sign after it, naming the first node whose weight is not positive.
    The left corrections make a weight near the origin negative at dims 17,
    18, 22, 23, 26, 27 and every dim from 29 to 91 (the largest checked),
    on every n; dims 5-16, 19-21, 24, 25 and 28 build.
    """
    if not isinstance(dim, int) or dim < 5:
        raise DomainError(f"dim must be an integer >= 5, got {dim!r}")
    if not isinstance(n, int) or n < 64:
        raise DomainError(f"n must be an integer >= 64, got {n!r}")
    if not 0 < float(r_max) < math.inf:
        raise DomainError(f"r_max must be positive and finite, got {r_max!r}")
    r_max = float(r_max)
    # the weights are (n-1)^(N-1) at most before the h^N scaling, and after
    # it run from h^N / (N (N+1)) at the origin to about R^(N-1) h, times
    # the sphere area: all three must be normal floats
    log_x = (dim - 1) * math.log2(n - 1)
    if not log_x < 1000.0:
        raise DomainError(f"n={n} puts the dim-{dim} quadrature weights "
                          "outside the float range before scaling")
    log_h = math.log2(r_max / (n - 1))
    if not (dim * log_h > -1000.0 and dim * log_h + log_x < 1000.0):
        raise DomainError(f"r_max={r_max!r} with n={n} puts the dim-{dim} "
                          "quadrature weights outside the float range")
    weights = _weights(dim, n, r_max)
    if not np.all(weights > 0.0):
        raise DomainError(
            f"the dim-{dim} quadrature on n={n} nodes has a weight <= 0 at "
            f"node {int(np.argmin(weights > 0.0))}: its endpoint corrections "
            "outgrow the trapezoid weights")
    return RadialGrid(
        dim=dim, n=n, r_max=r_max,
        nodes=np.linspace(0.0, r_max, n),
        weights=weights,
        lap_band=_laplacian_band(dim, n, r_max),
    )


def integrate(grid: RadialGrid, samples: np.ndarray) -> float:
    """Quadrature of a radial sample vector over R^N."""
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (grid.n,):
        raise DomainError(
            f"sample length {samples.shape} does not match grid n={grid.n}")
    return float(np.sum(grid.weights * samples))


def laplacian(fld: RadialField) -> RadialField:
    """Fourth-order discrete radial Laplacian u'' + (N-1)u'/r.

    Origin row is the symmetry limit N u''(0); fields are extended evenly
    through r = 0 and by zero past r = R.
    """
    return RadialField(fld.grid, fld.grid.lap_apply(fld.values))


def save_field(fld: RadialField, path) -> None:
    """Two-column CSV r,value with a grid-identification header line."""
    g = fld.grid
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# dim={g.dim} n={g.n} r_max={g.r_max!r}\n")
        fh.write("r,value\n")
        for r, v in zip(g.nodes, fld.values):
            fh.write(f"{float(r)!r},{float(v)!r}\n")


def load_field(path) -> RadialField:
    """Load a field CSV onto the grid its header names.

    The row count is checked against the header's n before the grid is
    built, so a header claiming a huge grid costs nothing to reject.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith("# "):
            raise DomainError(f"{path}: missing grid header line")
        try:
            meta = dict(kv.split("=", 1) for kv in header[2:].split())
            dim, n, r_max = int(meta["dim"]), int(meta["n"]), float(meta["r_max"])
        except (KeyError, ValueError) as exc:
            raise DomainError(f"{path}: malformed grid header: {header}") from exc
        if fh.readline().strip() != "r,value":
            raise DomainError(f"{path}: expected 'r,value' column header")
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise DomainError(f"{path}: malformed data row: {exc}") from exc
    if data.shape != (n, 2):
        raise DomainError(f"{path}: expected {n} rows of 2 columns, "
                          f"got {data.shape[0]} of {data.shape[1]}")
    grid = build_grid(dim, n, r_max)
    if not np.allclose(data[:, 0], grid.nodes, rtol=0, atol=1e-9 * grid.r_max):
        raise DomainError(f"{path}: r column disagrees with the grid nodes")
    return RadialField(grid, data[:, 1])
