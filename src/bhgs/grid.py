"""Radial discretization of R^N.

Uniform mesh on [0, R], quadrature weights that carry the full spherical
measure omega_{N-1} r^{N-1} dr, a fourth-order radial Laplacian with the
symmetry limit at the origin, and field CSV input/output. Dilations act on
norm bundles through exact laws (functionals.rescale_bundle, the fiber
module); a field is dilated only to start Newton (interpolate).

Quadrature design: interior weights are the smooth product h * omega * r^{N-1}
(trapezoid measure, half weight at r = R), node 0 carries the exact integral
of the first cell's linear hat against r^{N-1}, and the five nodes adjacent to
each endpoint receive exact-rational Euler-Maclaurin corrections. At each end
they cancel the terminating Euler-Maclaurin boundary sum, Bernoulli numbers
times derivatives at that end, of five moment integrands: x^m at x = 0,
(x - X)^k x^{N-1} at x = X. All corrections are computed in Fraction
arithmetic, so the rule is exact for integrands r^m * r^{N-1}, m <= 4, to
float rounding. The right corrections depend on (dim, n) alone, not on the
left ones, and no sum over the nodes enters either end, so the rational work
has no O(n) part; only the final float conversion of the nodes is O(n).
build_grid accepts only all-positive weights, because the energy gradient
divides by them. The left corrections are rational multiples of h^N, so
their sign pattern depends on dim alone: they outgrow the node-1 or node-2
weight at dims 17, 18, 22, 23, 26, 27 and every dim from 29 to 91 (the
largest checked), while 5-16, 19-21, 24, 25 and 28 build.

Operator layout: the Laplacian L is pentadiagonal and is stored once, as a
(5, n) band array D with D[k, i] = L[i, i + k - 2]. Row 0 is the origin
limit, row 1 folds the even reflection of u_{-1} onto u_1, and entries whose
column falls past R are zero. L u, L^T v and the band L^T W L are all
computed by slicing this one array.

Held per grid: L^T W L, once, in LAPACK's lower band storage
(newton_band: read-only, Fortran-ordered (5, n), the diagonal in row 0),
which the minimizer's Newton step and its preconditioner (a W + L^T W L)
each copy and shift on the diagonal. It is filled on first use and lives
and dies with the grid instance (cached_property writes the instance
__dict__, which a frozen dataclass allows); no module-level cache holds
it. Nothing that references the grid is held on it: a field held there
would reference its grid back, a cycle only the garbage collector frees.
So the minimizer holds the one field it reads at every op, the grid's unit
Gaussian, in a module slot of its own for the last grid it was passed
(minimizer._unit_gaussian).
interpolate reads samples on a grid of spacing h at arbitrary radii by
4-point cubic interpolation, with the even extension through the origin and
the zero extension past R that the Laplacian's band uses. It reads the
samples and h alone, so the minimizer holds its unit-frame (N, q) profile
(minimizer._profile) without a grid, and reads every Newton-first start
from it at the op's own width.

Held per field: a RadialField's values are a read-only view, checked
finite once when the field is made, and its L u (RadialField.lap) is
computed on first use and held, read-only, for the field's lifetime. So
norm_bundle, laplacian and functionals' two gradients share one Laplacian
per field, and functionals' nonlinear terms one pair of powers
(nonlinear_powers), held, read-only, in the same __dict__ and lifetime.
integrate sums with np.add.reduce, the pairwise sum np.sum makes, without
its Python dispatch.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .landscape import DomainError, _integer_at_least

__all__ = [
    "EXP_REACH",
    "RadialGrid",
    "RadialField",
    "build_grid",
    "integrate",
    "interpolate",
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


@lru_cache(maxsize=64)
def _weight_core(N: int, n: int) -> np.ndarray:
    # r_max enters only through the h^N prefactor, so the exact-arithmetic
    # part is cached per (N, n); callers must not mutate the result. 64 keys
    # hold several grid sizes per N = 5..10, among them the n = 1025 grids
    # of the minimizer's (N, q) profiles
    X = n - 1
    # node 0: integral of the linear hat on [0, h] against x^{N-1}
    pin = Fraction(1, N * (N + 1))
    # left corrections d_1..d_5: match moments x^m, m = 0..4, whose exact
    # trapezoid defect is the Euler-Maclaurin boundary value at x = 0,
    # B_{m+N}/(m+N) (zero for odd m+N), less the pin's share at m = 0
    A = [[Fraction(i) ** m for i in range(1, 6)] for m in range(5)]
    bL = [_bernoulli(m + N) / (m + N) for m in range(5)]
    bL[0] -= pin
    dL = _solve5(A, bL)
    # right corrections d_{X-4}..d_X: match f_k = (x - X)^k x^{N-1}, k =
    # 0..4, whose trapezoid defect at the right end is the Euler-Maclaurin
    # boundary value at x = X (Abramowitz & Stegun 23.1.30): the sum over
    # odd d of B_{d+1}/(d+1)! f_k^(d)(X), where f_k^(d)(X) =
    # d!/(d-k)! (N-1)!/(N-1-d+k)! X^{N-1-d+k} for k <= d <= N-1+k, else 0
    bR = [-sum(_bernoulli(d + 1) / math.factorial(d + 1) * math.perm(d, k)
               * math.perm(N - 1, d - k) * X ** (N - 1 - d + k)
               for d in range(k | 1, N + k, 2))
          for k in range(5)]
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
        """L u of the n samples u: each row sums its five stencil terms,
        band row times shifted samples, by ascending column."""
        n, D = self.n, self.lap_band
        padded = np.zeros(n + 4)
        padded[2:n + 2] = u
        out = np.zeros(n)
        for k in range(5):
            out += D[k] * padded[k:k + n]
        return out

    def lap_t_apply(self, v: np.ndarray) -> np.ndarray:
        """L^T v; each entry sums its terms by ascending row of L."""
        n = self.n
        out, term = np.zeros(n + 4), np.empty(n)
        for k in range(4, -1, -1):
            np.multiply(self.lap_band[k], v, out=term)
            out[k:k + n] += term
        return out[2:n + 2]

    @cached_property
    def newton_band(self) -> np.ndarray:
        """L^T W L in LAPACK's (5, n) lower band storage, Fortran-ordered
        and read-only: K[j+d, j] at [d, j], the last d entries of row d
        zero. K[j+d, j] sums (L[i, j] w_i) L[i, j+d] over the rows
        i = j - t in descending order."""
        n, D, w = self.n, self.lap_band, self.weights
        DW = D * w
        ab = np.zeros((5, n), order="F")
        for d in range(5):
            acc = np.zeros(n + 4)   # acc[2 + j] = P[j, j+d]; j < 0, j >= n: pad
            for t in range(-2, 3 - d):
                acc[t + 2:t + 2 + n] += DW[t + 2] * D[t + d + 2]
            ab[d, :n - d] = acc[2:n + 2 - d]
        ab.flags.writeable = False
        return ab


@dataclass(frozen=True)
class RadialField:
    """Finite samples on a grid, read-only, with their Laplacian held.

    values is a read-only view of the array given (converted to float), so
    the finiteness check made here holds for the field's lifetime; the
    creator may still write the array it passed, and must not once the
    field is in use. lap, L u, is computed on first use and held.
    """
    grid: RadialGrid
    values: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n,):
            raise DomainError(
                f"field length {vals.shape} does not match grid n={self.grid.n}")
        if not np.isfinite(vals).all():
            raise DomainError("field values must be finite")
        vals = vals.view()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @cached_property
    def lap(self) -> np.ndarray:
        """L u, read-only: the one Laplacian of this field."""
        lu = self.grid.lap_apply(self.values)
        lu.flags.writeable = False
        return lu


def build_grid(dim: int, n: int, r_max: float) -> RadialGrid:
    """Uniform radial grid with spherical quadrature weights.

    dim >= 5 and n >= 64 integers (any integral but a bool, held as a
    Python int), r_max positive and finite, with every quadrature weight a
    positive normal float. The float range is checked from logarithms
    before the exact-rational weight work; the sign after it, naming the
    first node whose weight is not positive (the module docstring lists
    the dims where a left correction makes one negative).
    """
    dim = _integer_at_least(dim, "dim", 5)
    n = _integer_at_least(n, "n", 64)
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


def interpolate(v: np.ndarray, h: float, r: np.ndarray) -> np.ndarray:
    """Samples v on a grid of spacing h read at radii r >= 0 by 4-point
    cubic (Lagrange) interpolation in r, its four weights written out.

    A radius in the cell [j h, (j + 1) h] reads nodes j-1..j+2, with v
    extended as lap_band extends fields: evenly through the origin
    (v_{-1} = v_1) and by zero past R = (len(v) - 1) h; a radius past R
    reads zero. A radius with r / h an integer reads that node's sample
    exactly; the rule is exact on cubics in r away from both ends, and on 1
    and r^2 away from R. The radii may come in any order and any shape,
    and the result takes r's shape (0-d for a scalar). Only v and h are
    read, so a caller may hold a profile without its grid.
    """
    n = len(v)
    x = np.asarray(r, dtype=float) / h
    inside = x <= n - 1
    x = x[inside]
    t = np.floor(x)
    j = t.astype(np.intp)
    np.subtract(x, t, out=t)        # x - j: j is floor(x) exactly
    padded = np.zeros(n + 3)        # nodes -1..n+1
    padded[0] = v[1]
    padded[1:n + 1] = v
    # the four terms in their written order, each product and quotient
    # evaluated left to right as in -t (t - 1) (t - 2) / 6 v[j-1] + (t + 1)
    # (t - 1) (t - 2) / 2 v[j] - (t + 1) t (t - 2) / 2 v[j+1] + (t + 1) t
    # (t - 1) / 6 v[j+2], in place; node j + k - 1 is padded[k:][j]
    tp1, tm1, tm2 = t + 1.0, t - 1.0, t - 2.0
    acc = np.negative(t)
    acc *= tm1
    acc *= tm2
    acc /= 6.0
    acc *= padded.take(j)
    term = tp1 * tm1
    term *= tm2
    term /= 2.0
    term *= padded[1:].take(j)
    acc += term
    tp1 *= t                        # (t + 1) t, read by the last two terms
    np.multiply(tp1, tm2, out=term)
    term /= 2.0
    term *= padded[2:].take(j)
    acc -= term
    tp1 *= tm1
    tp1 /= 6.0
    tp1 *= padded[3:].take(j)
    acc += tp1
    out = np.zeros(inside.shape)
    out[inside] = acc
    return out


def integrate(grid: RadialGrid, samples: np.ndarray) -> float:
    """Quadrature of a radial sample vector over R^N."""
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (grid.n,):
        raise DomainError(
            f"sample length {samples.shape} does not match grid n={grid.n}")
    return float(np.add.reduce(grid.weights * samples))


def laplacian(fld: RadialField) -> RadialField:
    """Fourth-order discrete radial Laplacian u'' + (N-1)u'/r.

    Origin row is the symmetry limit N u''(0); fields are extended evenly
    through r = 0 and by zero past r = R. The result's values are fld.lap.
    """
    return RadialField(fld.grid, fld.lap)


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
