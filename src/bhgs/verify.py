"""Self-contained verification suite behind the `verify` subcommand.

Each check is a named, deterministic predicate over the configured problem;
failures are reported per check rather than raised, so a verification run
always produces one line per check. Parameter validation happens before any
check body runs: an inadmissible (N, q, mu) aborts immediately.

The helpers (random parameter draws, brute-force landscape argmax, threshold
bisection, the fiber sign scan, bump fields) are module-level so the CLI and
the tests can reuse them. All of them run in plain floats; the argmax decides
each comparison by the sign of a difference from which f's constant 1/2
cancels, so it needs no extended precision.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fiber as fb
from . import landscape as ls
from .functionals import (NormBundle, energy, gaussian_bundle, l2_gradient,
                          norm_bundle, pohozaev_coefficient)
from .grid import (EXP_REACH, RadialField, RadialGrid, build_grid, integrate,
                   laplacian)

__all__ = ["CheckResult", "run_all", "random_params", "golden_argmax",
           "bisect_threshold", "fiber_sign_scan", "random_bundle",
           "bump_field"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


# ----------------------------------------------------------------- helpers

def random_params(rng: np.random.Generator) -> ls.LandscapeParams:
    """Admissible parameter set, log-uniform in the scale knobs."""
    N = int(rng.integers(5, 11))
    q = 2.0 + (0.05 + 0.9 * rng.random()) * (8.0 / N)
    mu = float(np.exp(rng.uniform(math.log(0.1), math.log(10.0))))
    c_gn = float(np.exp(rng.uniform(math.log(0.5), math.log(2.0))))
    s_sob = float(np.exp(rng.uniform(math.log(0.5), math.log(2.0))))
    return ls.LandscapeParams(N=N, q=q, mu=mu, C_gn=c_gn, S_sob=s_sob)


def golden_argmax(params: ls.LandscapeParams, c: float) -> float:
    """Brute-force maximizer of rho -> f(c, rho): a 100-point scan of
    t = log rho over [log 1e-6, log 1e6], then golden-section refinement
    inside the best point's neighbours until the bracket is below 1e-13.

    Derivative-free, and independent of rho_star's closed form. With
    F(t) = f(c, e^t) = 1/2 - e^{l_sub + a0 t} - e^{l_crit + a2 t},
    l_sub = log(mu/q) + q log C_gn + a1 log c and
    l_crit = 4* log S_sob - log 4*, each comparison is decided by the sign of

        F(y) - F(x) = -(e^{l_sub + a0 x} expm1(a0 (y - x))
                        + e^{l_crit + a2 x} expm1(a2 (y - x))),

    in which the 1/2 has cancelled exactly. Both terms are divided by the
    larger exponential, so nothing overflows anywhere in float range.
    Comparing float values of F itself would localize the maximum only to
    about sqrt(machine eps). Here, near the maximizer t*, the two terms
    cancel to about F''(t*) (y - x) (t* - m), m the midpoint of x and y,
    while each carries a few ulps; so a comparison can go wrong only when
    m lies within about 1e-15 of t*, inside the 1e-13 stopping width.
    """
    ex = ls.derive_exponents(params)
    a0, a2 = ex.alpha0, ex.alpha2
    l_sub = (math.log(params.mu / params.q) + params.q * math.log(params.C_gn)
             + ex.alpha1 * math.log(c))
    l_crit = ex.p_crit * math.log(params.S_sob) - math.log(ex.p_crit)

    def rises(x: float, y: float) -> bool:
        # F(y) > F(x)
        e_sub, e_crit = l_sub + a0 * x, l_crit + a2 * x
        top = max(e_sub, e_crit)
        return (math.exp(e_sub - top) * math.expm1(a0 * (y - x))
                + math.exp(e_crit - top) * math.expm1(a2 * (y - x))) < 0.0

    span_lo, span_hi = math.log(1e-6), math.log(1e6)
    logs = [span_lo + (span_hi - span_lo) * k / 99 for k in range(100)]
    k = 0                                   # first maximal scan point
    for i in range(1, 100):
        if rises(logs[k], logs[i]):
            k = i
    lo = logs[max(k - 1, 0)]
    hi = logs[min(k + 1, 99)]
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - gr * (hi - lo)
    x2 = lo + gr * (hi - lo)
    for _ in range(200):
        if hi - lo < 1e-13:
            break
        if rises(x1, x2):
            lo, x1 = x1, x2
            x2 = lo + gr * (hi - lo)
        else:
            hi, x2 = x2, x1
            x1 = hi - gr * (hi - lo)
    return math.exp((lo + hi) / 2.0)


def bisect_threshold(params: ls.LandscapeParams) -> float:
    """Zero of c -> max_rho f(c, rho), bracketed from scratch and bisected
    to 1e-12 relative."""
    def peak(c: float) -> float:
        return ls.f_landscape(params, c, ls.rho_star(params, c))

    lo, hi = 1e-8, 1e-8
    while peak(hi) > 0:
        hi *= 2.0
        if hi > 1e12:
            raise ls.DomainError("threshold bracket expansion failed")
    lo = hi / 2.0
    while peak(lo) < 0:
        lo /= 2.0
        if lo < 1e-300:
            raise ls.DomainError("threshold bracket expansion failed")
    for _ in range(200):
        if hi - lo <= 1e-12 * hi:
            break
        mid = 0.5 * (lo + hi)
        if peak(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def random_bundle(rng: np.random.Generator) -> NormBundle:
    lo, hi = math.log(1e-3), math.log(1e3)
    a, b, c = np.exp(rng.uniform(lo, hi, size=3))
    return NormBundle(mass=1.0, bend=float(a), subcrit=float(b), crit=float(c))


def fiber_sign_scan(params: ls.LandscapeParams, b: NormBundle,
                    fa: fb.FiberAnalysis) -> int:
    """Sign changes of psi' on a 1500-point log grid around the analysis
    output."""
    if fa.s1 is not None:
        lo, hi = fa.s1 / 8.0, fa.s2 * 8.0
    else:
        lo, hi = fa.s_turn / 100.0, fa.s_turn * 100.0
    ex = ls.derive_exponents(params)
    k = pohozaev_coefficient(params)
    s = np.exp(np.linspace(math.log(lo), math.log(hi), 1500))
    with np.errstate(over="ignore"):
        vals = (s * b.bend - k * s ** (ex.gamma_q - 1.0) * b.subcrit
                - s ** (ex.p_crit - 1.0) * b.crit)
    signs = np.sign(vals)
    signs = signs[signs != 0]
    return int(np.count_nonzero(np.diff(signs)))


# the half-width, in widths, past which exp(-z^2) is +0
_BUMP_REACH = math.sqrt(EXP_REACH)


def bump_field(grid: RadialGrid, rng: np.random.Generator) -> RadialField:
    """Random sum of three Gaussians amp exp(-((r - center)/width)^2),
    centres in [0, 20], widths in [1, 3] and |amp| in [0.5, 1.5] with a
    random sign, drawn from rng in that order and added to zeros in draw
    order.

    exp(-z^2) is +0 for z^2 > 745.2, so adding it there changes no node:
    each Gaussian is evaluated only on its support, the nodes with z^2 <=
    _BUMP_REACH^2, and the field equals the sum evaluated on every node bit
    for bit.
    """
    r = grid.nodes
    u = np.zeros_like(r)
    for _ in range(3):
        center = rng.uniform(0.0, 20.0)
        width = rng.uniform(1.0, 3.0)
        # the draw rng.choice([-1.0, 1.0]) makes, without its overhead
        amp = rng.uniform(0.5, 1.5) * (-1.0, 1.0)[rng.integers(2)]
        lo, hi = np.searchsorted(r, (center - _BUMP_REACH * width,
                                     center + _BUMP_REACH * width),
                                 side="right")
        u[lo:hi] += amp * np.exp(-((r[lo:hi] - center) / width) ** 2)
    return RadialField(grid, u)


# ------------------------------------------------------------------ checks

def _check_exponent_identities(params, cfg) -> CheckResult:
    worst = 0.0
    for N in range(5, 11):
        for q in np.linspace(2.0 + 1e-6, 2.0 + 8.0 / N - 1e-6, 20):
            p = ls.LandscapeParams(N=N, q=float(q), mu=params.mu,
                                   C_gn=params.C_gn, S_sob=params.S_sob)
            ex = ls.derive_exponents(p)
            worst = max(
                worst,
                abs(ex.alpha0 + ex.alpha1 - (q - 2.0) / 2.0),
                abs(ex.gamma_q - 2.0 - 2.0 * ex.alpha0),
                abs(ex.p_crit - 2.0 - 2.0 * ex.alpha2),
            )
    return CheckResult("exponent-identities", worst <= 1e-12,
                       f"worst identity residual {worst:.3e} (tol 1e-12)")


def _check_landscape_argmax(params, cfg) -> CheckResult:
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(20):
        p = random_params(rng)
        c = float(np.exp(rng.uniform(math.log(1e-2), math.log(1e1))))
        closed = ls.rho_star(p, c)
        brute = golden_argmax(p, c)
        worst = max(worst, abs(closed - brute) / closed)
    _, c0, rho0 = ls.mass_threshold(params)
    peak0 = abs(ls.f_landscape(params, c0, rho0))
    c0_bis = bisect_threshold(params)
    bis_err = abs(c0_bis - c0) / c0
    ok = worst <= 1e-8 and peak0 <= 1e-10 and bis_err <= 1e-8
    return CheckResult(
        "landscape-argmax", ok,
        f"argmax rel err {worst:.3e} (tol 1e-8), peak at threshold "
        f"{peak0:.3e} (tol 1e-10), bisected threshold rel err {bis_err:.3e}")


def _check_quadrature_oracles(params, cfg) -> CheckResult:
    N = params.N
    g = build_grid(N, cfg.get_int("grid", "n"), 12.0)
    exact = gaussian_bundle(params, 1.0)
    mass_exact, bend_exact = exact.mass, exact.bend
    mass_num = integrate(g, np.exp(-g.nodes ** 2))
    u = RadialField(g, np.exp(-g.nodes ** 2 / 2.0))
    bend_num = integrate(g, laplacian(u).values ** 2)
    e1 = abs(mass_num - mass_exact) / mass_exact
    e2 = abs(bend_num - bend_exact) / bend_exact
    ok = e1 <= 1e-6 and e2 <= 1e-6
    return CheckResult(
        "quadrature-oracles", ok,
        f"gaussian mass rel err {e1:.3e}, bend rel err {e2:.3e} (tol 1e-6)")


def _check_laplacian_order(params, cfg) -> CheckResult:
    N = params.N
    n = cfg.get_int("grid", "n")
    sizes = [(n - 1) // 4 + 1, (n - 1) // 2 + 1, n]
    errs = []
    for nk in sizes:
        g = build_grid(N, nk, 12.0)
        r = g.nodes
        u = RadialField(g, np.exp(-r ** 2 / 2.0))
        exact = (r ** 2 - N) * np.exp(-r ** 2 / 2.0)
        errs.append(float(np.max(np.abs(laplacian(u).values - exact))))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    ok = min(orders) >= 3.9
    return CheckResult(
        "laplacian-order", ok,
        f"max-norm errors {errs[0]:.3e}/{errs[1]:.3e}/{errs[2]:.3e}, "
        f"orders {orders[0]:.3f}, {orders[1]:.3f} (need >= 3.9)")


def _check_gradient_consistency(params, cfg) -> CheckResult:
    rng = np.random.default_rng(1003)
    g = cfg.solve_grid()
    eps = 1e-5
    worst = 0.0
    for _ in range(5):
        u = bump_field(g, rng)
        v = bump_field(g, rng)
        grad = l2_gradient(params, u)
        pairing = integrate(g, grad.values * v.values)
        jp = energy(params, norm_bundle(
            params, RadialField(g, u.values + eps * v.values)))
        jm = energy(params, norm_bundle(
            params, RadialField(g, u.values - eps * v.values)))
        fd = (jp - jm) / (2.0 * eps)
        worst = max(worst, abs(fd - pairing) / max(abs(fd), 1e-300))
    return CheckResult(
        "gradient-consistency", worst <= 1e-5,
        f"worst directional-derivative rel err {worst:.3e} (tol 1e-5)")


def _check_fiber_zero_structure(params, cfg) -> CheckResult:
    rng = np.random.default_rng(1004)
    max_changes = 0
    for _ in range(200):
        b = random_bundle(rng)
        fa = fb.analyze_fiber(params, b)
        max_changes = max(max_changes, fiber_sign_scan(params, b, fa))
        if fa.s1 is not None and fa.kind1 == fb.KIND_MIN:
            if not (fa.s1 < fa.s_turn < fa.s2):
                return CheckResult(
                    "fiber-zero-structure", False,
                    f"ordering violated: s1={fa.s1} s*={fa.s_turn} s2={fa.s2}")
            if not (fa.psi_at_s1 < 0):
                return CheckResult(
                    "fiber-zero-structure", False,
                    f"psi(s1)={fa.psi_at_s1} is not negative")
            up = fb.psi(params, b, fa.s1 * (1 + 1e-3))
            dn = fb.psi(params, b, fa.s1 * (1 - 1e-3))
            if not (fa.psi_at_s1 < up and fa.psi_at_s1 < dn):
                return CheckResult(
                    "fiber-zero-structure", False,
                    f"psi(s1)={fa.psi_at_s1} is not a strict local minimum")
    return CheckResult(
        "fiber-zero-structure", max_changes <= 2,
        f"max sign changes of psi' over 200 bundles: {max_changes} (limit 2)")


def _check_comparison_lemma(params, cfg) -> CheckResult:
    rng = np.random.default_rng(1005)
    for i in range(20):
        p = random_params(rng)
        c1 = float(np.exp(rng.uniform(math.log(1e-2), math.log(1e2))))
        rho1 = float(np.exp(rng.uniform(math.log(1e-2), math.log(1e2))))
        theta = 1.0 if i == 0 else float(rng.uniform(0.05, 1.0))
        if not ls.comparison_check(p, c1, rho1, theta * c1):
            return CheckResult(
                "comparison-lemma", False,
                f"predicate failed at c1={c1}, rho1={rho1}, theta={theta}")
    return CheckResult("comparison-lemma", True,
                       "20 random (params, c1, rho1, theta) draws all satisfy "
                       "the comparison inequality")


_CHECKS = [_check_exponent_identities, _check_landscape_argmax,
           _check_quadrature_oracles, _check_laplacian_order,
           _check_gradient_consistency, _check_fiber_zero_structure,
           _check_comparison_lemma]


def run_all(cfg, params: ls.LandscapeParams) -> list[CheckResult]:
    """All named checks against one parameter set; one result per check.

    Exceptions inside a check body (for instance a grid too coarse to build)
    are converted into that check's failure; invalid (N, q, mu) should be
    rejected by the caller before any numerics by constructing params first.
    """
    results = []
    for check in _CHECKS:
        try:
            results.append(check(params, cfg))
        except Exception as exc:  # noqa: BLE001 - report, never crash the suite
            name = check.__name__.removeprefix("_check_").replace("_", "-")
            results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
    return results
