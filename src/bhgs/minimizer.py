"""Constrained minimization inside the bend ball, plus the two constants:
C_gn by a quotient ascent on a grid, S_sob in closed form.

The solver runs projected gradient descent on the mass sphere with a
renormalization retraction and Armijo backtracking. Raw descent is useless
here: the bending term makes the gradient stiffness scale like h^{-4}, so
steps are preconditioned by the banded SPD operator P = a W + L^T W L
(Cholesky factored once per shift regime, a tracks |lambda|). The descent
direction is the tangent projection of P^{-1} applied to the weighted
gradient; energy still decreases strictly every accepted step.

Two residuals gate convergence: the weighted norm of the projected gradient
and |Q|/bend. Both are cheap and the second is the necessary condition the
analysis itself provides.

The descent converges linearly, and its tail is most of its cost, so it
hands the iterate to a bordered Newton finish: Newton on (u, lambda) for
grad J = lambda u on the mass sphere (Keller 1977), which converges
quadratically near a constrained critical point. Each step is one banded
LU of the Hessian K = L^T W L - lambda W - W f'(u) with two right-hand
sides. The hand-off happens once, at the loose point: the first iterate
with gnorm <= LOOSE_GRAD sqrt(c) and q_residual <= LOOSE_Q. If Newton fails
there, the descent resumes from the same iterate and state, so it ends where
the descent alone would. STALL_ITERS accepted steps in a row without energy
progress end the descent with a ConvergenceError.

Newton stops at the descent's own convergence test, and its result is kept
only if its energy is not above the iterate it started from (up to
NEWTON_J_SLACK bend) and its bend is below the safeguard cap.

The seed halves the width parameter of a Gaussian until J < 0 and bend is
below the cap. Its unnormalized trial profiles depend on the grid alone, so
their masses and bundles are held on the grid, per q, and grown only as far
as a call reaches (_SeedFamily). A trial whose held bundle, scaled to mass
c, fails either condition is skipped, and the trial returned is always
checked in full; seed's docstring says where this can differ from running
every trial.
The family lives and dies with its grid, like the grid's held band
L^T W L, to which normal_band adds the preconditioner's shift.

Iterates never leave the admissible ball: a candidate whose bend reaches
rho0 (1 - margin) is rejected and the step shrunk. The count of such
rejections is reported; a run dominated by them signals constants that are
inconsistent with the requested mass.

The three band kernels come from LAPACK through the private _lapack module:
numpy's bundled OpenBLAS where the wheel ships it, scipy.linalg otherwise
(KernelsUnavailable if neither loads). That module is imported on the first
banded factorization or solve, not with this one: the closed-form commands
(constants, landscape, fiber, verify) never load it. `cholesky_banded`,
`cho_solve_banded` and `solve_banded` stay module attributes, and every call
site looks them up as globals at call time, so rebinding them (for tracing
or testing) catches every call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fiber import analyze_fiber
from .functionals import (NormBundle, energy, l2_gradient, lagrange_multiplier,
                          nonneg_power, norm_bundle, pohozaev, scaled_norms)
from .grid import EXP_REACH, RadialField, RadialGrid
from .landscape import DomainError, LandscapeParams, mass_threshold

__all__ = ["SolverConfig", "GroundState", "ConvergenceError",
           "KernelsUnavailable", "seed",
           "minimize", "estimate_gn_constant", "estimate_sobolev_constant",
           "fiber_consistency"]


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted or invariants unattainable at this setup."""


class KernelsUnavailable(RuntimeError):
    """Neither numpy's bundled LAPACK nor scipy.linalg can be loaded."""


# fixed descent controls: initial step, line-search shrink/grow factors, the
# bend-ball margin, the share of accepted steps the safeguard may bind, and
# the count of steps without energy progress that stops the descent
STEP0 = 1.0
SHRINK = 0.5
GROW = 1.3
SAFEGUARD_MARGIN = 1e-3
SAFEGUARD_MAX_FRAC = 0.5
STALL_ITERS = 3

# the seed's trials: s = 2^-k for k < SEED_TRIALS
SEED_TRIALS = 60

# the descent's budget of iterations, read at call time
MAX_ITER = 2000

# Newton finish: the loose point (gnorm <= LOOSE_GRAD sqrt(c) and
# q_residual <= LOOSE_Q) that first hands the iterate over, the step budget,
# and the energy slack, in units of bend, a Newton result may rise above the
# iterate it started from (J cancels terms far larger than itself)
LOOSE_GRAD = 1e-6
LOOSE_Q = 1e-3
NEWTON_STEPS = 8
NEWTON_J_SLACK = 1e-12


@dataclass(frozen=True)
class SolverConfig:
    grad_tol: float = 1e-8
    q_tol: float = 5e-7

    def __post_init__(self):
        if not (self.grad_tol > 0 and self.q_tol > 0):
            raise DomainError("tolerances must be positive")


@dataclass(frozen=True)
class GroundState:
    field: RadialField
    c: float
    m: float
    lam: float             # serialized under the key "lambda"
    q_residual: float
    bend: float
    iters: int             # linear solves (descent, then Newton) + 1
    constraint_active: bool


def _wdot(g: RadialGrid, a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sum(g.weights * a * b))


def seed(params: LandscapeParams, thresholds, c: float,
         grid: RadialGrid) -> tuple[RadialField, NormBundle]:
    """Gaussian at mass c, fiber-contracted until J < 0 and bend < rho0;
    returns the field and its bundle.

    The dilation acts on the Gaussian family analytically, so no
    interpolation enters: u_s(r) = s^{N/4} t exp(-s r^2 / 2),
    renormalized to mass c on the grid at every trial s = 2^-k, k < 60. In
    the continuum psi -> 0- while bend shrinks like s^2, but on a grid of
    finite radius a wide enough Gaussian is truncated, so the loop can
    fail: it raises ConvergenceError after 60 halvings.

    The unnormalized profile of trial k depends on the grid alone, so its
    mass and bundle are held on the grid per q (_SeedFamily, grown only as
    far as a call reaches). A trial whose held bundle, scaled to mass c by
    the amplitude law (functionals.scaled_norms), fails J < 0 or the bend
    cap is skipped; every other trial runs in full, and the first that
    passes in full is returned. Where the
    prediction is unsettled (no held bundle, a power past float range, a
    scaled norm outside [2^-900, 2^900]) the trial runs in full. The field
    and every error are the plain loop's, except within a few hundred ulps
    of a mass where trial k's J or bend crosses its bound: there the
    prediction may fail where the full trial passes, and seed returns a
    later trial, which still meets both conditions in full.
    """
    _, c0, rho0 = thresholds
    if not (0 < c < c0):
        raise DomainError(f"mass must lie in (0, c0={c0}), got {c}")
    if grid.dim != params.N:
        raise DomainError(f"grid dim {grid.dim} does not match params N={params.N}")
    bend_cap = rho0 * (1.0 - SAFEGUARD_MARGIN)
    family = grid.seed_families.get(params.q)
    if family is None:
        family = grid.seed_families[params.q] = _SeedFamily()
    for k in range(SEED_TRIALS):
        prof = family.extend(params, grid) if k == len(family.trials) else None
        if family.fails(k, params, c, bend_cap):
            continue
        if prof is None:
            prof = _seed_profile(grid, k)
        prof *= math.sqrt(c / family.trials[k][0])
        fld = RadialField(grid, prof)
        b = norm_bundle(params, fld)
        if energy(params, b) < 0.0 and b.bend < bend_cap:
            return fld, b
    raise ConvergenceError(
        "seed contraction did not reach J < 0 and bend < rho0 in 60 halvings")


def _seed_profile(grid: RadialGrid, k: int) -> np.ndarray:
    # s^{N/4} exp(-s r^2 / 2) at s = 2^-k; exp is taken only where its
    # argument is at least -EXP_REACH (a prefix, as the nodes ascend), and
    # the other nodes hold the +0 it would return
    s = 0.5 ** k
    arg = -s * grid.nodes ** 2 / 2.0
    m = int(np.count_nonzero(arg >= -EXP_REACH))
    prof = np.zeros(grid.n)
    prof[:m] = s ** (grid.dim / 4.0) * np.exp(arg[:m])
    return prof


class _SeedFamily:
    """The seed's unnormalized trial profiles P_k on one grid at one q.

    trials[k] holds P_k's mass, bitwise the one the full trial normalizes
    by, and P_k's bundle (None where a norm leaves float range). The family
    holds no reference to its grid, so the two form no cycle.
    """

    def __init__(self):
        self.trials: list = []

    def extend(self, params: LandscapeParams, grid: RadialGrid) -> np.ndarray:
        """Hold the next trial's mass and bundle; returns its profile."""
        prof = _seed_profile(grid, len(self.trials))
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                b = norm_bundle(params, RadialField(grid, prof))
            except DomainError:
                b = None
        self.trials.append((_wdot(grid, prof, prof), b))
        return prof

    def fails(self, k: int, params: LandscapeParams, c: float,
              bend_cap: float) -> bool:
        """Whether trial k's held bundle, scaled to mass c by the amplitude
        law, fails J < 0 or bend < bend_cap. False, so the trial runs in
        full, where the prediction is unsettled: no bundle, a power past
        float range, or a scaled norm outside [2^-900, 2^900].
        """
        mass, b = self.trials[k]
        if b is None or not 0.0 < mass < math.inf:
            return False
        t = math.sqrt(c / mass)
        try:
            _, bend, sub, crit = scaled_norms(params, b, t * t, 1.0)
        except OverflowError:
            return False
        if not all(2.0 ** -900 <= x <= 2.0 ** 900 for x in (bend, sub, crit)):
            return False
        return not (energy(params, NormBundle(c, bend, sub, crit)) < 0.0
                    and bend < bend_cap)


def _kernels():
    # the band-kernel module, imported on the first factorization or solve
    try:
        from . import _lapack
    except ImportError as exc:
        raise KernelsUnavailable(str(exc)) from exc
    return _lapack


def cholesky_banded(ab, overwrite_ab=False, lower=False, check_finite=True):
    """Banded Cholesky factor, as scipy.linalg.cholesky_banded."""
    return _kernels().cholesky_banded(ab, overwrite_ab, lower, check_finite)


def cho_solve_banded(cb_and_lower, b, overwrite_b=False, check_finite=True):
    """Banded Cholesky solve, as scipy.linalg.cho_solve_banded."""
    return _kernels().cho_solve_banded(cb_and_lower, b, overwrite_b,
                                       check_finite)


def solve_banded(l_and_u, ab, b, overwrite_ab=False, overwrite_b=False,
                 check_finite=True):
    """Banded LU solve, as scipy.linalg.solve_banded."""
    return _kernels().solve_banded(l_and_u, ab, b, overwrite_ab, overwrite_b,
                                   check_finite)


def _banded_factor(grid: RadialGrid, a: float):
    # upper-banded Cholesky of P = a W + L^T W L, bandwidth 4
    return cholesky_banded(grid.normal_band(a), lower=False)


def _precond_apply(factor, grid: RadialGrid, v: np.ndarray) -> np.ndarray:
    # P^{-1} W v: the W makes the preconditioned step the gradient of J in
    # the P-inner product, keeping quadrature weights consistent
    return cho_solve_banded((factor, False), grid.weights * v)


def _residuals(params: LandscapeParams, grid: RadialGrid, c: float,
               u: np.ndarray, b: NormBundle):
    # (projected gradient, lambda_hat, its weighted norm, |Q|/bend) at the
    # mass-c iterate u with bundle b
    grad = l2_gradient(params, RadialField(grid, u)).values
    lam_hat = _wdot(grid, grad, u) / c
    g_proj = grad - lam_hat * u
    gnorm = math.sqrt(_wdot(grid, g_proj, g_proj))
    return g_proj, lam_hat, gnorm, abs(pohozaev(params, b)) / b.bend


def _newton_finish(params: LandscapeParams, grid: RadialGrid, c: float,
                   u: np.ndarray, b: NormBundle, res, config: SolverConfig,
                   bend_cap: float):
    """Bordered Newton steps in (u, lambda) from the mass-c iterate u.

    Each step solves K x = -R and K y = W u in one banded LU, where
    R = W (grad J - lambda_hat u) and K = L^T W L - lambda_hat W - W f'(u),
    then eliminates the multiplier update from the linearized mass
    constraint (W u)^T (x + dlam y) = 0 and renormalizes onto mass c.
    Returns ((u, b), steps) once the descent's convergence test holds, the
    energy is at most NEWTON_J_SLACK bend above that of the starting
    iterate and bend < bend_cap; otherwise (None, steps). Gives up on a
    singular or non-finite step, and when a step after the second fails to
    halve gnorm. steps counts the linear solves made.
    """
    n, w = grid.n, grid.weights
    q, p = params.q, params.p_crit
    J0 = energy(params, b)
    g_proj, lam_hat, gnorm, _ = res
    # K in general band storage, K[4 + i - j, j] = K_ij; the corners past
    # the matrix stay zero
    K = np.zeros((9, n))
    for steps in range(1, NEWTON_STEPS + 1):
        K[:5] = grid.normal_band(-lam_hat)
        for d in range(1, 5):
            K[4 + d, :n - d] = K[4 - d, d:]
        au = np.abs(u)
        K[4] -= w * (params.mu * (q - 1.0) * nonneg_power(au, q - 2.0)
                     + (p - 1.0) * nonneg_power(au, p - 2.0))
        wu = w * u
        try:
            xy = solve_banded((4, 4), K, np.column_stack((-w * g_proj, wu)))
        except (np.linalg.LinAlgError, ValueError):
            # singular K, or a non-finite entry (ValueError from check_finite)
            return None, steps - 1
        x, y = xy[:, 0], xy[:, 1]
        cand = u + x - (np.dot(wu, x) / np.dot(wu, y)) * y
        mass = _wdot(grid, cand, cand)
        if not 0.0 < mass < math.inf:     # NaN or inf anywhere in cand
            return None, steps
        cand *= math.sqrt(c / mass)
        try:
            b = norm_bundle(params, RadialField(grid, cand))
        except DomainError:
            return None, steps
        u, prev = cand, gnorm
        g_proj, lam_hat, gnorm, qres = _residuals(params, grid, c, u, b)
        if gnorm <= config.grad_tol and qres <= config.q_tol:
            if (energy(params, b) <= J0 + NEWTON_J_SLACK * b.bend
                    and b.bend < bend_cap):
                return (u, b), steps
            return None, steps
        if steps > 2 and not gnorm <= 0.5 * prev:
            return None, steps
    return None, NEWTON_STEPS


def minimize(params: LandscapeParams, grid: RadialGrid, c: float,
             config: SolverConfig = SolverConfig()) -> GroundState:
    """Local minimizer of J on the mass-c sphere inside the bend ball.

    Preconditioned descent, finished by bordered Newton steps from the loose
    point. Raises ConvergenceError if the residuals are not met within
    MAX_ITER iterations, the line search dies, the descent stalls, or the bend
    safeguard bound more than SAFEGUARD_MAX_FRAC of accepted steps.
    """
    thresholds = mass_threshold(params)
    rho0 = thresholds[2]
    # seed rejects a mass outside (0, c0) and a grid of another dimension
    fld, b = seed(params, thresholds, c, grid)
    u = fld.values
    del fld     # the seed's array is freed once the iterate moves on
    bend_cap = rho0 * (1.0 - SAFEGUARD_MARGIN)
    J = energy(params, b)
    tau = STEP0
    a_shift = None
    factor = None
    n_safe = 0
    accepted = 0
    stall = 0
    stall_safe = 0      # safeguard rejections during the current stall
    solves = 0
    loose = True

    max_iter = MAX_ITER
    for iters in range(1, max_iter + 1):
        res = _residuals(params, grid, c, u, b)
        g_proj, lam_hat, gnorm, qres = res
        if gnorm <= config.grad_tol and qres <= config.q_tol:
            break
        if loose and gnorm <= LOOSE_GRAD * math.sqrt(c) and qres <= LOOSE_Q:
            # hand (u, b) to Newton once; its solves count as iterations
            loose = False
            done, steps = _newton_finish(params, grid, c, u, b, res, config,
                                         bend_cap)
            solves += steps
            if done is not None:
                u, b = done
                J = energy(params, b)
                break

        a_new = max(abs(lam_hat), 1e-12)
        if factor is None or not (0.5 < a_new / a_shift < 2.0):
            a_shift = a_new
            factor = _banded_factor(grid, a_shift)
        d = _precond_apply(factor, grid, g_proj)
        solves += 1
        d = -(d - (_wdot(grid, d, u) / c) * u)
        slope = _wdot(grid, g_proj, d)

        tau = min(tau * GROW, 1e3)
        safe_before = n_safe
        for _ in range(60):
            cand = u + tau * d
            cand *= math.sqrt(c / _wdot(grid, cand, cand))
            b2 = norm_bundle(params, RadialField(grid, cand))
            if b2.bend >= bend_cap:
                n_safe += 1
                tau *= SHRINK
                continue
            J2 = energy(params, b2)
            if J2 <= J + 1e-4 * tau * slope:
                break
            tau *= SHRINK
        else:
            raise ConvergenceError(
                f"line search failed at iteration {iters} "
                f"(gnorm={gnorm:.3e}, q_residual={qres:.3e})")

        accepted += 1
        if J - J2 <= 1e-16 * abs(J):
            stall += 1
            stall_safe += n_safe - safe_before
            if stall >= STALL_ITERS:
                # a descent pinned at the bend cap stalls before the
                # safeguard check after convergence can see it
                capped = (f"; the bend safeguard rejected {stall_safe} trial "
                          f"steps during them, {n_safe} over {accepted} "
                          "accepted steps" if n_safe else "")
                met = ("; the gradient criterion is met"
                       if gnorm <= config.grad_tol else "")
                raise ConvergenceError(
                    f"stalled for {STALL_ITERS} steps at "
                    f"gnorm={gnorm:.3e}, q_residual={qres:.3e} "
                    f"(tolerances {config.grad_tol}, {config.q_tol})"
                    f"{capped}{met}")
        else:
            stall = 0
            stall_safe = 0
        u, b, J = cand, b2, J2
    else:
        raise ConvergenceError(
            f"no convergence in {max_iter} iterations "
            f"(gnorm={gnorm:.3e}, q_residual={qres:.3e})")

    if accepted and n_safe > SAFEGUARD_MAX_FRAC * accepted:
        raise ConvergenceError(
            f"bend safeguard bound {n_safe} times over {accepted} accepted "
            "steps; constants look inconsistent with this mass")

    mass_err = abs(b.mass - c) / c
    if mass_err > 1e-8:
        raise ConvergenceError(f"converged mass drifted: rel err {mass_err:.3e}")
    if not (b.bend < rho0):
        raise ConvergenceError(f"converged bend {b.bend} is not below rho0 {rho0}")
    if not (J < 0):
        raise ConvergenceError(f"converged energy {J} is not negative")
    return GroundState(
        field=RadialField(grid, u), c=c, m=J,
        lam=lagrange_multiplier(params, b),
        q_residual=abs(pohozaev(params, b)) / b.bend,
        bend=b.bend, iters=solves + 1,
        constraint_active=n_safe > 0)


def _gn_norms(grid: RadialGrid, q: float, u: np.ndarray):
    # (Lu, |u|_q^q, |Du|_2^2, |u|_2^2): the norms of the interpolation quotient
    w = grid.weights
    lu = grid.lap_apply(u)
    return (lu, float(np.sum(w * nonneg_power(np.abs(u), q))),
            float(np.sum(w * lu * lu)),
            float(np.sum(w * u * u)))


def _quotient_gn(params: LandscapeParams, grid: RadialGrid, q: float,
                 u: np.ndarray) -> float:
    beta = params.N * (q - 2.0) / (4.0 * q)
    _, B, A, mass = _gn_norms(grid, q, u)
    return (B ** (1.0 / q)) / (A ** (beta / 2.0) * mass ** ((1.0 - beta) / 2.0))


def estimate_gn_constant(params: LandscapeParams, grid: RadialGrid) -> float:
    """Best interpolation-quotient over radial fields, by preconditioned ascent.

    Maximizes log |u|_q - beta log |Du|_2 - (1-beta) log |u|_2 at q =
    params.q, starting from the unit Gaussian and renormalizing mass to 1
    every step, until a step gains less than 1e-14 relative (at most 500
    steps). The returned value is the achieved quotient, used as the working
    constant: a grid estimate of the radial constant with no error bar. Its
    grid error has either sign; at N = 5, q = 2.32 it lies above the value
    on a grid of a quarter the spacing.
    """
    q = params.q
    beta = params.N * (q - 2.0) / (4.0 * q)
    w = grid.weights
    factor = _banded_factor(grid, 1.0)

    u = np.exp(-grid.nodes ** 2 / 2.0)
    u /= math.sqrt(_wdot(grid, u, u))

    def logF(vec: np.ndarray) -> float:
        _, B, A, mass = _gn_norms(grid, q, vec)
        return (math.log(B) / q - beta * math.log(A) / 2.0
                - (1.0 - beta) * math.log(mass) / 2.0)

    F = logF(u)
    tau = 1.0
    for _ in range(500):
        lu, B, A, mass = _gn_norms(grid, q, u)
        grad = (np.sign(u) * nonneg_power(np.abs(u), q - 1.0) / B
                - beta * grid.lap_t_apply(w * lu) / w / A
                - (1.0 - beta) * u / mass)
        d = cho_solve_banded((factor, False), w * grad)
        gnorm2 = _wdot(grid, grad, d)
        tau = min(tau * 1.5, 1e3)
        improved = False
        for _ in range(60):
            cand = u + tau * d
            cand /= math.sqrt(_wdot(grid, cand, cand))
            F2 = logF(cand)
            if F2 > F + 1e-4 * tau * gnorm2:
                improved = True
                break
            tau *= 0.5
        if not improved or F2 - F <= 1e-14 * max(1.0, abs(F)):
            u = cand if improved else u
            return _quotient_gn(params, grid, q, u)
        u, F = cand, F2
    raise ConvergenceError("quotient ascent did not settle in 500 steps")


def estimate_sobolev_constant(params: LandscapeParams) -> float:
    """Sharp constant of the embedding D^{2,2} -> L^{4*}, in closed form.

    |u|_{4*} <= S^{-1/2} |Du|_2 with
    S = pi^2 (N+2) N (N-2) (N-4) (Gamma(N/2) / Gamma(N))^{4/N},
    attained by the bubbles (eps + r^2)^{-(N-4)/2} (Lieb 1983; Edmunds,
    Fortunato and Jannelli 1990). Returns S^{-1/2}; the Gamma ratio is taken
    through lgamma so every N >= 5 stays in float range.
    """
    N = params.N
    S = (math.pi ** 2 * (N + 2) * N * (N - 2) * (N - 4)
         * math.exp(4.0 / N * (math.lgamma(N / 2.0) - math.lgamma(N))))
    return 1.0 / math.sqrt(S)


def fiber_consistency(params: LandscapeParams, state: GroundState) -> float:
    """|s1 - 1| for the converged bundle; the minimizer sits at its own
    fiber minimum, so this is a free end-to-end self-check."""
    b = norm_bundle(params, state.field)
    fa = analyze_fiber(params, b)
    if fa.s1 is None:
        raise ConvergenceError("converged bundle has no fiber minimum")
    return abs(fa.s1 - 1.0)
