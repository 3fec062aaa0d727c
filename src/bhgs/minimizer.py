"""Constrained minimization inside the bend ball, plus estimated C_gn as
the quotient of a held ground-state profile (S_sob's closed form is
landscape's).

The descent converges where the weighted norm of the projected gradient
and |Q|/bend are at most the module constants GRAD_TOL and Q_TOL. Both
are cheap, and the second is the necessary condition the analysis itself
provides. A Newton run settles on its own error instead (below).

minimize tries Newton first: bordered Newton on (u, lambda) for grad J =
lambda u on the mass sphere (Keller 1977). Each step is one pivot-free
banded LDL^T of the Hessian K = L^T W L - lambda W - W f'(u) and two
one-column solves with it (_newton_step). The grid holds L^T W L once,
read-only, in LAPACK's (5, n) lower band storage (RadialGrid.newton_band);
_assemble_k, which takes no step, copies it into one work array and shifts
its diagonal row, and the factor (_lapack.ldlt_banded) overwrites it. The
step's factor record is (ab, flips, y): K's factor, its flipped columns and
y = K^-1 W u. The ground state is a strict local minimum of J on the mass
sphere, where the bordered system is nonsingular: K has one negative
eigenvalue and <W u, K^-1 W u> = W u . y < 0 (Grillakis, Shatah & Strauss
1987). Each step's factor flips one column per negative eigenvalue of K,
its Morse index.

Every Newton run, the profile's, the try's and the finish's, is one loop
(_newton) that stops at the first step that settles: the simplified Newton
correction at most FIRST_ERR_TOL (_correction), the residual solved with
the last step's factor record, one back-substitution, in |.|_W / sqrt(c).
It measures the state's error on the grid itself, at any scale
(Deuflhard, Newton Methods for Nonlinear Problems, 2004). The profile keeps the
settled state as it is; the try and the finish hand it to one judgment
(_settle).

The try starts from the profile of (N, q), read at the op's own width
(_moved_start). The critical dilation u -> L^(-(N-4)/2) u(r/L) keeps
bend, the critical norm and J and maps (mu, c) to (mu L^(N - (N-4)q/2),
c / L^4); while the critical term is negligible, the ground states of one
(N, q) are one profile up to it and amplitude (Weinstein 1983). So one
small table (_profile) holds, per (N, q), that profile in the unit frame,
where the unit Gaussian sits at its fiber minimum, solved on first use on
one grid per N (nested iteration, Deuflhard 2004, Hackbusch 1985). An op
reads it at r sqrt(s1), s1 the closed-form fiber minimum of the unit
Gaussian at mass c (_gaussian_s1). Its bundle's Gagliardo-Nirenberg
quotient, which the dilation keeps, is estimated C_gn
(estimate_gn_constant), so the solver has one Newton method for every
state it computes. The try is skipped where there is no profile or
closed-form s1, where the start fails J < 0 or the bend cap, and where the
grid's s1 (fiber.fiber_minimum of the grid's unit Gaussian bundle at mass
c) does not exist; minimize computes that s1 once, and s1^(-1/2) is the
width an under-resolved message names. The grid's unit Gaussian does not
depend on the mass, so its field, with its L u and powers, is held for the
last grid passed (_unit_gaussian, one slot keyed on the grid's identity),
and each op takes only its bundle's four weighted sums.

The judgment (_settle) keeps the settled state where it meets Q_TOL, its
energy is not above its start's (up to NEWTON_J_SLACK bend) and its bend
is below the safeguard cap. One settled above Q_TOL sits on the grid's
discrete Pohozaev floor, which falls like h^4; no later step can pass. At
a ground state the bordered Hessian is invertible, so one more solve with
the same factor bounds, to first order, how far q_residual can fall over
tangent states whose projected gradient is within GRAD_TOL (_floor_reach).
Where q_residual - Q_TOL exceeds that reach, no state the descent could
accept is near, and the solve ends with ConvergenceError of kind
under-resolved: after the try, the seed loop and the descent never run.
Where it does not, the judgment returns the state's floor record (_Floor:
J*, q*, bend*, its values and G^2 = g^T d, g the gradient of q_residual
and d = K^-1 g made tangent, the solve the reach already takes).

Where the try is skipped, fails or leaves a floor record, the fallback
(_descend) runs bit for bit as without the try, up to where a judgment or
the floor record ends it (below): the seed loop, then projected gradient
descent on the mass sphere with a renormalization retraction and Armijo
backtracking. Raw descent is useless here: the bending term makes the
gradient stiffness scale like h^{-4}, so steps are preconditioned by the
banded SPD operator P = a W + L^T W L (Cholesky factored once per shift
regime, a tracks |lambda|). The descent direction is the tangent projection
of P^{-1} applied to the weighted gradient; energy still decreases strictly
every accepted step. The descent converges linearly, and its tail is most
of its cost, so it hands the iterate to the judgment once, at the loose
point: the first iterate with gnorm <= LOOSE_GRAD sqrt(c) and q_residual <=
LOOSE_Q. There the loop also stops, settled or not, at the descent's own
convergence test (the loose stop): one benchmark op converges there alone,
at a state whose correction is far above FIRST_ERR_TOL. If the finish keeps
no state, the descent resumes from the same iterate and state, so it ends
where the descent alone would, unless the finish settled on a floor beyond
its reach. The first step whose line search cannot lower J, because no
trial passes Armijo or the one that does makes no energy progress, ends the
descent with a ConvergenceError of kind stall. So does, sooner, the
energy-sublevel certificate (_sublevel_gap), once an iterate's energy
shows, to second order, that no later iterate can reach Q_TOL. It reads the
try's floor record or, where the try left none, the finish's. It runs after
the iterate's own convergence test and the loose-point finish, so a success
at that iterate wins, and it goes with the descent.

The fallback's seed halves the width parameter of a Gaussian until J < 0
and bend is below the cap. Its unnormalized trial profiles depend on the
grid's geometry alone, so their masses and bundles are held per (geometry,
q) for the last two met (_seed_trials), grown only as far as a call
reaches. A trial whose held bundle, scaled to mass c, fails either
condition is skipped, and the trial returned is always checked in full by
_start; seed's docstring says where this can differ from running every
trial. Of each trial's bundle only |P_k|_q^q depends on q; its mass, bend
and critical norm are held per geometry in a table of 64 geometries
(_trial_norms), so a new q on a geometry met before takes one power sum
per trial and no Laplacian. No seed state lives on the grid, which holds
only its band L^T W L, which cholesky_banded copies and shifts for the
preconditioner as _assemble_k does for K.

Iterates never leave the admissible ball: a candidate whose bend reaches
rho0 (1 - margin) is rejected and the step shrunk. The count of such
rejections is reported; a run dominated by them signals constants that are
inconsistent with the requested mass.

One evaluation per iterate: the descent and Newton carry the iterate as a
RadialField, which holds its L u and two powers for its lifetime; every
term that reads them (the bundle, l2_gradient, K's W f'(u) and the
gradient of q_residual) is functionals', so each is taken once per field.
A Newton run takes its start over: the start is a list [fld, b] that
_newton empties on entry, so where no caller holds the field itself (the
try's and the profile's starts), its arrays go once the first step has
read them.
Every trial field, accepted or not, goes through norm_bundle. Weighted
sums are np.add.reduce, numpy's pairwise sum, the same as np.sum without
its dispatch layer.

Each ConvergenceError carries a kind (FAIL_KINDS) beside its message:
seed, stall, budget, safeguard, invariant and under-resolved from
minimize, no-profile from estimate_gn_constant and no-fiber-minimum from
fiber_consistency. The first five kinds' messages keep the words a reader
of the text alone (the benchmark's classify) reads them by; stall has two
messages, "stalled at iteration" and "stalled inside the energy sublevel
certificate", and both start with "stalled". The under-resolved message
contains none of those words, and reads as other.

Every banded factor and solve, Newton's and the preconditioner's, runs
on the two band kernels ldlt_banded and ldlt_solve_banded, one right-hand
side per solve, from BLAS and LAPACK through the private _lapack module,
imported with this one: numpy's bundled OpenBLAS where the wheel ships
it, scipy.linalg otherwise, and KernelsUnavailable from the import if
neither loads. Only solve, sweep and
estimated-mode constants import this module; the closed-form commands
(synthetic constants, landscape, fiber, verify) load neither it nor the
kernels. The two kernels are bound here from _lapack at import, and the
preconditioner's factor and solve (cholesky_banded, cho_solve_banded) are
defined here on them; every call site looks these four up as globals at
call time, so rebinding them (for tracing or testing) catches every call.
estimate_sobolev_constant is the closed form landscape defines, bound here
too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ._lapack import ldlt_banded, ldlt_solve_banded
from .fiber import fiber_minimum
from .functionals import (NormBundle, energy, gaussian_bundle, gn_quotient,
                          l2_gradient, lagrange_multiplier,
                          nonlinear_diagonal, nonneg_power, norm_bundle,
                          q_residual, q_residual_gradient, scaled_norms)
from .grid import EXP_REACH, RadialField, RadialGrid, build_grid, interpolate
from .landscape import (ConvergenceError, DomainError, KernelsUnavailable,
                        LandscapeParams, estimate_sobolev_constant,
                        mass_threshold)

__all__ = ["SolverConfig", "GroundState", "ConvergenceError",
           "KernelsUnavailable", "seed",
           "minimize", "estimate_gn_constant", "estimate_sobolev_constant",
           "fiber_consistency"]


# the kinds a ConvergenceError carries: minimize's seed loop, descent stall
# (a step that cannot lower J, or the sublevel certificate), iteration
# budget, bend safeguard, a broken invariant of the converged state and a
# grid whose Pohozaev floor is certified above Q_TOL; an (N, q) profile
# solve that does not settle, which leaves estimate_gn_constant without a
# value; fiber_consistency's bundle without a fiber minimum
FAIL_KINDS = ("seed", "stall", "budget", "safeguard", "invariant",
              "under-resolved", "no-profile", "no-fiber-minimum")


# fixed descent controls: initial step, line-search shrink/grow factors, the
# bend-ball margin and the share of accepted steps the safeguard may bind
STEP0 = 1.0
SHRINK = 0.5
GROW = 1.3
SAFEGUARD_MARGIN = 1e-3
SAFEGUARD_MAX_FRAC = 0.5

# the seed's trials: s = 2^-k for k < SEED_TRIALS
SEED_TRIALS = 60

# the descent's budget of iterations and its convergence test, gnorm <=
# GRAD_TOL and |Q|/bend <= Q_TOL, read at call time
MAX_ITER = 2000
GRAD_TOL = 1e-8
Q_TOL = 5e-7

# Newton: a run has settled once the simplified Newton correction, an
# estimate of its error in |.|_W / sqrt(c), is at most FIRST_ERR_TOL
# (_newton); a run settled above Q_TOL ends the solve as under-resolved
# where q_residual - Q_TOL exceeds the first-order reach of states within
# GRAD_TOL (_settle, _floor_reach); read at call time
FIRST_ERR_TOL = 1e-10

# the (N, q) profile: at REF_FRACTION c0, dilated into the unit frame and
# solved on build_grid(N, PROFILE_NODES, PROFILE_R) (_profile)
REF_FRACTION = 0.2
PROFILE_NODES = 1025
PROFILE_R = 30.0

# Newton: the step budget of the try and the finish, half the profile
# solve's; the loose point (gnorm <= LOOSE_GRAD sqrt(c) and q_residual <=
# LOOSE_Q) that first hands the descent's iterate over; and the energy
# slack, in units of bend, a Newton result may rise above the iterate it
# started from (J cancels terms far larger than itself)
NEWTON_STEPS = 4
LOOSE_GRAD = 1e-6
LOOSE_Q = 1e-3
NEWTON_J_SLACK = 1e-12

# the descent's energy-sublevel stall certificate (_sublevel_gap): it holds
# only where its threshold exceeds SUBLEVEL_GUARD bend*, 2^10 ulps of the
# terms of size bend that J cancels (see NEWTON_J_SLACK), and within
# SUBLEVEL_REACH sqrt(c) of the settled state in |.|_W, where the
# second-order model of J and q_residual holds
SUBLEVEL_GUARD = 2.0 ** -42
SUBLEVEL_REACH = 1e-3


@dataclass(frozen=True)
class SolverConfig:
    """GRAD_TOL and Q_TOL as a record; takes no arguments."""
    grad_tol: float = field(default=GRAD_TOL, init=False)
    q_tol: float = field(default=Q_TOL, init=False)


@dataclass(frozen=True)
class GroundState:
    field: RadialField
    bundle: NormBundle     # the field's, which fiber_consistency reads
    c: float
    m: float
    lam: float             # serialized under the key "lambda"
    q_residual: float
    bend: float
    iters: int             # linear solves of the path taken + 1
    constraint_active: bool


def _wdot(g: RadialGrid, a: np.ndarray, b: np.ndarray) -> float:
    return float(np.add.reduce(g.weights * a * b))


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

    The unnormalized profile P_k of trial k depends on the grid's geometry
    alone, so its mass and bundle are held per (geometry, q) (_seed_trials,
    grown only as far as a call reaches). A trial whose held bundle, scaled
    to mass c by the amplitude law (functionals.scaled_norms), fails J < 0
    or the bend cap is skipped (_trial_fails); every other trial runs in
    full through _start, the test the profile and Newton first apply to
    their starts, and the first that passes is returned. Where the
    prediction is unsettled (no held bundle, a power past float range, a
    scaled norm outside [2^-900, 2^900]) the trial runs in full. The field
    and every error are the plain loop's, except within a few hundred ulps
    of a mass where trial k's J or bend crosses its bound: there the
    prediction may fail where the full trial passes, and seed returns a
    later trial, which still meets both conditions in full.
    """
    _check_request(params, thresholds, c, grid)
    bend_cap = thresholds[2] * (1.0 - SAFEGUARD_MARGIN)
    held = _seed_trials(grid.dim, grid.n, grid.r_max, params.q)
    trials = held[1]
    for k in range(SEED_TRIALS):
        prof = _hold_trial(params, grid, held) if k == len(trials) else None
        if _trial_fails(trials[k], params, c, bend_cap):
            continue
        start = _start(params, grid, c,
                       _seed_profile(grid, k) if prof is None else prof,
                       bend_cap)
        if start is not None:
            return start
    raise ConvergenceError(
        "seed",
        "seed contraction did not reach J < 0 and bend < rho0 in 60 halvings")


def _check_request(params: LandscapeParams, thresholds, c: float,
                   grid: RadialGrid) -> None:
    # a mass in (0, c0) and a grid of the params' dimension
    c0 = thresholds[1]
    if not (0 < c < c0):
        raise DomainError(f"mass must lie in (0, c0={c0}), got {c}")
    if grid.dim != params.N:
        raise DomainError(f"grid dim {grid.dim} does not match params N={params.N}")


def _gaussian(grid: RadialGrid, s: float, amp: float = 1.0) -> np.ndarray:
    # amp exp(-s r^2 / 2); exp is taken only where its argument is at least
    # -EXP_REACH (a prefix, as the nodes ascend), and the other nodes hold
    # the +0 it would return
    arg = -s * grid.nodes ** 2 / 2.0
    m = int(np.count_nonzero(arg >= -EXP_REACH))
    prof = np.zeros(grid.n)
    prof[:m] = amp * np.exp(arg[:m])
    return prof


def _seed_profile(grid: RadialGrid, k: int) -> np.ndarray:
    # s^{N/4} exp(-s r^2 / 2) at s = 2^-k
    s = 0.5 ** k
    return _gaussian(grid, s, s ** (grid.dim / 4.0))


@lru_cache(maxsize=64)
def _trial_norms(dim: int, n: int, r_max: float) -> list:
    # the one list held per grid geometry of (mass, bend, |P_k|_{4*}^{4*})
    # of the seed's trial profiles P_k, which _hold_trial grows as far as a
    # call reaches. None of the three depends on q, and grids of one
    # geometry have bitwise equal weights and bands, so every grid may read
    # the norms another computed. 64 keys, as grid._weight_core
    return []


@lru_cache(maxsize=2)
def _seed_trials(dim: int, n: int, r_max: float, q: float) -> tuple:
    # (norms, trials) for the seed at one grid geometry and q: the
    # geometry's held norms (_trial_norms), kept for the entry's lifetime,
    # and per trial P_k reached its mass, bitwise the one _start scales by,
    # and its bundle (None where a norm leaves float range), bitwise
    # norm_bundle's. Floats only, no grid; held for the last two (geometry,
    # q), as _profile is, since a command and each draw of the benchmark's
    # domain workload use one
    return _trial_norms(dim, n, r_max), []


def _hold_trial(params: LandscapeParams, grid: RadialGrid,
                held: tuple) -> np.ndarray:
    # append the next trial's mass and bundle to held (_seed_trials) and
    # return its profile; of the bundle only |P_k|_q^q is summed here where
    # the geometry's norms already hold P_k
    norms, trials = held
    k = len(trials)
    prof = _seed_profile(grid, k)
    total = np.add.reduce
    # the bundle's sums (functionals.norm_bundle); prof >= 0 is its own |P|
    with np.errstate(over="ignore", invalid="ignore"):
        wpp = grid.weights * prof * prof
        if k == len(norms):
            lap = RadialField(grid, prof).lap
            norms.append((
                float(total(wpp)), _wdot(grid, lap, lap),
                float(total(wpp * nonneg_power(prof, params.p_crit - 2.0)))))
        mass, bend, crit = norms[k]
        sub = float(total(wpp * nonneg_power(prof, params.q - 2.0)))
    try:
        b = NormBundle(mass, bend, sub, crit)
    except DomainError:
        b = None
    trials.append((mass, b))
    return prof


def _trial_fails(trial: tuple, params: LandscapeParams, c: float,
                 bend_cap: float) -> bool:
    # whether a held trial's (mass, bundle), scaled to mass c by the
    # amplitude law, fails J < 0 or bend < bend_cap. False, so the trial
    # runs in full, where the prediction is unsettled: no bundle, a power
    # past float range, or a scaled norm outside [2^-900, 2^900]
    mass, b = trial
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


def cholesky_banded(grid: RadialGrid, a: float) -> np.ndarray:
    """The Cholesky factor of the preconditioner P = a W + L^T W L, built
    as _assemble_k builds K: a Fortran-ordered copy of the grid's held
    lower band with a w added to its diagonal row, factored in place by
    ldlt_banded. LinAlgError where the factor flips a column, as P must be
    positive definite, or a Schur pivot is zero; ValueError where a w is
    not finite."""
    ab = np.array(grid.newton_band, order="F")
    ab[0] += a * grid.weights
    if len(ldlt_banded(ab)):
        raise np.linalg.LinAlgError("preconditioner not positive definite")
    return ab


def cho_solve_banded(factor: np.ndarray, grid: RadialGrid,
                     v: np.ndarray) -> np.ndarray:
    """P^{-1} W v with the factor cholesky_banded left, in a fresh array:
    the W makes the preconditioned step the gradient of J in the P-inner
    product, keeping quadrature weights consistent. ValueError where v is
    not finite."""
    return ldlt_solve_banded(factor, (), grid.weights * v)


def _residuals(params: LandscapeParams, c: float, fld: RadialField,
               b: NormBundle):
    # (projected gradient, lambda_hat, its weighted norm, |Q|/bend) at the
    # mass-c iterate fld with bundle b; the gradient reads the L u that
    # norm_bundle left on fld
    grid, u = fld.grid, fld.values
    grad = l2_gradient(params, fld).values
    lam_hat = _wdot(grid, grad, u) / c
    g_proj = grad - lam_hat * u
    gnorm = math.sqrt(_wdot(grid, g_proj, g_proj))
    return g_proj, lam_hat, gnorm, q_residual(params, b)


def _assemble_k(params: LandscapeParams, fld: RadialField, lam_hat: float,
                ab: np.ndarray) -> np.ndarray:
    """K = L^T W L - lambda_hat W - W f'(u) at fld, unfactored, in the
    (5, n) lower band array ab (K[i, j] at ab[i - j, j]), which it returns:
    the grid's held band less lambda_hat W and nonlinear_diagonal on row 0."""
    np.copyto(ab, fld.grid.newton_band)
    ab[0] += -lam_hat * fld.grid.weights
    ab[0] -= nonlinear_diagonal(params, fld)
    return ab


def _newton_step(params: LandscapeParams, c: float, fld: RadialField,
                 g_proj: np.ndarray, lam_hat: float, ab: np.ndarray):
    """One bordered Newton step in (u, lambda) from the mass-c iterate fld:
    (the next iterate's values at mass c, or None where they are not
    finite; the factor record (ab, flips, y)).

    Solves K x = -R and K y = W u, R = W (grad J - lambda_hat u), with one
    banded LDL^T of K, assembled by _assemble_k in the work array ab that
    the factor overwrites (the caller, _newton, reuses ab for every step),
    and two one-column solves; then eliminates the multiplier update from
    the linearized mass constraint (W u)^T (x + dlam y) = 0 and
    renormalizes onto mass c. The kernels' errors (a zero Schur pivot, a
    non-finite entry) propagate. The record holds ab, the flipped columns
    of K's factor and y = K^-1 W u.
    """
    grid, u = fld.grid, fld.values
    w = grid.weights
    wu = w * u
    flips = ldlt_banded(_assemble_k(params, fld, lam_hat, ab))
    x = ldlt_solve_banded(ab, flips, -w * g_proj)
    y = ldlt_solve_banded(ab, flips, wu.copy())
    cand = u + x - (np.dot(wu, x) / np.dot(wu, y)) * y
    mass = _wdot(grid, cand, cand)
    record = (ab, flips, y)
    if not 0.0 < mass < math.inf:     # NaN or inf anywhere in cand
        return None, record
    cand *= math.sqrt(c / mass)
    return cand, record


def _newton(params: LandscapeParams, c: float, start: list, budget: int,
            loose: bool = False):
    """At most budget bordered Newton steps (_newton_step) from the mass-c
    start [fld, b], fld an iterate and b its bundle, in one held band
    array. The list is emptied on entry, so the caller hands the start
    over: where no other frame holds fld, its values, L u and powers go
    once the first step has read them.

    Returns ((fld, b, q_residual, (ab, flips, y)), steps) at the first
    step that settles: the simplified Newton correction (_correction) at
    most FIRST_ERR_TOL; (ab, flips, y) is that step's factor record. With
    loose, also at a step with gnorm <= GRAD_TOL and q_residual <= Q_TOL.
    Otherwise (None, steps): the budget ran out, or a step was singular,
    not finite or left float range. steps counts the linear solves; the
    correction's back-substitution is not one.
    """
    fld, b = start
    start.clear()
    grid = fld.grid
    ab = np.empty((5, grid.n), order="F")
    g_proj, lam_hat = _residuals(params, c, fld, b)[:2]
    for steps in range(1, budget + 1):
        try:
            cand, factor = _newton_step(params, c, fld, g_proj, lam_hat, ab)
        except (np.linalg.LinAlgError, ValueError):   # singular, not finite
            return None, steps - 1
        if cand is None:
            return None, steps
        try:
            fld = RadialField(grid, cand)
            b = norm_bundle(params, fld)
        except DomainError:
            return None, steps
        g_proj, lam_hat, gnorm, qres = _residuals(params, c, fld, b)
        if ((loose and gnorm <= GRAD_TOL and qres <= Q_TOL)
                or _correction(fld, c, g_proj, *factor) <= FIRST_ERR_TOL):
            return (fld, b, qres, factor), steps
    return None, budget


def _correction(fld: RadialField, c: float, g_proj: np.ndarray,
                ab: np.ndarray, flips: np.ndarray, y: np.ndarray) -> float:
    # |dbar|_W / sqrt(c), dbar the simplified Newton correction at fld: the
    # residual at fld solved with the last step's K (_kept_solve). It
    # estimates fld's error from the grid's own K (Deuflhard 2004)
    d = _kept_solve(fld, ab, flips, y, -fld.grid.weights * g_proj)
    return math.sqrt(_wdot(fld.grid, d, d) / c)


def _kept_solve(fld: RadialField, ab: np.ndarray, flips: np.ndarray,
                y: np.ndarray, v: np.ndarray) -> np.ndarray:
    # K^-1 v made tangent at fld, solved in v's place: a back-substitution
    # with the last step's factor record (ab, flips, y), projected along
    # its y = K^-1 W u as the step was
    x = ldlt_solve_banded(ab, flips, v)
    wu = fld.grid.weights * fld.values
    x -= (np.dot(wu, x) / np.dot(wu, y)) * y      # in place: no third array
    return x


def _floor_reach(params: LandscapeParams, fld: RadialField, b: NormBundle,
                 ab: np.ndarray, flips: np.ndarray, y: np.ndarray):
    # (reach, G^2) of one solve d = K^-1 g made tangent at fld (_kept_solve),
    # g = functionals.q_residual_gradient at fld. reach = GRAD_TOL |d|_W
    # is, to first order, the most q_residual can fall over tangent
    # states whose projected gradient is within GRAD_TOL; G^2 = g^T d
    # bounds, to second order, how far it moves over an energy sublevel set
    # of the settled state (_sublevel_gap)
    g = q_residual_gradient(params, fld, b)
    d = _kept_solve(fld, ab, flips, y, g.copy())
    return (GRAD_TOL * math.sqrt(_wdot(fld.grid, d, d)),
            float(np.dot(g, d)))


class _Floor(NamedTuple):
    """A state Newton settled above Q_TOL that the under-resolved
    certificate does not end the solve on: its energy J*, q_residual q*,
    bend*, values and G^2 (_floor_reach), which _sublevel_gap reads."""
    J: float
    q: float
    bend: float
    values: np.ndarray
    g2: float


def _settle(params: LandscapeParams, c: float, start: list,
            bend_cap: float, s1: float | None, loose: bool = False):
    """At most NEWTON_STEPS Newton steps (_newton) from the mass-c start
    [fld, b], which _newton takes, and the one judgment of the state they
    settle at: (kept, steps, floor), kept the settled (fld, b) or None,
    floor a _Floor or None; loose goes to _newton.

    The state is kept where it meets Q_TOL, its energy is at most
    NEWTON_J_SLACK bend above the start's and its bend is below bend_cap.
    One settled above Q_TOL sits on the grid's Pohozaev floor: where
    q_residual - Q_TOL exceeds the first-order reach of states within
    GRAD_TOL (_floor_reach), no state the descent could accept is near, and
    ConvergenceError of kind under-resolved is raised, its message giving
    the width s1^(-1/2) in grid spacings where s1 is known; otherwise the
    state's _Floor is returned.
    """
    J0 = energy(params, start[1])
    done, steps = _newton(params, c, start, NEWTON_STEPS, loose=loose)
    if done is None:
        return None, steps, None
    fld, b, qres, factor = done
    J = energy(params, b)
    if qres <= Q_TOL:
        kept = J <= J0 + NEWTON_J_SLACK * b.bend and b.bend < bend_cap
        return (fld, b) if kept else None, steps, None
    reach, g2 = _floor_reach(params, fld, b, *factor)
    if qres - Q_TOL > reach:
        width = ("" if s1 is None else f"; the fiber-minimum width spans "
                 f"{s1 ** -0.5 / fld.grid.h:.3g} grid spacings")
        raise ConvergenceError(
            "under-resolved",
            f"under-resolved grid: Newton settled at q_residual={qres:.3e}, "
            f"above Q_TOL={Q_TOL} by more than the reach {reach:.3e} of "
            f"states within GRAD_TOL={GRAD_TOL}{width}")
    return None, steps, _Floor(J, qres, b.bend, fld.values, g2)


def _sublevel_gap(floor: _Floor, fld: RadialField, J: float, c: float):
    """(J - J*, thr) where the floor certifies that no state of energy at
    most J, the iterate fld's, reaches Q_TOL; None where it does not.

    On the tangent space of the mass sphere at the settled state u*, K is
    positive definite (one negative eigenvalue, <W u, K^-1 W u> < 0), so
    J - J* ~ 1/2 t^T K t and q_residual - q* ~ g^T t for a tangent offset
    t: over the sublevel set {J <= J_k} q_residual moves at most
    sqrt(2 (J_k - J*) G^2), to second order. Armijo keeps every later
    iterate in that set. Below thr = (q* - Q_TOL)^2 / (8 G^2) that is at
    most half the gap q* - Q_TOL; the other half is margin for third-order
    terms. The certificate holds where G^2 is positive and finite, thr
    exceeds SUBLEVEL_GUARD bend* (below it J's rounding decides), -thr <=
    J - J* < thr (below -thr the iterate has left for a lower basin) and
    |u - u*|_W <= SUBLEVEL_REACH sqrt(c).
    """
    g2 = floor.g2
    if not 0.0 < g2 < math.inf:
        return None
    thr = (floor.q - Q_TOL) ** 2 / (8.0 * g2)
    gap = J - floor.J
    if not (thr > SUBLEVEL_GUARD * floor.bend and -thr <= gap < thr):
        return None
    off = fld.values - floor.values
    if _wdot(fld.grid, off, off) > SUBLEVEL_REACH ** 2 * c:
        return None
    return gap, thr


def _start(params: LandscapeParams, grid: RadialGrid, c: float,
           prof: np.ndarray, bend_cap: float):
    # [fld, b], prof scaled to mass c on the grid and its bundle, or None
    # where its mass on the grid is 0 or it fails J < 0 or bend <
    # bend_cap; a list, which a Newton run takes over (_newton)
    mass = _wdot(grid, prof, prof)
    if mass == 0.0:
        return None
    prof *= math.sqrt(c / mass)
    fld = RadialField(grid, prof)
    b = norm_bundle(params, fld)
    if not (energy(params, b) < 0.0 and b.bend < bend_cap):
        return None
    return [fld, b]


# the unit Gaussian field of the last grid _unit_gaussian was passed
_unit_field: RadialField | None = None


def _unit_gaussian(grid: RadialGrid) -> RadialField:
    """The unit Gaussian exp(-r^2 / 2) on grid, as a RadialField held with
    its L u and powers for the last grid passed, and replaced when another
    is: one slot, keyed on the grid's identity.

    Its values do not depend on the mass or the params, so every op on
    one grid reads one field, and norm_bundle on it takes four weighted
    sums. Identity, not grid equality: the field's powers are held on it
    (functionals.nonlinear_powers), so a grid built afresh takes its own.
    One slot: a command and each draw of the benchmark's domain workload
    solve on one grid, and every slot holds a grid alive. The slot is a
    module global, not a property of the grid, as a field held on its own
    grid would make a cycle that only the garbage collector frees.
    """
    global _unit_field
    fld = _unit_field
    if fld is None or fld.grid is not grid:
        fld = _unit_field = RadialField(grid, _seed_profile(grid, 0))
    return fld


def _gaussian_s1(params: LandscapeParams, c: float,
                 grid: RadialGrid | None = None) -> float | None:
    # s1, the fiber minimum (fiber_minimum) of the unit Gaussian
    # exp(-r^2 / 2) scaled to mass c: of its closed-form bundle
    # (functionals.gaussian_bundle), or of norm_bundle's on grid where one
    # is given (_unit_gaussian). None where there is none or a norm leaves
    # float range
    try:
        unit = (gaussian_bundle(params, 1.0) if grid is None else
                norm_bundle(params, _unit_gaussian(grid)))
        return fiber_minimum(params, NormBundle(*scaled_norms(
            params, unit, c / unit.mass, 1.0)))
    except (DomainError, OverflowError):
        return None


@lru_cache(maxsize=2)
def _profile(N: int, q: float):
    """(values, bundle): the settled (N, q) profile in the unit frame, on
    build_grid(N, PROFILE_NODES, PROFILE_R), and its norm bundle.

    It is the state at mu = 1, the synthetic constants and c_ref =
    REF_FRACTION c0, dilated by L = s1^(-1/2), s1 the closed-form Gaussian
    fiber minimum at c_ref (_gaussian_s1): the problem at mu' = L^(N -
    (N-4)q/2) and c' = c_ref / L^4, solved from exp(-r^2 / 2) by at most 2
    NEWTON_STEPS steps (_newton), kept once they settle, whatever
    q_residual or the energy do: on the profile's grid the Pohozaev floor
    may sit above Q_TOL. None where s1 does not exist, the start fails J <
    0 or the bend cap, or the run does not settle; where no grid of
    dimension N builds, build_grid's DomainError propagates.

    Held for the last two (N, q), as read-only values and a bundle that
    reference no grid; the spacing is PROFILE_R / (len(values) - 1). A
    command and each draw of the benchmark's domain workload use one
    (N, q), and a larger table only holds memory (8 KB of values per
    entry).
    """
    params = LandscapeParams(N, q)
    _, c0, rho0 = mass_threshold(params)
    c_ref = REF_FRACTION * c0
    s1 = _gaussian_s1(params, c_ref)
    if s1 is None:
        return None
    grid = build_grid(N, PROFILE_NODES, PROFILE_R)
    try:
        ell = s1 ** -0.5
        unit = LandscapeParams(N, q, mu=ell ** (N - (N - 4) * q / 2.0))
        c = c_ref / ell ** 4
        start = _start(unit, grid, c, _gaussian(grid, 1.0),
                       rho0 * (1.0 - SAFEGUARD_MARGIN))
        done = None if start is None else _newton(
            unit, c, start, 2 * NEWTON_STEPS)[0]
    except (DomainError, OverflowError):
        return None
    return None if done is None else (done[0].values, done[1])


def _moved_start(params: LandscapeParams, grid: RadialGrid, c: float,
                 s1: float | None, bend_cap: float):
    """The try's start: the unit-frame (N, q) profile (_profile) read at
    r sqrt(s1) by grid.interpolate, s1 the op's closed-form Gaussian fiber
    minimum, and scaled to mass c, with its bundle (_start). None where s1
    or the profile is None or that start fails J < 0 or bend < bend_cap.
    """
    try:
        prof = _profile(params.N, params.q)
    except DomainError:     # no profile grid builds at dimension N
        prof = None
    if prof is None or s1 is None:
        return None
    values = prof[0]
    return _start(params, grid, c, interpolate(
        values, PROFILE_R / (len(values) - 1), grid.nodes * math.sqrt(s1)),
        bend_cap)


def minimize(params: LandscapeParams, grid: RadialGrid,
             c: float) -> GroundState:
    """Local minimizer of J on the mass-c sphere inside the bend ball.

    Newton first, from the (N, q) profile read at the op's width
    (_moved_start) and judged by _settle; where that is skipped or keeps no
    state, the seed loop and the preconditioned descent, finished from the
    loose point through the same judgment (_descend), until gnorm <=
    GRAD_TOL and q_residual <= Q_TOL. Raises DomainError for a mass outside
    (0, c0) or a grid of another dimension, and ConvergenceError if Newton,
    first or finish, settles on a Pohozaev floor certified above Q_TOL
    (under-resolved), the seed loop fails (seed), the residuals are not met
    within MAX_ITER iterations (budget), a descent step cannot lower J or
    the descent's energy certifies that it cannot reach Q_TOL (stall,
    _sublevel_gap), the bend safeguard bound more than SAFEGUARD_MAX_FRAC
    of accepted steps (safeguard), or the converged state breaks mass, bend
    or energy (invariant). iters counts the linear solves on the grid of
    the path that returned the state, plus one: not the profile's, nor a
    failed try's.
    """
    thresholds = mass_threshold(params)
    rho0 = thresholds[2]
    _check_request(params, thresholds, c, grid)
    bend_cap = rho0 * (1.0 - SAFEGUARD_MARGIN)
    s1 = _gaussian_s1(params, c, grid)
    start = None if s1 is None else _moved_start(
        params, grid, c, _gaussian_s1(params, c), bend_cap)
    kept, solves, floor = (None, 0, None) if start is None else _settle(
        params, c, start, bend_cap, s1)
    if kept is not None:
        (fld, b), n_safe = kept, 0
    else:
        fld, b, solves, n_safe = _descend(params, grid, c, thresholds,
                                          bend_cap, floor, s1)
    J = energy(params, b)
    mass_err = abs(b.mass - c) / c
    if mass_err > 1e-8:
        raise ConvergenceError(
            "invariant", f"converged mass drifted: rel err {mass_err:.3e}")
    if not (b.bend < rho0):
        raise ConvergenceError(
            "invariant", f"converged bend {b.bend} is not below rho0 {rho0}")
    if not (J < 0):
        raise ConvergenceError(
            "invariant", f"converged energy {J} is not negative")
    return GroundState(
        field=fld, bundle=b, c=c, m=J,
        lam=lagrange_multiplier(params, b),
        q_residual=q_residual(params, b),
        bend=b.bend, iters=solves + 1,
        constraint_active=n_safe > 0)


def _descend(params: LandscapeParams, grid: RadialGrid, c: float,
             thresholds, bend_cap: float, floor: _Floor | None,
             s1: float | None):
    """The seed loop, then preconditioned descent with one loose Newton
    finish (_settle) from the loose point; returns (fld, b, linear solves,
    safeguard rejections).

    floor is the try's settled state above Q_TOL, or None; where it is
    None, the finish's floor becomes it. Once an iterate's energy
    certifies from it that no later iterate can reach Q_TOL
    (_sublevel_gap), the descent stalls; so it does at the first step
    whose line search leaves J lower by at most 1e-16 |J|, an Armijo step
    without energy progress or 60 trials none of which passes Armijo. s1
    is minimize's, for the finish's under-resolved message."""
    fld, b = seed(params, thresholds, c, grid)
    J = energy(params, b)
    tau = STEP0
    a_shift = None
    factor = None
    n_safe = 0
    accepted = 0
    solves = 0
    loose = True

    max_iter = MAX_ITER
    for iters in range(1, max_iter + 1):
        g_proj, lam_hat, gnorm, qres = _residuals(params, c, fld, b)
        if gnorm <= GRAD_TOL and qres <= Q_TOL:
            break
        if loose and gnorm <= LOOSE_GRAD * math.sqrt(c) and qres <= LOOSE_Q:
            # hand (fld, b) to Newton once; its solves count as iterations
            loose = False
            kept, steps, settled = _settle(params, c, [fld, b], bend_cap,
                                           s1, loose=True)
            solves += steps
            if kept is not None:
                fld, b = kept
                break
            floor = floor or settled
        if floor is not None and (
                held := _sublevel_gap(floor, fld, J, c)) is not None:
            raise ConvergenceError(
                "stall",
                f"stalled inside the energy sublevel certificate of a state "
                f"settled at q_residual={floor.q:.3e}: J - J*={held[0]:.3e} "
                f"within thr={held[1]:.3e}, so no later iterate reaches "
                f"Q_TOL={Q_TOL}")
        u = fld.values

        a_new = max(abs(lam_hat), 1e-12)
        if factor is None or not (0.5 < a_new / a_shift < 2.0):
            a_shift = a_new
            factor = cholesky_banded(grid, a_shift)
        d = cho_solve_banded(factor, grid, g_proj)
        solves += 1
        d = -(d - (_wdot(grid, d, u) / c) * u)
        slope = _wdot(grid, g_proj, d)

        tau = min(tau * GROW, 1e3)
        safe_before = n_safe
        for _ in range(60):
            cand = u + tau * d
            cand *= math.sqrt(c / _wdot(grid, cand, cand))
            fld2 = RadialField(grid, cand)
            b2 = norm_bundle(params, fld2)
            if b2.bend >= bend_cap:
                n_safe += 1
                tau *= SHRINK
                continue
            J2 = energy(params, b2)
            if J2 <= J + 1e-4 * tau * slope:
                break
            tau *= SHRINK
        else:
            J2 = J      # no trial passed Armijo: J is not lowered
        if J - J2 <= 1e-16 * abs(J):
            # a descent pinned at the bend cap stalls here before the
            # safeguard check after convergence can see it
            capped = (f"; the bend safeguard rejected {n_safe - safe_before} "
                      f"trial steps at it, {n_safe} over {accepted} "
                      "accepted steps" if n_safe else "")
            met = ("; the gradient criterion is met"
                   if gnorm <= GRAD_TOL else "")
            raise ConvergenceError(
                "stall",
                f"stalled at iteration {iters}: gnorm={gnorm:.3e}, "
                f"q_residual={qres:.3e} (tolerances {GRAD_TOL}, {Q_TOL})"
                f"{capped}{met}")
        accepted += 1
        fld, b, J = fld2, b2, J2
    else:
        raise ConvergenceError(
            "budget",
            f"no convergence in {max_iter} iterations "
            f"(gnorm={gnorm:.3e}, q_residual={qres:.3e})")

    if accepted and n_safe > SAFEGUARD_MAX_FRAC * accepted:
        raise ConvergenceError(
            "safeguard",
            f"bend safeguard bound {n_safe} times over {accepted} accepted "
            "steps; constants look inconsistent with this mass")
    return fld, b, solves, n_safe


def estimate_gn_constant(params: LandscapeParams) -> float:
    """The Gagliardo-Nirenberg quotient (functionals.gn_quotient) of the
    held (N, q) profile (_profile), used as the working constant.

    The subcritical ground state attains the sharp radial constant
    (Weinstein 1983), and the critical term moves the profile only by
    crit/bend, so this is a grid estimate of it, with no error bar yet.
    It reads N and q alone. Raises ConvergenceError of kind no-profile
    where the profile solve does not settle.
    """
    prof = _profile(params.N, params.q)
    if prof is None:
        raise ConvergenceError(
            "no-profile", f"no settled profile at N={params.N}, "
            f"q={params.q}: its Newton solve gave up")
    return gn_quotient(params, prof[1])


def fiber_consistency(params: LandscapeParams, state: GroundState) -> float:
    """|s1 - 1| for the state's held bundle (fiber_minimum); the minimizer
    sits at its own fiber minimum, so this is a free end-to-end
    self-check.

    fiber_minimum bisects ln s to a width of fiber._BISECT_REL = 1e-10,
    so its s1 may lie up to 5e-11 from the root, and a value below about
    1e-10 shows that tolerance, not the state's error. On 200 log-uniform
    masses in (0.05, 0.95) c0 at N = 5, q = 3 on build_grid(5, 8193, 1000)
    it read a median 1.9e-11 where q_residual read 3.2e-12, and it lay
    within 4.2e-11 of |s1 - 1| at the root bisected to rounding."""
    s1 = fiber_minimum(params, state.bundle)
    if s1 is None:
        raise ConvergenceError("no-fiber-minimum",
                               "converged bundle has no fiber minimum")
    return abs(s1 - 1.0)
