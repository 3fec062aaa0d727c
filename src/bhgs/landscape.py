"""Closed-form energy-landscape layer.

Everything here is scalar arithmetic on problem parameters: the exponent set,
the landscape lower-bound function f(c, rho), its maximizer rho_star, and the
mass threshold c0 below which the local minimization region exists, and the
sharp Sobolev constant S_sob in closed form (estimate_sobolev_constant). No
grids, no fields, no solver: a params object holds only its exponents and
the logarithms of f's two coefficients, and f, rho_star, M, c0 and rho0 all
read that pair; the minimizer keeps its reference profile per (N, q)
itself. f_landscape also takes an array of rho, which the comparison
lemma's segment uses; only that path imports numpy.

The package's three error types live here too, so that the front end can
catch them without importing numpy: DomainError, ConvergenceError (the
minimizer's, which bhgs.minimizer re-exports with FAIL_KINDS) and
KernelsUnavailable (no LAPACK band kernels).
"""
from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from functools import cached_property

__all__ = [
    "LandscapeParams",
    "ExponentSet",
    "derive_exponents",
    "f_landscape",
    "rho_star",
    "mass_threshold",
    "comparison_check",
    "estimate_sobolev_constant",
    "DomainError",
]


class DomainError(ValueError):
    """Parameter or argument outside the problem's admissible range."""


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted or invariants unattainable at this setup.

    kind names the failure for machines, one of minimizer.FAIL_KINDS; the
    message is for people and keeps its wording.
    """

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


class KernelsUnavailable(RuntimeError):
    """Neither numpy's bundled LAPACK nor scipy.linalg can be loaded."""


def _integer_at_least(x, name: str, least: int) -> int:
    # x as a Python int (operator.index: numpy's integers pass, 5.0 and
    # bools do not) where it is at least least, else DomainError
    try:
        if not isinstance(x, bool) and (i := operator.index(x)) >= least:
            return i
    except TypeError:
        pass
    raise DomainError(f"{name} must be an integer >= {least}, got {x!r}")


@dataclass(frozen=True)
class LandscapeParams:
    """Problem data: dimension N, subcritical exponent q, coefficient mu,
    and the two inequality constants that close the landscape formulas."""

    N: int
    q: float
    mu: float = 1.0
    C_gn: float = 1.0
    S_sob: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "N", _integer_at_least(self.N, "N", 5))
        if not (2.0 < self.q < 2.0 + 8.0 / self.N):
            raise DomainError(
                f"q must lie in (2, 2+8/N) = (2, {2 + 8 / self.N}), got {self.q}")
        if not 0 < self.mu < math.inf:
            raise DomainError(f"mu must be positive and finite, got {self.mu}")
        if not (0 < self.C_gn < math.inf and 0 < self.S_sob < math.inf):
            raise DomainError("inequality constants must be positive and finite")

    @property
    def p_crit(self) -> float:
        return 2.0 * self.N / (self.N - 4)

    # Held once per instance: cached_property writes the instance __dict__
    # directly, which a frozen dataclass allows, and dataclasses.replace
    # builds a new instance with an empty cache.
    @cached_property
    def _exponents(self) -> ExponentSet:
        N, q = self.N, self.q
        es = ExponentSet(
            alpha0=N * (q - 2) / 8.0 - 1.0, alpha1=(2 * N - q * (N - 4)) / 8.0,
            alpha2=4.0 / (N - 4), beta=N * (q - 2) / (4.0 * q),
            p_crit=self.p_crit, gamma_q=N * (q - 2) / 4.0)
        # range sanity pinned by the parameter domain; alpha2 hits 4 only
        # at N=5
        assert -1.0 < es.alpha0 < 0.0 and 4.0 / N < es.alpha1 < 1.0
        assert 0.0 < es.alpha2 <= 4.0
        return es

    @cached_property
    def _log_coefs(self) -> tuple[float, float]:
        # the rho-free leading sums of the two terms of f, in _terms' order:
        # log(mu/q) + q log C_gn and log(1/4*) + 4* log S_sob
        es = self._exponents
        return (math.log(self.mu / self.q) + self.q * math.log(self.C_gn),
                math.log(1.0 / es.p_crit) + es.p_crit * math.log(self.S_sob))


@dataclass(frozen=True)
class ExponentSet:
    alpha0: float
    alpha1: float
    alpha2: float
    beta: float
    p_crit: float
    gamma_q: float


def derive_exponents(params: LandscapeParams) -> ExponentSet:
    """Exponents of the landscape function and the fiber map.

    alpha0 = N(q-2)/8 - 1 (negative), alpha1 = (2N - q(N-4))/8,
    alpha2 = 4/(N-4), beta = N(q-2)/(4q), gamma_q = N(q-2)/4.
    Computed once per params instance and held on it.
    """
    return params._exponents


def _exp_total(x: float) -> float:
    # exp that saturates instead of raising; a term too large for float
    # range only ever drives f to -inf, never flips a sign
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _terms(params: LandscapeParams, c: float, rho):
    """The two subtracted terms of f, evaluated in log space.

    Mixing alpha2 = 4/(N-4) with extreme rho under- or overflows a direct
    power; exp of the assembled logarithm avoids intermediate blowup, and
    values past float range saturate to inf. A real rho takes math's log
    and exp; an array of rho takes numpy's, elementwise, in the same order.
    """
    es = params._exponents
    log_sub, log_crit = params._log_coefs
    if isinstance(rho, numbers.Real):
        log, exp = math.log, _exp_total
    else:
        import numpy as np
        log = np.log

        def exp(x):
            with np.errstate(over="ignore"):
                return np.exp(x)
    log_rho = log(rho)
    t_sub = log_sub + es.alpha0 * log_rho + es.alpha1 * math.log(c)
    t_crit = log_crit + es.alpha2 * log_rho
    return exp(t_sub), exp(t_crit)


def f_landscape(params: LandscapeParams, c: float, rho):
    """f(c, rho) = 1/2 - (mu/q) C_gn^q rho^alpha0 c^alpha1
    - (S_sob^{4*}/4*) rho^alpha2.

    J(u) >= bend * f(mass, bend) whenever u's inequality quotients are below
    the configured constants; f < 0 as rho -> 0+ and rho -> inf. rho is a
    real number, or a numpy array of them, for which f is an array.
    """
    if c <= 0 or (rho <= 0 if isinstance(rho, numbers.Real)
                  else (rho <= 0).any()):
        raise DomainError("c and rho must be positive")
    t_sub, t_crit = _terms(params, c, rho)
    return 0.5 - t_sub - t_crit


def _log_D(params: LandscapeParams, es: ExponentSet) -> float:
    # log of the constant D in rho_star(c) = (D c^alpha1)^{1/(alpha2 - alpha0)}
    # from f's two held log coefficients: at the maximizer the two terms
    # balance, -alpha0 t_sub = alpha2 t_crit
    log_sub, log_crit = params._log_coefs
    return math.log(-es.alpha0 / es.alpha2) + log_sub - log_crit


def _in_range(name: str, x: float) -> float:
    # x, where it is a positive finite float; a DomainError naming it where
    # it under- or overflowed
    if not 0.0 < x < math.inf:
        raise DomainError(f"{name} = {x!r} is outside float range at these "
                          "parameters")
    return x


def rho_star(params: LandscapeParams, c: float) -> float:
    """Unique maximizer of rho -> f(c, rho) over (0, inf), in closed form;
    DomainError where it leaves float range."""
    if c <= 0:
        raise DomainError("c must be positive")
    es = derive_exponents(params)
    log_D = _log_D(params, es)
    return _in_range("rho_star(c)", _exp_total(
        (log_D + es.alpha1 * math.log(c)) / (es.alpha2 - es.alpha0)))


def mass_threshold(params: LandscapeParams):
    """(M, c0, rho0): the constant M with max_rho f(c, rho) = 1/2 - M c^{4/N},
    the mass threshold c0 = (2M)^{-N/4}, and rho0 = rho_star(c0).

    Raises DomainError naming M, c0 or rho0 where the first of them to
    leave float range does, which the accepted mu and constants allow."""
    es = derive_exponents(params)
    log_D = _log_D(params, es)
    span = es.alpha2 - es.alpha0
    log_sub, log_crit = params._log_coefs
    m_sub = _exp_total(log_sub + es.alpha0 * log_D / span)
    m_crit = _exp_total(log_crit + es.alpha2 * log_D / span)
    M = _in_range("M", m_sub + m_crit)
    c0 = _in_range("c0", _exp_total(-params.N / 4.0 * math.log(2.0 * M)))
    try:
        return M, c0, rho_star(params, c0)
    except DomainError:
        raise DomainError(f"rho0 = rho_star(c0) at c0 = {c0!r} is outside "
                          "float range at these parameters") from None


def comparison_check(params: LandscapeParams, c1: float, rho1: float,
                     c2: float) -> bool:
    """Monotone-comparison predicate: f(c2, .) >= f(c1, rho1) on the segment
    rho in [(c2/c1) rho1, rho1], sampled at 1000 evenly spaced points
    lo + (rho1 - lo) k / 999, lo = (c2/c1) rho1, all in one array.

    True for any valid parameters; exposed as a testable claim rather than
    assumed.
    """
    if c1 <= 0 or rho1 <= 0:
        raise DomainError("c1 and rho1 must be positive")
    if not 0 < c2 <= c1:
        raise DomainError("need 0 < c2 <= c1")
    import numpy as np
    ref = f_landscape(params, c1, rho1)
    lo = (c2 / c1) * rho1
    rho = lo + (rho1 - lo) * np.arange(1000.0) / 999
    return not (f_landscape(params, c2, rho)
                < ref - 1e-12 * max(1.0, abs(ref))).any()


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
