"""Closed-form energy-landscape layer.

Everything here is scalar arithmetic on problem parameters: the exponent set,
the landscape lower-bound function f(c, rho), its maximizer rho_star, and the
mass threshold c0 below which the local minimization region exists. No grids,
no fields.
"""
from __future__ import annotations

import math
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
    "DomainError",
]


class DomainError(ValueError):
    """Parameter or argument outside the problem's admissible range."""


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
        if not isinstance(self.N, int) or self.N < 5:
            raise DomainError(f"N must be an integer >= 5, got {self.N!r}")
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
        return _exponent_set(self)

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


def _exponent_set(params: LandscapeParams) -> ExponentSet:
    N, q = params.N, params.q
    alpha0 = N * (q - 2) / 8.0 - 1.0
    alpha1 = (2 * N - q * (N - 4)) / 8.0
    alpha2 = 4.0 / (N - 4)
    beta = N * (q - 2) / (4.0 * q)
    gamma_q = N * (q - 2) / 4.0
    es = ExponentSet(alpha0, alpha1, alpha2, beta, params.p_crit, gamma_q)
    # range sanity pinned by the parameter domain; alpha2 hits 4 only at N=5
    assert -1.0 < es.alpha0 < 0.0 and 4.0 / N < es.alpha1 < 1.0
    assert 0.0 < es.alpha2 <= 4.0
    return es


def _exp_total(x: float) -> float:
    # exp that saturates instead of raising; a term too large for float
    # range only ever drives f to -inf, never flips a sign
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _terms(params: LandscapeParams, c: float, rho: float):
    """The two subtracted terms of f, evaluated in log space.

    Mixing alpha2 = 4/(N-4) with extreme rho under- or overflows a direct
    power; exp of the assembled logarithm avoids intermediate blowup, and
    values past float range saturate to inf.
    """
    es = params._exponents
    log_sub, log_crit = params._log_coefs
    log_rho = math.log(rho)
    t_sub = log_sub + es.alpha0 * log_rho + es.alpha1 * math.log(c)
    t_crit = log_crit + es.alpha2 * log_rho
    return _exp_total(t_sub), _exp_total(t_crit)


def f_landscape(params: LandscapeParams, c: float, rho: float) -> float:
    """f(c, rho) = 1/2 - (mu/q) C_gn^q rho^alpha0 c^alpha1
    - (S_sob^{4*}/4*) rho^alpha2.

    J(u) >= bend * f(mass, bend) whenever u's inequality quotients are below
    the configured constants; f < 0 as rho -> 0+ and rho -> inf.
    """
    if c <= 0 or rho <= 0:
        raise DomainError("c and rho must be positive")
    t_sub, t_crit = _terms(params, c, rho)
    return 0.5 - t_sub - t_crit


def _log_D(params: LandscapeParams, es: ExponentSet) -> float:
    # log of the constant D in rho_star(c) = (D c^alpha1)^{1/(alpha2 - alpha0)}
    return (math.log(-es.alpha0 / es.alpha2)
            + math.log(params.mu) + params.q * math.log(params.C_gn)
            + math.log(es.p_crit) - math.log(params.q)
            - es.p_crit * math.log(params.S_sob))


def rho_star(params: LandscapeParams, c: float) -> float:
    """Unique maximizer of rho -> f(c, rho) over (0, inf), in closed form."""
    if c <= 0:
        raise DomainError("c must be positive")
    es = derive_exponents(params)
    log_D = _log_D(params, es)
    return math.exp((log_D + es.alpha1 * math.log(c)) / (es.alpha2 - es.alpha0))


def mass_threshold(params: LandscapeParams):
    """(M, c0, rho0): the constant M with max_rho f(c, rho) = 1/2 - M c^{4/N},
    the mass threshold c0 = (2M)^{-N/4}, and rho0 = rho_star(c0)."""
    es = derive_exponents(params)
    log_D = _log_D(params, es)
    span = es.alpha2 - es.alpha0
    log_sub, log_crit = params._log_coefs
    m_sub = math.exp(log_sub + es.alpha0 * log_D / span)
    m_crit = math.exp(log_crit + es.alpha2 * log_D / span)
    M = m_sub + m_crit
    c0 = math.exp(-params.N / 4.0 * math.log(2.0 * M))
    return M, c0, rho_star(params, c0)


def comparison_check(params: LandscapeParams, c1: float, rho1: float,
                     c2: float) -> bool:
    """Monotone-comparison predicate: f(c2, .) >= f(c1, rho1) on the segment
    rho in [(c2/c1) rho1, rho1], sampled at 1000 evenly spaced points.

    True for any valid parameters; exposed as a testable claim rather than
    assumed.
    """
    if c1 <= 0 or rho1 <= 0:
        raise DomainError("c1 and rho1 must be positive")
    if not 0 < c2 <= c1:
        raise DomainError("need 0 < c2 <= c1")
    ref = f_landscape(params, c1, rho1)
    lo = (c2 / c1) * rho1
    for k in range(1000):
        rho = lo + (rho1 - lo) * k / 999
        if f_landscape(params, c2, rho) < ref - 1e-12 * max(1.0, abs(ref)):
            return False
    return True
