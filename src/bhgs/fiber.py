"""Fiber-map analysis along the mass-preserving dilation u_s.

Every function here is a scalar computation on a NormBundle: the dilation
scales the four norms by exact powers of s (mass is untouched, bend by s^2,
the subcritical norm by s^{gamma_q}, the critical norm by s^{4*}), so

    psi(s)  = J(u_s) = (s^2/2) A - (mu/q) s^{gamma_q} B - (s^{4*}/4*) C,
    psi'(s) = Q(u_s)/s = s A - k s^{gamma_q - 1} B - s^{4* - 1} C,
    xi(s)   = psi'(s)/s,                                  k = mu N(q-2)/(4q).

psi, psi_prime and xi evaluate J and Q (functionals.energy, pohozaev) on
the bundle of u_s, which the one copy of the dilation law
(functionals.scaled_norms) gives.

Since gamma_q - 2 < 0 < 4* - 2, xi rises to a unique interior maximum at
s_turn and falls on either side, so psi' has at most two positive zeros: an
s1 on the rising branch (psi' changes - to +, a local minimum of psi with
psi(s1) < 0) and an s2 on the falling branch (local maximum). No fields are
materialized; grid error never enters the zero structure.

Zero-finding never evaluates the power laws directly: it works on a
rescaled copy of xi whose three terms are exponentiated relative to their
common maximum, so bundles anywhere in float range bracket without overflow.
The bundle's logarithms are taken once (_xi_logs), and one bisection on
ln s (_xi_zero) serves both zeros; it takes the sign at its lower end
from the branch, so it evaluates xi once per halving. fiber_minimum
brackets s1 alone, for callers that read nothing else (the minimizer);
analyze_fiber goes on from it to s2 and the two energies.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .functionals import (NormBundle, energy, pohozaev, pohozaev_coefficient,
                          scaled_norms)
from .landscape import DomainError, LandscapeParams, derive_exponents

__all__ = ["FiberAnalysis", "psi", "psi_prime", "xi", "xi_turning_point",
           "analyze_fiber", "fiber_minimum"]

KIND_MIN = "local-minimum"
KIND_MAX = "local-maximum"
KIND_TANGENT = "degenerate-tangency"

_BISECT_REL = 1e-10
_BISECT_MAX = 60


@dataclass(frozen=True)
class FiberAnalysis:
    s_turn: float
    s1: float | None
    s2: float | None
    kind1: str | None
    kind2: str | None
    psi_at_s1: float | None
    psi_at_s2: float | None


def _dilated(params: LandscapeParams, b: NormBundle, s: float) -> NormBundle:
    # the bundle of u_s, by the one copy of the dilation law
    # (functionals.scaled_norms); DomainError where s^2 or a dilated norm
    # leaves float range
    if not (s > 0):
        raise DomainError(f"dilation parameter must be positive, got {s!r}")
    s2 = s * s
    try:
        if 0.0 < s2 < math.inf:
            return NormBundle(*scaled_norms(params, b, 1.0, s2))
    except (OverflowError, DomainError):
        pass
    raise DomainError(
        f"fiber dilation at s={s} overflows or underflows float range")


def psi(params: LandscapeParams, b: NormBundle, s: float) -> float:
    """Energy along the fiber: J(u_s)."""
    return energy(params, _dilated(params, b, s))


def psi_prime(params: LandscapeParams, b: NormBundle, s: float) -> float:
    """d psi/ds = Q(u_s)/s."""
    return pohozaev(params, _dilated(params, b, s)) / s


def xi(params: LandscapeParams, b: NormBundle, s: float) -> float:
    """psi'(s)/s = Q(u_s)/s^2 = A - k s^{2 alpha0} B - s^{2 alpha2} C."""
    return pohozaev(params, _dilated(params, b, s)) / s / s


def _require_nondegenerate(b: NormBundle) -> None:
    if b.subcrit <= 0 or b.crit <= 0:
        raise DomainError(
            "degenerate bundle: xi is monotone when B = 0 or C = 0 and has "
            "no turning point")


def xi_turning_point(params: LandscapeParams, b: NormBundle) -> float:
    """The unique maximizer s* of xi; independent of the bend value."""
    _require_nondegenerate(b)
    ex = derive_exponents(params)
    k = pohozaev_coefficient(params)
    # xi'(s) = 0  <=>  (-2 alpha0) k s^{2 alpha0 - 1} B = 2 alpha2 s^{2 alpha2 - 1} C
    log_ratio = (math.log(-ex.alpha0 * k) + math.log(b.subcrit)
                 - math.log(ex.alpha2) - math.log(b.crit))
    return math.exp(log_ratio / (2.0 * (ex.alpha2 - ex.alpha0)))


def _xi_logs(params: LandscapeParams, b: NormBundle) -> tuple:
    # the logarithms the scaled xi reads, taken once per bundle: (log bend,
    # log(k subcrit), log crit, 2 alpha0, 2 alpha2), -inf for a zero bend
    ex = derive_exponents(params)
    k = pohozaev_coefficient(params)
    return (math.log(b.bend) if b.bend > 0 else -math.inf,
            math.log(k * b.subcrit), math.log(b.crit),
            2.0 * ex.alpha0, 2.0 * ex.alpha2)


def _xi_scaled(logs: tuple, s: float) -> float:
    # xi(s) divided by its largest term in magnitude, from the bundle's
    # logarithms (_xi_logs); same sign and zeros as xi, bounded in [-2, 1],
    # immune to overflow anywhere in float range
    l1, l2_0, l3_0, e2, e3 = logs
    ls = math.log(s)
    l2 = l2_0 + e2 * ls
    l3 = l3_0 + e3 * ls
    m = max(l1, l2, l3)
    return math.exp(l1 - m) - math.exp(l2 - m) - math.exp(l3 - m)


def _xi_zero(logs: tuple, lo: float, hi: float, rising: bool) -> float:
    """The zero of the scaled xi (_xi_scaled) in [lo, hi]: on the rising
    branch (s1) xi is not positive at lo, on the falling branch (s2) it is
    positive there.

    Bisection runs on ln s: near the mass-critical endpoint s1 sits many
    decades below s_turn, and halving the log interval reaches relative
    width _BISECT_REL from any bracket in float range within _BISECT_MAX
    halvings, where halving s itself cannot. The sign at lo is known from
    the branch, so each halving evaluates xi once, at its midpoint.
    """
    tlo, thi = math.log(lo), math.log(hi)
    for _ in range(_BISECT_MAX):
        if thi - tlo <= _BISECT_REL:
            break
        tmid = 0.5 * (tlo + thi)
        if (_xi_scaled(logs, math.exp(tmid)) > 0) == rising:
            thi = tmid
        else:
            tlo = tmid
    return math.exp(0.5 * (tlo + thi))


def _rising_zero(params: LandscapeParams, b: NormBundle):
    # (s_turn, the scaled xi's logarithms, its value at s_turn, s1), s1
    # None where xi's maximum is negative and s_turn where it vanishes
    # (analyze_fiber)
    _require_nondegenerate(b)
    s_star = xi_turning_point(params, b)
    logs = _xi_logs(params, b)
    xs = _xi_scaled(logs, s_star)
    if abs(xs) <= 1e-12:
        return s_star, logs, xs, s_star
    if xs < 0:
        return s_star, logs, xs, None
    lo = s_star
    while _xi_scaled(logs, lo) > 0:
        lo /= 10.0          # xi -> -inf as s -> 0+ because alpha0 < 0
        if lo < 1e-300:
            raise DomainError("fiber zero below float range")
    return s_star, logs, xs, _xi_zero(logs, lo, s_star, True)


def fiber_minimum(params: LandscapeParams, b: NormBundle) -> float | None:
    """analyze_fiber(params, b).s1, bit for bit, without bracketing s2 or
    evaluating psi: None where psi' has no zero. Raises as analyze_fiber
    does before it reaches s2; where analyze_fiber raises for s2 or psi
    leaving float range, this still returns s1."""
    return _rising_zero(params, b)[3]


def analyze_fiber(params: LandscapeParams, b: NormBundle) -> FiberAnalysis:
    """Locate the at-most-two zeros of psi' and classify them.

    xi(s_turn) > 0 gives two crossings: s1 on the rising branch (psi' goes
    from - to +, local minimum) and s2 on the falling branch (local maximum).
    xi(s_turn) < 0 gives none. A vanishing maximum, to 1e-12 relative
    to the term magnitudes, is the repeated-zero case and both kinds read
    "degenerate-tangency".
    """
    s_star, logs, xs, s1 = _rising_zero(params, b)
    if abs(xs) <= 1e-12:
        p = psi(params, b, s_star)
        return FiberAnalysis(s_turn=s_star, s1=s_star, s2=s_star,
                             kind1=KIND_TANGENT, kind2=KIND_TANGENT,
                             psi_at_s1=p, psi_at_s2=p)
    if s1 is None:
        return FiberAnalysis(s_turn=s_star, s1=None, s2=None,
                             kind1=None, kind2=None,
                             psi_at_s1=None, psi_at_s2=None)
    hi = s_star
    while _xi_scaled(logs, hi) > 0:
        hi *= 2.0           # xi -> -inf as s -> inf because alpha2 > 0
        if hi > 1e300:
            raise DomainError("fiber zero above float range")
    s2 = _xi_zero(logs, s_star, hi, False)
    return FiberAnalysis(s_turn=s_star, s1=s1, s2=s2,
                         kind1=KIND_MIN, kind2=KIND_MAX,
                         psi_at_s1=psi(params, b, s1),
                         psi_at_s2=psi(params, b, s2))
