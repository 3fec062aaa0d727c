"""Fiber-map analysis along the mass-preserving dilation u_s.

Every function here is a scalar computation on a NormBundle: the dilation
scales the four norms by exact powers of s (mass is untouched, bend by s^2,
the subcritical norm by s^{gamma_q}, the critical norm by s^{4*}), so

    psi(s)  = J(u_s) = (s^2/2) A - (mu/q) s^{gamma_q} B - (s^{4*}/4*) C,
    psi'(s) = s A - k s^{gamma_q - 1} B - s^{4* - 1} C,      k = mu N(q-2)/(4q),
    xi(s)   = psi'(s)/s.

Since gamma_q - 2 < 0 < 4* - 2, xi rises to a unique interior maximum at
s_turn and falls on either side, so psi' has at most two positive zeros: an
s1 on the rising branch (psi' changes - to +, a local minimum of psi with
psi(s1) < 0) and an s2 on the falling branch (local maximum). No fields are
materialized; grid error never enters the zero structure.

Zero-finding never evaluates the power laws directly: bisection works on a
rescaled copy of xi whose three terms are exponentiated relative to their
common maximum, so bundles anywhere in float range bracket without overflow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .functionals import NormBundle, pohozaev_coefficient
from .landscape import DomainError, LandscapeParams, derive_exponents

__all__ = ["FiberAnalysis", "psi", "psi_prime", "xi", "xi_turning_point",
           "analyze_fiber"]

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


def _check_s(s: float) -> None:
    if not (s > 0):
        raise DomainError(f"dilation parameter must be positive, got {s!r}")


def psi(params: LandscapeParams, b: NormBundle, s: float) -> float:
    """Energy along the fiber, closed form in s."""
    _check_s(s)
    ex = derive_exponents(params)
    try:
        return (0.5 * s * s * b.bend
                - (params.mu / params.q) * s ** ex.gamma_q * b.subcrit
                - s ** ex.p_crit / ex.p_crit * b.crit)
    except OverflowError as exc:
        raise DomainError(f"fiber energy overflows float range at s={s}") from exc


def psi_prime(params: LandscapeParams, b: NormBundle, s: float) -> float:
    """d psi/ds; equals Q(u_s)/s."""
    _check_s(s)
    ex = derive_exponents(params)
    k = pohozaev_coefficient(params)
    try:
        return (s * b.bend
                - k * s ** (ex.gamma_q - 1.0) * b.subcrit
                - s ** (ex.p_crit - 1.0) * b.crit)
    except OverflowError as exc:
        raise DomainError(f"fiber derivative overflows float range at s={s}") from exc


def xi(params: LandscapeParams, b: NormBundle, s: float) -> float:
    """psi'(s)/s = A - k s^{2 alpha0} B - s^{2 alpha2} C."""
    _check_s(s)
    ex = derive_exponents(params)
    k = pohozaev_coefficient(params)
    try:
        return (b.bend
                - k * s ** (2.0 * ex.alpha0) * b.subcrit
                - s ** (2.0 * ex.alpha2) * b.crit)
    except OverflowError as exc:
        raise DomainError(f"fiber slope overflows float range at s={s}") from exc


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


def _xi_scaled(params: LandscapeParams, b: NormBundle):
    # s -> xi(s) divided by its largest term in magnitude; same sign and
    # zeros as xi, bounded in [-2, 1], immune to overflow anywhere in float
    # range. The bundle's logarithms are taken once, here
    ex = derive_exponents(params)
    k = pohozaev_coefficient(params)
    l1 = math.log(b.bend) if b.bend > 0 else -math.inf
    l2_0 = math.log(k * b.subcrit)
    l3_0 = math.log(b.crit)
    e2, e3 = 2.0 * ex.alpha0, 2.0 * ex.alpha2

    def scaled(s: float) -> float:
        ls = math.log(s)
        l2 = l2_0 + e2 * ls
        l3 = l3_0 + e3 * ls
        m = max(l1, l2, l3)
        return math.exp(l1 - m) - math.exp(l2 - m) - math.exp(l3 - m)
    return scaled


def _bisect(fn, lo: float, hi: float) -> float:
    # fn(lo) and fn(hi) straddle zero. Bisection runs on ln s: near the
    # mass-critical endpoint s1 sits many decades below s_turn, and halving
    # the log interval reaches relative width _BISECT_REL from any bracket
    # in float range within the evaluation budget, where halving s itself
    # cannot
    tlo, thi = math.log(lo), math.log(hi)
    flo = fn(lo)
    for _ in range(_BISECT_MAX):
        if thi - tlo <= _BISECT_REL:
            break
        tmid = 0.5 * (tlo + thi)
        fmid = fn(math.exp(tmid))
        if (fmid > 0) == (flo > 0):
            tlo, flo = tmid, fmid
        else:
            thi = tmid
    return math.exp(0.5 * (tlo + thi))


def analyze_fiber(params: LandscapeParams, b: NormBundle) -> FiberAnalysis:
    """Locate the at-most-two zeros of psi' and classify them.

    xi(s_turn) > 0 gives two crossings: s1 on the rising branch (psi' goes
    from - to +, local minimum) and s2 on the falling branch (local maximum).
    xi(s_turn) < 0 gives none. A vanishing maximum, to 1e-12 relative
    to the term magnitudes, is the repeated-zero case and both kinds read
    "degenerate-tangency".
    """
    _require_nondegenerate(b)
    s_star = xi_turning_point(params, b)
    f = _xi_scaled(params, b)
    xs = f(s_star)
    if abs(xs) <= 1e-12:
        p = psi(params, b, s_star)
        return FiberAnalysis(s_turn=s_star, s1=s_star, s2=s_star,
                             kind1=KIND_TANGENT, kind2=KIND_TANGENT,
                             psi_at_s1=p, psi_at_s2=p)
    if xs < 0:
        return FiberAnalysis(s_turn=s_star, s1=None, s2=None,
                             kind1=None, kind2=None,
                             psi_at_s1=None, psi_at_s2=None)

    lo = s_star
    while f(lo) > 0:
        lo /= 10.0          # xi -> -inf as s -> 0+ because alpha0 < 0
        if lo < 1e-300:
            raise DomainError("fiber zero below float range")
    s1 = _bisect(f, lo, s_star)
    hi = s_star
    while f(hi) > 0:
        hi *= 2.0           # xi -> -inf as s -> inf because alpha2 > 0
        if hi > 1e300:
            raise DomainError("fiber zero above float range")
    s2 = _bisect(f, s_star, hi)
    return FiberAnalysis(s_turn=s_star, s1=s1, s2=s2,
                         kind1=KIND_MIN, kind2=KIND_MAX,
                         psi_at_s1=psi(params, b, s1),
                         psi_at_s2=psi(params, b, s2))
