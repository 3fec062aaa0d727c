"""Scalar functionals and gradients on the mass sphere.

Everything downstream (fiber analysis, the constrained minimizer, the
verification suite) consumes fields only through the four norms collected in
a NormBundle, the energy J, the Pohozaev value Q, and the energy gradient.
rescale_bundle moves a bundle along the exact amplitude and fiber-dilation
laws, so no rescaled field is ever materialized; scaled_norms is the one
copy of those laws, which the minimizer's seed also uses.

The bending term of the gradient is the exact gradient of the *discrete*
energy 1/2 sum_i w_i (Lu)_i^2, namely W^{-1} L^T W (L u). On smooth interior
profiles this coincides with L(Lu) to the scheme order, but unlike the plain
composition it passes directional-derivative tests down to solver precision.

Every nonlinear term is a power |u|^e (e = q, 4*, q-1, 4*-1; 4* = 10 at
N = 5), and on the decaying tails of seeds and iterates these powers
underflow. On AVX-512 hosts numpy's vectorized power sends each lane whose
result underflows, and each exact zero, to a scalar fallback: at n = 2049 a
power that underflows everywhere costs about 25x one on O(1) values.
nonneg_power writes those lanes itself. Where |u| <= 2^(-1080/e) the true
power is below 2^-1075, half the smallest subnormal, so the rounded result
is +0 and numpy returns +0 as well. Every other lane, NaN included, still
goes through np.power, so the result equals |u| ** e bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import RadialField
from .landscape import DomainError, LandscapeParams, derive_exponents

__all__ = [
    "NormBundle",
    "norm_bundle",
    "nonneg_power",
    "energy",
    "pohozaev",
    "pohozaev_coefficient",
    "l2_gradient",
    "rescale_bundle",
    "scaled_norms",
    "lagrange_multiplier",
]


@dataclass(frozen=True)
class NormBundle:
    """mass = |u|_2^2, bend = |Du|_2^2, subcrit = |u|_q^q, crit = |u|_{4*}^{4*}."""
    mass: float
    bend: float
    subcrit: float
    crit: float

    def __post_init__(self):
        for name in ("mass", "bend", "subcrit", "crit"):
            v = getattr(self, name)
            if not (v >= 0.0 and np.isfinite(v)):
                raise DomainError(f"NormBundle.{name} must be finite and >= 0, got {v}")


def nonneg_power(au: np.ndarray, e: float) -> np.ndarray:
    """au ** e, bitwise, for au >= 0 and e > 0, without numpy's underflow
    slow path: lanes at or below 2^(-1080/e) are set to +0 directly."""
    cut = 2.0 ** (-1080.0 / e)
    if au.min(initial=np.inf) > cut:
        return au ** e
    out = np.zeros_like(au)
    # ~(au <= cut), not au > cut: NaN lanes must reach np.power
    np.power(au, e, out=out, where=~(au <= cut))
    return out


def norm_bundle(params: LandscapeParams, fld: RadialField) -> NormBundle:
    g = fld.grid
    u = fld.values
    if g.dim != params.N:
        raise DomainError(f"grid dim {g.dim} does not match params N={params.N}")
    lu = g.lap_apply(u)
    au = np.abs(u)
    return NormBundle(
        mass=float(np.sum(g.weights * u * u)),
        bend=float(np.sum(g.weights * lu * lu)),
        subcrit=float(np.sum(g.weights * nonneg_power(au, params.q))),
        crit=float(np.sum(g.weights * nonneg_power(au, params.p_crit))),
    )


def energy(params: LandscapeParams, b: NormBundle) -> float:
    """J = 1/2 bend - (mu/q) subcrit - (1/4*) crit."""
    return 0.5 * b.bend - (params.mu / params.q) * b.subcrit - b.crit / params.p_crit


def pohozaev_coefficient(params: LandscapeParams) -> float:
    # coefficient of the subcritical norm in Q
    return params.mu * params.N * (params.q - 2.0) / (4.0 * params.q)


def pohozaev(params: LandscapeParams, b: NormBundle) -> float:
    """Q = bend - mu N(q-2)/(4q) subcrit - crit; vanishes on critical points."""
    return b.bend - pohozaev_coefficient(params) * b.subcrit - b.crit


def l2_gradient(params: LandscapeParams, fld: RadialField) -> RadialField:
    """Gradient of J in the weighted-quadrature inner product.

    The constraint multiplier term lambda*u is deliberately absent; it lives
    in the projection. The nonlinear terms read sign(u)|u|^{p-1}, which is 0
    at u = 0 since p > 2.
    """
    g = fld.grid
    if g.dim != params.N:
        raise DomainError(f"grid dim {g.dim} does not match params N={params.N}")
    u = fld.values
    w = g.weights
    au = np.abs(u)
    sgn = np.sign(u)
    return RadialField(g, g.lap_t_apply(w * g.lap_apply(u)) / w
                       - params.mu * sgn * nonneg_power(au, params.q - 1.0)
                       - sgn * nonneg_power(au, params.p_crit - 1.0))


def scaled_norms(params: LandscapeParams, b: NormBundle, t2: float,
                 s2: float) -> tuple[float, float, float, float]:
    """(mass, bend, subcrit, crit) of t u_s, the amplitude-t fiber dilation
    of the field with bundle b, from t^2 and s^2.

    Exact laws, no field needed: t u_s scales mass by t^2, bend by t^2 s^2,
    the subcritical norm by t^q s^{gamma_q} and the critical norm by
    t^{4*} s^{4*}. Plain floats, unchecked: a product may be inf or 0,
    and a power past float range raises OverflowError.
    """
    ex = derive_exponents(params)
    return (b.mass * t2, b.bend * t2 * s2,
            b.subcrit * t2 ** (params.q / 2.0) * s2 ** (ex.gamma_q / 2.0),
            b.crit * t2 ** (ex.p_crit / 2.0) * s2 ** (ex.p_crit / 2.0))


def rescale_bundle(params: LandscapeParams, b: NormBundle, mass: float,
                   bend: float) -> NormBundle:
    """Bundle of t u_s, the amplitude-t fiber dilation, with mass and bend
    moved to the given targets.

    The targets fix t^2 = mass/b.mass and s^2 = bend b.mass/(mass b.bend);
    scaled_norms moves the two power norms.
    """
    if not (b.mass > 0 and b.bend > 0 and mass > 0 and bend > 0):
        raise DomainError("rescale_bundle needs positive masses and bends")
    t2 = mass / b.mass
    s2 = bend * b.mass / (mass * b.bend)
    _, _, subcrit, crit = scaled_norms(params, b, t2, s2)
    return NormBundle(mass=mass, bend=bend, subcrit=subcrit, crit=crit)


def lagrange_multiplier(params: LandscapeParams, b: NormBundle) -> float:
    """lambda = (bend - mu subcrit - crit)/mass, from pairing the equation with u."""
    if b.mass <= 0:
        raise DomainError("lagrange_multiplier needs positive mass")
    return (b.bend - params.mu * b.subcrit - b.crit) / b.mass
