"""Scalar functionals and gradients on the mass sphere.

Everything downstream (fiber analysis, the constrained minimizer, the
verification suite) consumes fields only through the four norms collected in
a NormBundle, the energy J, the Pohozaev value Q, and the two gradients.

The bending term of the gradient is the exact gradient of the *discrete*
energy 1/2 sum_i w_i (Lu)_i^2, namely W^{-1} L^T W (L u). On smooth interior
profiles this coincides with L(Lu) to the scheme order, but unlike the plain
composition it passes directional-derivative tests down to solver precision.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import RadialField, integrate
from .landscape import DomainError, LandscapeParams

__all__ = [
    "NormBundle",
    "norm_bundle",
    "energy",
    "pohozaev",
    "pohozaev_coefficient",
    "l2_gradient",
    "projected_gradient",
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
        subcrit=float(np.sum(g.weights * au ** params.q)),
        crit=float(np.sum(g.weights * au ** params.p_crit)),
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


def _nonlinearity(params: LandscapeParams, u: np.ndarray) -> np.ndarray:
    # sign(u)|u|^{p-1} with value 0 at u = 0 (p > 2 keeps it well defined)
    au = np.abs(u)
    return np.sign(u) * (params.mu * au ** (params.q - 1.0)
                         + au ** (params.p_crit - 1.0))


def l2_gradient(params: LandscapeParams, fld: RadialField) -> RadialField:
    """Gradient of J in the weighted-quadrature inner product.

    The constraint multiplier term lambda*u is deliberately absent; it lives
    in the projection.
    """
    g = fld.grid
    if g.dim != params.N:
        raise DomainError(f"grid dim {g.dim} does not match params N={params.N}")
    u = fld.values
    bend_part = g.lap_t_apply(g.weights * g.lap_apply(u)) / g.weights
    return RadialField(g, bend_part - _nonlinearity(params, u))


def projected_gradient(params: LandscapeParams, fld: RadialField, c: float,
                       mass_rtol: float = 1e-8) -> RadialField:
    """Tangent-space component g - (<g,u>/c) u of the energy gradient.

    The field must carry mass c to within mass_rtol; quadrature-orthogonal to
    u by construction.
    """
    if c <= 0:
        raise DomainError(f"constraint mass must be positive, got {c}")
    g = fld.grid
    u = fld.values
    have = float(np.sum(g.weights * u * u))
    if abs(have - c) > mass_rtol * c:
        raise DomainError(
            f"field mass {have} drifted from constraint c={c} beyond rtol {mass_rtol}")
    grad = l2_gradient(params, fld).values
    coef = float(np.sum(g.weights * grad * u)) / c
    return RadialField(g, grad - coef * u)


def lagrange_multiplier(params: LandscapeParams, b: NormBundle) -> float:
    """lambda = (bend - mu subcrit - crit)/mass, from pairing the equation with u."""
    if b.mass <= 0:
        raise DomainError("lagrange_multiplier needs positive mass")
    return (b.bend - params.mu * b.subcrit - b.crit) / b.mass
