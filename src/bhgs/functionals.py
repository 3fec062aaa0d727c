"""Scalar functionals and their derivatives on the mass sphere.

Everything downstream (fiber analysis, the constrained minimizer, the
verification suite) consumes fields only through the four norms collected in
a NormBundle, J, Q, q_residual = |Q|/bend and three derivatives: the energy
gradient, W f'(u) (the nonlinear diagonal of J's second variation) and the
gradient of q_residual. Only they and norm_bundle read a field's powers.
rescale_bundle moves a bundle along the exact amplitude and fiber-dilation
laws, so no rescaled field is ever materialized; scaled_norms is the one
copy of those laws, which fiber's psi, psi_prime and xi and the
minimizer's seed also use. gn_quotient is the one copy of the
Gagliardo-Nirenberg quotient, read from a bundle's mass, bend and
subcrit; estimated C_gn is its value on the minimizer's held profile.

norm_bundle, l2_gradient and q_residual_gradient read L u from the field
(RadialField.lap), where it is computed once and held, so a field that is
bundled and then differentiated costs one Laplacian; both gradients read
L^T W L u from one expression (_bend_term). norm_bundle's four weighted
sums are np.add.reduce, the same pairwise sum as np.sum, without its
dispatch layer; NormBundle checks each norm with math.isfinite.

The bending term of the gradient is the exact gradient of the *discrete*
energy 1/2 sum_i w_i (Lu)_i^2, namely W^{-1} L^T W (L u). On smooth interior
profiles this coincides with L(Lu) to the scheme order, but unlike the plain
composition it passes directional-derivative tests down to solver precision.

Every nonlinear term reads two powers, |u|^(q-2) and |u|^(4*-2) (4* = 10 at
N = 5): the bundle sums (w u u) |u|^(e-2) on the w u u mass sums, the two
gradients read u |u|^(e-2) and nonlinear_diagonal the powers.
nonlinear_powers takes the pair once per field and holds it on the field,
read-only, for the field's lifetime, as L u is held. On the decaying tails
of seeds and iterates the powers underflow. On AVX-512 hosts numpy's
vectorized power sends each lane whose result underflows, and each exact
zero, to a scalar fallback: at n = 2049 a power that underflows everywhere
costs about 25x one on O(1) values. nonneg_power writes those lanes itself.
Where |u| <= 2^(-1080/e) the true power is below 2^-1075, half the smallest
subnormal, so the rounded result is +0 and numpy returns +0 as well. Every
other lane, NaN included, still goes through np.power, so the result equals
|u| ** e bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import RadialField
from .landscape import DomainError, LandscapeParams, derive_exponents

__all__ = ["NormBundle", "norm_bundle", "nonneg_power", "nonlinear_powers",
           "energy", "pohozaev", "pohozaev_coefficient", "q_residual",
           "l2_gradient", "nonlinear_diagonal", "q_residual_gradient",
           "rescale_bundle", "scaled_norms", "lagrange_multiplier",
           "gaussian_bundle", "gn_quotient"]


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
            if not (v >= 0.0 and math.isfinite(v)):
                raise DomainError(f"NormBundle.{name} must be finite and >= 0, got {v}")


def nonneg_power(au: np.ndarray, e: float) -> np.ndarray:
    """au ** e, bitwise, for au >= 0 and e > 0, without numpy's underflow
    slow path: lanes at or below 2^(-1080/e) (0.0 for e <= 1080/1075) are
    set to +0 directly. The one place a power of a field is taken."""
    cut = 2.0 ** (-1080.0 / e)
    if au.min(initial=np.inf) > cut:
        return au ** e
    out = np.zeros_like(au)
    # ~(au <= cut), not au > cut: NaN lanes must reach np.power
    np.power(au, e, out=out, where=~(au <= cut))
    return out


def nonlinear_powers(params: LandscapeParams,
                     fld: RadialField) -> tuple[np.ndarray, np.ndarray]:
    """(|u|^(q-2), |u|^(4*-2)) of fld, the two powers every nonlinear term
    reads: taken on the first call for these exponents and held on the
    field, read-only, for its lifetime, as its L u is."""
    key, held = (params.q, params.p_crit), vars(fld).get("powers")
    if held is None or held[0] != key:
        au = np.abs(fld.values)
        held = (key, nonneg_power(au, params.q - 2.0),
                nonneg_power(au, params.p_crit - 2.0))
        held[1].flags.writeable = held[2].flags.writeable = False
        vars(fld)["powers"] = held
    return held[1], held[2]


def norm_bundle(params: LandscapeParams, fld: RadialField) -> NormBundle:
    g = fld.grid
    u = fld.values
    if g.dim != params.N:
        raise DomainError(f"grid dim {g.dim} does not match params N={params.N}")
    lu = fld.lap
    w = g.weights
    pq, pc = nonlinear_powers(params, fld)
    wuu = w * u * u
    total = np.add.reduce
    return NormBundle(
        mass=float(total(wuu)),
        bend=float(total(w * lu * lu)),
        subcrit=float(total(wuu * pq)),
        crit=float(total(wuu * pc)),
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


def q_residual(params: LandscapeParams, b: NormBundle) -> float:
    """|Q| / bend, the Pohozaev residual of the field with bundle b."""
    return abs(pohozaev(params, b)) / b.bend


def _bend_term(fld: RadialField) -> np.ndarray:
    # L^T W L u, half the Euclidean gradient of bend, from the held L u
    return fld.grid.lap_t_apply(fld.grid.weights * fld.lap)


def l2_gradient(params: LandscapeParams, fld: RadialField) -> RadialField:
    """Gradient of J in the weighted-quadrature inner product.

    The constraint multiplier term lambda*u is deliberately absent; it lives
    in the projection. The nonlinear terms read u |u|^(p-2) from the held
    pair (nonlinear_powers), which is 0 at u = 0 since p > 2.
    """
    g = fld.grid
    if g.dim != params.N:
        raise DomainError(f"grid dim {g.dim} does not match params N={params.N}")
    u = fld.values
    pq, pc = nonlinear_powers(params, fld)
    return RadialField(g, _bend_term(fld) / g.weights
                       - params.mu * (u * pq) - u * pc)


def nonlinear_diagonal(params: LandscapeParams,
                       fld: RadialField) -> np.ndarray:
    """W f'(u) = w (mu (q-1) |u|^(q-2) + (4*-1) |u|^(4*-2)), the nonlinear
    part of the second variation of J at fld, a diagonal in the quadrature
    weights; it reads the held pair (nonlinear_powers)."""
    q, p = params.q, params.p_crit
    pq, pc = nonlinear_powers(params, fld)
    return fld.grid.weights * (params.mu * (q - 1.0) * pq + (p - 1.0) * pc)


def q_residual_gradient(params: LandscapeParams, fld: RadialField,
                        b: NormBundle) -> np.ndarray:
    """Euclidean gradient of q_residual at fld, b its bundle:
    (sign(Q) grad Q - q_residual grad bend) / bend, with grad bend =
    2 L^T W L u and grad Q = grad bend - a q W u|u|^(q-2)
    - 4* W u|u|^(4*-2), a = pohozaev_coefficient; Q != 0."""
    w, u = fld.grid.weights, fld.values
    q, p = params.q, params.p_crit
    pq, pc = nonlinear_powers(params, fld)
    d_bend = 2.0 * _bend_term(fld)
    d_q = d_bend - w * (pohozaev_coefficient(params) * q * (u * pq)
                        + p * (u * pc))
    sign = math.copysign(1.0, pohozaev(params, b))
    return (sign * d_q - q_residual(params, b) * d_bend) / b.bend


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


def gaussian_bundle(params: LandscapeParams, s: float) -> NormBundle:
    """Bundle of exp(-s r^2 / 2) on R^N, in closed form: mass (pi/s)^(N/2),
    bend that mass times s^2 N (N+2) / 4, and |u|_e^e = (2 pi/(e s))^(N/2)
    for e = q and e = 4*."""
    N = params.N
    mass = (math.pi / s) ** (N / 2.0)
    return NormBundle(mass=mass, bend=mass * s * s * N * (N + 2) / 4.0,
                      subcrit=(2.0 * math.pi / (params.q * s)) ** (N / 2.0),
                      crit=(2.0 * math.pi / (params.p_crit * s)) ** (N / 2.0))


def lagrange_multiplier(params: LandscapeParams, b: NormBundle) -> float:
    """lambda = (bend - mu subcrit - crit)/mass, from pairing the equation with u."""
    if b.mass <= 0:
        raise DomainError("lagrange_multiplier needs positive mass")
    return (b.bend - params.mu * b.subcrit - b.crit) / b.mass


def gn_quotient(params: LandscapeParams, b: NormBundle) -> float:
    """|u|_q / (|Du|_2^beta |u|_2^(1-beta)), beta = N(q-2)/(4q): the
    Gagliardo-Nirenberg quotient of the field with bundle b, from its mass,
    bend and subcrit. It is invariant under amplitude and dilation, and the
    subcritical ground state maximizes it (Weinstein 1983)."""
    beta = derive_exponents(params).beta
    return b.subcrit ** (1.0 / params.q) / (b.bend ** (beta / 2.0)
                                            * b.mass ** ((1.0 - beta) / 2.0))
