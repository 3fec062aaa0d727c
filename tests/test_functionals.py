import math

import numpy as np
import pytest

from bhgs import (
    DomainError,
    LandscapeParams,
    NormBundle,
    RadialField,
    build_grid,
    energy,
    f_landscape,
    l2_gradient,
    lagrange_multiplier,
    norm_bundle,
    pohozaev,
    rescale_bundle,
)
from bhgs.functionals import nonneg_power, pohozaev_coefficient
from bhgs.verify import bump_field

PI_52 = math.pi ** 2.5
SUBCRIT_GAUSS = (2.0 * math.pi / 3.0) ** 2.5   # integral of e^{-3r^2/2} over R^5
CRIT_GAUSS = (math.pi / 5.0) ** 2.5            # integral of e^{-5r^2} over R^5

ONES = NormBundle(mass=1.0, bend=1.0, subcrit=1.0, crit=1.0)


def gaussian(grid):
    return RadialField(grid, np.exp(-0.5 * grid.nodes ** 2))


class TestNormBundle:
    def test_rejects_negative_entry(self):
        with pytest.raises(DomainError):
            NormBundle(mass=-1.0, bend=0.0, subcrit=0.0, crit=0.0)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            NormBundle(mass=1.0, bend=math.nan, subcrit=0.0, crit=0.0)
        with pytest.raises(DomainError):
            NormBundle(mass=1.0, bend=math.inf, subcrit=0.0, crit=0.0)

    def test_gaussian_oracles(self, p53, grid12):
        b = norm_bundle(p53, gaussian(grid12))
        assert b.mass == pytest.approx(PI_52, rel=1e-10)
        assert b.bend == pytest.approx(8.75 * PI_52, rel=1e-7)
        assert b.subcrit == pytest.approx(SUBCRIT_GAUSS, rel=1e-10)
        assert b.crit == pytest.approx(CRIT_GAUSS, rel=1e-10)

    def test_zero_field(self, p53, grid12):
        b = norm_bundle(p53, RadialField(grid12, np.zeros(grid12.n)))
        assert (b.mass, b.bend, b.subcrit, b.crit) == (0.0, 0.0, 0.0, 0.0)
        assert energy(p53, b) == 0.0
        assert pohozaev(p53, b) == 0.0

    def test_dim_mismatch(self, p53):
        g6 = build_grid(6, 64, 8.0)
        with pytest.raises(DomainError):
            norm_bundle(p53, RadialField(g6, np.zeros(64)))

    @pytest.mark.parametrize("t", [0.5, 2.3])
    def test_amplitude_homogeneity(self, p53, grid30, t, rng):
        fld = bump_field(grid30, rng)
        b = norm_bundle(p53, fld)
        bt = norm_bundle(p53, RadialField(grid30, t * fld.values))
        assert bt.mass == pytest.approx(t ** 2 * b.mass, rel=1e-12)
        assert bt.bend == pytest.approx(t ** 2 * b.bend, rel=1e-12)
        assert bt.subcrit == pytest.approx(t ** 3 * b.subcrit, rel=1e-12)
        assert bt.crit == pytest.approx(t ** 10 * b.crit, rel=1e-12)


class TestScalarAlgebra:
    def test_energy_unit_bundle(self, p53):
        assert energy(p53, ONES) == pytest.approx(1.0 / 15.0, rel=1e-15)

    def test_pohozaev_coefficient(self, p53):
        assert pohozaev_coefficient(p53) == pytest.approx(5.0 / 12.0, rel=1e-15)

    def test_pohozaev_unit_bundle(self, p53):
        assert pohozaev(p53, ONES) == pytest.approx(-5.0 / 12.0, rel=1e-15)

    def test_lagrange_multiplier(self, p53):
        assert lagrange_multiplier(p53, ONES) == pytest.approx(-1.0, rel=1e-15)
        linear_only = NormBundle(mass=2.0, bend=3.0, subcrit=0.0, crit=0.0)
        assert lagrange_multiplier(p53, linear_only) == pytest.approx(1.5)

    def test_lagrange_needs_mass(self, p53):
        with pytest.raises(DomainError):
            lagrange_multiplier(p53, NormBundle(0.0, 1.0, 1.0, 1.0))

    def test_energy_scales_with_mu(self):
        p2 = LandscapeParams(N=5, q=3.0, mu=2.0)
        assert energy(p2, ONES) == pytest.approx(0.5 - 2.0 / 3.0 - 0.1, rel=1e-14)


class TestGradient:
    def test_zero_field_has_zero_gradient(self, p53, grid12):
        g = l2_gradient(p53, RadialField(grid12, np.zeros(grid12.n)))
        assert np.all(g.values == 0.0)

    def test_finite_at_sign_changes(self, p53, grid30, rng):
        vals = bump_field(grid30, rng).values.copy()
        vals[::7] = 0.0
        g = l2_gradient(p53, RadialField(grid30, vals))
        assert np.all(np.isfinite(g.values))

    def test_dim_mismatch(self, p53):
        g6 = build_grid(6, 64, 8.0)
        with pytest.raises(DomainError):
            l2_gradient(p53, RadialField(g6, np.zeros(64)))

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_directional_derivative(self, p53, grid30, k):
        rng = np.random.default_rng(5150 + k)
        u = bump_field(grid30, rng)
        v = bump_field(grid30, rng).values
        grad = l2_gradient(p53, u).values
        pred = float(np.sum(grid30.weights * grad * v))
        eps = 1e-5
        jp = energy(p53, norm_bundle(p53, RadialField(grid30, u.values + eps * v)))
        jm = energy(p53, norm_bundle(p53, RadialField(grid30, u.values - eps * v)))
        fd = (jp - jm) / (2.0 * eps)
        assert fd == pytest.approx(pred, rel=1e-5)

    def test_bend_part_matches_biharmonic(self, p53, grid12):
        # adding back the nonlinearity isolates the W-adjoint bend gradient,
        # which must agree with Delta^2 u = (r^4 - 14 r^2 + 35) e^{-r^2/2}
        # away from the corrected-weight bands at both ends
        r = grid12.nodes
        u = gaussian(grid12)
        nl = np.sign(u.values) * (np.abs(u.values) ** 2 + np.abs(u.values) ** 9)
        bend_grad = l2_gradient(p53, u).values + nl
        want = (r ** 4 - 14.0 * r ** 2 + 35.0) * np.exp(-0.5 * r ** 2)
        window = (r >= 1.0) & (r <= 6.0)
        assert np.max(np.abs((bend_grad - want)[window])) <= 1e-5


class TestRescaleBundle:
    # t e^{-s^2 r^2/2} is t u(s x) for the unit Gaussian u; its bundle is
    # built on the grid and compared with rescale_bundle of u's bundle
    @pytest.fixture(scope="class")
    def grid_wide(self):
        return build_grid(5, 2049, 30.0)

    @pytest.mark.parametrize("mass,bend", [(0.3, 2.0), (2.0, 0.5),
                                           (1.0, 500.0)])
    def test_matches_materialized_field(self, p53, grid_wide, mass, bend):
        r = grid_wide.nodes
        b = norm_bundle(p53, RadialField(grid_wide, np.exp(-0.5 * r ** 2)))
        # mass scales by t^2 s^-N and bend by t^2 s^{4-N} under t u(s x)
        s = (bend * b.mass / (mass * b.bend)) ** 0.25
        t = math.sqrt(mass * s ** 5 / b.mass)
        made = norm_bundle(p53, RadialField(
            grid_wide, t * np.exp(-0.5 * s * s * r ** 2)))
        got = rescale_bundle(p53, b, mass, bend)
        for name in ("mass", "bend", "subcrit", "crit"):
            assert getattr(got, name) == pytest.approx(getattr(made, name),
                                                       rel=1e-6), name

    def test_needs_positive_mass_and_bend(self, p53):
        with pytest.raises(DomainError):
            rescale_bundle(p53, NormBundle(0.0, 1.0, 1.0, 1.0), 1.0, 1.0)
        with pytest.raises(DomainError):
            rescale_bundle(p53, NormBundle(1.0, 0.0, 1.0, 1.0), 1.0, 1.0)
        with pytest.raises(DomainError):
            rescale_bundle(p53, ONES, 0.0, 1.0)


class TestLandscapeBound:
    def test_energy_dominates_bend_times_f(self, p53, grid30):
        # with unit constants every field is quotient-eligible, so
        # J(u) >= bend * f(mass, bend) holds without filtering
        rng = np.random.default_rng(424242)
        for _ in range(10):
            b = norm_bundle(p53, bump_field(grid30, rng))
            if b.bend == 0.0 or b.mass == 0.0:
                continue
            j = energy(p53, b)
            bound = b.bend * f_landscape(p53, b.mass, b.bend)
            assert j >= bound - 1e-8 * max(1.0, abs(j))


class TestNonnegPower:
    """nonneg_power must equal au ** e bit for bit, NaN and the subnormal
    results just above its 2^(-1080/e) cut included."""

    SPECIALS = np.array([0.0, 5e-324, 2.2250738585072014e-308, np.inf, np.nan])

    @staticmethod
    def exponents():
        # q, q-1, 4*, 4*-1 for N = 5..12, q drawn from the admissible range
        rng = np.random.default_rng(20240605)
        out = []
        for N in range(5, 13):
            q = 2.0 + (0.05 + 0.9 * rng.random()) * (8.0 / N)
            p = LandscapeParams(N=N, q=q).p_crit
            out += [q, q - 1.0, p, p - 1.0]
        return out

    def test_bitwise_equal_to_plain_power(self):
        rng = np.random.default_rng(1080)
        exps = self.exponents()
        masked = subnormal = 0
        for n in range(1, 9001):
            e = exps[n % len(exps)]
            # up to one lane in four has its log2 straddle the cut at
            # -1080/e, the rest are O(1): masked and kept lanes come in runs
            # of many lengths, while the reference spends little time on
            # numpy's slow path for subnormal results
            lg = rng.uniform(-8.0, 4.0, n)
            tail = rng.random(n) < rng.uniform(0.0, 0.25)
            lg[tail] = rng.uniform(-1100.0 / e, -1000.0 / e, int(tail.sum()))
            au = np.exp2(lg)
            hit = rng.random(n) < 0.02
            au[hit] = rng.choice(self.SPECIALS, int(hit.sum()))
            got = nonneg_power(au, e)
            want = au ** e
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (n, e)
            assert np.array_equal(np.isnan(got), np.isnan(au))
            masked += int(np.sum(au <= 2.0 ** (-1080.0 / e)))
            subnormal += int(np.sum((want > 0) & (want < 2.2250738585072014e-308)))
        assert masked > 10 ** 5 and subnormal > 10 ** 5

    def test_clean_and_degenerate_inputs(self):
        for e in self.exponents():
            for au in (np.linspace(0.5, 2.0, 33), np.zeros(7), np.empty(0),
                       self.SPECIALS.copy()):
                got = nonneg_power(au, e)
                assert np.array_equal(got.view(np.int64),
                                      (au ** e).view(np.int64))
