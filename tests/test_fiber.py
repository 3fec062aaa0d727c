import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bhgs import (
    DomainError,
    FiberAnalysis,
    NormBundle,
    RadialField,
    analyze_fiber,
    norm_bundle,
    pohozaev,
    psi,
    psi_prime,
    xi,
    xi_turning_point,
)
from bhgs.fiber import KIND_MAX, KIND_MIN, KIND_TANGENT
from propstrat import bundle_st, params_st

ONES = NormBundle(mass=1.0, bend=1.0, subcrit=1.0, crit=1.0)

# reference values for the unit bundle at N=5, q=3, mu=1
S_TURN_REF = 0.69033245193545025548
XI_TURN_REF = 0.39825414548664402918
S1_REF = 0.31124521035265247126
PSI_S1_REF = -0.029056102221341419284
S2_REF = 0.9300996860337519393
PSI_S2_REF = 0.079625306468205317645
PSI_2_REF = -101.19280474333514738


class TestClosedForms:
    def test_psi_reference_points(self, p53):
        assert psi(p53, ONES, 1.0) == pytest.approx(1.0 / 15.0, rel=1e-14)
        assert psi(p53, ONES, 2.0) == pytest.approx(PSI_2_REF, rel=1e-14)

    def test_psi_prime_at_one(self, p53):
        assert psi_prime(p53, ONES, 1.0) == pytest.approx(-5.0 / 12.0, rel=1e-14)

    def test_psi_vanishes_at_origin_limit(self, p53):
        val = psi(p53, ONES, 1e-4)
        assert val < 0.0
        assert abs(val) < 1e-4

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    def test_psi_prime_is_derivative(self, p53, s):
        eps = 1e-6 * s
        fd = (psi(p53, ONES, s + eps) - psi(p53, ONES, s - eps)) / (2.0 * eps)
        assert fd == pytest.approx(psi_prime(p53, ONES, s), rel=1e-7)

    @pytest.mark.parametrize("s", [0.3, 1.0, 4.7])
    def test_xi_is_scaled_slope(self, p53, s):
        assert xi(p53, ONES, s) == pytest.approx(
            psi_prime(p53, ONES, s) / s, rel=1e-14)

    def test_nonpositive_s_rejected(self, p53):
        for fn in (psi, psi_prime, xi):
            with pytest.raises(DomainError):
                fn(p53, ONES, 0.0)
            with pytest.raises(DomainError):
                fn(p53, ONES, -1.0)

    def test_overflow_raises_domain_error(self, p53):
        with pytest.raises(DomainError, match="overflow"):
            psi(p53, ONES, 1e40)

    def test_underflowing_dilation_raises_domain_error(self, p53):
        # s^2 below the smallest subnormal: the dilated bundle would read
        # bend, subcrit and crit as 0
        for fn in (psi, psi_prime, xi):
            with pytest.raises(DomainError, match="underflow"):
                fn(p53, ONES, 1e-170)

    @given(params_st(), bundle_st())
    def test_pohozaev_is_slope_at_one(self, params, b):
        # Q(u) = psi'(1) exactly, term by term
        assert pohozaev(params, b) == psi_prime(params, b, 1.0)


class TestTurningPoint:
    def test_reference_value(self, p53):
        s = xi_turning_point(p53, ONES)
        assert s == pytest.approx(S_TURN_REF, rel=1e-13)
        assert xi(p53, ONES, s) == pytest.approx(XI_TURN_REF, rel=1e-13)

    def test_is_a_maximum_of_xi(self, p53):
        s = xi_turning_point(p53, ONES)
        peak = xi(p53, ONES, s)
        assert peak > xi(p53, ONES, s * (1.0 - 1e-4))
        assert peak > xi(p53, ONES, s * (1.0 + 1e-4))

    @given(params_st(), bundle_st(), st.floats(min_value=0.1, max_value=10.0))
    def test_independent_of_bend(self, params, b, t):
        moved = NormBundle(b.mass, t * b.bend, b.subcrit, b.crit)
        assert xi_turning_point(params, moved) == xi_turning_point(params, b)

    def test_degenerate_bundles_rejected(self, p53):
        with pytest.raises(DomainError, match="degenerate"):
            xi_turning_point(p53, NormBundle(1.0, 1.0, 0.0, 1.0))
        with pytest.raises(DomainError, match="degenerate"):
            xi_turning_point(p53, NormBundle(1.0, 1.0, 1.0, 0.0))


class TestAnalyzeFiber:
    def test_unit_bundle_reference(self, p53):
        fa = analyze_fiber(p53, ONES)
        assert fa.kind1 == KIND_MIN and fa.kind2 == KIND_MAX
        assert fa.s_turn == pytest.approx(S_TURN_REF, rel=1e-13)
        assert fa.s1 == pytest.approx(S1_REF, rel=1e-9)
        assert fa.s2 == pytest.approx(S2_REF, rel=1e-9)
        assert fa.psi_at_s1 == pytest.approx(PSI_S1_REF, rel=1e-10)
        assert fa.psi_at_s2 == pytest.approx(PSI_S2_REF, rel=1e-10)

    def test_no_crossing_case(self, p53):
        fa = analyze_fiber(p53, NormBundle(1.0, 1.0, 10.0, 10.0))
        assert fa.s1 is None and fa.s2 is None
        assert fa.kind1 is None and fa.kind2 is None
        assert fa.psi_at_s1 is None and fa.psi_at_s2 is None
        assert fa.s_turn > 0

    def test_tangency_case(self, p53):
        # built so that xi'(s)=0 and xi(s)=0 meet at s=1: C = -alpha0 k/alpha2,
        # A = k + C with B = 1
        k = 5.0 / 12.0
        c = 0.375 * k / 4.0
        b = NormBundle(mass=1.0, bend=k + c, subcrit=1.0, crit=c)
        fa = analyze_fiber(p53, b)
        assert fa.kind1 == KIND_TANGENT and fa.kind2 == KIND_TANGENT
        assert fa.s1 == fa.s2 == fa.s_turn
        assert fa.s_turn == pytest.approx(1.0, rel=1e-12)
        assert fa.psi_at_s1 == fa.psi_at_s2

    def test_degenerate_bundle_rejected(self, p53):
        with pytest.raises(DomainError, match="degenerate"):
            analyze_fiber(p53, NormBundle(1.0, 1.0, 1.0, 0.0))

    def test_zero_below_float_range_rejected(self, p53):
        bad = NormBundle(mass=1.0, bend=1e300, subcrit=1e-300, crit=1e-300)
        with pytest.raises(DomainError, match="float range"):
            analyze_fiber(p53, bad)

    def test_tiny_s1_near_mass_critical_q(self):
        # q close to 2 + 8/N pushes s1 nineteen decades under s_turn; the
        # log-space bisection still localizes it to relative precision
        from bhgs import LandscapeParams

        params = LandscapeParams(N=5, q=3.55)
        b = NormBundle(mass=1.0, bend=10.0, subcrit=1.0, crit=1.0)
        fa = analyze_fiber(params, b)
        assert fa.s1 < 1e-18
        assert fa.psi_at_s1 < 0.0
        for bump in (1.0 - 1e-3, 1.0 + 1e-3):
            assert psi(params, b, fa.s1) < psi(params, b, fa.s1 * bump)

    @given(params_st(), bundle_st())
    @settings(max_examples=150, deadline=None)
    def test_structure_invariants(self, params, b):
        fa = analyze_fiber(params, b)
        assert fa.s_turn > 0
        if fa.kind1 == KIND_TANGENT:
            assert fa.s1 == fa.s2 == fa.s_turn
            return
        if fa.s1 is None:
            assert fa.s2 is None and xi(params, b, fa.s_turn) < 0
            return
        assert 0.0 < fa.s1 < fa.s_turn < fa.s2
        assert fa.kind1 == KIND_MIN and fa.kind2 == KIND_MAX
        assert fa.psi_at_s1 < 0.0
        # residuals at the reported zeros vanish to bisection accuracy
        scale1 = max(abs(psi_prime(params, b, 2.0 * fa.s1)), 1e-300)
        assert abs(psi_prime(params, b, fa.s1)) <= 1e-6 * scale1

    @given(params_st(), bundle_st())
    @settings(max_examples=80, deadline=None)
    def test_s1_is_strict_local_minimum(self, params, b):
        fa = analyze_fiber(params, b)
        if fa.s1 is None or fa.kind1 == KIND_TANGENT:
            return
        for bump in (1.0 - 1e-3, 1.0 + 1e-3):
            assert psi(params, b, fa.s1) < psi(params, b, fa.s1 * bump)
        for bump in (1.0 - 1e-3, 1.0 + 1e-3):
            assert psi(params, b, fa.s2) > psi(params, b, fa.s2 * bump)


class TestDegenerateSlopeZero:
    def test_critical_term_absent(self, p53):
        # with C = 0 the slope has the single zero s = (k B / A)^{1/(2 - gamma_q)}
        # = (5/12)^{4/3}; analyze_fiber refuses, bisection on psi_prime finds it
        b = NormBundle(mass=1.0, bend=1.0, subcrit=1.0, crit=0.0)
        lo, hi = 0.1, 0.5
        assert psi_prime(p53, b, lo) < 0 < psi_prime(p53, b, hi)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if psi_prime(p53, b, mid) < 0:
                lo = mid
            else:
                hi = mid
        root = 0.5 * (lo + hi)
        assert root == pytest.approx((5.0 / 12.0) ** (4.0 / 3.0), rel=1e-10)
        assert root == pytest.approx(0.31120866295535866033, rel=1e-10)


class TestAgainstMaterializedFields:
    @pytest.mark.parametrize("s", [0.25, 0.5, 2.0, 4.0])
    def test_psi_matches_scaled_field_energy(self, p53, grid30, s):
        from bhgs import energy

        # the fiber dilation s^{N/4} u(s^{1/2} r) of e^{-r^2/2}, analytically
        r = grid30.nodes
        b = norm_bundle(p53, RadialField(grid30, np.exp(-0.5 * r ** 2)))
        closed = psi(p53, b, s)
        dilated = RadialField(grid30, s ** 1.25 * np.exp(-0.5 * s * r ** 2))
        materialized = energy(p53, norm_bundle(p53, dilated))
        assert materialized == pytest.approx(closed, rel=1e-3)
