import dataclasses
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from bhgs import (
    DomainError,
    LandscapeParams,
    comparison_check,
    derive_exponents,
    f_landscape,
    mass_threshold,
    rho_star,
)
from bhgs.landscape import _terms
from propstrat import params_st

# independently derived reference values for N=5, q=3, mu=1, C_gn=S_sob=1
M_REF = 0.40280548979852724844
C0_REF = 1.3102171485428768328
RHO0_REF = 0.80910671157022121429
RHO_STAR_1_REF = 0.76654410447464423842


class TestParamsValidation:
    def test_rejects_low_dimension(self):
        with pytest.raises(DomainError):
            LandscapeParams(N=4, q=2.5)

    def test_rejects_non_integer_dimension(self):
        with pytest.raises(DomainError):
            LandscapeParams(N=5.0, q=3.0)
        with pytest.raises(DomainError, match="got True"):
            LandscapeParams(N=True, q=3.0)

    def test_accepts_numpy_integer_dimension(self):
        # held as the Python int, so records and cache keys stay plain
        np = pytest.importorskip("numpy")
        for N in (np.int64(5), np.int32(7), np.uint8(6)):
            p = LandscapeParams(N=N, q=2.5)
            assert type(p.N) is int and p == LandscapeParams(N=int(N), q=2.5)
            assert json.dumps(dataclasses.asdict(p))

    def test_rejects_q_at_left_endpoint(self):
        with pytest.raises(DomainError):
            LandscapeParams(N=5, q=2.0)

    def test_rejects_q_at_right_endpoint(self):
        with pytest.raises(DomainError):
            LandscapeParams(N=5, q=2.0 + 8.0 / 5.0)

    def test_q_error_names_the_interval(self):
        with pytest.raises(DomainError, match=r"\(2, 3.6\)"):
            LandscapeParams(N=5, q=3.7)

    def test_rejects_nonpositive_mu(self):
        with pytest.raises(DomainError):
            LandscapeParams(N=5, q=3.0, mu=0.0)

    def test_rejects_nonpositive_constants(self):
        with pytest.raises(DomainError):
            LandscapeParams(N=5, q=3.0, C_gn=-1.0)
        with pytest.raises(DomainError):
            LandscapeParams(N=5, q=3.0, S_sob=0.0)

    def test_frozen(self, p53):
        with pytest.raises(dataclasses.FrozenInstanceError):
            p53.q = 2.5

    def test_p_crit(self, p53):
        assert p53.p_crit == 10.0
        assert LandscapeParams(N=6, q=2.5).p_crit == 6.0


class TestExponents:
    def test_reference_values_n5_q3(self, p53):
        es = derive_exponents(p53)
        assert es.alpha0 == pytest.approx(-0.375, abs=1e-15)
        assert es.alpha1 == pytest.approx(0.875, abs=1e-15)
        assert es.alpha2 == pytest.approx(4.0, abs=1e-15)
        assert es.beta == pytest.approx(5.0 / 12.0, abs=1e-15)
        assert es.p_crit == pytest.approx(10.0, abs=1e-15)
        assert es.gamma_q == pytest.approx(1.25, abs=1e-15)

    def test_reference_values_n6_q25(self):
        es = derive_exponents(LandscapeParams(N=6, q=2.5))
        assert es.alpha0 == pytest.approx(-0.625, abs=1e-15)
        assert es.alpha1 == pytest.approx(0.875, abs=1e-15)
        assert es.alpha2 == pytest.approx(2.0, abs=1e-15)
        assert es.beta == pytest.approx(0.3, abs=1e-15)
        assert es.p_crit == pytest.approx(6.0, abs=1e-15)
        assert es.gamma_q == pytest.approx(0.75, abs=1e-15)

    @given(params_st())
    def test_identities(self, params):
        es = derive_exponents(params)
        q = params.q
        assert abs(es.alpha0 + es.alpha1 - (q - 2.0) / 2.0) <= 1e-12
        assert abs(es.gamma_q - 2.0 - 2.0 * es.alpha0) <= 1e-12
        assert abs(es.p_crit - 2.0 - 2.0 * es.alpha2) <= 1e-12
        assert abs(es.beta * q - es.gamma_q) <= 1e-12

    @given(params_st())
    def test_sign_pattern(self, params):
        es = derive_exponents(params)
        assert es.alpha0 < 0 < es.alpha1
        assert es.alpha2 > 0
        assert 0.0 < es.beta < 1.0
        assert 0.0 < es.gamma_q < 2.0


class TestLandscapeFunction:
    def test_unit_point_value(self, p53):
        # 1/2 - 1/3 - 1/10
        assert f_landscape(p53, 1.0, 1.0) == pytest.approx(1.0 / 15.0, rel=1e-14)

    def test_negative_in_both_tails(self, p53):
        assert f_landscape(p53, 1.0, 1e-12) < 0.0
        assert f_landscape(p53, 1.0, 1e12) < 0.0

    def test_extreme_rho_saturates(self, p53):
        # past float range the value saturates to -inf instead of raising
        val = f_landscape(p53, 1.0, 1e300)
        assert math.isinf(val) and val < 0.0

    def test_extreme_but_representable_rho(self, p53):
        # direct rho**alpha2 would overflow at rho = 1e100; log-space keeps
        # the assembled term finite
        assert f_landscape(p53, 1.0, 1e75) < 0.0
        assert math.isfinite(f_landscape(p53, 1e-150, 0.5))

    def test_domain_errors(self, p53):
        with pytest.raises(DomainError):
            f_landscape(p53, 0.0, 1.0)
        with pytest.raises(DomainError):
            f_landscape(p53, 1.0, -2.0)

    def test_monotone_decreasing_in_c(self, p53):
        # both subtracted terms grow with c (alpha1 > 0)
        assert f_landscape(p53, 0.5, 0.7) > f_landscape(p53, 1.0, 0.7)


class TestRhoStar:
    def test_reference_value(self, p53):
        assert rho_star(p53, 1.0) == pytest.approx(RHO_STAR_1_REF, rel=1e-14)

    def test_doubling_law_reference(self, p53):
        ratio = rho_star(p53, 2.0) / rho_star(p53, 1.0)
        assert ratio == pytest.approx(2.0 ** 0.2, rel=1e-14)

    @given(params_st(), st.floats(min_value=-3.0, max_value=3.0),
           st.floats(min_value=0.1, max_value=10.0))
    def test_scaling_law(self, params, logc, t):
        # rho_star(t c) / rho_star(c) = t^{alpha1/(alpha2-alpha0)}
        es = derive_exponents(params)
        c = math.exp(logc)
        got = rho_star(params, t * c) / rho_star(params, c)
        want = t ** (es.alpha1 / (es.alpha2 - es.alpha0))
        assert got == pytest.approx(want, rel=1e-12)

    @given(params_st(), st.floats(min_value=-2.0, max_value=2.0))
    def test_is_a_local_max(self, params, logc):
        c = math.exp(logc)
        rs = rho_star(params, c)
        peak = f_landscape(params, c, rs)
        for bump in (1.0 - 1e-4, 1.0 + 1e-4):
            assert peak >= f_landscape(params, c, rs * bump)

    @given(params_st(), st.floats(min_value=-2.0, max_value=2.0))
    def test_terms_balance_at_the_maximizer(self, params, logc):
        # f's rho-derivative vanishes at rho_star: -alpha0 t_sub = alpha2
        # t_crit to the last bits, where the 1e-4 bumps above are second
        # order and cannot see them
        es = derive_exponents(params)
        c = math.exp(logc)
        t_sub, t_crit = _terms(params, c, rho_star(params, c))
        balance = es.alpha0 * t_sub + es.alpha2 * t_crit
        assert abs(balance) <= 1e-14 * -es.alpha0 * t_sub

    def test_domain_error(self, p53):
        with pytest.raises(DomainError):
            rho_star(p53, 0.0)


class TestMassThreshold:
    def test_reference_values(self, thresholds53):
        M, c0, rho0 = thresholds53
        assert M == pytest.approx(M_REF, rel=1e-14)
        assert c0 == pytest.approx(C0_REF, rel=1e-14)
        assert rho0 == pytest.approx(RHO0_REF, rel=1e-14)

    def test_threshold_consistency(self, thresholds53):
        M, c0, _ = thresholds53
        assert c0 == pytest.approx((2.0 * M) ** (-5.0 / 4.0), rel=1e-14)

    def test_peak_vanishes_at_threshold(self, p53, thresholds53):
        _, c0, rho0 = thresholds53
        assert abs(f_landscape(p53, c0, rho0)) <= 1e-10
        assert rho0 == pytest.approx(rho_star(p53, c0), rel=1e-14)

    def test_sign_change_across_threshold(self, p53, thresholds53):
        _, c0, _ = thresholds53
        below, above = 0.999 * c0, 1.001 * c0
        assert f_landscape(p53, below, rho_star(p53, below)) > 0.0
        assert f_landscape(p53, above, rho_star(p53, above)) < 0.0

    @given(params_st())
    def test_peak_vanishes_at_every_threshold(self, params):
        _, c0, rho0 = mass_threshold(params)
        assert abs(f_landscape(params, c0, rho0)) <= 4e-15

    @given(params_st(), st.floats(min_value=-2.0, max_value=2.0))
    def test_peak_value_identity(self, params, logc):
        # max_rho f(c, rho) = 1/2 - M c^{4/N} for every admissible c
        M, _, _ = mass_threshold(params)
        c = math.exp(logc)
        peak = f_landscape(params, c, rho_star(params, c))
        want = 0.5 - M * c ** (4.0 / params.N)
        assert peak == pytest.approx(want, rel=1e-11, abs=1e-13)

    def test_smaller_constants_raise_threshold(self, p53, thresholds53):
        # smaller constants give a larger threshold
        _, c0, _ = thresholds53
        shrunk = LandscapeParams(N=5, q=3.0, C_gn=0.9, S_sob=0.9)
        _, c0_shrunk, _ = mass_threshold(shrunk)
        assert c0_shrunk > c0


class TestComparisonCheck:
    def test_equal_masses(self, p53):
        assert comparison_check(p53, 1.0, 0.5, 1.0)

    @given(params_st(), st.floats(min_value=-1.5, max_value=1.5),
           st.floats(min_value=-1.0, max_value=1.0),
           st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=40, deadline=None)
    def test_holds_for_random_draws(self, params, logc, logr, frac):
        c1 = math.exp(logc)
        rho1 = math.exp(logr) * rho_star(params, c1)
        assert comparison_check(params, c1, rho1, frac * c1)

    def test_rejects_larger_second_mass(self, p53):
        with pytest.raises(DomainError):
            comparison_check(p53, 1.0, 0.5, 1.5)

    def test_rejects_nonpositive_inputs(self, p53):
        with pytest.raises(DomainError):
            comparison_check(p53, 0.0, 0.5, 0.5)
        with pytest.raises(DomainError):
            comparison_check(p53, 1.0, 0.0, 0.5)
