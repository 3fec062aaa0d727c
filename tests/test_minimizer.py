import dataclasses
import math
import re
import sys

import numpy as np
import pytest

from bhgs import (
    ConvergenceError,
    DomainError,
    GroundState,
    LandscapeParams,
    RadialField,
    SolverConfig,
    build_grid,
    energy,
    estimate_gn_constant,
    estimate_sobolev_constant,
    fiber_consistency,
    lagrange_multiplier,
    mass_threshold,
    minimize,
    norm_bundle,
    seed,
)
from bhgs import functionals, minimizer
from bhgs.config import GN_GRID, load_config
from bhgs.minimizer import _quotient_gn
from bhgs.verify import random_params

GN_REF = 0.2820814861937604      # quotient ascent fixed point, N=5, q=3
# the descent alone at 0.5 c0 on the production grid, N=5, q=3
DESCENT_M = "-0x1.d224874daeda2p-22"
DESCENT_LAM = "-0x1.9f1224d8200c0p-19"
# the default `bhgs solve --c 0.6`: energy and iteration count
DEFAULT_M = "-0x1.7bbab4d239424p-22"
DEFAULT_ITERS = 7


@pytest.fixture(scope="module")
def solved(p53, grid_solve, thresholds53):
    _, c0, _ = thresholds53
    return minimize(p53, grid_solve, 0.5 * c0)


@pytest.fixture(scope="module")
def solved06(p53, grid_solve):
    return minimize(p53, grid_solve, 0.6)


@pytest.fixture(scope="module")
def gn_grid():
    return build_grid(5, 513, 20.0)


class TestSolverConfig:
    def test_defaults_valid(self):
        cfg = SolverConfig()
        assert cfg.grad_tol == 1e-8 and cfg.q_tol == 5e-7

    # the first four and the last seven cases name fields that are now the
    # minimizer's module constants, which SolverConfig refuses to take
    REMOVED = {"step0", "shrink", "grow", "max_iter", "seed_shape",
               "safeguard_margin", "safeguard_max_frac", "stall_iters"}

    @pytest.mark.parametrize("kw", [
        {"step0": 0.0},
        {"shrink": 1.0},
        {"grow": 1.0},
        {"shrink": 0.0},
        {"grad_tol": 0.0},
        {"q_tol": -1.0},
        {"max_iter": 0},
        {"seed_shape": 0.0},
        {"safeguard_margin": 0.0},
        {"safeguard_margin": 1.0},
        {"safeguard_max_frac": 0.0},
        {"safeguard_max_frac": 1.5},
        {"stall_iters": 0},
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(TypeError if set(kw) & self.REMOVED
                           else DomainError):
            SolverConfig(**kw)

    def test_fields(self):
        assert [f.name for f in dataclasses.fields(SolverConfig)] == [
            "grad_tol", "q_tol"]


class TestSeed:
    @pytest.mark.parametrize("frac", [0.1, 0.5, 0.9])
    def test_lands_in_admissible_set(self, p53, thresholds53, grid_solve, frac):
        _, c0, rho0 = thresholds53
        c = frac * c0
        fld, b = seed(p53, thresholds53, c, grid_solve)
        # the bundle handed to minimize is the field's own, bit for bit
        assert b == norm_bundle(p53, fld)
        assert b.mass == pytest.approx(c, rel=1e-12)
        assert energy(p53, b) < 0.0
        assert b.bend < rho0 * (1.0 - 1e-3)

    def test_rejects_mass_outside_range(self, p53, thresholds53, grid_solve):
        _, c0, _ = thresholds53
        for bad in (0.0, -1.0, c0, 2.0 * c0):
            with pytest.raises(DomainError):
                seed(p53, thresholds53, bad, grid_solve)


class TestMinimize:
    def test_invariants(self, p53, thresholds53, solved):
        _, c0, rho0 = thresholds53
        c = 0.5 * c0
        assert isinstance(solved, GroundState)
        b = norm_bundle(p53, solved.field)
        assert abs(b.mass - c) <= 1e-8 * c
        assert solved.bend < rho0
        assert solved.m < 0.0
        assert solved.q_residual <= SolverConfig().q_tol
        assert solved.iters <= minimizer.MAX_ITER

    def test_reported_scalars_match_field(self, p53, solved):
        b = norm_bundle(p53, solved.field)
        assert solved.m == pytest.approx(energy(p53, b), rel=1e-12)
        assert solved.lam == pytest.approx(lagrange_multiplier(p53, b), rel=1e-12)
        assert solved.bend == pytest.approx(b.bend, rel=1e-12)

    def test_energy_scale(self, solved):
        # anchored against an independent run of the same discretization
        assert solved.m == pytest.approx(-4.341292e-07, rel=1e-2)

    def test_interior_minimizer(self, solved):
        assert solved.constraint_active is False

    def test_fiber_self_consistency(self, p53, solved):
        assert fiber_consistency(p53, solved) <= 1e-3

    def test_deterministic(self, p53, grid_solve, thresholds53, solved):
        _, c0, _ = thresholds53
        again = minimize(p53, grid_solve, 0.5 * c0)
        assert again.m == solved.m
        assert again.iters == solved.iters
        assert np.array_equal(again.field.values, solved.field.values)

    def test_monotone_between_masses(self, p53, grid_solve, thresholds53, solved):
        _, c0, _ = thresholds53
        smaller = minimize(p53, grid_solve, 0.2 * c0)
        assert smaller.m < 0.0
        assert solved.m < smaller.m

    def test_rejects_mass_at_or_above_threshold(self, p53, grid_solve,
                                                thresholds53):
        _, c0, _ = thresholds53
        for bad in (c0, 1.5 * c0, 0.0):
            with pytest.raises(DomainError):
                minimize(p53, grid_solve, bad)

    def test_rejects_dim_mismatch(self, grid_solve):
        p6 = LandscapeParams(N=6, q=2.5)
        _, c0_6, _ = mass_threshold(p6)
        with pytest.raises(DomainError, match="dim"):
            minimize(p6, grid_solve, 0.5 * c0_6)

    def test_iteration_budget_raises(self, p53, grid_solve, thresholds53,
                                     monkeypatch):
        _, c0, _ = thresholds53
        monkeypatch.setattr(minimizer, "MAX_ITER", 2)
        with pytest.raises(ConvergenceError,
                           match="no convergence in 2 iterations"):
            minimize(p53, grid_solve, 0.5 * c0)

    def test_unreachable_tolerance_raises(self, p53, grid_solve, thresholds53,
                                          monkeypatch):
        # progress dies at the grid's noise floor long before 1e-30
        _, c0, _ = thresholds53
        monkeypatch.setattr(minimizer, "MAX_ITER", 400)
        cfg = SolverConfig(grad_tol=1e-30, q_tol=1e-30)
        with pytest.raises(ConvergenceError) as err:
            minimize(p53, grid_solve, 0.5 * c0, cfg)
        # gnorm is above grad_tol, so the message names no discretization floor
        msg = str(err.value)
        hit = re.fullmatch(rf"stalled for {minimizer.STALL_ITERS} steps at "
                           r"gnorm=(\S+), q_residual=\S+ "
                           r"\(tolerances 1e-30, 1e-30\)", msg)
        assert hit and float(hit.group(1)) > cfg.grad_tol


class TestNewtonFinish:
    def test_descent_alone_when_newton_cannot_solve(
            self, monkeypatch, p53, grid_solve, thresholds53):
        # every Newton attempt fails at its first solve, so the descent runs
        # to the default tolerances by itself and returns the descent-only
        # result bit for bit
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr(minimizer, "solve_banded", singular)
        _, c0, _ = thresholds53
        st = minimize(p53, grid_solve, 0.5 * c0)
        assert st.m.hex() == DESCENT_M
        assert st.lam.hex() == DESCENT_LAM
        assert st.iters == 18

    def test_rejected_finish_resumes_the_descent(
            self, monkeypatch, p53, grid_solve, thresholds53):
        # an energy guard no Newton result can pass: the loose-point finish
        # is thrown away and the descent goes on from the same state; its
        # solves still count as iterations
        monkeypatch.setattr(minimizer, "NEWTON_J_SLACK", -math.inf)
        _, c0, _ = thresholds53
        st = minimize(p53, grid_solve, 0.5 * c0)
        assert (st.m.hex(), st.lam.hex()) == (DESCENT_M, DESCENT_LAM)
        assert st.iters > 18

    def test_newton_agrees_with_descent(self, solved):
        # the finish lands on the descent-only minimizer above in fewer
        # iterations; the descent's lambda carried a 3e-7 relative error
        assert solved.iters < 18
        assert solved.m == pytest.approx(float.fromhex(DESCENT_M), rel=1e-11)
        assert solved.lam == pytest.approx(float.fromhex(DESCENT_LAM),
                                           rel=1e-6)

    @staticmethod
    def count_finishes(monkeypatch):
        calls = []
        real = minimizer._newton_finish

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(minimizer, "_newton_finish", counting)
        return calls

    def test_default_solve_hands_off_once(self, monkeypatch, p53, grid_solve,
                                          solved06):
        calls = self.count_finishes(monkeypatch)
        st = minimize(p53, grid_solve, 0.6)
        assert len(calls) == 1
        assert (st.m.hex(), st.iters) == (DEFAULT_M, DEFAULT_ITERS)
        assert np.array_equal(st.field.values, solved06.field.values)

    def test_stall_raises_without_another_newton_attempt(self, monkeypatch):
        # this draw reaches the loose point, Newton fails there, and the
        # resumed descent stalls: the stall is reported at once
        p = random_params(np.random.default_rng(3))
        grid = build_grid(p.N, 2049, 1000.0)
        calls = self.count_finishes(monkeypatch)
        with pytest.raises(ConvergenceError, match="stalled for"):
            minimize(p, grid, 0.5 * mass_threshold(p)[1])
        assert len(calls) == 1


class TestBendSafeguard:
    # the cap rho0 (1 - SAFEGUARD_MARGIN) binds only below the minimizer's
    # bend B: it is lowered to a fraction of B, above the seed's bend, and
    # the tolerances are loosened so that the descent can stop near the
    # cap, where the projected gradient cannot vanish
    LOOSE = SolverConfig(grad_tol=1e-7, q_tol=0.1)

    @staticmethod
    def cap_at(monkeypatch, p53, grid_solve, frac, bend):
        M, c0, _ = mass_threshold(p53)
        rho0 = frac * bend / (1.0 - minimizer.SAFEGUARD_MARGIN)
        monkeypatch.setattr(minimizer, "mass_threshold",
                            lambda params: (M, c0, rho0))
        _, start = seed(p53, (M, c0, rho0), 0.6, grid_solve)
        assert start.bend < rho0 < bend
        return rho0

    def test_binding_cap_is_reported(self, monkeypatch, p53, grid_solve,
                                     solved06):
        rho0 = self.cap_at(monkeypatch, p53, grid_solve, 0.95, solved06.bend)
        st = minimize(p53, grid_solve, 0.6, self.LOOSE)
        assert st.constraint_active is True
        assert st.bend < rho0 * (1.0 - minimizer.SAFEGUARD_MARGIN)

    def test_cap_binding_most_steps_raises(self, monkeypatch, p53, grid_solve,
                                           solved06):
        self.cap_at(monkeypatch, p53, grid_solve, 0.93, solved06.bend)
        with pytest.raises(ConvergenceError,
                           match=r"bend safeguard bound \d+ times over \d+ "
                                 "accepted steps"):
            minimize(p53, grid_solve, 0.6, self.LOOSE)

    @pytest.mark.parametrize("frac", [0.3, 0.95])
    def test_stall_at_the_cap_counts_the_rejections(self, monkeypatch, p53,
                                                    grid_solve, solved06,
                                                    frac):
        # under the default tolerances a descent pinned at the cap stalls
        # before the safeguard check can run; the stall message still
        # starts with "stalled" and counts the safeguard's rejections,
        # during the stalled steps and over the run
        self.cap_at(monkeypatch, p53, grid_solve, frac, solved06.bend)
        with pytest.raises(ConvergenceError) as err:
            minimize(p53, grid_solve, 0.6, SolverConfig())
        hit = re.fullmatch(
            rf"stalled for {minimizer.STALL_ITERS} steps at gnorm=\S+, "
            r"q_residual=\S+ \(tolerances 1e-08, 5e-07\); the bend "
            r"safeguard rejected (\d+) trial steps during them, (\d+) over "
            r"(\d+) accepted steps", str(err.value))
        assert hit, str(err.value)
        during, total, accepted = map(int, hit.groups())
        assert during <= total and total > 0 and accepted > 0
        assert (during > 0) == (frac == 0.3)

    def test_stall_away_from_the_cap_names_no_safeguard(self, p53,
                                                        grid_solve,
                                                        monkeypatch):
        monkeypatch.setattr(minimizer, "MAX_ITER", 400)
        cfg = SolverConfig(grad_tol=1e-30, q_tol=1e-30)
        with pytest.raises(ConvergenceError) as err:
            minimize(p53, grid_solve, 0.6, cfg)
        assert str(err.value).startswith("stalled for")
        assert "safeguard" not in str(err.value)


class TestScalingLaw:
    def test_pure_subcritical_scaling(self, p53, grid_solve, thresholds53):
        # the critical term is negligible at these masses, and for the pure
        # subcritical problem t u(s x) maps minimizers onto minimizers, so
        # m(c) / c^theta is common, theta = 1 + 4(q-2)/(8 - N(q-2)) = 7/3
        _, c0, _ = thresholds53
        N, q = p53.N, p53.q
        theta = 1.0 + 4.0 * (q - 2.0) / (8.0 - N * (q - 2.0))
        ratios = []
        for k in range(1, 10):
            c = 0.1 * k * c0
            ratios.append(minimize(p53, grid_solve, c).m / c ** theta)
        spread = (max(ratios) - min(ratios)) / abs(np.median(ratios))
        assert spread <= 1e-7


class TestFiberConsistency:
    def test_raises_without_fiber_minimum(self, p53, grid30):
        # amplitude pushes the negative terms past the bend: no crossing
        vals = 100.0 * np.exp(-0.5 * grid30.nodes ** 2)
        fld = RadialField(grid30, vals)
        b = norm_bundle(p53, fld)
        fake = GroundState(field=fld, c=b.mass, m=0.0, lam=0.0,
                           q_residual=1.0, bend=b.bend, iters=0,
                           constraint_active=False)
        with pytest.raises(ConvergenceError, match="no fiber minimum"):
            fiber_consistency(p53, fake)


class TestGnEstimate:
    def test_reference_value(self, p53, gn_grid):
        # the ascent fixed point is grid-insensitive once the optimizer
        # profile is resolved; reference from an n=1025, R=40 run
        got = estimate_gn_constant(p53, gn_grid)
        assert got == pytest.approx(GN_REF, rel=1e-12)

    def test_quotient_amplitude_invariance(self, p53, gn_grid):
        u = np.exp(-0.5 * gn_grid.nodes ** 2)
        q1 = _quotient_gn(p53, gn_grid, 3.0, u)
        q2 = _quotient_gn(p53, gn_grid, 3.0, 7.3 * u)
        assert q2 == pytest.approx(q1, rel=1e-12)

    def test_quotient_dilation_invariance(self, p53, gn_grid):
        # analytic Gaussian dilation, no interpolation: the quotient is
        # exactly scale-free in the continuum
        r2 = gn_grid.nodes ** 2
        q1 = _quotient_gn(p53, gn_grid, 3.0, np.exp(-0.5 * r2))
        q2 = _quotient_gn(p53, gn_grid, 3.0, np.exp(-0.5 * 1.7 * r2))
        assert q2 == pytest.approx(q1, rel=1e-6)

    def test_grid_estimate_can_lie_above_the_finer_grid(self):
        # no lower bound: at N = 5, q = 2.32 the estimate on the
        # estimated-mode grid GN_GRID exceeds the one at a quarter of its
        # spacing by 8.6e-9 relative
        p = LandscapeParams(N=5, q=2.0 + 0.2 * 8.0 / 5.0, mu=1.0)
        n, r_max = GN_GRID
        coarse = estimate_gn_constant(p, build_grid(5, n, r_max))
        fine = estimate_gn_constant(p, build_grid(5, 4 * n - 3, r_max))
        assert coarse / fine - 1.0 == pytest.approx(8.6e-9, rel=0.01)

    def test_improves_on_gaussian_start(self, p53, gn_grid):
        u = np.exp(-0.5 * gn_grid.nodes ** 2)
        assert estimate_gn_constant(p53, gn_grid) >= _quotient_gn(
            p53, gn_grid, 3.0, u) - 1e-15


def bubble_sobolev_quotient(N: int) -> float:
    """|U|_{4*} / |Delta U|_2 for the bubble U = (1 + r^2)^{-(N-4)/2}.

    int U^{4*} = omega_{N-1} B(N/2, N/2) / 2, and since
    Delta^2 U = (N-4)(N-2)N(N+2) U^{4*-1}, |Delta U|_2^2 is that factor
    times int U^{4*}.
    """
    p = 2.0 * N / (N - 4)
    area = 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)
    crit = area * math.gamma(N / 2.0) ** 2 / math.gamma(N) / 2.0
    bend = (N - 4) * (N - 2) * N * (N + 2) * crit
    return crit ** (1.0 / p) / math.sqrt(bend)


def tapered_bubble_quotient(grid, eps: float) -> float:
    # (eps + r^2)^{-(N-4)/2}, tapered to zero on [R/2, R] by a C^2
    # smoothstep: an admissible grid field, so its quotient is a lower bound
    N, r, R = grid.dim, grid.nodes, grid.r_max
    u = (eps + r ** 2) ** (-(N - 4) / 2.0)
    t = np.clip((r - R / 2.0) / (R / 2.0), 0.0, 1.0)
    u *= 1.0 - t ** 3 * (10.0 - 15.0 * t + 6.0 * t * t)
    lu = grid.lap_apply(u)
    p = 2.0 * N / (N - 4)
    crit = float(np.sum(grid.weights * u ** p))
    return crit ** (1.0 / p) / math.sqrt(float(np.sum(grid.weights * lu * lu)))


class TestSobolevEstimate:
    @staticmethod
    def law(N):
        return estimate_sobolev_constant(
            LandscapeParams(N=N, q=2.0 + 4.0 / N, mu=1.0))

    @pytest.mark.parametrize("N", range(5, 11))
    def test_law_matches_bubble_norms(self, N):
        ref = bubble_sobolev_quotient(N)
        assert self.law(N) == pytest.approx(ref, rel=1e-14, abs=0.0)
        # the comparison sees a law scaled by 1 + 1e-12
        assert self.law(N) * (1.0 + 1e-12) != pytest.approx(
            ref, rel=1e-14, abs=0.0)

    def test_law_ignores_everything_but_N(self):
        other = LandscapeParams(N=5, q=2.2, mu=7.0, C_gn=3.0, S_sob=0.5)
        assert estimate_sobolev_constant(other) == self.law(5)

    @pytest.mark.parametrize("N", range(5, 11))
    def test_grid_bubbles_stay_below_the_law(self, N):
        grid = build_grid(N, 1025, 64.0)
        best = max(tapered_bubble_quotient(grid, eps)
                   for eps in np.geomspace(0.05, 20.0, 9))
        assert 0.95 * self.law(N) < best <= self.law(N)


class TestNonnegPowerEndToEnd:
    """Solver and estimator results are bitwise those of plain au ** e."""

    @staticmethod
    def rebind(monkeypatch, fn):
        # every module binding of the helper, as `from .functionals import`
        # binds it under several module names
        orig = functionals.nonneg_power
        mods = [m for name, m in list(sys.modules.items())
                if name.startswith("bhgs")
                and getattr(m, "nonneg_power", None) is orig]
        assert {m.__name__ for m in mods} >= {"bhgs.functionals",
                                              "bhgs.minimizer"}
        for m in mods:
            monkeypatch.setattr(m, "nonneg_power", fn)

    def run_both(self, monkeypatch, fn):
        """(plain result, helper result, calls with lanes at or below the
        cut during the helper run)."""
        nonneg_power = functionals.nonneg_power
        masked = []

        def counting(au, e):
            if au.min() <= 2.0 ** (-1080.0 / e):
                masked.append(e)
            return nonneg_power(au, e)

        with monkeypatch.context() as m:
            self.rebind(m, lambda au, e: au ** e)
            plain = fn()
        with monkeypatch.context() as m:
            self.rebind(m, counting)
            real = fn()
        return plain, real, len(masked)

    @staticmethod
    def solve(params, grid, c):
        try:
            st = minimize(params, grid, c)
        except ConvergenceError as exc:
            return ("error", str(exc))
        return ("ok", st.field.values.tobytes(), st.m, st.lam, st.iters)

    @pytest.mark.parametrize("case, outcome", [
        ("default", "ok"),
        (4, "ok"),
        (3, "stalled for"),
        (1, "seed contraction"),
    ])
    def test_minimize(self, monkeypatch, case, outcome):
        cfg = load_config(env={})
        params = (cfg.problem() if case == "default"
                  else random_params(np.random.default_rng(case)))
        _, c0, _ = mass_threshold(params)

        def cold_solve():
            # a grid per run: the seed family held on a grid would let the
            # second run skip every power the first one took
            grid = build_grid(params.N, cfg.get_int("grid", "n"),
                              cfg.get_float("grid", "r_max"))
            return self.solve(params, grid, 0.5 * c0)

        plain, real, masked = self.run_both(monkeypatch, cold_solve)
        assert real == plain
        assert masked > 0
        if outcome == "ok":
            assert real[0] == "ok"
        else:
            assert real[0] == "error" and outcome in real[1]

    def test_estimators(self, monkeypatch):
        # the Sobolev constant is a closed form with no field to mask
        probe = load_config(env={}).problem()
        gn_grid = build_grid(probe.N, *GN_GRID)
        plain, real, masked = self.run_both(
            monkeypatch, lambda: estimate_gn_constant(probe, gn_grid))
        assert real.hex() == plain.hex()
        assert masked > 0
