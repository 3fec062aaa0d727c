"""Oracles for the per-grid caches of the solver's fixed work.

The code each cache replaced is kept below as the reference:

- seed, which skips a trial whose held bundle, scaled to mass c, fails
  J < 0 or the bend cap, against the plain loop that runs every trial in
  full. The two agree except within some hundred ulps of a mass where a
  trial's J or bend crosses its bound; there seed may return the next
  trial, and every seed must still pass both conditions in full. Masses
  where the prediction is unsettled (a scaled norm out of range, a power
  that overflows) must run the trial in full;
- _seed_profile, with exp taken only where it does not underflow, against
  the full-grid expression;
- normal_band from the held shift-free band against the loop that built
  the whole band on every call.
"""
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bhgs import (ConvergenceError, DomainError, LandscapeParams, NormBundle,
                  RadialField, build_grid, energy, mass_threshold, minimize,
                  minimizer, norm_bundle)
from bhgs.functionals import scaled_norms
from bhgs.verify import random_params

# ---------------------------------------------------------------- references


def ref_seed(params, thresholds, c, grid):
    _, c0, rho0 = thresholds
    if not (0 < c < c0):
        raise DomainError(f"mass must lie in (0, c0={c0}), got {c}")
    N = grid.dim
    r2 = grid.nodes ** 2
    bend_cap = rho0 * (1.0 - minimizer.SAFEGUARD_MARGIN)
    s = 1.0
    for _ in range(60):
        prof = s ** (N / 4.0) * np.exp(-s * r2 / 2.0)
        mass = float(np.sum(grid.weights * prof * prof))
        prof *= math.sqrt(c / mass)
        fld = RadialField(grid, prof)
        b = norm_bundle(params, fld)
        if energy(params, b) < 0.0 and b.bend < bend_cap:
            return fld, b
        s *= 0.5
    raise ConvergenceError(
        "seed contraction did not reach J < 0 and bend < rho0 in 60 halvings")


def ref_normal_band(grid, a):
    n, D, w = grid.n, grid.lap_band, grid.weights
    DW = D * w
    ab = np.zeros((5, n))
    for d in range(5):
        acc = np.zeros(n + 4)
        for t in range(-2, 3 - d):
            acc[t + 2:t + 2 + n] += DW[t + 2] * D[t + d + 2]
        if d == 0:
            acc[2:n + 2] += a * w
        ab[4 - d, d:] = acc[2:n + 2 - d]
    return ab


def outcome(fn, *args):
    # the field's bytes and its bundle, or the error's type and message
    try:
        fld, b = fn(*args)
        return ("ok", fld.values.tobytes(), b)
    except (ConvergenceError, DomainError, ZeroDivisionError) as exc:
        return (type(exc).__name__, str(exc))


@pytest.fixture()
def bundle_count(monkeypatch):
    """calls[0] counts the grid bundle evaluations seed makes."""
    calls = [0]
    real = minimizer.norm_bundle

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(minimizer, "norm_bundle", counting)
    return calls


# ------------------------------------------------------------- seed family

# grids shared by the draws below, so later draws meet warm families; the
# short grid is one on which the contraction fails for most draws
GRID_SHAPES = [(2049, 1000.0), (8193, 1000.0), (1025, 12.0)]
_GRIDS = {}


def shared_grid(N, shape):
    key = (N,) + shape
    if key not in _GRIDS:
        _GRIDS[key] = build_grid(N, *shape)
    return _GRIDS[key]


@st.composite
def domain_params(draw):
    # the domain workload's marginals: N 5-10, the full q range, mu
    # 0.1-10, C_gn and S_sob 0.5-2, all log-uniform in the scale knobs
    N = draw(st.integers(min_value=5, max_value=10))
    t = draw(st.floats(min_value=0.001, max_value=0.999))
    mu = math.exp(draw(st.floats(min_value=math.log(0.1),
                                 max_value=math.log(10.0))))
    c_gn, s_sob = (math.exp(draw(st.floats(min_value=math.log(0.5),
                                           max_value=math.log(2.0))))
                   for _ in range(2))
    return LandscapeParams(N=N, q=2.0 + t * 8.0 / N, mu=mu, C_gn=c_gn,
                           S_sob=s_sob)


@settings(max_examples=250, deadline=None)
@given(domain_params(), st.floats(min_value=0.05, max_value=0.95),
       st.sampled_from(GRID_SHAPES))
def test_seed_matches_the_plain_loop(params, frac, shape):
    grid = shared_grid(params.N, shape)
    th = mass_threshold(params)
    c = frac * th[1]
    assert outcome(minimizer.seed, params, th, c, grid) == \
        outcome(ref_seed, params, th, c, grid)


def test_short_grid_fails_as_the_plain_loop_does(p53, thresholds53):
    grid = build_grid(5, 1025, 12.0)
    for frac in (0.05, 0.5, 0.95):
        c = frac * thresholds53[1]
        want = outcome(ref_seed, p53, thresholds53, c, grid)
        assert want[0] == "ConvergenceError"
        # cold, then with all 60 trials held
        assert outcome(minimizer.seed, p53, thresholds53, c, grid) == want
    assert len(grid.seed_families[p53.q].trials) == 60


def test_mass_outside_range_and_dimension_mismatch(p53, thresholds53):
    grid = build_grid(6, 2049, 1000.0)
    for c in (0.0, thresholds53[1], 0.5 * thresholds53[1]):
        got = outcome(minimizer.seed, p53, thresholds53, c, grid)
        assert got == outcome(ref_seed, p53, thresholds53, c, grid)
        assert got[0] == "DomainError"
    # a grid of another dimension holds no family for these params
    assert grid.seed_families == {}


@pytest.mark.parametrize("params", [
    LandscapeParams(N=5, q=3.0, mu=1.0),
    random_params(np.random.default_rng(4)),
], ids=["default", "draw4"])
def test_warm_calls_make_at_most_two_bundle_evaluations(params, bundle_count):
    grid = build_grid(params.N, 2049, 1000.0)
    th = mass_threshold(params)
    fracs = [0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95]
    # the smallest mass contracts furthest, so it holds every trial the
    # others reach
    minimizer.seed(params, th, fracs[0] * th[1], grid)
    cold = bundle_count[0]
    assert cold >= len(grid.seed_families[params.q].trials)
    for frac in fracs:
        bundle_count[0] = 0
        got = outcome(minimizer.seed, params, th, frac * th[1], grid)
        assert bundle_count[0] <= 2
        assert got == outcome(ref_seed, params, th, frac * th[1], grid)


def test_ascending_and_descending_masses_solve_alike(p53, thresholds53):
    c0 = thresholds53[1]
    masses = [f * c0 for f in (0.07, 0.2, 0.45, 0.8)]

    def solve_all(order):
        grid = build_grid(5, 2049, 1000.0)
        out = {}
        for c in order:
            st_ = minimize(p53, grid, c)
            out[c] = (st_.field.values.tobytes(), st_.m.hex(), st_.lam.hex(),
                      st_.iters)
        return out

    assert solve_all(masses) == solve_all(masses[::-1])


def test_each_q_has_its_own_family():
    grid = build_grid(5, 2049, 1000.0)
    a = LandscapeParams(N=5, q=3.0, mu=1.0)
    b = LandscapeParams(N=5, q=2.5, mu=1.0)
    for params in (a, b, a, b):
        th = mass_threshold(params)
        for frac in (0.2, 0.6):
            assert outcome(minimizer.seed, params, th, frac * th[1], grid) \
                == outcome(ref_seed, params, th, frac * th[1], grid)
    fam = grid.seed_families
    assert set(fam) == {3.0, 2.5} and fam[3.0] is not fam[2.5]


def test_families_live_and_die_with_their_grid(p53, thresholds53):
    grid = build_grid(5, 2049, 1000.0)
    minimizer.seed(p53, thresholds53, 0.3 * thresholds53[1], grid)
    family = weakref.ref(grid.seed_families[p53.q])
    held = weakref.ref(grid)
    # an equal grid starts empty
    assert build_grid(5, 2049, 1000.0).seed_families == {}
    gc.disable()
    try:
        del grid
        # no cycle and no module-level reference keeps either alive
        assert held() is None and family() is None
    finally:
        gc.enable()


def full_trial_field(grid, k, c):
    # trial k's field at mass c, computed as ref_seed does
    s = 0.5 ** k
    prof = s ** (grid.dim / 4.0) * np.exp(-s * grid.nodes ** 2 / 2.0)
    prof *= math.sqrt(c / float(np.sum(grid.weights * prof * prof)))
    return RadialField(grid, prof)


def full_trial(params, grid, k, c):
    # J and bend of trial k at mass c, computed as ref_seed does
    b = norm_bundle(params, full_trial_field(grid, k, c))
    return energy(params, b), b.bend


def predicted_energy(params, family, k, c):
    # J of trial k's held bundle scaled to mass c, as _SeedFamily.fails has it
    mass, b = family.trials[k]
    t = math.sqrt(c / mass)
    _, bend, sub, crit = scaled_norms(params, b, t * t, 1.0)
    return energy(params, NormBundle(c, bend, sub, crit))


def test_seed_where_the_prediction_gets_the_sign_of_J_wrong(p53,
                                                            thresholds53):
    # trial 12's J changes sign near c = 0.067 c0 on the production grid,
    # where seed's answer moves between trials 12 and 13. Within some
    # hundred ulps of that mass the held prediction and the full trial
    # disagree on the sign of J, so seed may skip trial 12 where the plain
    # loop returns it; every seed must still be trial 12 or 13 and pass
    # J < 0 and the bend cap in full
    grid = build_grid(5, 2049, 1000.0)
    c0, rho0 = thresholds53[1:]
    bend_cap = rho0 * (1.0 - minimizer.SAFEGUARD_MARGIN)
    lo, hi = 0.05 * c0, 0.08 * c0
    assert full_trial(p53, grid, 12, lo)[0] > 0 > full_trial(p53, grid, 12,
                                                             hi)[0]
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if full_trial(p53, grid, 12, mid)[0] > 0 \
            else (lo, mid)
    minimizer.seed(p53, thresholds53, lo, grid)
    family = grid.seed_families[p53.q]
    wrong_sign = 0
    for j in range(-300, 300):
        c = lo * (1.0 + j * 2.0 ** -52)
        fld, b = minimizer.seed(p53, thresholds53, c, grid)
        assert b == norm_bundle(p53, fld)
        assert energy(p53, b) < 0.0 and b.bend < bend_cap
        assert fld.values.tobytes() in {
            full_trial_field(grid, k, c).values.tobytes() for k in (12, 13)}
        J_p = predicted_energy(p53, family, 12, c)
        wrong_sign += (J_p > 0) != (full_trial(p53, grid, 12, c)[0] > 0)
    assert wrong_sign > 0


@pytest.fixture()
def full_trials(monkeypatch):
    """The trial indices seed runs in full, once every trial is held."""
    runs = []
    real = minimizer._seed_profile

    def recording(grid, k):
        runs.append(k)
        return real(grid, k)

    monkeypatch.setattr(minimizer, "_seed_profile", recording)
    return runs


def held_family(params, grid):
    family = grid.seed_families[params.q] = minimizer._SeedFamily()
    for _ in range(minimizer.SEED_TRIALS):
        family.extend(params, grid)
    return family


def test_a_tiny_mass_runs_every_trial_in_full(p53, thresholds53,
                                              full_trials):
    # at c = 1e-300 every scaled norm lies below 2^-900, where the
    # prediction is not trusted
    grid = build_grid(5, 2049, 1000.0)
    held_family(p53, grid)
    full_trials.clear()
    got = outcome(minimizer.seed, p53, thresholds53, 1e-300, grid)
    assert full_trials == list(range(minimizer.SEED_TRIALS))
    assert got == outcome(ref_seed, p53, thresholds53, 1e-300, grid)


def test_a_power_past_float_range_runs_the_trial_in_full(full_trials):
    # trial 59 (max P = 2^-73.75) at a mass 2^300 times its profile's:
    # the critical norm's factor t2^(4*/2) = 2^1500 overflows. A tiny mu
    # puts that mass below c0
    params = LandscapeParams(N=5, q=3.0, mu=1e-60)
    th = mass_threshold(params)
    grid = build_grid(5, 2049, 1000.0)
    family = held_family(params, grid)
    c = family.trials[59][0] * 2.0 ** 300
    assert c < th[1]
    with pytest.raises(OverflowError):
        scaled_norms(params, family.trials[59][1], c / family.trials[59][0],
                     1.0)
    full_trials.clear()
    got = outcome(minimizer.seed, params, th, c, grid)
    assert 59 in full_trials
    assert got == outcome(ref_seed, params, th, c, grid)


# -------------------------------------------------------- profile and band

@pytest.mark.parametrize("N,n,r_max", [(5, 2049, 1000.0), (10, 8193, 1000.0),
                                       (7, 1025, 12.0)])
def test_seed_profile_matches_the_full_grid_expression(N, n, r_max):
    grid = build_grid(N, n, r_max)
    r2 = grid.nodes ** 2
    s = 1.0
    for k in range(60):
        want = s ** (N / 4.0) * np.exp(-s * r2 / 2.0)
        assert minimizer._seed_profile(grid, k).tobytes() == want.tobytes()
        s *= 0.5


@pytest.mark.parametrize("N,n,r_max", [(5, 1025, 12.0), (7, 2049, 1000.0)])
def test_normal_band_matches_the_loop(N, n, r_max):
    grid = build_grid(N, n, r_max)
    for a in (0.0, -0.0, 0.37, 1e3, -2.5e-3, -7.0):
        got = grid.normal_band(a)
        assert got.tobytes() == ref_normal_band(grid, a).tobytes()
        got[:] = 1.0
        assert grid.normal_band(a).tobytes() == \
            ref_normal_band(grid, a).tobytes()
    with pytest.raises(ValueError):
        grid._normal_band0[4, 0] = 1.0
