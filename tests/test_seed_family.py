"""Oracles for the per-grid caches of the solver's fixed work.

The code each cache replaced is kept below as the reference:

- seed, which skips a trial whose held bundle, scaled to mass c, fails
  J < 0 or the bend cap, against the plain loop that runs every trial in
  full. The two agree except within some hundred ulps of a mass where a
  trial's J or bend crosses its bound; there seed may return the next
  trial, and every seed must still pass both conditions in full. Masses
  where the prediction is unsettled (a scaled norm out of range, a power
  that overflows) must run the trial in full;
- the trials held per (grid geometry, q) (_seed_trials) and the norms held
  per grid geometry (_trial_norms), against norm_bundle of each trial
  profile;
- _seed_profile, with exp taken only where it does not underflow, against
  the full-grid expression;
- the preconditioner's band a W + L^T W L, which cholesky_banded forms
  from the grid's held shift-free band (its Newton band), against the
  loop that built the whole band on every call.
"""
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bhgs import (ConvergenceError, DomainError, LandscapeParams, NormBundle,
                  RadialField, RadialGrid, build_grid, energy, mass_threshold,
                  minimize, minimizer, norm_bundle)
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
        "seed",
        "seed contraction did not reach J < 0 and bend < rho0 in 60 halvings")


def ref_precond_band(grid, a):
    n, D, w = grid.n, grid.lap_band, grid.weights
    DW = D * w
    ab = np.zeros((5, n))
    for d in range(5):
        acc = np.zeros(n + 4)
        for t in range(-2, 3 - d):
            acc[t + 2:t + 2 + n] += DW[t + 2] * D[t + d + 2]
        if d == 0:
            acc[2:n + 2] += a * w
        ab[d, :n - d] = acc[2:n + 2 - d]
    return ab


def outcome(fn, *args):
    # the field's bytes and its bundle, or the error's type and message
    try:
        fld, b = fn(*args)
        return ("ok", fld.values.tobytes(), b)
    except (ConvergenceError, DomainError, ZeroDivisionError) as exc:
        return (type(exc).__name__, str(exc))


@pytest.fixture()
def extend_count(monkeypatch):
    """calls[0] counts the trials seed adds to the held table."""
    calls = [0]
    real = minimizer._hold_trial

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(minimizer, "_hold_trial", counting)
    return calls


@pytest.fixture()
def fresh_trials():
    """An empty table of held seed trials for the test, emptied again
    after it."""
    minimizer._seed_trials.cache_clear()
    yield
    minimizer._seed_trials.cache_clear()


def held(params, grid):
    """The trials held for the grid's geometry and params.q."""
    return minimizer._seed_trials(grid.dim, grid.n, grid.r_max, params.q)[1]


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

# grids shared by the draws below, so later draws meet held trials; the
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


def test_short_grid_fails_as_the_plain_loop_does(p53, thresholds53,
                                                 fresh_trials):
    grid = build_grid(5, 1025, 12.0)
    for frac in (0.05, 0.5, 0.95):
        c = frac * thresholds53[1]
        want = outcome(ref_seed, p53, thresholds53, c, grid)
        assert want[0] == "ConvergenceError"
        # cold, then with all 60 trials held
        assert outcome(minimizer.seed, p53, thresholds53, c, grid) == want
    assert len(held(p53, grid)) == 60


def test_mass_outside_range_and_dimension_mismatch(p53, thresholds53,
                                                   fresh_trials):
    grid = build_grid(6, 2049, 1000.0)
    for c in (0.0, thresholds53[1], 0.5 * thresholds53[1]):
        got = outcome(minimizer.seed, p53, thresholds53, c, grid)
        assert got == outcome(ref_seed, p53, thresholds53, c, grid)
        assert got[0] == "DomainError"
    # a rejected request holds no trials
    assert minimizer._seed_trials.cache_info().currsize == 0


@pytest.mark.parametrize("params", [
    LandscapeParams(N=5, q=3.0, mu=1.0),
    random_params(np.random.default_rng(4)),
], ids=["default", "draw4"])
def test_warm_calls_make_at_most_two_bundle_evaluations(params, bundle_count,
                                                       extend_count,
                                                       fresh_trials):
    grid = build_grid(params.N, 2049, 1000.0)
    th = mass_threshold(params)
    fracs = [0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95]
    # the smallest mass contracts furthest, so it holds every trial the
    # others reach, each once
    minimizer.seed(params, th, fracs[0] * th[1], grid)
    cold = extend_count[0]
    assert cold == len(held(params, grid)) > 0
    for frac in fracs:
        bundle_count[0] = extend_count[0] = 0
        got = outcome(minimizer.seed, params, th, frac * th[1], grid)
        assert bundle_count[0] <= 2 and extend_count[0] == 0
        assert got == outcome(ref_seed, params, th, frac * th[1], grid)


def test_ascending_and_descending_masses_solve_alike(p53, thresholds53):
    c0 = thresholds53[1]
    masses = [f * c0 for f in (0.07, 0.2, 0.45, 0.8)]

    def solve_all(order):
        minimizer._seed_trials.cache_clear()
        grid = build_grid(5, 2049, 1000.0)
        out = {}
        for c in order:
            st_ = minimize(p53, grid, c)
            out[c] = (st_.field.values.tobytes(), st_.m.hex(), st_.lam.hex(),
                      st_.iters)
        return out

    assert solve_all(masses) == solve_all(masses[::-1])


def test_each_q_has_its_own_family(fresh_trials):
    grid = build_grid(5, 2049, 1000.0)
    a = LandscapeParams(N=5, q=3.0, mu=1.0)
    b = LandscapeParams(N=5, q=2.5, mu=1.0)
    for params in (a, b, a, b):
        th = mass_threshold(params)
        for frac in (0.2, 0.6):
            assert outcome(minimizer.seed, params, th, frac * th[1], grid) \
                == outcome(ref_seed, params, th, frac * th[1], grid)
    # two entries, each made once while the four params alternate
    info = minimizer._seed_trials.cache_info()
    assert info.currsize == info.misses == 2
    assert held(a, grid) is not held(b, grid)


def assert_trials_are_bundles(params, grid, trials):
    # each held mass and bundle is bitwise norm_bundle's of its trial
    for k, (mass, b) in enumerate(trials):
        want = norm_bundle(params, RadialField(
            grid, minimizer._seed_profile(grid, k)))
        assert mass.hex() == want.mass.hex()
        assert ([x.hex() for x in (b.mass, b.bend, b.subcrit, b.crit)]
                == [x.hex() for x in (want.mass, want.bend, want.subcrit,
                                      want.crit)])


@pytest.fixture()
def lap_applies(monkeypatch):
    """The grids, by id, of every lap_apply call."""
    grids = []
    real = RadialGrid.lap_apply

    def recording(self, *args, **kwargs):
        grids.append(id(self))
        return real(self, *args, **kwargs)

    monkeypatch.setattr(RadialGrid, "lap_apply", recording)
    return grids


@pytest.mark.parametrize("N", range(5, 11))
def test_trial_norms_are_held_per_geometry(N, lap_applies):
    # trials held anew on a second grid of one geometry read every trial's
    # mass, bend and critical norm from the geometry's table: they take no
    # Laplacian, and every bundle is bitwise norm_bundle's of the trial
    # profile
    grids = [build_grid(N, 2049, 1000.0) for _ in range(2)]
    for t in (0.1, 0.5, 0.9):
        params = LandscapeParams(N=N, q=2.0 + t * 8.0 / N, mu=1.0)
        for grid in grids:
            lap_applies.clear()
            trials = held_trials(params, grid)
            assert grid is grids[0] or id(grid) not in lap_applies
            assert_trials_are_bundles(params, grid, trials)
    info = minimizer._trial_norms.cache_info()
    assert 0 < info.currsize <= info.maxsize == 64


def test_trial_norm_table_stays_within_its_bound(p53, fresh_trials):
    # 70 geometries, one radius apart, fill the geometry table to its 64
    # keys, each with its own norms, and the trial table to its 2; an
    # entry whose geometry was dropped from both keeps its norms and grows
    # on, bitwise
    first = build_grid(5, 64, 1.0)
    entry = minimizer._seed_trials(5, 64, 1.0, p53.q)
    minimizer._hold_trial(p53, first, entry)
    for i in range(70):
        grid = build_grid(5, 64, 2.0 + i)
        other = minimizer._seed_trials(5, 64, grid.r_max, p53.q)
        minimizer._hold_trial(p53, grid, other)
        assert_trials_are_bundles(p53, grid, other[1])
    info = minimizer._trial_norms.cache_info()
    assert info.currsize == info.maxsize == 64
    info = minimizer._seed_trials.cache_info()
    assert info.currsize == info.maxsize == 2
    for _ in range(4):
        minimizer._hold_trial(p53, first, entry)
    assert_trials_are_bundles(p53, first, entry[1])


def test_held_trials_reference_no_grid(p53, thresholds53, fresh_trials):
    grid = build_grid(5, 2049, 1000.0)
    minimizer.seed(p53, thresholds53, 0.3 * thresholds53[1], grid)
    norms, trials = minimizer._seed_trials(5, 2049, 1000.0, p53.q)
    assert trials and all(
        type(mass) is float and (b is None or type(b) is NormBundle)
        for mass, b in trials)
    assert all(type(x) is float for row in norms for x in row)
    ref = weakref.ref(grid)
    gc.disable()
    try:
        del grid
        # no cycle and no module-level reference keeps the grid alive
        assert ref() is None
    finally:
        gc.enable()


def test_second_grid_of_one_geometry_and_q_sums_no_power(
        p53, thresholds53, fresh_trials, monkeypatch):
    # trials held on one grid serve every grid of its geometry and q: a
    # second grid's seed takes no power sum for them, and its seed is
    # still the plain loop's
    c = 0.05 * thresholds53[1]
    minimizer.seed(p53, thresholds53, c, build_grid(5, 2049, 1000.0))
    reached = len(held(p53, build_grid(5, 2049, 1000.0)))
    calls = [0]
    real = minimizer.nonneg_power

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(minimizer, "nonneg_power", counting)
    grid = build_grid(5, 2049, 1000.0)
    for frac in (0.05, 0.3, 0.9):
        got = outcome(minimizer.seed, p53, thresholds53,
                      frac * thresholds53[1], grid)
        assert got == outcome(ref_seed, p53, thresholds53,
                              frac * thresholds53[1], grid)
    assert calls[0] == 0 and len(held(p53, grid)) == reached > 0


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


def predicted_energy(params, trials, k, c):
    # J of trial k's held bundle scaled to mass c, as _trial_fails has it
    mass, b = trials[k]
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
    trials = held(p53, grid)
    wrong_sign = 0
    for j in range(-300, 300):
        c = lo * (1.0 + j * 2.0 ** -52)
        fld, b = minimizer.seed(p53, thresholds53, c, grid)
        assert b == norm_bundle(p53, fld)
        assert energy(p53, b) < 0.0 and b.bend < bend_cap
        assert fld.values.tobytes() in {
            full_trial_field(grid, k, c).values.tobytes() for k in (12, 13)}
        J_p = predicted_energy(p53, trials, 12, c)
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


def held_trials(params, grid):
    # every trial held for the grid's geometry and params.q, in a table
    # emptied first
    minimizer._seed_trials.cache_clear()
    entry = minimizer._seed_trials(grid.dim, grid.n, grid.r_max, params.q)
    for _ in range(minimizer.SEED_TRIALS):
        minimizer._hold_trial(params, grid, entry)
    return entry[1]


def test_a_tiny_mass_runs_every_trial_in_full(p53, thresholds53,
                                              full_trials):
    # at c = 1e-300 every scaled norm lies below 2^-900, where the
    # prediction is not trusted
    grid = build_grid(5, 2049, 1000.0)
    held_trials(p53, grid)
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
    trials = held_trials(params, grid)
    c = trials[59][0] * 2.0 ** 300
    assert c < th[1]
    with pytest.raises(OverflowError):
        scaled_norms(params, trials[59][1], c / trials[59][0], 1.0)
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
def test_preconditioner_band_matches_the_loop(N, n, r_max, monkeypatch):
    # the band cholesky_banded hands to the factor, a fresh array per
    # call, whose writes reach neither the next call nor the held band
    grid = build_grid(N, n, r_max)
    seen = []

    def capture(ab):
        seen.append(ab)
        return np.empty(0, dtype=np.int64)

    monkeypatch.setattr(minimizer, "ldlt_banded", capture)
    for a in (0.0, -0.0, 0.37, 1e3, -2.5e-3, -7.0):
        minimizer.cholesky_banded(grid, a)
        assert seen[-1].tobytes() == ref_precond_band(grid, a).tobytes()
        seen[-1][:] = 1.0
        minimizer.cholesky_banded(grid, a)
        assert seen[-1].tobytes() == ref_precond_band(grid, a).tobytes()
    with pytest.raises(ValueError):
        grid.newton_band[0, 0] = 1.0
