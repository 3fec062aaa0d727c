"""Oracles for the kernels of a Newton-first solve.

Each kernel is held to the code it replaced, kept below as the reference:

- the grid's held Newton band (RadialGrid.newton_band), which each Newton
  step copies whole, against the (5, n) shift-free upper band and the loop
  that mirrors it into lower storage, bit for bit; the Newton step itself
  against a step that assembles K that way on every step; and its factor
  record's y = K^-1 W u against K assembled that way;
- fiber.fiber_minimum, which brackets s1 alone, against analyze_fiber's
  s1 computed beside s2, by float.hex, also where psi' has no zero or a
  double one; and analyze_fiber, built on it, against the same reference.
  The reference bisects a closure over the scaled xi with the generic
  loop (propstrat.ref_bisect), so both also pin fiber's one bisection
  (fiber._xi_zero), which takes the sign at its lower end from the
  branch;
- grid.interpolate, which accumulates in place on offset views, against
  the four Lagrange weights written out one by one, bit for bit, on
  ascending and shuffled radii, inside and past R, and on a scalar radius;
- minimizer._gaussian_s1 on a grid, which bundles the held unit Gaussian
  (minimizer._unit_gaussian), against a field built for every call, by
  float.hex; with the held field one per grid, read-only, and, with the
  cycle collector off, no dropped grid kept alive but the last;
- the nonlinear terms, which read one held pair |u|^(q-2), |u|^(4*-2)
  (functionals.nonlinear_powers), against the six powers they took before:
  the bundle's subcrit and crit, the gradient, W f'(u), the diagonal of K
  as minimizer._assemble_k builds it and the gradient of q_residual, each
  within 8 ulps of the magnitude of the terms it sums, componentwise for
  vectors.
"""
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from bhgs import (LandscapeParams, NormBundle, RadialField, build_grid,
                  mass_threshold, minimizer)
from bhgs import fiber, functionals, grid as grid_mod
from bhgs.fiber import FiberAnalysis
from bhgs.functionals import (l2_gradient, nonlinear_diagonal, nonneg_power,
                              norm_bundle, pohozaev, pohozaev_coefficient,
                              q_residual_gradient, scaled_norms)
from bhgs.landscape import ConvergenceError, DomainError, derive_exponents
from propstrat import bundle_st, params_st, ref_bisect

# ---------------------------------------------------------------- references


def ref_upper_band0(grid):
    # L^T W L in upper band storage, row 4 - d holding P[j, j+d]
    n, D, w = grid.n, grid.lap_band, grid.weights
    DW = D * w
    ab = np.zeros((5, n))
    for d in range(5):
        acc = np.zeros(n + 4)
        for t in range(-2, 3 - d):
            acc[t + 2:t + 2 + n] += DW[t + 2] * D[t + d + 2]
        ab[4 - d, d:] = acc[2:n + 2 - d]
    return ab


def ref_assemble(grid, ab, shift):
    # K's lower band: the shift-free upper band mirrored row by row, its
    # diagonal shifted
    n = grid.n
    upper = ref_upper_band0(grid)
    for d in range(5):
        ab[d, :n - d] = upper[4 - d, d:]
        ab[d, n - d:] = 0.0
    ab[0] += shift
    return ab


def ref_newton_step(params, c, fld, g_proj, lam_hat, ab):
    grid = fld.grid
    w = grid.weights
    q, p = params.q, params.p_crit
    u = fld.values
    ref_assemble(grid, ab, -lam_hat * w)
    au = np.abs(u)
    ab[0] -= w * (params.mu * (q - 1.0) * nonneg_power(au, q - 2.0)
                  + (p - 1.0) * nonneg_power(au, p - 2.0))
    wu = w * u
    flips = minimizer.ldlt_banded(ab)
    x = minimizer.ldlt_solve_banded(ab, flips, -w * g_proj)
    y = minimizer.ldlt_solve_banded(ab, flips, wu.copy())
    cand = u + x - (np.dot(wu, x) / np.dot(wu, y)) * y
    mass = float(np.add.reduce(grid.weights * cand * cand))
    if not 0.0 < mass < math.inf:
        return None, (ab, flips, y)
    cand *= math.sqrt(c / mass)
    return cand, (ab, flips, y)


def ref_analyze_fiber(params, b):
    # analyze_fiber as it bracketed s1 and s2 in one body
    fiber._require_nondegenerate(b)
    s_star = fiber.xi_turning_point(params, b)
    logs = fiber._xi_logs(params, b)

    def f(s):
        return fiber._xi_scaled(logs, s)

    xs = f(s_star)
    if abs(xs) <= 1e-12:
        p = fiber.psi(params, b, s_star)
        return FiberAnalysis(s_turn=s_star, s1=s_star, s2=s_star,
                             kind1=fiber.KIND_TANGENT,
                             kind2=fiber.KIND_TANGENT,
                             psi_at_s1=p, psi_at_s2=p)
    if xs < 0:
        return FiberAnalysis(s_turn=s_star, s1=None, s2=None,
                             kind1=None, kind2=None,
                             psi_at_s1=None, psi_at_s2=None)
    lo = s_star
    while f(lo) > 0:
        lo /= 10.0
        if lo < 1e-300:
            raise DomainError("fiber zero below float range")
    s1 = ref_bisect(f, lo, s_star)
    hi = s_star
    while f(hi) > 0:
        hi *= 2.0
        if hi > 1e300:
            raise DomainError("fiber zero above float range")
    s2 = ref_bisect(f, s_star, hi)
    return FiberAnalysis(s_turn=s_star, s1=s1, s2=s2,
                         kind1=fiber.KIND_MIN, kind2=fiber.KIND_MAX,
                         psi_at_s1=fiber.psi(params, b, s1),
                         psi_at_s2=fiber.psi(params, b, s2))


def ref_interpolate(v, h, r):
    n = len(v)
    x = np.asarray(r, dtype=float) / h
    inside = x <= n - 1
    x = x[inside]
    j = np.floor(x).astype(np.intp)
    t = x - j
    padded = np.zeros(n + 3)
    padded[0] = v[1]
    padded[1:n + 1] = v
    out = np.zeros(inside.shape)
    out[inside] = (-t * (t - 1.0) * (t - 2.0) / 6.0 * padded[j]
                   + (t + 1.0) * (t - 1.0) * (t - 2.0) / 2.0 * padded[j + 1]
                   - (t + 1.0) * t * (t - 2.0) / 2.0 * padded[j + 2]
                   + (t + 1.0) * t * (t - 1.0) / 6.0 * padded[j + 3])
    return out


def hexes(fa):
    return tuple(x.hex() if isinstance(x, float) else x
                 for x in (fa.s_turn, fa.s1, fa.s2, fa.kind1, fa.kind2,
                           fa.psi_at_s1, fa.psi_at_s2))


# --------------------------------------------------------------- held band

@pytest.mark.parametrize("n", [1025, 2049, 8193])
@pytest.mark.parametrize("N", range(5, 11))
def test_held_band_matches_the_mirror_loop(N, n):
    grid = build_grid(N, n, 1000.0)
    band = grid.newton_band
    assert band.shape == (5, n) and band.flags.f_contiguous
    want = ref_assemble(grid, np.zeros((5, n), order="F"), 0.0)
    assert band.tobytes() == want.tobytes()
    assert grid.newton_band is band
    with pytest.raises(ValueError):
        band[0, 0] = 1.0
    with pytest.raises(ValueError):
        np.copyto(band, 0.0)


def at_mass(grid, prof, c):
    prof *= math.sqrt(c / float(np.add.reduce(grid.weights * prof * prof)))
    return RadialField(grid, prof)


def step_starts():
    """(params, c, fld) of Newton starts: the (N, q) profile moved to a
    solve-fine and a domain-grid draw at 0.1 and 0.9 c0, and a wide
    Gaussian at 0.5 c0."""
    out = []
    for (N, q, mu, cgn, ssob), n in (((5, 3.0, 1.0, 1.0, 1.0), 8193),
                                     ((6, 2.7867872978254513,
                                       2.864976431462965, 0.6487804026934516,
                                       0.5397238160315453), 2049)):
        p = LandscapeParams(N=N, q=q, mu=mu, C_gn=cgn, S_sob=ssob)
        grid = build_grid(N, n, 1000.0)
        c0 = mass_threshold(p)[1]
        values, _ = minimizer._profile(N, q)
        h = minimizer.PROFILE_R / (len(values) - 1)
        for f in (0.1, 0.9):
            c = f * c0
            s1 = minimizer._gaussian_s1(p, c)
            prof = grid_mod.interpolate(values, h, grid.nodes * math.sqrt(s1))
            out.append((p, c, at_mass(grid, prof, c)))
        prof = minimizer._gaussian(grid, 1e-3)
        out.append((p, 0.5 * c0, at_mass(grid, prof, 0.5 * c0)))
    return out


def test_newton_step_matches_the_mirror_loop_step():
    # three steps from each start: the same iterates bit for bit, through
    # the same factor records
    for p, c, fld in step_starts():
        n = fld.grid.n
        work = [np.empty((5, n), order="F") for _ in range(2)]
        for _ in range(3):
            b = minimizer.norm_bundle(p, fld)
            g_proj, lam_hat, _, _ = minimizer._residuals(p, c, fld, b)
            got, record = minimizer._newton_step(p, c, fld, g_proj, lam_hat,
                                                 work[0])
            want, want_record = ref_newton_step(p, c, fld, g_proj, lam_hat,
                                                work[1])
            assert got.tobytes() == want.tobytes()
            assert record[0] is work[0]
            assert all(a.tobytes() == b.tobytes()
                       for a, b in zip(record, want_record))
            fld = RadialField(fld.grid, got)


def band_matvec(low, x):
    """K x for the symmetric matrix K with lower band low."""
    n = low.shape[1]
    y = low[0] * x
    for d in range(1, 5):
        y[d:] += low[d, :n - d] * x[:n - d]
        y[:n - d] += low[d, :n - d] * x[d:]
    return y


def test_factor_record_solves_k_and_projects_onto_the_tangent():
    # from each start, on both grids: the record's y solves K y = W u
    # against K's band assembled by the mirror loop, to 1e-10 of the terms
    # K y sums (K spans 20 decades at n = 8193, and the Euclidean relative
    # residual reads 1e-5 there), and the kept solve at the step's result,
    # the simplified correction's, is W-orthogonal to it
    for p, c, fld in step_starts():
        grid, u = fld.grid, fld.values
        w = grid.weights
        b = minimizer.norm_bundle(p, fld)
        g_proj, lam_hat, _, _ = minimizer._residuals(p, c, fld, b)
        cand, (ab, flips, y) = minimizer._newton_step(
            p, c, fld, g_proj, lam_hat, np.empty((5, grid.n), order="F"))
        K = ref_assemble(grid, np.zeros((5, grid.n), order="F"),
                         -lam_hat * w)
        au = np.abs(u)
        K[0] -= w * (p.mu * (p.q - 1.0) * nonneg_power(au, p.q - 2.0)
                     + (p.p_crit - 1.0) * nonneg_power(au, p.p_crit - 2.0))
        wu = w * u
        scale = band_matvec(np.abs(K), np.abs(y)) + np.abs(wu)
        assert np.all(np.abs(band_matvec(K, y) - wu) <= 1e-10 * scale)
        nxt = RadialField(grid, cand)
        g2 = minimizer._residuals(p, c, nxt, minimizer.norm_bundle(p, nxt))[0]
        d = minimizer._kept_solve(nxt, ab, flips, y, -w * g2)
        v = nxt.values
        assert abs(np.dot(w * v, d)) <= 1e-12 * math.sqrt(
            np.dot(w * v, v) * np.dot(w * d, d))


# ------------------------------------------------------------ fiber minimum

@st.composite
def fiber_case_st(draw):
    """(params, bundle) with two zeros of psi', none, or a double one: the
    latter two set bend to 1/2 and 1 times k s^(2 alpha0) B + s^(2 alpha2)
    C at the turning point s, where xi's maximum then is negative or 0."""
    params, b = draw(params_st()), draw(bundle_st())
    case = draw(st.sampled_from(["any", "none", "tangent"]))
    if case != "any":
        ex = derive_exponents(params)
        s = fiber.xi_turning_point(params, b)
        top = (pohozaev_coefficient(params) * s ** (2.0 * ex.alpha0)
               * b.subcrit + s ** (2.0 * ex.alpha2) * b.crit)
        b = NormBundle(b.mass, top * (0.5 if case == "none" else 1.0),
                       b.subcrit, b.crit)
    return params, b, case


@settings(max_examples=400, deadline=None)
@given(fiber_case_st())
def test_fiber_minimum_matches_analyze_fibers_s1(case):
    params, b, kind = case
    want = ref_analyze_fiber(params, b)
    got = fiber.fiber_minimum(params, b)
    if kind == "tangent":
        assume(want.kind1 == fiber.KIND_TANGENT)
    if kind == "none":
        assert want.s1 is None
    if want.s1 is None:
        assert got is None
    else:
        assert got.hex() == want.s1.hex()
    assert hexes(fiber.analyze_fiber(params, b)) == hexes(want)


def test_fiber_minimum_reads_the_tangency_and_no_zero():
    # the two cases fiber_case_st builds, at the default params
    p = LandscapeParams(N=5, q=3.0, mu=1.0)
    ex = derive_exponents(p)
    b = NormBundle(1.0, 1.0, 2.0, 3.0)
    s = fiber.xi_turning_point(p, b)
    top = (pohozaev_coefficient(p) * s ** (2.0 * ex.alpha0) * b.subcrit
           + s ** (2.0 * ex.alpha2) * b.crit)
    tangent = NormBundle(1.0, top, 2.0, 3.0)
    assert ref_analyze_fiber(p, tangent).kind1 == fiber.KIND_TANGENT
    assert fiber.fiber_minimum(p, tangent).hex() == s.hex()
    assert fiber.fiber_minimum(p, NormBundle(1.0, 0.5 * top, 2.0, 3.0)) is None
    assert fiber.fiber_minimum(p, NormBundle(1.0, 2.0 * top, 2.0, 3.0)) < s


# ------------------------------------------------------------ interpolation

@pytest.mark.parametrize("N,n", [(5, 8193), (7, 2049), (10, 2049)])
def test_interpolate_matches_the_written_out_weights(p53, N, n):
    # the (5, 3) profile and a random vector, read at the nodes of an
    # (N, n) grid over L for 53 random L, log-uniform over four decades
    # (every node inside R at the largest L, a few at the smallest), in
    # ascending and in shuffled order; radii past R read zero
    rng = np.random.default_rng(5300 + N)
    grid = build_grid(N, n, 1000.0)
    values, _ = minimizer._profile(p53.N, p53.q)
    h = minimizer.PROFILE_R / (len(values) - 1)
    noise = rng.standard_normal(len(values))
    for L in 10.0 ** rng.uniform(-2.0, 2.0, 53):
        for r in (grid.nodes / L, rng.permutation(grid.nodes / L)):
            for v in (values, noise):
                got = grid_mod.interpolate(v, h, r)
                assert got.tobytes() == ref_interpolate(v, h, r).tobytes()
                assert not got[r > minimizer.PROFILE_R].any()
    # a scalar radius reads a 0-d array, inside R and past it
    for r in (0.37 * h, 0.5 * minimizer.PROFILE_R, minimizer.PROFILE_R + h):
        got = grid_mod.interpolate(values, h, r)
        assert got.shape == ()
        assert got.tobytes() == ref_interpolate(values, h, r).tobytes()


# --------------------------------------------------- held unit Gaussian

def ref_gaussian_s1(params, c, grid):
    """minimizer._gaussian_s1 on grid from a unit Gaussian field built for
    the call, as every op built it before the field was held."""
    unit = norm_bundle(params, RadialField(grid,
                                           minimizer._seed_profile(grid, 0)))
    return fiber.fiber_minimum(params, NormBundle(*scaled_norms(
        params, unit, c / unit.mass, 1.0)))


@pytest.mark.parametrize("q", [2.2, 3.0])
def test_gaussian_s1_on_the_held_field_matches_a_fresh_one(q):
    # both solve-fine's grid and the default one, seven masses each,
    # twice, so the second pass reads the field the first one held
    p = LandscapeParams(N=5, q=q)
    c0 = mass_threshold(p)[1]
    for grid in (build_grid(5, 8193, 1000.0), build_grid(5, 2049, 1000.0)):
        for _ in range(2):
            for f in (0.01, 0.05, 0.1, 0.3, 0.5, 0.9, 0.99):
                got = minimizer._gaussian_s1(p, f * c0, grid)
                assert got.hex() == ref_gaussian_s1(p, f * c0, grid).hex()


def test_ops_on_one_grid_read_one_read_only_field(monkeypatch, p53,
                                                  thresholds53):
    # two solves on one grid bundle one held unit Gaussian, whose values,
    # L u and powers cannot be written; another grid, though equal, gets
    # its own field
    grid = build_grid(5, 2049, 1000.0)
    seen = []
    bundle = minimizer.norm_bundle

    def recording(params, fld):
        seen.append(fld)
        return bundle(params, fld)

    monkeypatch.setattr(minimizer, "norm_bundle", recording)
    for f in (0.3, 0.7):
        minimizer.minimize(p53, grid, f * thresholds53[1])
    held = minimizer._unit_gaussian(grid)
    assert held.grid is grid
    assert sum(fld is held for fld in seen) == 2
    unit = minimizer._seed_profile(grid, 0)
    assert [fld for fld in seen if fld is not held
            and fld.values.tobytes() == unit.tobytes()] == []
    for arr in (held.values, held.lap,
                *functionals.nonlinear_powers(p53, held)):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    twin = build_grid(5, 2049, 1000.0)
    assert twin == grid
    moved = minimizer._unit_gaussian(twin)
    assert moved is not held and moved.grid is twin
    assert moved.values.tobytes() == held.values.tobytes()


def test_dropped_grids_are_freed_without_the_collector():
    # 21 solves on grids of N = 5, 6, 7 and seven geometries each, every
    # grid dropped after its solve: with the cycle collector off, reference
    # counting alone must free all but the one grid the held unit Gaussian
    # keeps. A field held on its own grid (a cached property) makes a
    # cycle, and a cache of 8 keyed on grid equality keeps 8: both fail
    refs = []
    gc.disable()
    try:
        for N, q in ((5, 3.0), (6, 2.8), (7, 2.5)):
            p = LandscapeParams(N=N, q=q)
            c0 = mass_threshold(p)[1]
            for k in range(7):
                grid = build_grid(N, 257 + 64 * k, 100.0)
                try:
                    minimizer.minimize(p, grid, 0.5 * c0)
                except ConvergenceError:
                    pass
                refs.append(weakref.ref(grid))
                del grid
        alive = [ref() for ref in refs if ref() is not None]
    finally:
        gc.enable()
    assert len(alive) <= 1


# ---------------------------------------------------------- nonlinear terms

def ref_six_powers(params, u):
    """|u|^e at e = q, 4*, q-1, 4*-1, q-2 and 4*-2, each taken on its own."""
    au = np.abs(u)
    q, p = params.q, params.p_crit
    return [nonneg_power(au, e) for e in (q, p, q - 1.0, p - 1.0,
                                          q - 2.0, p - 2.0)]


def power_fields(N, f):
    """(params, fld) on an (N, 1025, 40) grid, mu = 1.7: an oscillating
    Gaussian whose tail runs through the subnormals to exact zeros (exp
    itself underflows past r = 38.6), with every fifth node 0, at amplitude
    30, where the nonlinear terms outweigh the bending term, and 1e-100,
    where most powers underflow."""
    params = LandscapeParams(N=N, q=2.0 + f * 8.0 / N, mu=1.7)
    grid = build_grid(N, 1025, 40.0)
    r = grid.nodes
    u = 3.0 * np.cos(2.0 * r) * np.exp(-r * r / 2.0)
    u[::5] = 0.0
    return [(params, RadialField(grid, amp * u)) for amp in (30.0, 1e-100)]


# the ulp of a power in the subnormal range, where the mirror's powers lose
# their relative precision; a term carries it times the power's factor
TINY = 2.0 ** -1074


def within_8_ulps(got, want, scale, floor):
    """|got - want| within 8 ulps of the terms' magnitude scale, the ulps of
    their underflowed powers (floor, in units of TINY) included."""
    return np.all(np.abs(np.asarray(got) - want)
                  <= 8.0 * (np.spacing(scale) + TINY * floor))


@pytest.mark.parametrize("f", [0.05, 0.5, 0.95])
@pytest.mark.parametrize("N", range(5, 11))
def test_nonlinear_terms_match_the_six_powers(N, f):
    for params, fld in power_fields(N, f):
        grid, u = fld.grid, fld.values
        w, mu, q, p = grid.weights, params.mu, params.q, params.p_crit
        pq, pc, pq1, pc1, pq2, pc2 = ref_six_powers(params, u)
        sgn = np.sign(u)
        # the bundle's power norms: sums of w |u|^e >= 0
        b = norm_bundle(params, fld)
        for got, terms in ((b.subcrit, w * pq), (b.crit, w * pc)):
            total = float(np.add.reduce(terms))
            assert within_8_ulps(got, total, total, float(np.add.reduce(w)))
        # the gradient: the bending term less mu sgn|u|^(q-1) + sgn|u|^(4*-1)
        bend = grid.lap_t_apply(w * fld.lap) / w
        assert within_8_ulps(
            l2_gradient(params, fld).values,
            bend - mu * sgn * pq1 - sgn * pc1,
            np.abs(bend) + mu * pq1 + pc1, mu + 1.0)
        # W f'(u), and K's diagonal: L^T W L less lambda_hat W and W f'(u)
        nonlin = w * (mu * (q - 1.0) * pq2 + (p - 1.0) * pc2)
        floor = w * (mu * (q - 1.0) + p - 1.0)
        assert within_8_ulps(nonlinear_diagonal(params, fld), nonlin, nonlin,
                             floor)
        c = float(np.add.reduce(w * u * u))
        lam_hat = minimizer._residuals(params, c, fld, b)[1]
        got = minimizer._assemble_k(params, fld, lam_hat,
                                    np.empty((5, grid.n), order="F"))[0]
        band, shift = grid.newton_band[0], lam_hat * w
        assert within_8_ulps(got, band - shift - nonlin,
                             np.abs(band) + np.abs(shift) + nonlin, floor)
        # the gradient of q_residual, d_q reading a q sgn|u|^(q-1) and
        # 4* sgn|u|^(4*-1), a = pohozaev_coefficient
        d_bend = 2.0 * grid.lap_t_apply(w * fld.lap)
        a = pohozaev_coefficient(params)
        nonlin = w * (a * q * pq1 + p * pc1)
        Q = pohozaev(params, b)
        rho = abs(Q) / b.bend
        want = (math.copysign(1.0, Q) * (d_bend - w * sgn * (a * q * pq1
                                                            + p * pc1))
                - rho * d_bend) / b.bend
        assert within_8_ulps(
            q_residual_gradient(params, fld, b), want,
            ((1.0 + rho) * np.abs(d_bend) + nonlin) / b.bend,
            w * (a * q + p) / b.bend)
