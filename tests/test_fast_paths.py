"""Oracles for the verification and landscape fast paths.

Each fast path is held to the expression it replaced, kept below as a
reference:

- golden_argmax, which decides each comparison by the sign of the float
  difference F(y) - F(x), against the search that evaluates F in 40-digit
  decimals at every point: they agree to 1e-12 relative;
- bump_field, which evaluates each Gaussian on its support only, against
  the field evaluated on the whole grid, bit for bit and with the same
  draws from its stream;
- the landscape command, which bundles one sample of bump fields once and
  rescales it to every mass, against the command written out with one
  reference field and norm_bundle at a time: stdout and both CSV tables
  byte for byte. Its boundary_min_j falls strictly down the masses, as
  the exact rescale demands;
- comparison_check, which evaluates its segment as one array, against the
  loop of scalar f_landscape calls: the same abscissae bit for bit, and the
  same verdict;
- f_landscape and mass_threshold with every logarithm retaken per call,
  against the two log coefficients held on the params, from which
  mass_threshold also takes log D, bit for bit;
- analyze_fiber with the bundle's logarithms retaken at every bisection
  step, against the ones taken once per analysis, bit for bit.
"""
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bhgs import (LandscapeParams, RadialField, analyze_fiber, build_grid,
                  comparison_check, derive_exponents, energy, f_landscape,
                  load_config, mass_threshold, norm_bundle, rescale_bundle,
                  resolve_params, rho_star)
from bhgs import cli, fiber, landscape, verify
from bhgs.config import sweep_masses
from bhgs.functionals import pohozaev_coefficient
from bhgs.landscape import _exp_total
from propstrat import bundle_st, params_st, ref_bisect

# ---------------------------------------------------------------- references


def ref_golden_argmax(params, c, scan_only=False):
    from decimal import Decimal as D, localcontext

    ex = derive_exponents(params)
    with localcontext() as ctx:
        ctx.prec = 40
        a0, a2 = D(ex.alpha0), D(ex.alpha2)
        coef_sub = (D(params.mu) / D(params.q)
                    * (D(params.q) * D(params.C_gn).ln()).exp()
                    * (D(ex.alpha1) * D(c).ln()).exp())
        p_crit = D(ex.p_crit)
        coef_crit = (p_crit * D(params.S_sob).ln()).exp() / p_crit

        def F(logr):
            return (D("0.5") - coef_sub * (a0 * logr).exp()
                    - coef_crit * (a2 * logr).exp())

        span_lo, span_hi = D("1e-6").ln(), D("1e6").ln()
        logs = [span_lo + (span_hi - span_lo) * k / 99 for k in range(100)]
        vals = [F(t) for t in logs]
        if scan_only:
            return vals
        k = max(range(100), key=lambda i: vals[i])
        lo = logs[max(k - 1, 0)]
        hi = logs[min(k + 1, 99)]
        gr = (D(5).sqrt() - 1) / 2
        x1 = hi - gr * (hi - lo)
        x2 = lo + gr * (hi - lo)
        f1, f2 = F(x1), F(x2)
        for _ in range(200):
            if hi - lo < D("1e-13"):
                break
            if f1 < f2:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + gr * (hi - lo)
                f2 = F(x2)
            else:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - gr * (hi - lo)
                f1 = F(x1)
        return float(((lo + hi) / 2).exp())


def ref_bump_field(grid, rng):
    r = grid.nodes
    u = np.zeros_like(r)
    for _ in range(3):
        center = rng.uniform(0.0, 20.0)
        width = rng.uniform(1.0, 3.0)
        amp = rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0])
        u += amp * np.exp(-((r - center) / width) ** 2)
    return u


def ref_landscape(out_dir):
    """stdout, summary CSV and grid CSV of `bhgs landscape --out-dir
    out_dir` under the configuration in the environment, written out: one
    stream of reference fields, each bundled by norm_bundle, and the list
    rescaled onto the slice mass = c, bend = rho0 of every mass."""
    cfg = load_config(None)
    params = resolve_params(cfg)
    M, c0, rho0 = mass_threshold(params)
    cs = [float(c) for c in sweep_masses(cfg, c0)]
    grid = cfg.solve_grid()
    rng = np.random.default_rng(cli._SAMPLE_SEED)
    sample = [norm_bundle(params, RadialField(grid, ref_bump_field(grid, rng)))
              for _ in range(100)]
    header = f"# M={M!r} c0={c0!r} rho0={rho0!r}\n"
    summary = header + ("c,rho_c,h_at_rho_c,boundary_min_j,boundary_bound,"
                        "boundary_positive\n")
    for c in cs:
        min_j, positives = math.inf, 0
        for b in sample:
            j = energy(params, rescale_bundle(params, b, c, rho0))
            min_j = min(min_j, j)
            positives += j > 0
        rc = rho_star(params, c)
        summary += (f"{c!r},{rc!r},{f_landscape(params, c, rc)!r},{min_j!r},"
                    f"{rho0 * f_landscape(params, c, rho0)!r},"
                    f"{str(positives == len(sample)).lower()}\n")
    rhos = np.exp(np.linspace(math.log(rho0 / 30.0), math.log(rho0 * 30.0),
                              41))
    table = header + "c,rho,f\n"
    for c in cs:
        for rho in map(float, rhos):
            table += f"{c!r},{rho!r},{f_landscape(params, c, rho)!r}\n"
    record = {"record": "landscape", "M": M, "c0": c0, "rho0": rho0,
              "summary_csv": f"{out_dir}/landscape_summary.csv",
              "grid_csv": f"{out_dir}/landscape_grid.csv",
              **cli._header(cfg, params)}
    return (json.dumps(record, sort_keys=True) + "\n", summary.encode(),
            table.encode())


def ref_comparison_check(params, c1, rho1, c2):
    # one scalar call per abscissa, each through the module attribute
    ref = landscape.f_landscape(params, c1, rho1)
    lo = (c2 / c1) * rho1
    for k in range(1000):
        rho = lo + (rho1 - lo) * k / 999
        if (landscape.f_landscape(params, c2, rho)
                < ref - 1e-12 * max(1.0, abs(ref))):
            return False
    return True


def ref_f_landscape(params, c, rho):
    es = derive_exponents(params)
    t_sub = (math.log(params.mu / params.q)
             + params.q * math.log(params.C_gn)
             + es.alpha0 * math.log(rho)
             + es.alpha1 * math.log(c))
    t_crit = (math.log(1.0 / es.p_crit)
              + es.p_crit * math.log(params.S_sob)
              + es.alpha2 * math.log(rho))
    return 0.5 - _exp_total(t_sub) - _exp_total(t_crit)


def ref_mass_threshold_M(params):
    # log D from the two log coefficients, each retaken here: at the
    # maximizer -alpha0 t_sub = alpha2 t_crit
    es = derive_exponents(params)
    log_sub = math.log(params.mu / params.q) + params.q * math.log(params.C_gn)
    log_crit = math.log(1.0 / es.p_crit) + es.p_crit * math.log(params.S_sob)
    log_D = math.log(-es.alpha0 / es.alpha2) + log_sub - log_crit
    span = es.alpha2 - es.alpha0
    m_sub = math.exp(log_sub + es.alpha0 * log_D / span)
    m_crit = math.exp(log_crit + es.alpha2 * log_D / span)
    return m_sub + m_crit


def ref_xi_scaled(params, b, s):
    ex = derive_exponents(params)
    k = pohozaev_coefficient(params)
    ls = math.log(s)
    l1 = math.log(b.bend) if b.bend > 0 else -math.inf
    l2 = math.log(k * b.subcrit) + 2.0 * ex.alpha0 * ls
    l3 = math.log(b.crit) + 2.0 * ex.alpha2 * ls
    m = max(l1, l2, l3)
    return math.exp(l1 - m) - math.exp(l2 - m) - math.exp(l3 - m)


def ref_fiber_zeros(params, b):
    # (s_turn, s1, s2) by the analysis' brackets and bisection on the
    # reference expression; None for a fiber without two crossings
    s_star = fiber.xi_turning_point(params, b)
    xs = ref_xi_scaled(params, b, s_star)
    if abs(xs) <= 1e-12 or xs < 0:
        return s_star, None, None

    def f(s):
        return ref_xi_scaled(params, b, s)

    lo = s_star
    while f(lo) > 0:
        lo /= 10.0
    hi = s_star
    while f(hi) > 0:
        hi *= 2.0
    return s_star, ref_bisect(f, lo, s_star), ref_bisect(f, s_star, hi)


# ------------------------------------------------------------ golden argmax

# agreement of the float search with the all-decimal one; measured at most
# 6.2e-14 on 3,000 draws, against the verify check's own gate of 1e-8
ARGMAX_RTOL = 1e-12


def assert_argmax_agrees(p, c):
    got, ref = verify.golden_argmax(p, c), ref_golden_argmax(p, c)
    assert abs(got - ref) <= ARGMAX_RTOL * ref, (p, c, got, ref)


def test_golden_argmax_matches_the_all_decimal_search():
    rng = np.random.default_rng(20261018)
    for _ in range(1000):
        p = verify.random_params(rng)
        c = float(np.exp(rng.uniform(math.log(1e-4), math.log(1e3))))
        assert_argmax_agrees(p, c)


def test_golden_argmax_where_the_terms_leave_float_range():
    # the terms of f reach 1e180 for the first pair; for the second, C_gn^q
    # and S_sob^4* are themselves past float range. The comparisons form
    # neither, only their logarithms
    for c_gn, s_sob in ((1e60, 1.26e18), (1e103, 1e31)):
        p = LandscapeParams(N=5, q=3.0, C_gn=c_gn, S_sob=s_sob)
        for c in (1e-3, 0.5, 1e2):
            assert_argmax_agrees(p, c)


@pytest.mark.parametrize("c", [1e-3, 1.0, 1e3])
def test_golden_argmax_where_f_rounds_to_one_half(c):
    # both terms of f lie below an ulp of 1/2 across the span, so any
    # search on float or 40-digit values of f sees a flat function; the
    # differences still order the points
    p = LandscapeParams(N=5, q=3.0, C_gn=1e-100, S_sob=1e-30)
    rho = rho_star(p, c)
    assert f_landscape(p, c, 1e-6) == f_landscape(p, c, 1e6) == 0.5
    assert abs(verify.golden_argmax(p, c) - rho) <= 1e-12 * rho


def test_golden_argmax_prescan_ties():
    # masses around the one where two neighbouring scan points tie in F:
    # the 40-digit reference picks either cell, and the float search,
    # whichever cell it picks, must agree with it
    p = LandscapeParams(N=5, q=3.0)

    vals = ref_golden_argmax(p, 0.5, scan_only=True)
    k = max(range(100), key=lambda i: vals[i])

    def lead(c):
        # 40-digit F at scan point k + 1 minus at k; rises through zero as
        # the maximizer moves right with c
        vals = ref_golden_argmax(p, c, scan_only=True)
        return vals[k + 1] - vals[k]

    lo, hi = 0.5, 0.5
    while lead(hi) < 0:
        hi *= 2.0
    while lead(lo) > 0:
        lo /= 2.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if lead(mid) < 0:
            lo = mid
        else:
            hi = mid
    picks = set()
    c = lo
    for _ in range(30):
        c = math.nextafter(c, 0.0)
    for _ in range(60):
        vals = ref_golden_argmax(p, c, scan_only=True)
        picks.add(max(range(100), key=lambda i: vals[i]))
        assert_argmax_agrees(p, c)
        c = math.nextafter(c, 1.0)
    assert picks == {k, k + 1}


# --------------------------------------------------------------- bump field

@pytest.mark.parametrize("dim,n,r_max", [
    (5, 2049, 1000.0), (5, 1025, 30.0), (5, 1025, 12.0), (5, 257, 60.0),
    (6, 2049, 1000.0), (9, 2049, 1000.0)],
    ids=["solve-grid", "R30", "R12", "R60", "N6", "N9"])
def test_bump_field_matches_the_full_grid_expression(dim, n, r_max):
    # on the R = 12 grid the support of most Gaussians reaches past R, and
    # on the R = 60 one, the coarse grid of the landscape test, some do
    grid = build_grid(dim, n, r_max)
    rng, ref_rng = np.random.default_rng(31), np.random.default_rng(31)
    for _ in range(300):
        got = verify.bump_field(grid, rng).values
        want = ref_bump_field(grid, ref_rng)
        assert got.tobytes() == want.tobytes()
    # both drew the same numbers from the stream
    assert rng.random() == ref_rng.random()


LANDSCAPE_CONFIGS = {
    "default": {},
    "supports-reach-R": {"BHGS_GRID__R_MAX": "60", "BHGS_GRID__N": "257"},
    "N6": {"BHGS_PROBLEM__N": "6"},
    "N9": {"BHGS_PROBLEM__N": "9", "BHGS_PROBLEM__Q": "2.5"},
}


def run_landscape(config, monkeypatch, capsys, out_dir):
    """(stdout, summary CSV, grid CSV) of `bhgs landscape` under config."""
    for key, value in LANDSCAPE_CONFIGS[config].items():
        monkeypatch.setenv(key, value)
    assert cli.main(["landscape", "--out-dir", str(out_dir)]) == 0
    return (capsys.readouterr().out,
            (out_dir / "landscape_summary.csv").read_bytes(),
            (out_dir / "landscape_grid.csv").read_bytes())


@pytest.mark.parametrize("config", list(LANDSCAPE_CONFIGS))
def test_landscape_matches_the_one_field_scan(config, capsys, monkeypatch,
                                              tmp_path):
    got = run_landscape(config, monkeypatch, capsys, tmp_path)
    assert got == ref_landscape(tmp_path)
    # every mass row of the summary is there
    assert got[1].count(b"\n") == 2 + 8


@pytest.mark.parametrize("config", list(LANDSCAPE_CONFIGS))
def test_boundary_min_j_falls_down_the_masses(config, capsys, monkeypatch,
                                              tmp_path):
    # at bend rho0 each field's J(c) is rho0/2 - A c^alpha1 - C with A > 0
    # and alpha1 > 0, so the least J of one sample falls strictly as c
    # rises, and every J on the slice is positive below c0
    _, summary, _ = run_landscape(config, monkeypatch, capsys, tmp_path)
    rows = summary.decode().splitlines()[2:]
    cs = [float(row.split(",")[0]) for row in rows]
    min_j = [float(row.split(",")[3]) for row in rows]
    assert cs == sorted(cs) and len(set(cs)) == len(cs) == 8
    assert all(a > b for a, b in zip(min_j, min_j[1:])), min_j
    assert all(row.endswith(",true") for row in rows), rows


def comparison_draws(seed, count, theta=None):
    # (params, c1, rho1, c2) as verify's comparison-lemma check draws them
    rng = np.random.default_rng(seed)
    for i in range(count):
        p = verify.random_params(rng)
        c1 = float(np.exp(rng.uniform(math.log(1e-2), math.log(1e2))))
        rho1 = float(np.exp(rng.uniform(math.log(1e-2), math.log(1e2))))
        th = theta if theta is not None else (
            1.0 if i == 0 else float(rng.uniform(0.05, 1.0)))
        yield p, c1, rho1, th * c1


def test_comparison_check_agrees_on_the_verify_draws():
    for p, c1, rho1, c2 in comparison_draws(1005, 20):
        assert comparison_check(p, c1, rho1, c2) is True
        assert ref_comparison_check(p, c1, rho1, c2) is True


@pytest.mark.parametrize("side", [-1.0, 1.0], ids=["inside", "outside"])
def test_comparison_check_agrees_at_the_slack(monkeypatch, side):
    # c2 a few ulps below c1, and f(c2, .) lowered by the slack 1e-12
    # max(1, |ref|) times 1 + 1e-2 side: each draw misses or meets the
    # tolerance by 1e-2 of it, and both evaluations must say which
    f = landscape.f_landscape
    for p, c1, rho1, c2 in comparison_draws(2024, 40, theta=1.0 - 1e-15):
        slack = 1e-12 * max(1.0, abs(f(p, c1, rho1)))
        shift = slack * (1.0 + 1e-2 * side)
        with monkeypatch.context() as mp:
            mp.setattr(landscape, "f_landscape",
                       lambda params, c, rho: f(params, c, rho)
                       - (shift if c == c2 else 0.0))
            got = comparison_check(p, c1, rho1, c2)
            want = ref_comparison_check(p, c1, rho1, c2)
        assert got == want == (side < 0)


def test_comparison_check_samples_the_scalar_abscissae(monkeypatch):
    f = landscape.f_landscape
    for p, c1, rho1, c2 in comparison_draws(1005, 20):
        seen = []

        def recording(params, c, rho):
            if isinstance(rho, np.ndarray):
                seen.append(np.array(rho, copy=True))
            return f(params, c, rho)

        with monkeypatch.context() as mp:
            mp.setattr(landscape, "f_landscape", recording)
            comparison_check(p, c1, rho1, c2)
        lo = (c2 / c1) * rho1
        want = np.array([lo + (rho1 - lo) * k / 999 for k in range(1000)])
        (got,) = seen
        assert got.tobytes() == want.tobytes()


def test_f_landscape_on_an_array_matches_the_scalar_calls(p53):
    # numpy's log and exp against math's: within a few ulps, and the same
    # saturation to -inf and rejection of rho <= 0
    rho = np.geomspace(1e-30, 1e30, 601)
    got = f_landscape(p53, 0.7, rho)
    want = np.array([f_landscape(p53, 0.7, float(x)) for x in rho])
    assert np.allclose(got, want, rtol=1e-14, atol=0.0)
    huge = f_landscape(p53, 0.7, np.array([1e300]))
    assert huge[0] == f_landscape(p53, 0.7, 1e300) == -math.inf
    with pytest.raises(landscape.DomainError):
        f_landscape(p53, 0.7, np.array([1.0, 0.0]))


# ------------------------------------------------------ landscape and fiber

@settings(max_examples=300, deadline=None)
@given(params_st(),
       st.floats(min_value=-300.0, max_value=300.0),
       st.floats(min_value=-300.0, max_value=300.0))
def test_f_landscape_matches_the_reference_expression(params, log_c, log_rho):
    c, rho = math.exp(log_c), math.exp(log_rho)
    got = f_landscape(params, c, rho)
    assert got.hex() == ref_f_landscape(params, c, rho).hex()
    assert mass_threshold(params)[0].hex() == ref_mass_threshold_M(params).hex()


@settings(max_examples=300, deadline=None)
@given(params_st(), bundle_st(), st.floats(min_value=-50.0, max_value=50.0))
def test_xi_scaled_matches_the_reference_expression(params, b, log_s):
    s = math.exp(log_s)
    got = fiber._xi_scaled(fiber._xi_logs(params, b), s)
    assert got.hex() == ref_xi_scaled(params, b, s).hex()


@settings(max_examples=300, deadline=None)
@given(params_st(), bundle_st())
def test_analyze_fiber_matches_the_reference_expression(params, b):
    fa = analyze_fiber(params, b)
    s_turn, s1, s2 = ref_fiber_zeros(params, b)
    assert fa.s_turn == s_turn
    if fa.kind1 == fiber.KIND_MIN:
        assert (fa.s1.hex(), fa.s2.hex()) == (s1.hex(), s2.hex())
    else:
        assert s1 is None


# ------------------------------------------------------------ exponent cache

class TestExponentCache:
    def test_one_exponent_set_per_params(self, p53):
        assert derive_exponents(p53) is derive_exponents(p53)
        twin = LandscapeParams(N=5, q=3.0, mu=1.0)
        assert twin == p53
        assert derive_exponents(twin) == derive_exponents(p53)

    def test_replace_derives_fresh_exponents(self, p53):
        ex = derive_exponents(p53)
        moved = dataclasses.replace(p53, q=2.5)
        assert derive_exponents(moved).alpha0 == 5 * 0.5 / 8.0 - 1.0
        assert derive_exponents(moved) != ex
        same = dataclasses.replace(p53)
        assert derive_exponents(same) is not ex
        assert derive_exponents(same) == ex

    def test_held_sums_follow_the_params(self, p53):
        moved = dataclasses.replace(p53, mu=2.0, S_sob=1.5)
        assert f_landscape(moved, 0.7, 0.4) == ref_f_landscape(moved, 0.7, 0.4)
        assert f_landscape(moved, 0.7, 0.4) != f_landscape(p53, 0.7, 0.4)
