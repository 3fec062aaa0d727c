"""Acceptance gate: eight headline checks, one reported line each.

Every criterion computes its verdict first and prints a single
``[PASS]``/``[FAIL]`` line with capture suspended before asserting, so a
full run always shows exactly eight lines regardless of where an
assertion would stop the test.
"""
import math

import numpy as np
import pytest

from bhgs import (
    LandscapeParams,
    RadialField,
    analyze_fiber,
    build_grid,
    derive_exponents,
    energy,
    f_landscape,
    fiber_consistency,
    integrate,
    l2_gradient,
    laplacian,
    mass_threshold,
    minimize,
    norm_bundle,
    rescale_bundle,
    rho_star,
)
from bhgs.cli import evaluate_sweep_flags
from bhgs.config import load_config, sweep_masses
from bhgs.verify import (
    bisect_threshold,
    bump_field,
    fiber_sign_scan,
    golden_argmax,
    random_bundle,
    random_params,
)

PI_52 = math.pi ** 2.5


def report(capsys, num, name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}"
    with capsys.disabled():
        print(line, flush=True)
    return line


def test_criterion_1_exponent_identities(capsys):
    worst = 0.0
    signs_ok = True
    for N in range(5, 11):
        for t in np.linspace(0.02, 0.98, 20):
            q = 2.0 + float(t) * 8.0 / N
            p = LandscapeParams(N=N, q=q)
            ex = derive_exponents(p)
            worst = max(
                worst,
                abs(ex.alpha0 + ex.alpha1 - (q - 2.0) / 2.0),
                abs(ex.gamma_q - 2.0 - 2.0 * ex.alpha0),
                abs(ex.p_crit - 2.0 - 2.0 * ex.alpha2),
                abs(ex.beta * q - ex.gamma_q),
            )
            signs_ok = signs_ok and ex.alpha0 < 0.0 < ex.alpha1
    ok = worst <= 1e-12 and signs_ok
    line = report(capsys, 1, "exponent identities", ok,
                  f"120 (N, q) pairs, worst identity residual {worst:.3e}")
    assert ok, line


def test_criterion_2_landscape_argmax_and_threshold(capsys, p53, thresholds53):
    rng = np.random.default_rng(20260401)
    worst_rho = 0.0
    for _ in range(50):
        p = random_params(rng)
        c = float(np.exp(rng.uniform(math.log(0.05), math.log(5.0))))
        closed = rho_star(p, c)
        brute = golden_argmax(p, c)
        worst_rho = max(worst_rho, abs(closed - brute) / brute)

    _, c0, rho0 = thresholds53
    peak_at_c0 = abs(f_landscape(p53, c0, rho0))
    worst_c0 = abs(bisect_threshold(p53) - c0) / c0
    for _ in range(5):
        p = random_params(rng)
        _, c0p, _ = mass_threshold(p)
        worst_c0 = max(worst_c0, abs(bisect_threshold(p) - c0p) / c0p)

    ok = worst_rho <= 1e-8 and peak_at_c0 <= 1e-10 and worst_c0 <= 1e-9
    line = report(capsys, 2, "argmax and threshold", ok,
                  f"50 draws, worst rho_c error {worst_rho:.3e}; "
                  f"|h(rho_c0)| = {peak_at_c0:.3e}; "
                  f"worst bisected c0 error {worst_c0:.3e}")
    assert ok, line


def test_criterion_3_gradient_consistency(capsys, p53, grid30):
    rng = np.random.default_rng(20260402)
    eps = 1e-5
    worst = 0.0
    for _ in range(20):
        u = bump_field(grid30, rng)
        v = bump_field(grid30, rng).values
        pred = float(np.sum(grid30.weights * l2_gradient(p53, u).values * v))
        jp = energy(p53, norm_bundle(
            p53, RadialField(grid30, u.values + eps * v)))
        jm = energy(p53, norm_bundle(
            p53, RadialField(grid30, u.values - eps * v)))
        fd = (jp - jm) / (2.0 * eps)
        worst = max(worst, abs(fd - pred) / max(1.0, abs(pred)))
    ok = worst <= 1e-5
    line = report(capsys, 3, "gradient consistency", ok,
                  f"20 field/direction pairs, worst relative error {worst:.3e}")
    assert ok, line


def test_criterion_4_quadrature_and_laplacian(capsys, p53):
    g = build_grid(5, 4097, 12.0)
    u = RadialField(g, np.exp(-0.5 * g.nodes ** 2))
    b = norm_bundle(p53, u)
    mass_err = abs(b.mass - PI_52) / PI_52
    bend_err = abs(b.bend - 8.75 * PI_52) / (8.75 * PI_52)

    errs = []
    for n in (257, 513, 1025):
        gn = build_grid(5, n, 12.0)
        r = gn.nodes
        fld = RadialField(gn, np.exp(-0.5 * r ** 2))
        want = (r ** 2 - 5.0) * np.exp(-0.5 * r ** 2)
        errs.append(np.max(np.abs(laplacian(fld).values - want)))
    order = min(math.log2(errs[i] / errs[i + 1]) for i in range(2))

    ok = mass_err <= 1e-6 and bend_err <= 1e-6 and order >= 3.9
    line = report(capsys, 4, "quadrature and Laplacian", ok,
                  f"Gaussian mass error {mass_err:.3e}, bend error "
                  f"{bend_err:.3e}, observed order {order:.2f}")
    assert ok, line


def test_criterion_5_fiber_zero_structure(capsys):
    rng = np.random.default_rng(20260403)
    bad = 0
    crossings = 0
    for _ in range(1000):
        p = random_params(rng)
        b = random_bundle(rng)
        fa = analyze_fiber(p, b)
        if fiber_sign_scan(p, b, fa) > 2:
            bad += 1
            continue
        if fa.s1 is None:
            continue
        crossings += 1
        if not (0.0 < fa.s1 < fa.s_turn < fa.s2
                and fa.psi_at_s1 < 0.0
                and fa.kind1 == "local-minimum"
                and fa.kind2 == "local-maximum"):
            bad += 1
    ok = bad == 0 and crossings > 0
    line = report(capsys, 5, "fiber zero structure", ok,
                  f"1000 bundles, {crossings} with two crossings, "
                  f"{bad} structural failures")
    assert ok, line


def test_criterion_6_ground_state_solve(capsys, p53, thresholds53, grid_solve):
    _, c0, rho0 = thresholds53
    state = minimize(p53, grid_solve, 0.5 * c0)
    s1_err = fiber_consistency(p53, state)
    ok = (state.m < 0.0 and state.bend < rho0
          and state.q_residual < 1e-6 and s1_err <= 1e-3
          and not state.constraint_active)
    line = report(capsys, 6, "ground state solve", ok,
                  f"c = c0/2: m = {state.m:.4e}, bend/rho0 = "
                  f"{state.bend / rho0:.3e}, |Q|/bend = "
                  f"{state.q_residual:.3e}, |s1 - 1| = {s1_err:.3e}, "
                  f"{state.iters} iters")
    assert ok, line


def test_criterion_7_mass_sweep(capsys, p53, thresholds53, grid_solve):
    # the CLI's default masses, so `bhgs sweep` checks what this gate checks
    _, c0, _ = thresholds53
    cs = [float(c) for c in sweep_masses(load_config(env={}), c0)]
    ms = [minimize(p53, grid_solve, c).m for c in cs]

    triples = sum(
        1
        for i, ci in enumerate(cs)
        for j, cj in enumerate(cs)
        for l in range(j, len(cs))
        if abs(ci - (cj + cs[l])) <= 1e-9 * ci
    )
    flags = evaluate_sweep_flags(cs, ms)
    ok = (flags["monotone_decreasing"] and flags["all_negative"]
          and not flags["subadditivity_violations"]
          and not flags["sub_homogeneity_violations"]
          and triples >= 5)
    line = report(capsys, 7, "mass sweep", ok,
                  f"{len(cs)} masses, {triples} grid-expressible triples; "
                  f"monotone = {flags['monotone_decreasing']}, negative ="
                  f" {flags['all_negative']}, violations ="
                  f" {len(flags['subadditivity_violations'])} subadd /"
                  f" {len(flags['sub_homogeneity_violations'])} subhom")
    assert ok, line


def test_criterion_8_boundary_positivity(capsys, p53, thresholds53, grid30):
    _, c0, rho0 = thresholds53
    rng = np.random.default_rng(20260404)
    worst_j = math.inf
    worst_slack = math.inf
    for _ in range(100):
        u = bump_field(grid30, rng)
        b = norm_bundle(p53, u)
        c = float(rng.uniform(0.05, 0.95)) * c0
        # exact scaling of t u(s x) onto the slice mass = c, bend = rho0
        j = energy(p53, rescale_bundle(p53, b, c, rho0))
        bound = rho0 * f_landscape(p53, c, rho0)
        worst_j = min(worst_j, j)
        worst_slack = min(worst_slack, j - bound + 1e-8 * max(1.0, abs(j)))
    ok = worst_j > 0.0 and worst_slack >= 0.0
    line = report(capsys, 8, "boundary positivity", ok,
                  f"100 fields scaled onto bend = rho0: min J = "
                  f"{worst_j:.4e}, min slack over the landscape bound = "
                  f"{worst_slack:.4e}")
    assert ok, line
