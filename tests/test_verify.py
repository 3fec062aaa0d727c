"""Every `verify` check fails on corrupted input, through its own predicate.

Each case corrupts the one quantity a check inspects and runs the check
bodies directly, so an exception would fail the test instead of counting
as the check's failure. The other six checks must still pass: a corruption
that trips several checks shows nothing about any one of them.
"""
import dataclasses

import pytest

from bhgs import fiber, landscape, load_config, verify
from bhgs.grid import RadialField

CFG = load_config(env={})
NAMES = ["exponent-identities", "landscape-argmax", "quadrature-oracles",
         "laplacian-order", "gradient-consistency", "fiber-zero-structure",
         "comparison-lemma"]


def corrupt_exponents(mp):
    # gamma_q off by 1e-9; only the identity check and the fiber sign
    # scan read it through landscape.derive_exponents
    derive = landscape.derive_exponents

    def shifted(params):
        ex = derive(params)
        return dataclasses.replace(ex, gamma_q=ex.gamma_q + 1e-9)
    mp.setattr(landscape, "derive_exponents", shifted)


def corrupt_rho_star(mp):
    rho_star = landscape.rho_star
    mp.setattr(landscape, "rho_star",
               lambda params, c: rho_star(params, c) * (1.0 + 1e-6))


def corrupt_grids(mp, corrupt):
    # grids built inside verify pass through corrupt(grid) -> grid
    build = verify.build_grid
    mp.setattr(verify, "build_grid", lambda *a: corrupt(build(*a)))


def corrupt_weights(mp):
    corrupt_grids(mp, lambda g: dataclasses.replace(
        g, weights=g.weights * (1.0 + 1e-5)))


def corrupt_lap_band(mp):
    # one diagonal entry of the middle grid of the order study; the
    # finest grid, which the quadrature check shares, stays exact
    mid = (CFG.get_int("grid", "n") - 1) // 2 + 1

    def corrupt(g):
        if g.n != mid:
            return g
        band = g.lap_band.copy()
        band[2, g.n // 8] *= 1.0 + 1e-6
        return dataclasses.replace(g, lap_band=band)
    corrupt_grids(mp, corrupt)


def corrupt_gradient_sign(mp):
    grad = verify.l2_gradient
    mp.setattr(verify, "l2_gradient",
               lambda params, u: RadialField(u.grid, -grad(params, u).values))


def corrupt_fiber_order(mp):
    # s_turn moved past s2 on every bundle with a fiber minimum
    analyze = fiber.analyze_fiber

    def moved(params, b):
        fa = analyze(params, b)
        if fa.s2 is None:
            return fa
        return dataclasses.replace(fa, s_turn=2.0 * fa.s2)
    mp.setattr(fiber, "analyze_fiber", moved)


def corrupt_f_landscape(mp):
    # a positive factor that grows with c: the signs of f, and with them
    # the threshold and its bisection, are untouched, but f(c, .) now
    # rises with c where it is positive
    f = landscape.f_landscape
    mp.setattr(landscape, "f_landscape",
               lambda params, c, rho: f(params, c, rho) * (1.0 + c))


CORRUPTIONS = {
    "exponent-identities": corrupt_exponents,
    "landscape-argmax": corrupt_rho_star,
    "quadrature-oracles": corrupt_weights,
    "laplacian-order": corrupt_lap_band,
    "gradient-consistency": corrupt_gradient_sign,
    "fiber-zero-structure": corrupt_fiber_order,
    "comparison-lemma": corrupt_f_landscape,
}


def run_checks():
    params = CFG.problem()
    return [check(params, CFG) for check in verify._CHECKS]


@pytest.mark.parametrize("name", NAMES)
def test_check_fails_on_corrupted_input(monkeypatch, name):
    CORRUPTIONS[name](monkeypatch)
    results = run_checks()
    assert [r.name for r in results] == NAMES
    failed = [r.name for r in results if not r.passed]
    assert failed == [name], [r.detail for r in results if not r.passed]
