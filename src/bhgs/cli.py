"""Command-line front end.

Subcommands: constants, landscape, solve, sweep, fiber, verify. Records go
to stdout as one JSON object per line (keys sorted, so a run with fixed
config is byte-reproducible); errors go to stderr as a single JSON object
with a machine-readable kind. A non-convergence also names the solver's
failure kind (fail_kind, one of minimizer.FAIL_KINDS), as does the partial
report a failed sweep writes. Tables are plain CSV files.

Exit codes: 0 success, 2 configuration or installation error, 3 domain
error (inadmissible parameters or masses), 4 numerical non-convergence, 5
verification failure.

Each command imports what it uses when it runs: numpy, the grid, the
functionals, the fiber map and the minimizer are imported inside the
commands, so `constants` in synthetic mode loads none of them.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

from .config import ConfigError, load_config, resolve_params, sweep_masses
from .landscape import (ConvergenceError, DomainError, KernelsUnavailable,
                        derive_exponents, f_landscape, mass_threshold,
                        rho_star)

__all__ = ["main", "evaluate_sweep_flags"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_NONCONV = 4
EXIT_VERIFY = 5

_SAMPLE_SEED = 20260816

# the sweep's lemma tolerances, each relative (see evaluate_sweep_flags)
SWEEP_TOLERANCES = {"mono_tol": 1e-8, "add_tol": 1e-6,
                    "triple_match_tol": 1e-9}

# a solved state's record: each key and the GroundState field it holds;
# solve and sweep-point write one, the sweep report a list per key
_STATE_FIELDS = {"c": "c", "m": "m", "lambda": "lam", "bend": "bend",
                 "q_residual": "q_residual", "iters": "iters",
                 "constraint_active": "constraint_active"}


def _state_record(state) -> dict:
    return {key: getattr(state, name) for key, name in _STATE_FIELDS.items()}


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _fail(kind: str, message: str, code: int, **extra) -> int:
    sys.stderr.write(json.dumps({"error": kind, "message": message, **extra},
                                sort_keys=True) + "\n")
    return code


def _header(cfg, params) -> dict:
    """Constants mode and working constants, with the estimated-mode caveat;
    every record that rests on the constants carries these keys."""
    head = {"mode": cfg.constants_mode, "C_gn": params.C_gn,
            "S_sob": params.S_sob}
    if head["mode"] == "estimated":
        head["warning"] = ("C_gn is a grid estimate of the radial constant, "
                           "with no error bar yet; S_sob is sharp; the "
                           "derived c0 and rho0 inherit C_gn's error")
    return head


# ------------------------------------------------------------------- sweep

def evaluate_sweep_flags(c_values, m_values) -> dict:
    """Lemma flags as a pure function of the (c, m) arrays.

    The SWEEP_TOLERANCES are relative to |m|. Strict decrease demands a
    drop of more than mono_tol*|m_i| between neighbors. Subadditivity runs
    over grid-expressible triples c_i = c_j + c_k (matched to
    triple_match_tol relative to c_i), checking
    m(c_i) <= m(c_j) + m(c_k) + add_tol |m(c_i)|; sub-homogeneity over
    ordered pairs c_i < c_j, checking m(c_j) <= (c_j/c_i) m(c_i) +
    add_tol |m(c_j)|.
    """
    mono_tol = SWEEP_TOLERANCES["mono_tol"]
    add_tol = SWEEP_TOLERANCES["add_tol"]
    match_tol = SWEEP_TOLERANCES["triple_match_tol"]
    c = [float(x) for x in c_values]
    m = [float(x) for x in m_values]
    k = len(c)
    if len(m) != k:
        raise DomainError("c and m arrays must align")
    offending = [i for i in range(k - 1)
                 if not (m[i + 1] < m[i] - mono_tol * abs(m[i]))]
    sub_viol = []
    for i in range(k):
        for j in range(k):
            for l in range(j, k):
                if abs(c[i] - (c[j] + c[l])) <= match_tol * c[i]:
                    if m[i] > m[j] + m[l] + add_tol * abs(m[i]):
                        sub_viol.append([i, j, l])
    hom_viol = []
    for i in range(k):
        for j in range(k):
            if c[i] < c[j]:
                theta = c[j] / c[i]
                if m[j] > theta * m[i] + add_tol * abs(m[j]):
                    hom_viol.append([i, j])
    return {
        "monotone_decreasing": not offending,
        "monotone_offending": offending,
        "all_negative": all(v < 0 for v in m),
        "subadditivity_violations": sub_viol,
        "sub_homogeneity_violations": hom_viol,
    }


# --------------------------------------------------------------- commands

def _cmd_constants(args, cfg, params) -> int:
    M, c0, rho0 = mass_threshold(params)
    ex = derive_exponents(params)
    rec = {
        "record": "constants",
        "N": params.N, "q": params.q, "mu": params.mu,
        "M": M, "c0": c0, "rho0": rho0,
        "alpha0": ex.alpha0, "alpha1": ex.alpha1, "alpha2": ex.alpha2,
        "beta": ex.beta, "gamma_q": ex.gamma_q, "p_crit": ex.p_crit,
        **_header(cfg, params),
    }
    _emit(rec)
    return EXIT_OK


def _cmd_landscape(args, cfg, params) -> int:
    import numpy as np

    from .functionals import energy, norm_bundle, rescale_bundle
    from .verify import bump_field      # only landscape and verify load it
    M, c0, rho0 = mass_threshold(params)
    cs = sweep_masses(cfg, c0)
    grid = cfg.solve_grid()
    header = f"# M={M!r} c0={c0!r} rho0={rho0!r}\n"
    # boundary positivity: one sample of 100 random fields, bundled once and
    # moved onto the slice mass = c, bend = rho0 of every mass by the exact
    # rescale. At fixed bend each field's J is rho0/2 - A c^alpha1 - C, so
    # every row tests the same fields and min J falls down the rows
    rng = np.random.default_rng(_SAMPLE_SEED)
    sample = [norm_bundle(params, bump_field(grid, rng)) for _ in range(100)]

    summary_path = f"{args.out_dir}/landscape_summary.csv"
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write(header)
        fh.write("c,rho_c,h_at_rho_c,boundary_min_j,boundary_bound,"
                 "boundary_positive\n")
        for c in cs:
            c = float(c)
            rc = rho_star(params, c)
            hc = f_landscape(params, c, rc)
            js = [energy(params, rescale_bundle(params, b, c, rho0))
                  for b in sample]
            bound = rho0 * f_landscape(params, c, rho0)
            fh.write(f"{c!r},{rc!r},{hc!r},{min(js)!r},{bound!r},"
                     f"{str(all(j > 0 for j in js)).lower()}\n")

    grid_path = f"{args.out_dir}/landscape_grid.csv"
    rhos = np.exp(np.linspace(math.log(rho0 / 30.0), math.log(rho0 * 30.0), 41))
    with open(grid_path, "w", encoding="utf-8") as fh:
        fh.write(header)
        fh.write("c,rho,f\n")
        for c in cs:
            c = float(c)
            for rho in rhos:
                rho = float(rho)
                fh.write(f"{c!r},{rho!r},{f_landscape(params, c, rho)!r}\n")

    _emit({"record": "landscape", "M": M, "c0": c0, "rho0": rho0,
           "summary_csv": summary_path, "grid_csv": grid_path,
           **_header(cfg, params)})
    return EXIT_OK


def _cmd_solve(args, cfg, params) -> int:
    _, c0, _ = mass_threshold(params)
    c = args.c
    if c >= c0:
        return _fail("mass-above-threshold",
                     f"mass {c} is not below the threshold c0={c0}",
                     EXIT_DOMAIN)
    if c <= 0:
        return _fail("domain-error", f"mass must be positive, got {c}",
                     EXIT_DOMAIN)
    from .grid import save_field
    from .minimizer import fiber_consistency, minimize
    grid = cfg.solve_grid()
    state = minimize(params, grid, c)
    out = args.out or f"ground_state_c{c:.6g}.csv"
    save_field(state.field, out)
    _emit({"record": "ground_state", **_state_record(state),
           "fiber_s1_err": fiber_consistency(params, state),
           "field_csv": out, **_header(cfg, params)})
    return EXIT_OK


def _cmd_sweep(args, cfg, params) -> int:
    from .minimizer import minimize
    M, c0, rho0 = mass_threshold(params)
    cs = [float(c) for c in sweep_masses(cfg, c0)]
    grid = cfg.solve_grid()

    points = []
    def report(partial: bool, **extra) -> dict:
        # the lemma flags over the solved masses, written to args.out
        cols = {key: [p[key] for p in points] for key in _STATE_FIELDS}
        rep = evaluate_sweep_flags(cols["c"], cols["m"])
        rep.update({
            "record": "sweep", **cols,
            "tolerances": SWEEP_TOLERANCES, "partial": partial,
            "M": M, "c0": c0, "rho0": rho0, **_header(cfg, params), **extra})
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(rep, fh, sort_keys=True)
            fh.write("\n")
        return rep

    for c in cs:
        try:
            state = minimize(params, grid, c)
        except ConvergenceError as exc:
            report(partial=True, fail_kind=exc.kind)
            return _fail("non-convergence",
                         f"solve at c={c} failed ({exc}); partial report "
                         f"written to {args.out}", EXIT_NONCONV,
                         fail_kind=exc.kind)
        points.append(_state_record(state))
        _emit({"record": "sweep-point", **points[-1]})

    rep = report(partial=False)
    _emit(rep)
    ok = (rep["monotone_decreasing"] and rep["all_negative"]
          and not rep["subadditivity_violations"]
          and not rep["sub_homogeneity_violations"])
    return EXIT_OK if ok else EXIT_VERIFY


def _cmd_fiber(args, cfg, params) -> int:
    import numpy as np

    from .fiber import analyze_fiber, psi, psi_prime, xi
    from .functionals import norm_bundle
    from .grid import load_field
    if args.points < 1:
        raise ConfigError("config-value",
                          f"--points must be >= 1, got {args.points}")
    fld = load_field(args.field)
    if fld.grid.dim != params.N:
        raise DomainError(
            f"field dimension {fld.grid.dim} does not match configured "
            f"N={params.N}")
    b = norm_bundle(params, fld)
    fa = analyze_fiber(params, b)
    if fa.s1 is not None:
        lo, hi = fa.s1 / 4.0, fa.s2 * 4.0
    else:
        lo, hi = fa.s_turn / 100.0, fa.s_turn * 100.0
    with open(args.curve_out, "w", encoding="utf-8") as fh:
        fh.write("s,psi,psi_prime,xi\n")
        for s in np.exp(np.linspace(math.log(lo), math.log(hi), args.points)):
            s = float(s)
            fh.write(f"{s!r},{psi(params, b, s)!r},"
                     f"{psi_prime(params, b, s)!r},{xi(params, b, s)!r}\n")
    _emit({
        "record": "fiber",
        "bundle": {"mass": b.mass, "bend": b.bend, "subcrit": b.subcrit,
                   "crit": b.crit},
        "s_turn": fa.s_turn, "s1": fa.s1, "s2": fa.s2,
        "kind1": fa.kind1, "kind2": fa.kind2,
        "psi_at_s1": fa.psi_at_s1, "psi_at_s2": fa.psi_at_s2,
        "curve_csv": args.curve_out,
    })
    return EXIT_OK


def _cmd_verify(args, cfg, params) -> int:
    from . import verify as verify_mod
    results = verify_mod.run_all(cfg, params)
    for res in results:
        _emit({"check": res.name, "passed": res.passed, "detail": res.detail})
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bhgs",
        description="Normalized ground states of the biharmonic "
                    "Schrodinger equation: solver, landscape tables, fiber "
                    "diagnostics, verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None,
                       help="INI config path (defaults + BHGS_ env otherwise)")
        p.set_defaults(func=fn)
        return p

    add("constants", _cmd_constants,
        "working constants, exponents, M, c0, rho0")
    p = add("landscape", _cmd_landscape,
            "emit landscape CSV tables and boundary sampling")
    p.add_argument("--out-dir", default=".", help="directory for CSV tables")
    p = add("solve", _cmd_solve, "minimize at one mass")
    p.add_argument("--c", type=float, required=True, help="constraint mass")
    p.add_argument("--out", default=None, help="field CSV path")
    p = add("sweep", _cmd_sweep, "minimize across a mass grid, check lemmas")
    p.add_argument("--out", default="sweep_report.json",
                   help="report JSON path")
    p = add("fiber", _cmd_fiber, "fiber analysis of a saved field")
    p.add_argument("--field", required=True, help="field CSV path")
    p.add_argument("--curve-out", default="fiber_curve.csv",
                   help="psi-curve CSV path")
    p.add_argument("--points", type=int, default=101,
                   help="curve sample count")
    add("verify", _cmd_verify, "run the named verification checks")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        # resolving validates (N, q, mu) before any command's numerics
        return args.func(args, cfg, resolve_params(cfg))
    except ConfigError as exc:
        return _fail(exc.kind, str(exc), EXIT_CONFIG)
    except DomainError as exc:
        return _fail("domain-error", str(exc), EXIT_DOMAIN)
    except ConvergenceError as exc:
        return _fail("non-convergence", str(exc), EXIT_NONCONV,
                     fail_kind=exc.kind)
    except OSError as exc:
        return _fail("io-error", str(exc), EXIT_CONFIG)
    except KernelsUnavailable as exc:
        return _fail("no-lapack", str(exc), EXIT_CONFIG)


if __name__ == "__main__":
    sys.exit(main())
