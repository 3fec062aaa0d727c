"""The three workloads: generated inputs, the closed loop that runs them, and
the output checks.

Every workload is a closed loop with one client in one single-threaded
process: the next op starts when the previous one has returned. The inputs
come from the seed alone, drawn here and never through the package's own
samplers (`verify.random_params`, `config.sweep_masses`), so a change to
those cannot change the workload. The work per run is fixed by (seed,
seconds): two commits given the same arguments run identical inputs, which
the input digest in every result shows.

Draws are stratified (one draw per equal-width stratum, shuffled; a Latin
hypercube for the domain draws), so the share of inputs that hit a known
failure band does not swing with the seed. The marginals stay the ones
named: log-uniform masses, N uniform over 5..10 and so on.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time

# Ops per second of timed phase at the seed commit on a 2-vCPU Xeon
# (Python 3.11, numpy 2.4, scipy 1.17, one BLAS thread). They only size the
# fixed op list so one run lasts about --seconds.
SOLVE_FINE_RATE = 21.0
DOMAIN_RATE = 26.0
CLI_ROTATION_S = 8.7

MIN_SOLVES = 100
MASS_LO, MASS_HI = 0.05, 0.95
DOMAIN_FRACTIONS = (0.1, 0.5, 0.9)
MASS_RTOL = 1e-8
SCALING_RTOL = 1e-8
TRACE_RECHECK_OPS = 20
REF_EVERY = 4           # in-process ops between reference samples
REF_NOMINAL_S = 0.0125   # reference time that defines the nominal speed

FAIL_KINDS = ("seed", "stall", "line-search", "budget", "safeguard",
              "invariant", "other")

CLI_COMMANDS = ("constants", "constants_est", "landscape", "solve", "fiber",
                "sweep", "verify")


def classify(message: str) -> str:
    """Failure kind of a ConvergenceError or DomainError, read from outside
    by its message."""
    for needle, kind in (("seed contraction", "seed"), ("stalled", "stall"),
                         ("line search", "line-search"),
                         ("no convergence in", "budget"),
                         ("safeguard", "safeguard"),
                         ("converged", "invariant")):
        if needle in message:
            return kind
    return "other"


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# ------------------------------------------------------------------ inputs

def _strata(rng: random.Random, count: int) -> list[float]:
    vals = [(k + rng.random()) / count for k in range(count)]
    rng.shuffle(vals)
    return vals


def _log_lerp(lo: float, hi: float, x: float) -> float:
    return math.exp(math.log(lo) + x * (math.log(hi) - math.log(lo)))


def mass_fractions(seed: int, count: int) -> list[float]:
    """c/c0 values, log-uniform over (MASS_LO, MASS_HI), stratified."""
    rng = random.Random(seed)
    return [_log_lerp(MASS_LO, MASS_HI, x) for x in _strata(rng, count)]


def domain_draws(seed: int, count: int) -> list[list[float]]:
    """[N, q, mu, C_gn, S_sob] draws, Latin hypercube over the ranges
    N uniform over 5..10, q = 2 + u 8/N with u in [0.05, 0.95], mu
    log-uniform over [0.1, 10], C_gn and S_sob log-uniform over [0.5, 2]."""
    rng = random.Random(seed)
    cols = [_strata(rng, count) for _ in range(5)]
    draws = []
    for x in zip(*cols):
        N = 5 + min(5, int(6 * x[0]))
        u = 0.05 + 0.9 * x[1]
        draws.append([N, 2.0 + u * 8.0 / N, _log_lerp(0.1, 10.0, x[2]),
                      _log_lerp(0.5, 2.0, x[3]), _log_lerp(0.5, 2.0, x[4])])
    return draws


def make_inputs(workload: str, seed: int, seconds: int) -> dict:
    if workload == "solve-fine":
        count = max(MIN_SOLVES, round(SOLVE_FINE_RATE * seconds))
        return {"masses": mass_fractions(seed, count)}
    if workload == "domain":
        count = max(-(-MIN_SOLVES // len(DOMAIN_FRACTIONS)),
                    round(DOMAIN_RATE * seconds / len(DOMAIN_FRACTIONS)))
        return {"draws": domain_draws(seed, count),
                "fractions": list(DOMAIN_FRACTIONS)}
    rotations = max(1, round(seconds / CLI_ROTATION_S))
    return {"solve_fractions": mass_fractions(seed, rotations)}


# ------------------------------------------------------------------ checks

def check_solution(rec: dict, q_tol: float) -> list[str]:
    """The paper's invariants on one ground-state record: J < 0, bend below
    rho0, Pohozaev residual within q_tol, mass on the constraint."""
    bad = []
    if not rec["m"] < 0:
        bad.append(f"J={rec['m']} is not negative")
    if not rec["bend"] < rec["rho0"]:
        bad.append(f"bend={rec['bend']} is not below rho0={rec['rho0']}")
    if not rec["q_residual"] <= q_tol:
        bad.append(f"q_residual={rec['q_residual']} above {q_tol}")
    if not abs(rec["mass"] - rec["c"]) <= MASS_RTOL * rec["c"]:
        bad.append(f"mass={rec['mass']} is not c={rec['c']} within {MASS_RTOL}")
    return bad


def scaling_exponent(N: int, q: float) -> float:
    # pure-subcritical scaling u -> A u(x/L) with A^{q-2} = L^{-4} keeps the
    # minimizer: c ~ L^{N-8/(q-2)}, m ~ L^{N-4-8/(q-2)}; 7/3 at N=5, q=3
    k = 8.0 / (q - 2.0)
    return (N - 4.0 - k) / (N - k)


def scaling_outliers(recs: list[dict], expo: float) -> list[int]:
    """Indices whose m/c^expo leaves the median ratio by more than
    SCALING_RTOL. While the critical term is negligible the ratio is one
    constant across masses (spread about 1e-10 at n=8193)."""
    if not recs:
        return []
    ratios = [r["m"] / r["c"] ** expo for r in recs]
    ref = statistics.median(ratios)
    return [i for i, x in enumerate(ratios)
            if not abs(x / ref - 1.0) <= SCALING_RTOL]


def corrupt(rec: dict) -> list[dict]:
    """Corrupted copies: mass off by 1e-6 relative, m's sign flipped, both."""
    mass = dict(rec, mass=rec["mass"] * (1.0 + 1e-6))
    sign = dict(rec, m=-rec["m"])
    return [mass, sign, dict(mass, m=-rec["m"])]


def selftest_solution(rec: dict | None, q_tol: float, expo: float | None,
                      peers: list[dict]) -> list[str]:
    """Feed the checks corrupted records; each must be counted as failed."""
    if rec is None:
        return ["no successful record to corrupt"]
    problems = []
    for bad in corrupt(rec):
        if not check_solution(bad, q_tol):
            problems.append(f"check passed a corrupted record {bad}")
    if expo is not None:
        flipped = dict(rec, m=-rec["m"])
        if len(scaling_outliers(peers + [flipped], expo)) == 0:
            problems.append("scaling check passed a sign-flipped m")
    return problems


# ---------------------------------------------------------------- reference

class Reference:
    """Fixed work that does not touch the package, timed between ops.

    The host's speed drifts by tens of percent from one second to the next
    (other tenants share its cores and caches), so a wall time alone
    compares two runs made at different moments badly. A reference sample
    taken just before a stretch of work tracks that drift: the stretch's
    wall time times REF_NOMINAL_S over the sample reads as seconds at the
    nominal speed (see TimedPhase). For the five set-up processes one sample
    each is too noisy, and the run's median stands in (factor). The work
    mixes what the workloads do: interpreted Python, numpy arithmetic on
    n=8193 vectors, a banded sparse product.
    """

    def __init__(self) -> None:
        import numpy as np
        import scipy.sparse as sp
        n = 8193
        self.np = np
        self.x = np.linspace(0.1, 2.0, n)
        self.w = np.linspace(1.0, 3.0, n)
        self.band = sp.diags([np.full(n - abs(k), 1.0 / (1 + abs(k)))
                              for k in range(-2, 3)], range(-2, 3), format="csr")
        self.samples: list[float] = []

    def sample(self) -> float:
        np, x, w, band = self.np, self.x, self.w, self.band
        t0 = time.perf_counter()
        acc = 0
        for i in range(40000):
            acc += i * i % 7
        for _ in range(80):
            y = band @ x
            acc += float(np.sum(w * y * y)) + float(np.sum(np.abs(y) ** 2.5))
        took = time.perf_counter() - t0
        self.samples.append(took)
        return took

    def factor(self) -> float:
        """Nominal over measured speed, from the run's median sample."""
        return REF_NOMINAL_S / statistics.median(self.samples)


class TimedPhase:
    """Wall and nominal time of a timed phase that reference samples cut
    into blocks. Each block is charged at the speed of the sample that opens
    it; the samples themselves are not charged."""

    def __init__(self, ref: Reference) -> None:
        self.ref = ref
        self.ref_s = 0.0
        self.nominal = 0.0
        self.scale = None
        self.t0 = self.mark = time.perf_counter()

    def sample(self) -> None:
        now = time.perf_counter()
        if self.scale is not None:
            self.nominal += (now - self.mark) * self.scale
        took = self.ref.sample()
        self.ref_s += took
        self.scale = REF_NOMINAL_S / took
        self.mark = time.perf_counter()

    def end(self) -> tuple[float, float]:
        """(wall s, nominal s) of the phase, reference samples left out."""
        now = time.perf_counter()
        self.nominal += (now - self.mark) * self.scale
        return now - self.t0 - self.ref_s, self.nominal


# ------------------------------------------------------- in-process loops

class InProcess:
    """solve-fine and domain: calls into the package from this process.

    Calls go through package attributes (bhgs.minimize, ...) so that spans,
    when installed, see them.
    """

    def __init__(self, workload: str, inputs: dict, ref: Reference,
                 tracer=None):
        import bhgs
        import numpy as np
        self.bhgs = bhgs
        self.np = np
        self.workload = workload
        self.inputs = inputs
        self.ref = ref
        self.tracer = tracer
        self.q_tol = bhgs.SolverConfig().q_tol
        self.grid = None

    def setup(self) -> None:
        """solve-fine readiness: the cold n=8193 grid; domain has none."""
        if self.workload == "solve-fine":
            self.params = self.bhgs.LandscapeParams(N=5, q=3.0, mu=1.0)
            self.grid = self.bhgs.build_grid(5, 8193, 1000.0)
            self.thresholds = self.bhgs.mass_threshold(self.params)

    def plan(self):
        """(op id, draw index, mass fraction) in run order."""
        if self.workload == "solve-fine":
            for i, f in enumerate(self.inputs["masses"]):
                yield i, None, f
            return
        i = 0
        for d in range(len(self.inputs["draws"])):
            for f in self.inputs["fractions"]:
                yield i, d, f
                i += 1

    def run(self, limit: int | None = None
            ) -> tuple[list[dict], float, float]:
        """(ops, wall s, nominal s); each op has its wall latency `lat` and
        its nominal latency `nlat`."""
        bhgs = self.bhgs
        ops = []
        current = None
        phase = TimedPhase(self.ref)
        for i, d, f in self.plan():
            if limit is not None and i >= limit:
                break
            if i % REF_EVERY == 0:
                phase.sample()
            if self.tracer is not None:
                self.tracer.op = i
            if d is not None and d != current:
                N, q, mu, cgn, ssob = self.inputs["draws"][d]
                self.params = bhgs.LandscapeParams(N=N, q=q, mu=mu, C_gn=cgn,
                                                   S_sob=ssob)
                self.grid = bhgs.build_grid(N, 2049, 1000.0)
                self.thresholds = bhgs.mass_threshold(self.params)
                current = d
            op = self.op(f)
            op["nlat"] = op["lat"] * phase.scale
            ops.append(op)
        wall, nominal = phase.end()
        if self.tracer is not None:
            self.tracer.op = -1
        return ops, wall, nominal

    def op(self, frac: float) -> dict:
        bhgs, params, grid = self.bhgs, self.params, self.grid
        _, c0, rho0 = self.thresholds
        c = frac * c0
        t = time.perf_counter()
        try:
            st = bhgs.minimize(params, grid, c)
        except (bhgs.ConvergenceError, bhgs.DomainError) as exc:
            return {"lat": time.perf_counter() - t, "fail": classify(str(exc)),
                    "out": classify(str(exc))}
        lat = time.perf_counter() - t
        if self.workload == "solve-fine":
            try:
                bhgs.fiber_consistency(params, st)
            except (bhgs.ConvergenceError, bhgs.DomainError) as exc:
                return {"lat": lat, "fail": classify(str(exc)),
                        "out": classify(str(exc))}
        u = st.field.values
        rec = {"c": c, "m": st.m, "lambda": st.lam, "bend": st.bend,
               "q_residual": st.q_residual, "rho0": rho0, "iters": st.iters,
               "mass": float(self.np.sum(grid.weights * u * u))}
        return {"lat": lat, "fail": None, "rec": rec,
                "out": [st.m.hex(), st.lam.hex()]}

    def check(self, ops: list[dict]) -> tuple[list[str], list[str]]:
        """Mark ops whose records fail a check; return (check failures,
        self-test problems)."""
        bad = []
        ok = [o for o in ops if o["fail"] is None]
        for o in ok:
            why = check_solution(o["rec"], self.q_tol)
            if why:
                o["fail"] = "check"
                bad.append("; ".join(why))
        expo = None
        if self.workload == "solve-fine":
            expo = scaling_exponent(5, 3.0)
            good = [o for o in ok if o["fail"] is None]
            for i in scaling_outliers([o["rec"] for o in good], expo):
                good[i]["fail"] = "check"
                bad.append(f"m/c^{expo:.6g} off the common ratio at "
                           f"c={good[i]['rec']['c']}")
        first = next((o["rec"] for o in ok if o["fail"] is None), None)
        peers = [o["rec"] for o in ok if o["fail"] is None][:10]
        return bad, selftest_solution(first, self.q_tol, expo, peers)


# ---------------------------------------------------------------- cli loop

def spawn(argv: list[str], cwd: str, env: dict, out_path: str,
          err_path: str) -> tuple[float, int, float]:
    """Run one process to exit; (wall s from spawn to exit, exit code, peak
    RSS MB of that process)."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def cli_rotation(frac_c: float) -> list[tuple[str, list[str], dict]]:
    return [
        ("constants", ["constants"], {}),
        ("constants_est", ["constants"], {"BHGS_CONSTANTS__MODE": "estimated"}),
        ("landscape", ["landscape"], {}),
        ("solve", ["solve", "--c", repr(frac_c), "--out", "field.csv"], {}),
        ("fiber", ["fiber", "--field", "field.csv"], {}),
        ("sweep", ["sweep"], {}),
        ("verify", ["verify"], {}),
    ]


class Cli:
    """Each command in a fresh interpreter, from a per-rotation directory."""

    def __init__(self, work: str, inputs: dict, env: dict, ref: Reference,
                 launcher: list[str] | None):
        import bhgs
        self.bhgs = bhgs
        self.work = work
        self.inputs = inputs
        self.env = env
        self.ref = ref
        self.launcher = launcher
        self.params = bhgs.LandscapeParams(N=5, q=3.0, mu=1.0)
        _, self.c0, self.rho0 = bhgs.mass_threshold(self.params)
        self.q_tol = bhgs.SolverConfig().q_tol
        self.grid = bhgs.build_grid(5, 2049, 1000.0)

    def run(self, rotations: int | None = None, tag: str = "rot",
            launcher: list[str] | None = None
            ) -> tuple[list[dict], float, float]:
        """(ops, wall s, nominal s), as InProcess.run."""
        launcher = launcher if launcher is not None else self.launcher
        fracs = self.inputs["solve_fractions"][:rotations]
        ops = []
        phase = TimedPhase(self.ref)
        for r, frac in enumerate(fracs):
            cwd = os.path.join(self.work, f"{tag}{r}")
            os.makedirs(cwd, exist_ok=True)
            for name, args, extra in cli_rotation(frac * self.c0):
                env = dict(self.env, **extra)
                base = os.path.join(cwd, name)
                phase.sample()
                if launcher:
                    argv = launcher + ["--spans", base + ".spans.json", "--"] + args
                else:
                    argv = [sys.executable, "-m", "bhgs.cli"] + args
                wall, code, rss = spawn(argv, cwd, env, base + ".out",
                                        base + ".err")
                ops.append({"name": name, "lat": wall,
                            "nlat": wall * phase.scale, "code": code,
                            "rss": rss, "cwd": cwd, "base": base,
                            "op": len(ops)})
        wall, nominal = phase.end()
        return ops, wall, nominal

    # ------------------------------------------------------------- checks
    def read(self, op: dict) -> tuple[bytes, str]:
        with open(op["base"] + ".out", "rb") as fh:
            out = fh.read()
        with open(op["base"] + ".err", "r", encoding="utf-8") as fh:
            err = "".join(line for line in fh
                          if not line.startswith("import time:"))
        return out, err

    def check(self, ops: list[dict]) -> tuple[list[str], list[str], list[str]]:
        """Set each op's fail kind and output; return (check failures,
        crashes without a JSON error, self-test problems)."""
        bad, crashes = [], []
        solve_rec = verify_lines = const_rec = None
        for o in ops:
            out, err = self.read(o)
            o["out"] = [o["code"], hashlib.sha256(out).hexdigest()]
            o["fail"] = None
            if o["code"] != 0:
                try:
                    o["fail"] = classify(json.loads(err.strip().splitlines()[-1])
                                         ["message"])
                except (ValueError, KeyError, IndexError):
                    o["fail"] = "other"
                    crashes.append(f"{o['name']} exit {o['code']}: {err[-300:]}")
                continue
            lines = [json.loads(x) for x in out.decode().splitlines() if x]
            why = self.check_command(o, lines)
            if why:
                o["fail"] = "check"
                bad.append(f"{o['name']} in {o['cwd']}: {'; '.join(why)}")
            elif o["name"] == "solve" and solve_rec is None:
                solve_rec = self.solve_record(o, lines[-1])
            elif o["name"] == "verify" and verify_lines is None:
                verify_lines = lines
            elif o["name"] == "constants" and const_rec is None:
                const_rec = lines[-1]
        problems = selftest_solution(solve_rec, self.q_tol, None, [])
        if verify_lines is None or not self.check_verify(
                verify_lines[:-1] + [dict(verify_lines[-1], passed=False)]):
            problems.append("verify check passed a failed check line")
        if const_rec is None or not self.check_constants(
                dict(const_rec, c0=const_rec["c0"] * (1 + 1e-12))):
            problems.append("constants check passed a perturbed c0")
        return bad, crashes, problems

    def solve_record(self, op: dict, rec: dict) -> dict:
        import numpy as np
        vals = np.loadtxt(os.path.join(op["cwd"], "field.csv"), delimiter=",",
                          skiprows=2)[:, 1]
        return {"c": rec["c"], "m": rec["m"], "bend": rec["bend"],
                "q_residual": rec["q_residual"], "rho0": self.rho0,
                "mass": float(np.sum(self.grid.weights * vals * vals))}

    def check_constants(self, rec: dict) -> list[str]:
        p = self.bhgs.LandscapeParams(N=rec["N"], q=rec["q"], mu=rec["mu"],
                                      C_gn=rec["C_gn"], S_sob=rec["S_sob"])
        c0 = self.bhgs.mass_threshold(p)[1]
        return [] if rec["c0"] == c0 else [f"c0={rec['c0']} is not {c0}"]

    def check_verify(self, lines: list[dict]) -> list[str]:
        failed = [x["check"] for x in lines if x.get("passed") is not True]
        if len(lines) != 7 or failed:
            return [f"{len(lines)} checks, failed: {failed}"]
        return []

    def check_command(self, op: dict, lines: list[dict]) -> list[str]:
        name = op["name"]
        if not lines:
            return ["no record on stdout"]
        rec = lines[-1]
        if name in ("constants", "constants_est"):
            return self.check_constants(rec)
        if name == "landscape":
            why = [] if rec["c0"] == self.c0 else [f"c0={rec['c0']}"]
            with open(os.path.join(op["cwd"], "landscape_summary.csv"),
                      encoding="utf-8") as fh:
                flags = [row.rstrip("\n").rsplit(",", 1)[1] for row in fh
                         if row[0].isdigit()]
            if not flags or any(f != "true" for f in flags):
                why.append(f"J not positive on the bend boundary: {flags}")
            return why
        if name == "solve":
            return check_solution(self.solve_record(op, rec), self.q_tol)
        if name == "fiber":
            why = []
            if rec["kind1"] != "local-minimum" or not rec["psi_at_s1"] < 0:
                why.append(f"fiber of a ground state has no negative minimum: "
                           f"{rec['kind1']} {rec['psi_at_s1']}")
            return why
        if name == "verify":
            return self.check_verify(lines)
        return []       # sweep: exit 0 is its check
