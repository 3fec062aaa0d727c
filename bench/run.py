"""bhgs benchmark: one run of one workload.

    python3 bench/run.py --workload {cli,solve-fine,domain} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ./src.
Workloads (why each exists is in BENCHMARK.json and workloads.py):

- cli: the seven commands users run, each in a fresh interpreter;
- solve-fine: minimize + fiber_consistency at N=5, q=3, mu=1 on n=8193;
- domain: solves across drawn (N, q, mu, C_gn, S_sob) on the default grid.

With --trace 0 the run measures end to end; with --trace 1 it installs
spans around every layer's public functions (spans.py) and reports per-layer
calls, self time and counts instead. The last line of stdout is one JSON
object: correct, attempted, failed and the metrics BENCHMARK.json lists for
that mode. The lines before it are a table of every metric the run measured
with its unit and sample count, and the full result (metadata, input and
output digests, failure kinds, self-test) goes to
.bench_out/<workload>-seed<N>-trace<T>.json.
"""
import os
import sys

# one BLAS/OpenMP thread in this process and every process it starts; set
# before numpy loads
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402
from spans import LAYERS, SPAN_NAMES, Tracer, summarize  # noqa: E402

WORKLOADS = ("cli", "solve-fine", "domain")
SETUP_REPS = 5
# readiness of a fresh interpreter, per workload
SETUP_PROBES = {
    "cli": "import bhgs.cli",
    "solve-fine": "import bhgs; bhgs.build_grid(5, 8193, 1000.0)",
    "domain": "import bhgs",
}
GRID_N = {"cli": 2049, "solve-fine": 8193, "domain": 2049}
IMPORTS = {"numpy": "numpy", "scipy.linalg": "scipy_linalg",
           "scipy.sparse": "scipy_sparse",
           "scipy.interpolate": "scipy_interpolate", "mpmath": "mpmath",
           "bhgs": "bhgs"}


# ------------------------------------------------------------------ helpers

def nearest_rank(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def op_quantile(ops: list[dict], wall: float, p: float, key: str) -> float:
    """Quantile of o[key] in which each failed op sorts above every success
    and reads as the timed phase `wall`: a failure misses any limit."""
    ok = sorted(o[key] for o in ops if o["fail"] is None)
    return nearest_rank(ok + [wall] * (len(ops) - len(ok)), p)


def child_env(root: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("BHGS_")}
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.update(THREAD_ENV)
    return env


def parse_importtime(text: str) -> dict:
    """Cumulative seconds per IMPORTS module, from `python -X importtime`
    stderr: the first line naming it, except that bhgs sums the top-level
    lines of the package and its submodules, which nest everything else."""
    out = {}
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        if not cum.strip().isdigit():
            continue
        depth = len(name) - len(name.lstrip()) - 1
        mod = name.strip()
        secs = int(cum) / 1e6
        if depth == 0 and (mod == "bhgs" or mod.startswith("bhgs.")):
            out["bhgs"] = out.get("bhgs", 0.0) + secs
        elif mod in IMPORTS and mod not in out:
            out[mod] = secs
    return out


def measure_setup(workload: str, root: str, env: dict, work: str,
                  ref: wl.Reference,
                  importtime: bool) -> tuple[list[float], list[dict]]:
    """Interpreter start to ready, SETUP_REPS fresh processes."""
    samples, imports = [], []
    code = (SETUP_PROBES[workload]
            + "; import sys; sys.stdout.write('ready\\n'); sys.stdout.flush()")
    argv = [sys.executable] + (["-X", "importtime"] if importtime else []) \
        + ["-c", code]
    err_path = os.path.join(work, "setup.err")
    for _ in range(SETUP_REPS):
        ref.sample()
        with open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=root, env=env,
                                    stdout=subprocess.PIPE, stderr=err)
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            proc.stdout.read()
            proc.stdout.close()
            code_ = proc.wait()
        if line != b"ready\n" or code_ != 0:
            with open(err_path, encoding="utf-8", errors="replace") as fh:
                raise RuntimeError(f"set-up probe failed: {fh.read()[-2000:]}")
        samples.append(ready)
        if importtime:
            with open(err_path, encoding="utf-8") as fh:
                imports.append(parse_importtime(fh.read()))
    return samples, imports


def read_text(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def metadata(root: str) -> dict:
    from importlib import metadata as md
    import numpy as np
    cpuinfo = read_text("/proc/cpuinfo") or ""
    model = next((ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines()
                  if ln.startswith("model name")), platform.processor())
    caches = {}
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level = (read_text(os.path.join(d, "level")) or "").strip()
        kind = (read_text(os.path.join(d, "type")) or "").strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = (read_text(os.path.join(d, "size")) or "").strip()
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    try:
        commit = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root)),
        ).stdout.strip() or None
    except OSError:
        commit = None
    src = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "bhgs", "*.py"))):
        with open(path, "rb") as fh:
            src.update(fh.read())
    return {
        "nproc": os.cpu_count(), "cpu_model": model, "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__, "scipy": md.version("scipy"),
        "mpmath": md.version("mpmath"),
        "openblas": blas.get("openblas configuration", blas.get("version")),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "git_commit": commit, "source_sha256": src.hexdigest(),
    }


# ------------------------------------------------------------------- runs

def run_in_process(workload: str, inputs: dict, ref: wl.Reference,
                   trace: bool) -> dict:
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    w = wl.InProcess(workload, inputs, ref, tracer)
    w.setup()
    ops, wall, nominal = w.run()
    bad, selftest = w.check(ops)
    res = {"ops": ops, "wall": wall, "nominal": nominal, "bad": bad,
           "crashes": [],
           "selftest": selftest,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        tracer.uninstall()
        w.tracer = None
        k = min(wl.TRACE_RECHECK_OPS, len(ops))
        again, _, _ = w.run(limit=k)
        res["tables"] = [tracer.table()]
        res["recheck"] = {
            "ops": k,
            "equal": [o["out"] for o in ops[:k]] == [o["out"] for o in again],
            "overhead": (sum(o["lat"] for o in ops[:k])
                         / sum(o["lat"] for o in again) - 1.0),
        }
    return res


def run_cli(inputs: dict, ref: wl.Reference, trace: bool, work: str,
            env: dict) -> dict:
    launcher = ([sys.executable, "-X", "importtime",
                 os.path.join(HERE, "launch.py")] if trace else None)
    cli = wl.Cli(work, inputs, env, ref, launcher)
    ops, wall, nominal = cli.run()
    bad, crashes, selftest = cli.check(ops)
    res = {"ops": ops, "wall": wall, "nominal": nominal, "bad": bad,
           "crashes": crashes,
           "selftest": selftest, "peak_rss_mb": max(o["rss"] for o in ops)}
    if trace:
        tables, imports = [], []
        for o in ops:
            with open(o["base"] + ".spans.json", encoding="utf-8") as fh:
                tab = json.load(fh)
            for span in tab["spans"]:
                span[4] = o["op"]
            tables.append(tab)
            with open(o["base"] + ".err", encoding="utf-8") as fh:
                imports.append(parse_importtime(fh.read()))
        first = ops[:len(wl.CLI_COMMANDS)]
        again, _, _ = cli.run(rotations=1, tag="untraced", launcher=[])
        cli.check(again)
        res["tables"] = tables
        res["imports"] = imports
        res["recheck"] = {
            "ops": len(first),
            "equal": [o["out"] for o in first] == [o["out"] for o in again],
            "overhead": (sum(o["lat"] for o in first)
                         / sum(o["lat"] for o in again) - 1.0),
        }
    return res


# ---------------------------------------------------------------- metrics

def times(workload: str, ops: list[dict], wall: float, setup: list[float],
          key: str) -> dict:
    """name -> (seconds, sample count), from the op latencies o[key], the
    timed phase `wall` and the set-up samples."""
    ok = sum(1 for o in ops if o["fail"] is None)
    t = {
        "setup_s": (statistics.median(setup), len(setup)),
        # with no solution at all the whole timed phase is charged to one
        "s_per_solution": (wall / max(ok, 1), ok),
        "op_p50_s": (op_quantile(ops, wall, 0.5, key), len(ops)),
        "op_p90_s": (op_quantile(ops, wall, 0.9, key), len(ops)),
    }
    if workload == "cli":
        for name in wl.CLI_COMMANDS:
            lat = [o[key] for o in ops if o["name"] == name]
            t[f"cli.{name}_s"] = (statistics.median(lat), len(lat))
    return t


def end_to_end(workload: str, res: dict, setup: list[float],
               ref: wl.Reference) -> dict:
    """name -> (value, unit, sample count).

    Times are given twice: `wall.<name>` as measured, and `<name>` at the
    nominal host speed. In the timed phase each stretch of work is scaled
    by the reference sample taken just before it (workloads.TimedPhase);
    the five set-up processes are too few for that, one sample being as
    noisy as a probe, so `setup_s` is scaled by the run's median reference
    time. BENCHMARK.json gates the nominal times.
    """
    setup_nominal = [x * ref.factor() for x in setup]
    ops = res["ops"]
    ok = sum(1 for o in ops if o["fail"] is None)
    m = {name: (value, "s", n) for name, (value, n) in
         times(workload, ops, res["nominal"], setup_nominal, "nlat").items()}
    m["fail_frac"] = ((len(ops) - ok) / len(ops), "ratio", len(ops))
    m["peak_rss_mb"] = (res["peak_rss_mb"], "MB",
                        len(ops) if workload == "cli" else 1)
    m.update({f"wall.{name}": (value, "s", n) for name, (value, n) in
              times(workload, ops, res["wall"], setup, "lat").items()})
    m["wall.reference_s"] = (statistics.median(ref.samples), "s",
                             len(ref.samples))
    return m


def per_layer(workload: str, res: dict) -> tuple[dict, dict, list[str]]:
    """(name -> (value, unit, samples), layer -> timed self share,
    cross-check failures)."""
    s = summarize(res["tables"], GRID_N[workload])
    m = {}
    for name in SPAN_NAMES:
        m[f"{name}.calls"] = (s["calls"].get(name, 0), "count", 1)
        m[f"{name}.self_s"] = (s["self_s"].get(name, 0.0), "s",
                               s["calls"].get(name, 0))
    counts = s["counts"]
    m["grid.build_grid.nodes"] = (counts.get("grid.build_grid.nodes", 0),
                                  "count", 1)
    m["minimizer.iters"] = (counts.get("minimizer.iters", 0), "count", 1)
    m["minimizer.trials_per_iter"] = (
        s["bundles_direct"] / s["iterations"] if s["iterations"] else 0.0,
        "ratio", s["iterations"])
    m["minimizer.seed.halvings"] = (s["seed_halvings"], "count", 1)
    for kind in wl.FAIL_KINDS:
        m[f"minimizer.fail.{kind}"] = (
            sum(1 for o in res["ops"] if o["fail"] == kind), "count", 1)
    imports = res.get("imports", []) + res.get("setup_imports", [])
    for mod, label in IMPORTS.items():
        got = [x[mod] for x in imports if mod in x]
        m[f"cli.import.{label}_s"] = (statistics.median(got) if got else 0.0,
                                      "s", len(got))
    m["computed_bytes_per_op"] = (s["computed_bytes"] / len(res["ops"]),
                                  "B", len(res["ops"]))

    base = (sum(o["lat"] for o in res["ops"]) if workload == "cli"
            else res["wall"])
    shares = {layer: sum(s["timed_self_s"].get(f"{layer}.{fn}", 0.0)
                         for fn in fns) / base
              for layer, fns in LAYERS.items()}
    shares["(outside spans)"] = 1.0 - sum(shares.values())

    problems = []
    need = counts.get("minimizer.iters", 0) + s["minimize_ok"]
    if s["bundles_under_minimize"] < need:
        problems.append(f"norm_bundle spans under minimize "
                        f"{s['bundles_under_minimize']} < iters + successes {need}")
    calls = s["calls"]
    if workload == "cli":
        if calls.get("cli.main", 0) != len(res["ops"]):
            problems.append(f"cli.main spans {calls.get('cli.main', 0)} != "
                            f"commands {len(res['ops'])}")
    else:
        if calls.get("minimizer.minimize", 0) != len(res["ops"]):
            problems.append(f"minimize spans {calls.get('minimizer.minimize', 0)}"
                            f" != ops {len(res['ops'])}")
        fc = calls.get("minimizer.fiber_consistency", 0)
        if workload == "solve-fine" and fc != s["minimize_ok"]:
            problems.append(f"fiber_consistency spans {fc} != successful "
                            f"minimize spans {s['minimize_ok']}")
    if not res["recheck"]["equal"]:
        problems.append("traced outputs differ from untraced outputs")
    return m, shares, problems


# ------------------------------------------------------------------- main

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    # one core for this process and every process it starts: the host's
    # cores change speed independently, and a reference sample tells the
    # speed of the core it ran on only
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(root, "src", "bhgs", "__init__.py")):
        sys.stderr.write(f"no bhgs package under {root}/src; run from the root "
                         "of a checkout\n")
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    trace = bool(args.trace)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(root, ".bench_work", tag)
    out_dir = os.path.join(root, ".bench_out")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(out_dir, exist_ok=True)
    env = child_env(root)
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    os.path.join(root, "src", "bhgs")], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    sys.path.insert(0, os.path.join(root, "src"))
    load_before = os.getloadavg()

    ref = wl.Reference()
    setup, setup_imports = measure_setup(args.workload, root, env, work, ref,
                                         trace)
    inputs = wl.make_inputs(args.workload, args.seed, args.seconds)
    if args.workload == "cli":
        res = run_cli(inputs, ref, trace, work, env)
    else:
        res = run_in_process(args.workload, inputs, ref, trace)
    res["setup_imports"] = setup_imports
    ops = res["ops"]
    failed = sum(1 for o in ops if o["fail"] is not None)
    kinds = {k: sum(1 for o in ops if o["fail"] == k)
             for k in (*wl.FAIL_KINDS, "check") if any(o["fail"] == k for o in ops)}
    # A wrong output fails its op (kind `check`, counted in `failed` and
    # fail_frac); the run is incorrect when the benchmark cannot vouch for
    # its own accounting: an op died without a classified error, a check
    # let a corrupted record through, or (traced) spans missed calls or
    # changed outputs.
    problems = res["crashes"] + res["selftest"]

    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": len(ops), "failed": failed,
        "fail_kinds": kinds, "timed_s": res["wall"],
        "nominal_timed_s": res["nominal"], "setup_samples_s": setup,
        "reference_samples_s": ref.samples,
        "op_latencies_s": [o["lat"] for o in ops],
        "op_nominal_latencies_s": [o["nlat"] for o in ops],
        "inputs_sha256": wl.digest(inputs),
        "outputs_sha256": wl.digest([o["out"] for o in ops]),
        "check_failures": res["bad"][:20], "crashes": res["crashes"][:20],
        "selftest_problems": res["selftest"],
    }
    if trace:
        layer, shares, cross = per_layer(args.workload, res)
        problems += cross
        result.update(per_layer=layer, self_share=shares, cross_check=cross,
                      trace_recheck=res["recheck"])
        metrics, wanted = layer, spec["per_layer"]
        with open(os.path.join(out_dir, tag + ".spans.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(res["tables"], fh)
    else:
        metrics = end_to_end(args.workload, res, setup, ref)
        wanted = spec["end_to_end"]
        result["end_to_end"] = metrics
    result["load_avg"] = {"before": load_before, "after": os.getloadavg()}
    result["meta"] = metadata(root)
    result["correct"] = not problems
    with open(os.path.join(out_dir, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)

    print(f"# {tag}: {len(ops)} ops, {failed} failed {kinds}, "
          f"timed {res['wall']:.3f} s, inputs {result['inputs_sha256'][:16]}")
    for p in res["bad"][:20]:
        print(f"# CHECK FAILED (op counted as failed) {p}")
    for p in problems[:20]:
        print(f"# PROBLEM {p}")
    if trace:
        print("# self-time share of the timed phase: " + ", ".join(
            f"{k} {v:.3f}" for k, v in shares.items()))
        print(f"# trace recheck: {res['recheck']}")
    print(f"# {'metric':<40} {'value':>14} {'unit':<6} n")
    for name, (value, unit, n) in metrics.items():
        print(f"# {name:<40} {value:>14.6g} {unit:<6} {n}")

    out = {}
    for item in wanted:
        value, unit, _ = metrics[item["name"]]
        if unit != item["unit"]:
            raise RuntimeError(f"{item['name']}: unit {unit} != {item['unit']}")
        out[item["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": not problems, "attempted": len(ops),
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
