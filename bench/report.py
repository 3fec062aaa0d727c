"""Steadiness report: run bench/run.py over seeds and summarize.

    python3 bench/report.py [--workloads cli,solve-fine,domain] \
        [--seeds 1-10] [--repeat 1] [--trace 0|1|both] [--seconds S]

Runs every (workload, seed, trace) combination one after another, `repeat`
times each, from the current directory (the root of a checkout). For each
workload it prints every metric the runs measured, end to end and per
layer, with its unit, run count, median, quartiles and spread (quartile
distance over median, as statistics.quantiles(n=4) gives them) next to the
bound BENCHMARK.json sets. It flags:

- WIDE: spread at or above a third of the bound; OVER: at or above the bound;
- DEFECT: a count (attempted, failed, failure kinds, per-layer counts, input
  and output digests) that differs between runs of the same seed and trace;
- a traced run whose outputs differ from the untraced run of its seed.

With both trace modes it also prints the trace overhead per workload: the
traced timed phase over the untraced one of the same seed, minus one (the
inputs are identical). Exits 1 if any run failed or any flag other than
WIDE was raised.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
COUNT_UNITS = ("count", "ratio", "B")


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
            workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-3000:]}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    tag = f"{workload}-seed{seed}-trace{trace}"
    with open(os.path.join(".bench_out", tag + ".json"), encoding="utf-8") as fh:
        full = json.load(fh)
    return {"last": last, "full": full}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--trace", choices=("0", "1", "both"), default="0")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    traces = (0, 1) if args.trace == "both" else (int(args.trace),)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    flags = 0

    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            for trace in traces:
                for rep in range(args.repeat):
                    r = run_once(workload, seed, args.seconds, trace)
                    r.update(seed=seed, trace=trace)
                    runs.append(r)
                    f = r["full"]
                    print(f"  ran {workload} seed {seed} trace {trace} #{rep}: "
                          f"correct={r['last']['correct']} "
                          f"{f['attempted']} ops, {f['failed']} failed "
                          f"{f['fail_kinds']}, "
                          f"timed {f['timed_s']:.2f} s", flush=True)
                    if not r["last"]["correct"]:
                        flags += 1
                        print(f"  NOT CORRECT: {f['check_failures']} "
                              f"{f['crashes']} {f['selftest_problems']} "
                              f"{f.get('cross_check')}")

        print(f"\n== {workload}: {len(runs)} runs of {args.seconds} s")
        print(f"{'metric':<42} {'unit':<6} {'runs':>4} {'n':>6} {'median':>12} "
              f"{'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  flag")
        for trace in traces:
            key = "per_layer" if trace else "end_to_end"
            group = [r for r in runs if r["trace"] == trace]
            names = list(group[0]["full"][key]) if group else []
            for name in names:
                vals = [r["full"][key][name] for r in group]
                values = [v[0] for v in vals]
                unit = vals[0][1]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med if med else 0.0
                bound = bounds.get(name) if not trace else None
                flag = ""
                if bound is not None and name != "setup_s":
                    if spread >= bound:
                        flag, flags = "OVER", flags + 1
                    elif spread >= bound / 3:
                        flag = "WIDE"
                print(f"{name:<42} {unit:<6} {len(values):>4} "
                      f"{statistics.median(v[2] for v in vals):>6g} "
                      f"{med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} "
                      f"{'' if bound is None else bound:>6}  {flag}")
            if trace == 0 and workload != "cli":
                for name in ("cli." + c for c in ("constants_s", "constants_est_s",
                             "landscape_s", "solve_s", "fiber_s", "sweep_s",
                             "verify_s")):
                    print(f"{name:<42} {'s':<6} {'n/a (cli workload only)'}")
            if trace:
                shares = {}
                for r in group:
                    for layer, v in r["full"]["self_share"].items():
                        shares.setdefault(layer, []).append(v)
                print("self-time share of the timed phase (median): " + ", ".join(
                    f"{k} {statistics.median(v):.3f}" for k, v in shares.items()))

        # counts must repeat exactly for one seed and trace mode
        by_key = {}
        for r in runs:
            f = r["full"]
            counts = {"attempted": f["attempted"], "failed": f["failed"],
                      "fail_kinds": f["fail_kinds"],
                      "inputs": f["inputs_sha256"],
                      "outputs": f["outputs_sha256"]}
            for name, (value, unit, _) in f.get("per_layer", {}).items():
                if unit in COUNT_UNITS:
                    counts[name] = value
            by_key.setdefault((r["seed"], r["trace"]), []).append(counts)
        for (seed, trace), group in by_key.items():
            for name in group[0]:
                if any(g[name] != group[0][name] for g in group[1:]):
                    flags += 1
                    print(f"DEFECT: {name} differs between runs of seed {seed} "
                          f"trace {trace}: {[g[name] for g in group]}")
        if len(traces) == 2:
            overheads = []
            for seed in parse_seeds(args.seeds):
                plain = [r for r in runs if r["seed"] == seed and not r["trace"]]
                traced = [r for r in runs if r["seed"] == seed and r["trace"]]
                for a, b in zip(plain, traced):
                    overheads.append(b["full"]["timed_s"] / a["full"]["timed_s"] - 1)
                    if a["full"]["outputs_sha256"] != b["full"]["outputs_sha256"]:
                        flags += 1
                        print(f"DEFECT: traced outputs differ from untraced, "
                              f"seed {seed}")
            print(f"trace overhead (traced/untraced timed phase - 1): median "
                  f"{statistics.median(overheads):.4f} over {len(overheads)} pairs")
    print(f"\n{flags} flag(s) raised")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
