"""Census of the solver's ops: every op's outcome, bit for bit.

    python3 tools/census.py --seeds 29811-29814 > census.jsonl
    python3 tools/census.py --estimated > estimated.jsonl
    python3 tools/census.py --compare before.jsonl after.jsonl

The first form runs `minimize` on each op of the benchmark's domain
workload: for each seed, the draws `domain_draws(seed, 217)` of
bench/workloads.py, each on `build_grid(N, 2049, 1000.0)` at every mass
fraction of DOMAIN_FRACTIONS times c0. It writes one JSON line per op: the
op's seed, draw index and fraction, the draw (N, q, mu, C_gn, S_sob)
itself, then its outcome (ok, or the error's type), the ConvergenceError's
kind, the error message, m, lambda and q_residual as float hex, iters, and
the wall time of its `minimize` call in seconds as wall_s.
The package is imported from the src/ directory of the checkout that holds
this script, so a copy of the script in another checkout censuses that
checkout's code.

The second form runs the 180 estimated-mode ops: mu = 1, C_gn from
estimate_gn_constant, the sharp S_sob, N = 5..10, q = 2 + f 8/N at the q
fractions f = 0.05, 0.15, ..., 0.95, and masses 0.1, 0.5 and 0.9 times
c0, on the same grids. Its records have the first form's keys, with seed
"estimated" and draw counting the (N, q) pairs in that order, plus
"crit/bend" of the returned state as float hex. Where estimate_gn_constant
or the threshold fails, the draw's C_gn is None and each of its three ops
records that error.

The third form reads two such files of one form and lists, by (seed,
draw, fraction), the ops that moved (both ok with another m, lambda,
q_residual or iters, or both failed with another outcome, kind or
message), were lost (ok in the first, failed in the second) or were
gained (the reverse), and the ops only one file has; wall_s differs from
run to run and is left out of the comparison. It then sums each file's
wall time by kind, one line per file, as "wall time by kind in a.jsonl:
stall 10.6 s, ok 5.5 s, ..." ("none" for a file without wall times),
counts each file's ops by kind (the outcome where there is no kind), one
line per file, as "kinds in a.jsonl: ok 2172, seed 1840, under-resolved
1639, stall 859", and the moved ops by transition of kind, as "moved by
kind: stall→stall 204, line-search→stall 16". Its last line
says how far the moved successes moved: their count, the largest relative
move of m and of lambda among them, and how many changed iters, as
"moved successes: 263; largest relative move of m 2.8e-12, of λ 1.6e-12;
iters changed on 0" ("moved successes: none" where none moved). It exits
0 when the two agree on every op and 1 otherwise.
"""
import os
import sys

# one BLAS thread, as in the benchmark; set before numpy loads
os.environ.update({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"})

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DRAWS_PER_SEED = 217


def parse_seeds(text: str) -> list[int]:
    """'29811-29814' or '29811,29813' (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def load():
    """The package and bench/workloads.py of this checkout."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    import bhgs
    import workloads
    return bhgs, workloads


def record(key: dict, exc=None) -> dict:
    """An op's record, its key fields first, with the error exc's outcome,
    kind and message where one is given."""
    rec = {**key, "outcome": "ok", "kind": None, "message": None, "m": None,
           "lambda": None, "q_residual": None, "iters": None, "wall_s": None}
    if exc is not None:
        rec.update(outcome=type(exc).__name__,
                   kind=getattr(exc, "kind", None), message=str(exc))
    return rec


def solve(bhgs, params, grid, c: float, key: dict) -> tuple[dict, object]:
    """The record of one op and its state (None on failure)."""
    start = time.perf_counter()
    try:
        st = bhgs.minimize(params, grid, c)
    except (bhgs.ConvergenceError, bhgs.DomainError) as exc:
        rec, st = record(key, exc), None
    else:
        rec = record(key)
        rec.update(m=st.m.hex(), q_residual=st.q_residual.hex(),
                   iters=st.iters)
        rec["lambda"] = st.lam.hex()
    rec["wall_s"] = time.perf_counter() - start
    return rec, st


def census(seeds: list[int], out) -> None:
    bhgs, workloads = load()
    for seed in seeds:
        for d, draw in enumerate(workloads.domain_draws(seed,
                                                        DRAWS_PER_SEED)):
            N, q, mu, c_gn, s_sob = draw
            params = bhgs.LandscapeParams(N=N, q=q, mu=mu, C_gn=c_gn,
                                          S_sob=s_sob)
            grid = bhgs.build_grid(N, 2049, 1000.0)
            c0 = bhgs.mass_threshold(params)[1]
            for frac in workloads.DOMAIN_FRACTIONS:
                rec, _ = solve(bhgs, params, grid, frac * c0,
                               {"seed": seed, "draw": d, "frac": frac,
                                "params": draw})
                out.write(json.dumps(rec) + "\n")
                out.flush()


def census_estimated(out) -> None:
    bhgs, workloads = load()
    draw_index = 0
    for N in range(5, 11):
        grid = bhgs.build_grid(N, 2049, 1000.0)
        for k in range(10):
            q = 2.0 + (2 * k + 1) / 20 * 8.0 / N
            probe = bhgs.LandscapeParams(N=N, q=q, mu=1.0)
            s_sob = bhgs.estimate_sobolev_constant(probe)
            draw = [N, q, 1.0, None, s_sob]
            keys = [{"seed": "estimated", "draw": draw_index, "frac": frac,
                     "params": draw} for frac in workloads.DOMAIN_FRACTIONS]
            draw_index += 1
            try:
                c_gn = bhgs.estimate_gn_constant(probe)
                draw[3] = c_gn
                params = bhgs.LandscapeParams(N=N, q=q, mu=1.0, C_gn=c_gn,
                                              S_sob=s_sob)
                c0 = bhgs.mass_threshold(params)[1]
            except (bhgs.ConvergenceError, bhgs.DomainError) as exc:
                for key in keys:
                    out.write(json.dumps({**record(key, exc),
                                          "crit/bend": None}) + "\n")
                continue
            for key in keys:
                rec, st = solve(bhgs, params, grid, key["frac"] * c0, key)
                rec["crit/bend"] = (None if st is None
                                    else (st.bundle.crit / st.bend).hex())
                out.write(json.dumps(rec) + "\n")
                out.flush()


def read(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        recs = [json.loads(line) for line in fh if line.strip()]
    return {(r["seed"], r["draw"], r["frac"]): r for r in recs}


def compare(path_a: str, path_b: str) -> int:
    a, b = read(path_a), read(path_b)
    fields = ("outcome", "kind", "message", "m", "lambda", "q_residual",
              "iters")
    groups = {"moved": [], "lost": [], "gained": [], "only in first": [],
              "only in second": []}
    for key in sorted(a.keys() | b.keys()):
        if key not in b:
            groups["only in first"].append((key, a[key], None))
            continue
        if key not in a:
            groups["only in second"].append((key, None, b[key]))
            continue
        ra, rb = a[key], b[key]
        if all(ra[f] == rb[f] for f in fields):
            continue
        ok_a, ok_b = ra["outcome"] == "ok", rb["outcome"] == "ok"
        group = ("moved" if ok_a == ok_b else "lost" if ok_a else "gained")
        groups[group].append((key, ra, rb))
    same = len(a.keys() & b.keys()) - sum(
        len(groups[g]) for g in ("moved", "lost", "gained"))
    print(f"{len(a)} ops in {path_a}, {len(b)} in {path_b}; "
          f"{same} equal on every field")
    for name, items in groups.items():
        print(f"{name}: {len(items)}")
        for (seed, draw, frac), ra, rb in items:
            print(f"  seed {seed} draw {draw} frac {frac}")
            for f in fields:
                va = None if ra is None else ra[f]
                vb = None if rb is None else rb[f]
                if va != vb:
                    print(f"    {f}: {va!r} -> {vb!r}")
    for path, recs in ((path_a, a), (path_b, b)):
        walls = Counter()
        for r in recs.values():
            if r.get("wall_s") is not None:
                walls[kind(r)] += r["wall_s"]
        print(f"wall time by kind in {path}: "
              + counted(walls, lambda s: f"{s:.1f} s"))
    for path, recs in ((path_a, a), (path_b, b)):
        print(f"kinds in {path}: "
              + counted(Counter(kind(r) for r in recs.values())))
    print("moved by kind: " + counted(Counter(
        f"{kind(ra)}→{kind(rb)}" for _, ra, rb in groups["moved"])))
    oks = [(ra, rb) for _, ra, rb in groups["moved"] if ra["outcome"] == "ok"]
    if oks:
        print(f"moved successes: {len(oks)}; largest relative move of m "
              f"{max(rel_move(ra, rb, 'm') for ra, rb in oks):.2g}, of λ "
              f"{max(rel_move(ra, rb, 'lambda') for ra, rb in oks):.2g}; "
              f"iters changed on "
              f"{sum(ra['iters'] != rb['iters'] for ra, rb in oks)}")
    else:
        print("moved successes: none")
    return 0 if same == len(a) == len(b) else 1


def counted(counts: Counter, fmt=str) -> str:
    """'name count' pairs, most first (ties in the order first met), each
    count written by fmt, or 'none'."""
    return ", ".join(f"{name} {fmt(n)}" for name, n in sorted(
        counts.items(), key=lambda i: -i[1])) or "none"


def rel_move(ra: dict, rb: dict, f: str) -> float:
    """|b - a| / |a| of the float-hex field f of two success records (inf
    where a is 0 and b is not)."""
    va, vb = float.fromhex(ra[f]), float.fromhex(rb[f])
    return abs(vb - va) / abs(va) if va else (0.0 if vb == va else math.inf)


def kind(rec: dict) -> str:
    """An op's failure kind, or its outcome where it has none (ok, or an
    error without a kind)."""
    return rec["kind"] or rec["outcome"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--seeds", type=parse_seeds,
                      help="domain seeds, as 29811-29814 or 29811,29813")
    mode.add_argument("--estimated", action="store_true",
                      help="the 180 estimated-mode ops")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"),
                      help="two census files to compare")
    ap.add_argument("--out", help="census file to write (default stdout)")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    def run(out):
        if args.estimated:
            census_estimated(out)
        else:
            census(args.seeds, out)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            run(fh)
    else:
        run(sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
