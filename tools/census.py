"""Census of the benchmark's domain ops: every op's outcome, bit for bit.

    python3 tools/census.py --seeds 29811-29814 > census.jsonl
    python3 tools/census.py --compare before.jsonl after.jsonl

The first form runs `minimize` on each op of the domain workload: for each
seed, the draws `domain_draws(seed, 217)` of bench/workloads.py, each on
`build_grid(N, 2049, 1000.0)` at every mass fraction of DOMAIN_FRACTIONS
times c0. It writes one JSON line per op: the op's seed, draw index and
fraction, the draw itself, then its outcome (ok, or the error's type), the
ConvergenceError's kind, the error message, m, lambda and q_residual as
float hex, and iters. The package is imported from the src/ directory of
the checkout that holds this script, so a copy of the script in another
checkout censuses that checkout's code.

The second form reads two such files and lists, by (seed, draw, fraction),
the ops that moved (both ok with another m, lambda, q_residual or iters,
or both failed with another outcome, kind or message), were lost (ok in
the first, failed in the second) or were gained (the reverse), and the ops
only one file has. It exits 0 when the two agree on every op and 1
otherwise.
"""
import os
import sys

# one BLAS thread, as in the benchmark; set before numpy loads
os.environ.update({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"})

import argparse  # noqa: E402
import json  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DRAWS_PER_SEED = 217


def parse_seeds(text: str) -> list[int]:
    """'29811-29814' or '29811,29813' (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def census(seeds: list[int], out) -> None:
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    import bhgs
    from workloads import DOMAIN_FRACTIONS, domain_draws

    for seed in seeds:
        for d, draw in enumerate(domain_draws(seed, DRAWS_PER_SEED)):
            N, q, mu, c_gn, s_sob = draw
            params = bhgs.LandscapeParams(N=N, q=q, mu=mu, C_gn=c_gn,
                                          S_sob=s_sob)
            grid = bhgs.build_grid(N, 2049, 1000.0)
            c0 = bhgs.mass_threshold(params)[1]
            for frac in DOMAIN_FRACTIONS:
                rec = {"seed": seed, "draw": d, "frac": frac, "params": draw,
                       "outcome": "ok", "kind": None, "message": None,
                       "m": None, "lambda": None, "q_residual": None,
                       "iters": None}
                try:
                    st = bhgs.minimize(params, grid, frac * c0)
                except (bhgs.ConvergenceError, bhgs.DomainError) as exc:
                    rec.update(outcome=type(exc).__name__,
                               kind=getattr(exc, "kind", None),
                               message=str(exc))
                else:
                    rec.update(m=st.m.hex(), q_residual=st.q_residual.hex(),
                               iters=st.iters)
                    rec["lambda"] = st.lam.hex()
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
    return 0 if same == len(a) == len(b) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--seeds", type=parse_seeds,
                      help="domain seeds, as 29811-29814 or 29811,29813")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"),
                      help="two census files to compare")
    ap.add_argument("--out", help="census file to write (default stdout)")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            census(args.seeds, fh)
    else:
        census(args.seeds, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
