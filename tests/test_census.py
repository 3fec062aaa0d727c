"""tools/census.py --compare on hand-written records, with no solve.

Two files that agree on every op exit 0; an op that moved, was lost, was
gained or is in one file only exits 1, counted under its group and named
by (seed, draw, fraction). The ops' wall times are left out of the
comparison and summed by kind per file. Each file's ops are counted by
kind, and moved ops by transition of kind, and the last line gives the
largest relative move of m and lambda among moved successes and how many
changed iters.
"""
import json
from pathlib import Path

import pytest

from conftest import fresh_python

CENSUS = Path(__file__).resolve().parents[1] / "tools" / "census.py"


def record(seed, draw, frac, ok=True, m=-0.25, **extra):
    rec = {"seed": seed, "draw": draw, "frac": frac,
           "params": [5, 3.0, 1.0, 1.0, 1.0], "outcome": "ok", "kind": None,
           "message": None, "m": m.hex(), "lambda": (-0.5).hex(),
           "q_residual": (1e-9).hex(), "iters": 2}
    if not ok:
        rec.update(outcome="ConvergenceError", kind="stall",
                   message="descent stalled", m=None, q_residual=None,
                   iters=None)
        rec["lambda"] = None
    rec.update(extra)
    return rec


BASE = [record(29811, 0, 0.1), record(29811, 0, 0.5),
        record(29811, 1, 0.9, ok=False), record(29812, 3, 0.5)]


def compare(tmp_path, first, second):
    paths = []
    for name, recs in (("a.jsonl", first), ("b.jsonl", second)):
        path = tmp_path / name
        path.write_text("".join(json.dumps(r) + "\n" for r in recs))
        paths.append(str(path))
    return fresh_python(str(CENSUS), "--compare", *paths, check=False)


def test_equal_files_exit_zero(tmp_path):
    proc = compare(tmp_path, BASE, list(reversed(BASE)))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "4 equal on every field" in proc.stdout
    for group in ("moved", "lost", "gained", "only in first",
                  "only in second"):
        assert f"{group}: 0\n" in proc.stdout
    assert proc.stdout.endswith("moved by kind: none\n"
                                "moved successes: none\n")


def test_estimated_records_compare(tmp_path):
    # the estimated census's records, keyed by seed "estimated" and with
    # crit/bend beside the common fields, compare as they are
    est = [record("estimated", d, f, **{"crit/bend": (1e-3).hex()})
           for d in range(2) for f in (0.1, 0.5, 0.9)]
    assert compare(tmp_path, est, est).returncode == 0
    moved = [*est[:-1], record("estimated", 1, 0.9, m=-0.3)]
    proc = compare(tmp_path, est, moved)
    assert proc.returncode == 1
    assert "  seed estimated draw 1 frac 0.9" in proc.stdout.splitlines()


@pytest.mark.parametrize("group,second,name", [
    ("moved", [BASE[0], record(29811, 0, 0.5, m=-0.2500001), *BASE[2:]],
     "seed 29811 draw 0 frac 0.5"),
    ("lost", [record(29811, 0, 0.1, ok=False), *BASE[1:]],
     "seed 29811 draw 0 frac 0.1"),
    ("gained", [*BASE[:2], record(29811, 1, 0.9), BASE[3]],
     "seed 29811 draw 1 frac 0.9"),
    ("only in first", BASE[:3], "seed 29812 draw 3 frac 0.5"),
    ("only in second", [*BASE, record(29812, 7, 0.1)],
     "seed 29812 draw 7 frac 0.1"),
], ids=["moved", "lost", "gained", "only-in-first", "only-in-second"])
def test_one_differing_op_exits_one_and_is_named(tmp_path, group, second,
                                                 name):
    proc = compare(tmp_path, BASE, second)
    assert (proc.returncode, proc.stderr) == (1, "")
    lines = proc.stdout.splitlines()
    start = lines.index(f"{group}: 1")
    assert lines[start + 1] == f"  {name}"
    for other in ("moved", "lost", "gained", "only in first",
                  "only in second"):
        if other != group:
            assert f"{other}: 0" in lines


def test_moved_ops_are_counted_by_kind(tmp_path):
    # two stall messages reworded, a line-search op now a stall and one
    # success moved in m: counted by transition, most first; the lost op
    # is not a move
    fail = dict(ok=False)
    first = [record(1, 0, 0.1, **fail), record(1, 1, 0.1, **fail),
             record(1, 2, 0.1, **fail, kind="line-search",
                    message="line search failed"),
             record(1, 3, 0.1), record(1, 4, 0.1)]
    second = [record(1, 0, 0.1, **fail, message="stalled inside"),
              record(1, 1, 0.1, **fail, message="stalled inside"),
              record(1, 2, 0.1, **fail, message="stalled inside"),
              record(1, 3, 0.1, m=-0.3), record(1, 4, 0.1, **fail)]
    proc = compare(tmp_path, first, second)
    assert (proc.returncode, proc.stderr) == (1, "")
    lines = proc.stdout.splitlines()
    assert "moved: 4" in lines and "lost: 1" in lines
    assert lines[-2] == ("moved by kind: stall→stall 2, "
                         "line-search→stall 1, ok→ok 1")


def test_each_file_is_counted_by_kind(tmp_path):
    # one line per file before the moves, most first: a line-search op now
    # a stall and a success lost to a stall; the counts of equal files are
    # equal
    fail = dict(ok=False)
    first = [record(1, 0, 0.1, **fail, kind="line-search",
                    message="line search failed"),
             record(1, 1, 0.1), record(1, 2, 0.1), record(1, 3, 0.1, **fail)]
    second = [record(1, 0, 0.1, **fail), record(1, 1, 0.1),
              record(1, 2, 0.1, **fail), record(1, 3, 0.1, **fail)]
    proc = compare(tmp_path, first, second)
    assert (proc.returncode, proc.stderr) == (1, "")
    lines = proc.stdout.splitlines()
    assert lines[-4:-2] == [
        f"kinds in {tmp_path / 'a.jsonl'}: ok 2, line-search 1, stall 1",
        f"kinds in {tmp_path / 'b.jsonl'}: stall 3, ok 1"]
    assert lines[-2] == "moved by kind: line-search→stall 1"
    same = compare(tmp_path, BASE, BASE).stdout.splitlines()
    assert same[-4:-2] == [f"kinds in {tmp_path / name}: ok 3, stall 1"
                           for name in ("a.jsonl", "b.jsonl")]


def test_moved_successes_report_their_largest_moves(tmp_path):
    # three successes moved: m by 2e-12 and 1e-11 relative, lambda by 4e-12
    # relative on the first; the third changed iters alone. A failure that
    # moved and a lost op are not counted
    fail = dict(ok=False)
    first = [record(1, 0, 0.1), record(1, 1, 0.1), record(1, 2, 0.1),
             record(1, 3, 0.1, **fail), record(1, 4, 0.1)]
    second = [record(1, 0, 0.1, m=-0.25 * (1 + 2e-12),
                     **{"lambda": (-0.5 * (1 - 4e-12)).hex()}),
              record(1, 1, 0.1, m=-0.25 * (1 - 1e-11)),
              record(1, 2, 0.1, iters=3),
              record(1, 3, 0.1, **fail, message="stalled inside"),
              record(1, 4, 0.1, **fail)]
    proc = compare(tmp_path, first, second)
    assert (proc.returncode, proc.stderr) == (1, "")
    lines = proc.stdout.splitlines()
    assert "moved: 4" in lines and "lost: 1" in lines
    assert lines[-1] == ("moved successes: 3; largest relative move of m "
                         "1e-11, of λ 4e-12; iters changed on 1")


def test_wall_times_are_summed_by_kind_and_not_compared(tmp_path):
    # the same ops timed differently are equal; each file's wall time is
    # summed by kind, most first, and a file without wall times reads none
    timed = [dict(r, wall_s=w) for r, w in zip(BASE, (1.0, 0.5, 2.5, 1.5))]
    retimed = [dict(r, wall_s=w) for r, w in zip(BASE, (0.1, 0.2, 0.3, 0.4))]
    proc = compare(tmp_path, timed, retimed)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "4 equal on every field" in proc.stdout
    lines = proc.stdout.splitlines()
    assert lines[-6:-4] == [
        f"wall time by kind in {tmp_path / 'a.jsonl'}: ok 3.0 s, stall 2.5 s",
        f"wall time by kind in {tmp_path / 'b.jsonl'}: ok 0.7 s, stall 0.3 s"]
    untimed = compare(tmp_path, BASE, timed).stdout.splitlines()
    assert untimed[-6] == f"wall time by kind in {tmp_path / 'a.jsonl'}: none"
