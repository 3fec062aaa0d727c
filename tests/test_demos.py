"""Each demo script runs to completion in a fresh interpreter, and leaves
no file behind."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(demo, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(demo)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    proc = run_demo(demo, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_round_trip_csv_is_removed(tmp_path):
    # the ground-state demo writes its CSV into a temporary directory and
    # removes it: neither the file nor its directory outlives the run
    proc = run_demo(ROOT / "demos" / "ground_state_run.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    (line,) = [ln for ln in proc.stdout.splitlines()
               if ln.startswith("CSV round trip at ")]
    path = Path(line[len("CSV round trip at "):].rsplit(":", 1)[0])
    assert line.endswith("bitwise identical = True")
    assert path.name == "ground_state.csv"
    assert not path.exists() and not path.parent.exists()
