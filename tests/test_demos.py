"""Each demo script runs to completion in a fresh interpreter, and leaves
no file behind."""
from pathlib import Path

import pytest

from conftest import fresh_python

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    fresh_python(str(demo), cwd=tmp_path)


def test_round_trip_csv_is_removed(tmp_path):
    # the ground-state demo writes its CSV into a temporary directory and
    # removes it: neither the file nor its directory outlives the run
    proc = fresh_python(str(ROOT / "demos" / "ground_state_run.py"),
                        cwd=tmp_path)
    (line,) = [ln for ln in proc.stdout.splitlines()
               if ln.startswith("CSV round trip at ")]
    path = Path(line[len("CSV round trip at "):].rsplit(":", 1)[0])
    assert line.endswith("bitwise identical = True")
    assert path.name == "ground_state.csv"
    assert not path.exists() and not path.parent.exists()
