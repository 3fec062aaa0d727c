"""The package namespace resolves on access and loads numpy only on use.

`import bhgs` and the synthetic `constants` command import no numpy; every
exported name is the defining submodule's object, read afresh on each
access, so a rebinding of the submodule's attribute shows through the
package.
"""
import importlib
import json
import sys

import pytest

import bhgs
from conftest import SRC, fresh_python


def test_fresh_python_puts_src_first_and_passes_no_overrides(
        tmp_path, monkeypatch):
    # this checkout's src/ goes ahead of the caller's PYTHONPATH, whose
    # entries stay on the path, and no BHGS_ variable of the caller passes
    monkeypatch.setenv("PYTHONPATH", str(tmp_path))
    monkeypatch.setenv("BHGS_PROBLEM__MU", "2.0")
    paths = [str(SRC), str(tmp_path)]
    proc = fresh_python("-c", "import json, os, sys, bhgs\n"
                        f"print(json.dumps([bhgs.__file__, [p for p in "
                        f"sys.path if p in {paths!r}], [k for k in "
                        "os.environ if k.startswith('BHGS_')]]))")
    assert json.loads(proc.stdout) == [str(SRC / "bhgs" / "__init__.py"),
                                       paths, []]


def imported(stderr):
    # module names from -X importtime lines
    return [line.rsplit("|", 1)[1].strip() for line in stderr.splitlines()
            if line.startswith("import time:") and "|" in line]


def test_import_bhgs_loads_no_numpy():
    proc = fresh_python("-c", "import sys, bhgs\n"
                              "assert 'numpy' not in sys.modules\n"
                              "print(sorted(m for m in sys.modules "
                              "if m.startswith('bhgs')))")
    assert proc.stdout.strip() == "['bhgs']"


def test_constants_command_loads_no_numpy(tmp_path):
    proc = fresh_python("-X", "importtime", "-m", "bhgs.cli", "constants")
    (line,) = proc.stdout.splitlines()
    assert json.loads(line)["record"] == "constants"
    names = imported(proc.stderr)
    assert "bhgs.landscape" in names
    assert [n for n in names if n.split(".")[0] == "numpy"] == []


def test_estimated_constants_do_load_numpy():
    # the check above can fail: the C_gn profile solve runs on numpy
    proc = fresh_python("-X", "importtime", "-m", "bhgs.cli", "constants",
                        env={"BHGS_CONSTANTS__MODE": "estimated"})
    assert "numpy" in imported(proc.stderr)


@pytest.mark.parametrize("name", [n for n in bhgs.__all__
                                  if n != "__version__"])
def test_exports_are_the_submodule_objects(name):
    obj = getattr(bhgs, name)
    home = sys.modules[obj.__module__]
    assert home.__name__.startswith("bhgs.")
    assert getattr(home, name) is obj
    # resolved, not held: the package namespace never gains the name
    assert name not in vars(bhgs)


def test_error_types_are_shared():
    minimizer = importlib.import_module("bhgs.minimizer")
    landscape = importlib.import_module("bhgs.landscape")
    for name in ("ConvergenceError", "KernelsUnavailable", "DomainError"):
        assert getattr(minimizer, name) is getattr(landscape, name)
    assert bhgs.ConvergenceError is minimizer.ConvergenceError
    assert bhgs.KernelsUnavailable is minimizer.KernelsUnavailable


def test_kernels_and_sobolev_constant_have_one_owner():
    # the minimizer binds the two band kernels from _lapack, defines the
    # preconditioner's factor and solve on them, and binds the sharp
    # Sobolev constant from landscape; the package exports landscape's
    minimizer = importlib.import_module("bhgs.minimizer")
    landscape = importlib.import_module("bhgs.landscape")
    lapack = importlib.import_module("bhgs._lapack")
    assert lapack.__all__ == ["BACKEND", "ldlt_banded", "ldlt_solve_banded"]
    for name in ("ldlt_banded", "ldlt_solve_banded"):
        assert getattr(minimizer, name) is getattr(lapack, name)
    for name in ("cholesky_banded", "cho_solve_banded"):
        assert getattr(minimizer, name).__module__ == "bhgs.minimizer"
        assert not hasattr(lapack, name)
    sob = landscape.estimate_sobolev_constant
    assert bhgs.estimate_sobolev_constant is sob
    assert minimizer.estimate_sobolev_constant is sob


def test_rebinding_shows_through_the_package(monkeypatch):
    minimizer = importlib.import_module("bhgs.minimizer")
    orig = minimizer.minimize

    def f(*args):
        raise AssertionError("not called")

    monkeypatch.setattr(minimizer, "minimize", f)
    assert bhgs.minimize is f
    monkeypatch.undo()
    assert bhgs.minimize is orig


def test_unknown_names_raise():
    with pytest.raises(AttributeError, match="no_such_name"):
        bhgs.no_such_name
    with pytest.raises(ImportError):
        from bhgs import no_such_name  # noqa: F401
    assert set(bhgs.__all__) <= set(dir(bhgs))
