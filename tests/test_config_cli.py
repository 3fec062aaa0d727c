import configparser
import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

from bhgs import (ConfigError, DomainError, load_config, mass_threshold,
                  minimizer)
from bhgs.cli import evaluate_sweep_flags, main
from bhgs.config import DEFAULTS, resolve_params, sweep_masses
from bhgs.verify import random_params

C0_REF = 1.3102171485428768328
GN_REF = 0.2820814861937604
DEFAULT_FRACS = [0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5, 0.9]
SMALL_GRID = "0.1,0.2,0.3,0.4"       # four masses, four exact triples
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def kind_of(err):
    return err.value.kind


def parsed(text):
    try:
        return float(text)
    except ValueError:
        return text


class TestLoadConfig:
    def test_defaults(self):
        cfg = load_config(env={})
        assert cfg.get_int("problem", "n") == 5
        assert cfg.get_float("problem", "q") == 3.0
        assert cfg.constants_mode == "synthetic"

    def test_defaults_are_complete(self):
        cfg = load_config(env={})
        for sec, kv in DEFAULTS.items():
            for key in kv:
                assert isinstance(cfg.get_str(sec, key), str)

    def test_file_overrides(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[problem]\nq = 2.5\n\n[grid]\nn = 257\n")
        cfg = load_config(str(ini), env={})
        assert cfg.get_float("problem", "q") == 2.5
        assert cfg.get_int("grid", "n") == 257
        assert cfg.get_float("grid", "r_max") == 1000.0

    def test_env_beats_file(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[problem]\nq = 2.5\n")
        cfg = load_config(str(ini), env={"BHGS_PROBLEM__Q": "2.8"})
        assert cfg.get_float("problem", "q") == 2.8

    def test_missing_file(self):
        with pytest.raises(ConfigError) as err:
            load_config("/no/such/file.ini", env={})
        assert kind_of(err) == "config-not-found"

    def test_non_utf8_file(self, tmp_path):
        ini = tmp_path / "latin1.ini"
        ini.write_bytes("[problem]\n# \u00e9t\u00e9\nq = 2.5\n"
                        .encode("latin-1"))
        with pytest.raises(ConfigError) as err:
            load_config(str(ini), env={})
        assert kind_of(err) == "config-parse"

    def test_unknown_section(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[mystery]\nx = 1\n")
        with pytest.raises(ConfigError) as err:
            load_config(str(ini), env={})
        assert kind_of(err) == "config-value"

    def test_unknown_key(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[problem]\nquux = 1\n")
        with pytest.raises(ConfigError) as err:
            load_config(str(ini), env={})
        assert kind_of(err) == "config-value"

    def test_parse_error(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[unclosed\nq = 3\n")
        with pytest.raises(ConfigError) as err:
            load_config(str(ini), env={})
        assert kind_of(err) == "config-parse"

    def test_env_must_have_separator(self):
        with pytest.raises(ConfigError) as err:
            load_config(env={"BHGS_PROBLEMQ": "3"})
        assert kind_of(err) == "config-value"

    def test_env_unknown_key(self):
        with pytest.raises(ConfigError) as err:
            load_config(env={"BHGS_PROBLEM__QUUX": "3"})
        assert kind_of(err) == "config-value"

    def test_non_numeric_value(self):
        cfg = load_config(env={"BHGS_PROBLEM__Q": "fast"})
        with pytest.raises(ConfigError) as err:
            cfg.get_float("problem", "q")
        assert kind_of(err) == "config-value"

    def test_bad_mode(self):
        cfg = load_config(env={"BHGS_CONSTANTS__MODE": "guessed"})
        with pytest.raises(ConfigError) as err:
            cfg.constants_mode
        assert kind_of(err) == "config-value"


class TestResolveParams:
    def test_synthetic(self):
        params = resolve_params(load_config(env={}))
        assert (params.C_gn, params.S_sob) == (1.0, 1.0)

    def test_estimated(self):
        env = {"BHGS_CONSTANTS__MODE": "estimated"}
        params = resolve_params(load_config(env=env))
        assert params.C_gn == pytest.approx(GN_REF, rel=1e-12)
        assert params.S_sob == minimizer.estimate_sobolev_constant(params)


class TestSweepMasses:
    def test_default_grid(self):
        cs = sweep_masses(load_config(env={}), 2.0)
        assert list(cs) == [2.0 * f for f in DEFAULT_FRACS]

    def test_explicit_grid(self):
        cfg = load_config(env={"BHGS_SWEEP__C_GRID": "0.5,0.25,0.125,0.0625"})
        cs = sweep_masses(cfg, 2.0)
        assert np.allclose(cs, [0.125, 0.25, 0.5, 1.0])

    @pytest.mark.parametrize("bad", [
        "",                        # empty
        "0.5,0.25,0.125",          # too few
        "0.5,0.25,0.125,0",        # nonpositive fraction
        "0.5,0.25,0.125,1.0",      # fraction at 1
        "0.5,0.25,abc,0.125",      # not a number
        "0.1,0.2,nan,0.3",         # NaN
        "0.1,0.1,0.2,0.3",         # repeated fraction
        "0.1,0.2,0.3,inf",         # infinite
    ])
    def test_bad_explicit_grid(self, bad):
        cfg = load_config(env={"BHGS_SWEEP__C_GRID": bad})
        with pytest.raises(ConfigError) as err:
            sweep_masses(cfg, 1.0)
        assert kind_of(err) == "config-value"


class TestReadmeConfig:
    # the README's INI sample must load as written and list every key
    def test_sample_loads_to_defaults(self, tmp_path):
        readme = Path(README).read_text(encoding="utf-8")
        (block,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(block)
        assert {sec: list(parser[sec]) for sec in parser.sections()} == {
            sec: list(kv) for sec, kv in DEFAULTS.items()}

        ini = tmp_path / "readme.ini"
        ini.write_text(block)
        cfg = load_config(str(ini), env={})
        for sec, kv in DEFAULTS.items():
            for key, default in kv.items():
                assert parsed(cfg.get_str(sec, key)) == parsed(default), (
                    sec, key)


REMOVED_KEYS = [
    ("solver", "step0"), ("solver", "shrink"), ("solver", "grow"),
    ("solver", "seed_shape"), ("solver", "safeguard_margin"),
    ("solver", "safeguard_max_frac"), ("solver", "stall_iters"),
    ("sweep", "k"), ("sweep", "c_min_frac"), ("sweep", "c_max_frac"),
    # numerical controls that only ever took one value
    ("constants", "gn_n"), ("constants", "gn_r_max"),
    ("constants", "sob_n"), ("constants", "sob_r_max"),
    ("solver", "grad_tol"), ("solver", "q_tol"), ("solver", "max_iter"),
    ("sweep", "boundary_samples"), ("sweep", "mono_tol"),
    ("sweep", "add_tol"), ("sweep", "triple_match_tol"),
]


class TestRemovedKeys:
    def test_defaults_hold_nine_keys(self):
        assert sum(len(kv) for kv in DEFAULTS.values()) == 9
        assert "solver" not in DEFAULTS

    @pytest.mark.parametrize("sec, key", REMOVED_KEYS)
    def test_ini_key_rejected(self, capsys, tmp_path, sec, key):
        ini = tmp_path / "run.ini"
        ini.write_text(f"[{sec}]\n{key} = 1\n")
        rc, out, err = run_cli(capsys, "constants", "--config", str(ini))
        assert rc == 2 and out == ""
        (rec,) = json_lines(err)
        assert rec["error"] == "config-value"
        # the whole [solver] section is gone
        want = ("unknown section [solver]" if sec == "solver"
                else f"unknown key [{sec}] {key}")
        assert want in rec["message"]

    @pytest.mark.parametrize("sec, key", REMOVED_KEYS)
    def test_env_key_rejected(self, capsys, monkeypatch, sec, key):
        name = f"BHGS_{sec.upper()}__{key.upper()}"
        monkeypatch.setenv(name, "1")
        rc, out, err = run_cli(capsys, "constants")
        assert rc == 2 and out == ""
        (rec,) = json_lines(err)
        assert rec["error"] == "config-value"
        assert name in rec["message"]

    @pytest.mark.parametrize("name, value, argv", [
        # a loose Pohozaev target would pass a 4-iteration field
        ("BHGS_SOLVER__Q_TOL", "1", ["solve", "--c", "0.6"]),
        # NaN would make the subadditivity test unable to fail
        ("BHGS_SWEEP__ADD_TOL", "nan", ["sweep"]),
    ])
    def test_checks_cannot_be_loosened(self, capsys, monkeypatch, tmp_path,
                                       name, value, argv):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(name, value)
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 2 and out == ""
        (rec,) = json_lines(err)
        assert rec["error"] == "config-value"
        assert list(tmp_path.iterdir()) == []


class TestSweepFlags:
    CS = [1.0, 2.0, 3.0, 4.0]
    GOOD_M = [-(c ** (7.0 / 3.0)) for c in CS]

    def test_clean_data_passes(self):
        flags = evaluate_sweep_flags(self.CS, self.GOOD_M)
        assert flags["monotone_decreasing"] is True
        assert flags["monotone_offending"] == []
        assert flags["all_negative"] is True
        assert flags["subadditivity_violations"] == []
        assert flags["sub_homogeneity_violations"] == []

    def test_corrupted_monotonicity(self):
        m = list(self.GOOD_M)
        m[2] = m[1] * 0.5          # shallower than its predecessor
        flags = evaluate_sweep_flags(self.CS, m)
        assert flags["monotone_decreasing"] is False
        assert 1 in flags["monotone_offending"]

    def test_positive_entry_flagged(self):
        m = list(self.GOOD_M)
        m[0] = 1e-9
        flags = evaluate_sweep_flags(self.CS, m)
        assert flags["all_negative"] is False

    def test_corrupted_subadditivity(self):
        # c_2 = c_0 + c_1 is the grid-expressible triple here
        m = list(self.GOOD_M)
        m[2] = 0.9 * (m[0] + m[1])
        flags = evaluate_sweep_flags(self.CS, m)
        assert [2, 0, 1] in flags["subadditivity_violations"]

    def test_corrupted_sub_homogeneity(self):
        # m(2) must lie below 2 m(1); push it above
        m = list(self.GOOD_M)
        m[1] = 0.75 * 2.0 * m[0]
        flags = evaluate_sweep_flags(self.CS, m)
        assert [0, 1] in flags["sub_homogeneity_violations"]

    def test_theta_one_not_compared(self):
        # equal masses never pair: the lemma's theta ranges over (1, c/alpha]
        flags = evaluate_sweep_flags([1.0, 1.0], [-1.0, -0.5])
        assert flags["sub_homogeneity_violations"] == []

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            evaluate_sweep_flags([1.0, 2.0], [-1.0])


class TestSweepFlagsAtSolverScale(TestSweepFlags):
    # the same corruptions at the scale of the default solves: m = -K c^{7/3}
    # with K = 1.164719e-6 at 0.1-0.4 c0 (c0 = 1.3102), so every |m| is below
    # 2e-6 and an absolute add_tol of 1e-6 would pass the subadditivity and
    # sub-homogeneity corruptions
    CS = [f * 1.310217148542877 for f in (0.1, 0.2, 0.3, 0.4)]
    GOOD_M = [-1.164719e-06 * c ** (7.0 / 3.0) for c in CS]


class TestSweepFlagsAtDefaultMasses:
    # the default masses hold exact triples, so a corrupted m at one of
    # them must reach subadditivity_violations
    def test_corrupted_subadditivity(self):
        cs = [float(c) for c in sweep_masses(load_config(env={}), C0_REF)]
        m = [-1.164719e-06 * c ** (7.0 / 3.0) for c in cs]

        def at(frac):
            hits = [i for i, c in enumerate(cs)
                    if abs(c - frac * C0_REF) <= 1e-12 * c]
            assert len(hits) == 1, f"{frac} c0 is not a default sweep mass"
            return hits[0]

        i, j, l = at(0.3), at(0.1), at(0.2)
        m[i] = 0.9 * (m[j] + m[l])      # m(0.3 c0) above m(0.1) + m(0.2)
        flags = evaluate_sweep_flags(cs, m)
        assert [i, j, l] in flags["subadditivity_violations"]


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def json_lines(text):
    return [json.loads(line) for line in text.strip().splitlines() if line]


class TestCliConstants:
    def test_record(self, capsys):
        rc, out, err = run_cli(capsys, "constants")
        assert rc == 0 and err == ""
        (rec,) = json_lines(out)
        assert rec["record"] == "constants"
        assert rec["c0"] == pytest.approx(C0_REF, rel=1e-12)
        assert rec["alpha2"] == 4.0
        assert "warning" not in rec

    def test_estimated_record_carries_the_sharp_sobolev_constant(
            self, capsys, monkeypatch):
        monkeypatch.setenv("BHGS_CONSTANTS__MODE", "estimated")
        rc, out, err = run_cli(capsys, "constants")
        assert rc == 0 and err == ""
        (rec,) = json_lines(out)
        sharp = minimizer.estimate_sobolev_constant(
            load_config(env={}).problem())
        assert rec["S_sob"] == sharp
        assert rec["C_gn"] == pytest.approx(GN_REF, rel=1e-12)
        assert ("no error bar" in rec["warning"]
                and "S_sob is sharp" in rec["warning"])

    def test_byte_reproducible(self, capsys):
        _, out1, _ = run_cli(capsys, "constants")
        _, out2, _ = run_cli(capsys, "constants")
        assert out1 == out2

    def test_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("BHGS_PROBLEM__N", "6")
        monkeypatch.setenv("BHGS_PROBLEM__Q", "2.5")
        rc, out, _ = run_cli(capsys, "constants")
        assert rc == 0
        (rec,) = json_lines(out)
        assert rec["N"] == 6 and rec["alpha2"] == 2.0

    def test_missing_config_file(self, capsys):
        rc, out, err = run_cli(capsys, "constants", "--config", "/no/file.ini")
        assert rc == 2 and out == ""
        (rec,) = json_lines(err)
        assert rec["error"] == "config-not-found"

    def test_config_directory_is_io_error(self, capsys, tmp_path):
        # not skipped the way ConfigParser.read skips unreadable paths
        rc, out, err = run_cli(capsys, "constants", "--config", str(tmp_path))
        assert rc == 2 and out == ""
        (rec,) = json_lines(err)
        assert rec["error"] == "io-error"

    def test_inadmissible_q_rejected_before_numerics(self, capsys,
                                                     monkeypatch):
        monkeypatch.setenv("BHGS_PROBLEM__Q", "3.7")
        rc, out, err = run_cli(capsys, "constants")
        assert rc == 3 and out == ""
        (rec,) = json_lines(err)
        assert rec["error"] == "domain-error"
        assert "(2, 3.6)" in rec["message"]


class TestCliSolveAndFiber:
    def test_solve_fiber_pipeline(self, capsys, tmp_path):
        field_csv = str(tmp_path / "gs.csv")
        rc, out, err = run_cli(capsys, "solve", "--c", "0.655",
                               "--out", field_csv)
        assert rc == 0, err
        (rec,) = json_lines(out)
        assert rec["record"] == "ground_state"
        assert rec["m"] < 0.0
        assert rec["q_residual"] <= 5e-7
        assert rec["fiber_s1_err"] <= 1e-3
        assert rec["field_csv"] == field_csv

        curve_csv = str(tmp_path / "curve.csv")
        rc, out, err = run_cli(capsys, "fiber", "--field", field_csv,
                               "--curve-out", curve_csv, "--points", "21")
        assert rc == 0, err
        (rec,) = json_lines(out)
        assert rec["record"] == "fiber"
        assert rec["kind1"] == "local-minimum"
        assert abs(rec["s1"] - 1.0) <= 1e-3
        assert rec["psi_at_s1"] < 0.0
        lines = Path(curve_csv).read_text().splitlines()
        assert lines[0] == "s,psi,psi_prime,xi"
        assert len(lines) == 22

    def test_solve_default_output_name(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc, out, _ = run_cli(capsys, "solve", "--c", "0.655")
        assert rc == 0
        (rec,) = json_lines(out)
        assert rec["field_csv"] == "ground_state_c0.655.csv"
        assert (tmp_path / "ground_state_c0.655.csv").exists()

    @pytest.mark.parametrize("mode,c", [("synthetic", "0.6"),
                                        ("estimated", "120")])
    def test_solve_record_warns_in_estimated_mode(self, capsys, tmp_path,
                                                  monkeypatch, mode, c):
        monkeypatch.setenv("BHGS_CONSTANTS__MODE", mode)
        rc, out, err = run_cli(capsys, "solve", "--c", c,
                               "--out", str(tmp_path / "f.csv"))
        assert rc == 0, err
        (rec,) = json_lines(out)
        assert rec["mode"] == mode
        if mode == "estimated":
            assert "no error bar" in rec["warning"]
        else:
            assert "warning" not in rec

    def test_solve_mass_above_threshold(self, capsys, tmp_path):
        rc, out, err = run_cli(capsys, "solve", "--c", "1.5",
                               "--out", str(tmp_path / "no.csv"))
        assert rc == 3 and out == ""
        (rec,) = json_lines(err)
        assert rec["error"] == "mass-above-threshold"
        assert "c0=" in rec["message"]
        assert not (tmp_path / "no.csv").exists()

    def test_solve_nonpositive_mass(self, capsys, tmp_path):
        rc, _, err = run_cli(capsys, "solve", "--c", "-0.5",
                             "--out", str(tmp_path / "no.csv"))
        assert rc == 3
        (rec,) = json_lines(err)
        assert rec["error"] == "domain-error"

    def test_solve_finishes_past_the_descent_floor(self, capsys, tmp_path):
        # at 0.0777 c0 the descent stalls with the gradient four decades
        # below grad_tol and |Q|/bend at 6.3e-7; Newton takes it below q_tol
        rc, out, err = run_cli(capsys, "solve", "--c", "0.10173884969332775",
                               "--out", str(tmp_path / "f.csv"))
        assert rc == 0, err
        (rec,) = json_lines(out)
        assert rec["q_residual"] <= 5e-7

    def test_solve_stall_at_discretization_floor(self, capsys, tmp_path,
                                                 monkeypatch):
        # this draw's Pohozaev residual stays near 6e-5 on the default grid,
        # Newton steps included, while the gradient meets grad_tol
        p = random_params(np.random.default_rng(3))
        for name, value in (("PROBLEM__N", p.N), ("PROBLEM__Q", p.q),
                            ("PROBLEM__MU", p.mu), ("CONSTANTS__C_GN", p.C_gn),
                            ("CONSTANTS__S_SOB", p.S_sob)):
            monkeypatch.setenv(f"BHGS_{name}", repr(value))
        c = 0.5 * mass_threshold(p)[1]
        rc, out, err = run_cli(capsys, "solve", "--c", repr(c),
                               "--out", str(tmp_path / "no.csv"))
        assert rc == 4 and out == ""
        (rec,) = json_lines(err)
        assert rec["error"] == "non-convergence"
        msg = rec["message"]
        hit = re.match(rf"stalled for {minimizer.STALL_ITERS} steps at "
                       r"gnorm=(\S+), q_residual=(\S+) "
                       r"\(tolerances 1e-08, 5e-07\)", msg)
        assert hit and float(hit.group(1)) <= 1e-8 < 5e-7 < float(hit.group(2))
        assert msg.endswith("; the gradient criterion is met")

    def test_solve_stall_far_above_any_floor(self, capsys, tmp_path,
                                             monkeypatch):
        # at N = 14 the Pohozaev residual stalls near 3.4e2 with the
        # gradient met; the message claims no discretization floor
        env = {"BHGS_PROBLEM__N": "14", "BHGS_PROBLEM__Q": repr(2.0 + 4.0 / 14)}
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        c = 0.5 * mass_threshold(load_config(env=env).problem())[1]
        rc, out, err = run_cli(capsys, "solve", "--c", repr(c),
                               "--out", str(tmp_path / "no.csv"))
        assert rc == 4 and out == ""
        (rec,) = json_lines(err)
        assert rec["error"] == "non-convergence"
        msg = rec["message"]
        hit = re.match(rf"stalled for {minimizer.STALL_ITERS} steps at "
                       r"gnorm=(\S+), q_residual=(\S+) ", msg)
        assert hit and float(hit.group(2)) > 1e2
        assert "floor" not in msg

    def test_solve_unwritable_output(self, capsys, tmp_path):
        rc, _, err = run_cli(capsys, "solve", "--c", "0.655",
                             "--out", str(tmp_path / "missing" / "f.csv"))
        assert rc == 2
        (rec,) = json_lines(err)
        assert rec["error"] == "io-error"

    def test_fiber_without_crossing(self, capsys, tmp_path, grid30):
        from bhgs import RadialField, save_field

        path = str(tmp_path / "big.csv")
        save_field(RadialField(
            grid30, 100.0 * np.exp(-0.5 * grid30.nodes ** 2)), path)
        rc, out, _ = run_cli(capsys, "fiber", "--field", path,
                             "--curve-out", str(tmp_path / "c.csv"))
        assert rc == 0
        (rec,) = json_lines(out)
        assert rec["s1"] is None and rec["kind1"] is None

    @pytest.mark.parametrize("points", ["-1", "0"])
    def test_fiber_rejects_points_below_one(self, capsys, tmp_path, grid30,
                                            points):
        from bhgs import RadialField, save_field

        path = str(tmp_path / "g.csv")
        save_field(RadialField(grid30, np.exp(-0.5 * grid30.nodes ** 2)), path)
        curve = tmp_path / "c.csv"
        rc, out, err = run_cli(capsys, "fiber", "--field", path,
                               "--curve-out", str(curve), "--points", points)
        assert rc == 2 and out == ""
        (rec,) = json_lines(err)
        assert rec["error"] == "config-value"
        assert not curve.exists()

    @pytest.mark.parametrize("damage", ["header-token", "non-numeric",
                                        "extra-column"])
    def test_fiber_malformed_field(self, capsys, tmp_path, damage):
        from bhgs import RadialField, build_grid, save_field

        g = build_grid(5, 64, 8.0)
        path = tmp_path / "bad.csv"
        save_field(RadialField(g, np.exp(-g.nodes ** 2)), str(path))
        lines = path.read_text().splitlines()
        if damage == "header-token":
            lines[0] += " hello"
        elif damage == "non-numeric":
            lines[5] = lines[5].split(",")[0] + ",abc"
        else:
            lines[5] += ",1.0"
        path.write_text("\n".join(lines) + "\n")
        rc, out, err = run_cli(capsys, "fiber", "--field", str(path),
                               "--curve-out", str(tmp_path / "c.csv"))
        assert rc == 3 and out == ""
        (rec,) = json_lines(err)
        assert rec["error"] == "domain-error"
        assert str(path) in rec["message"]

    def test_fiber_dimension_mismatch(self, capsys, tmp_path, monkeypatch):
        from bhgs import RadialField, build_grid, save_field

        g6 = build_grid(6, 64, 8.0)
        path = str(tmp_path / "d6.csv")
        save_field(RadialField(g6, np.exp(-g6.nodes ** 2)), path)
        rc, _, err = run_cli(capsys, "fiber", "--field", path,
                             "--curve-out", str(tmp_path / "c.csv"))
        assert rc == 3
        (rec,) = json_lines(err)
        assert rec["error"] == "domain-error"


class TestCliSweep:
    def test_small_sweep_passes(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("BHGS_SWEEP__C_GRID", SMALL_GRID)
        report = str(tmp_path / "rep.json")
        rc, out, err = run_cli(capsys, "sweep", "--out", report)
        assert rc == 0, err
        recs = json_lines(out)
        points = [r for r in recs if r["record"] == "sweep-point"]
        assert len(points) == 4
        final = recs[-1]
        assert final["record"] == "sweep"
        assert final["monotone_decreasing"] and final["all_negative"]
        assert final["subadditivity_violations"] == []
        assert final["sub_homogeneity_violations"] == []
        assert not [key for key in final if key.startswith("boundary")]
        assert final["partial"] is False
        on_disk = json.loads(Path(report).read_text())
        assert on_disk == final

    def test_nonconvergence_writes_partial_report(self, capsys, tmp_path,
                                                  monkeypatch):
        monkeypatch.setenv("BHGS_SWEEP__C_GRID", SMALL_GRID)
        monkeypatch.setattr(minimizer, "MAX_ITER", 2)
        report = str(tmp_path / "rep.json")
        rc, out, err = run_cli(capsys, "sweep", "--out", report)
        assert rc == 4
        (rec,) = json_lines(err)
        assert rec["error"] == "non-convergence"
        on_disk = json.loads(Path(report).read_text())
        assert on_disk["partial"] is True
        assert on_disk["c"] == []


class TestCliLandscape:
    def test_tables(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("BHGS_SWEEP__C_GRID", SMALL_GRID)
        rc, out, err = run_cli(capsys, "landscape", "--out-dir", str(tmp_path))
        assert rc == 0, err
        (rec,) = json_lines(out)
        assert (rec["mode"], rec["C_gn"], rec["S_sob"]) == ("synthetic",
                                                            1.0, 1.0)
        summary = Path(rec["summary_csv"]).read_text().splitlines()
        assert summary[0].startswith("# M=")
        assert summary[1] == ("c,rho_c,h_at_rho_c,boundary_min_j,"
                              "boundary_bound,boundary_positive")
        rows = [line.split(",") for line in summary[2:]]
        assert len(rows) == 4
        assert all(row[5] == "true" for row in rows)
        # h(rho_c) > 0 strictly below the threshold
        assert all(float(row[2]) > 0 for row in rows)
        grid_lines = Path(rec["grid_csv"]).read_text().splitlines()
        assert grid_lines[1] == "c,rho,f"
        assert len(grid_lines) == 2 + 4 * 41

    @pytest.mark.parametrize("command", ["landscape", "sweep"])
    @pytest.mark.parametrize("c_grid", ["0.1,0.2,nan,0.3", "0.1,0.1,0.2,0.3"])
    def test_bad_mass_grid_rejected_before_numerics(self, capsys, tmp_path,
                                                    monkeypatch, command,
                                                    c_grid):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("BHGS_SWEEP__C_GRID", c_grid)
        rc, out, err = run_cli(capsys, command)
        assert rc == 2 and out == ""
        (rec,) = json_lines(err)
        assert rec["error"] == "config-value"
        assert "c_grid" in rec["message"]
        assert list(tmp_path.iterdir()) == []


class TestCliVerify:
    def test_all_checks_pass(self, capsys):
        rc, out, err = run_cli(capsys, "verify")
        assert rc == 0, err
        recs = json_lines(out)
        assert len(recs) == 7
        assert all(r["passed"] for r in recs)
        names = {r["check"] for r in recs}
        assert "laplacian-order" in names and "fiber-zero-structure" in names

    def test_forced_failure_is_named(self, capsys, monkeypatch):
        # an 8-node mesh cannot host the stencil or the quadrature rule
        monkeypatch.setenv("BHGS_GRID__N", "8")
        rc, out, _ = run_cli(capsys, "verify")
        assert rc == 5
        recs = json_lines(out)
        failed = {r["check"] for r in recs if not r["passed"]}
        assert "laplacian-order" in failed
        passed = {r["check"] for r in recs if r["passed"]}
        assert "exponent-identities" in passed

    def test_inadmissible_q_stops_before_checks(self, capsys, monkeypatch):
        monkeypatch.setenv("BHGS_PROBLEM__Q", "3.7")
        rc, out, err = run_cli(capsys, "verify")
        assert rc == 3 and out == ""
        (rec,) = json_lines(err)
        assert "(2, 3.6)" in rec["message"]


class TestCliNonFiniteData:
    @pytest.mark.parametrize("name", ["BHGS_PROBLEM__MU",
                                      "BHGS_CONSTANTS__C_GN",
                                      "BHGS_CONSTANTS__S_SOB"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_rejected_as_domain_error(self, capsys, monkeypatch, name, value):
        monkeypatch.setenv(name, value)
        rc, out, err = run_cli(capsys, "constants")
        assert rc == 3 and out == ""
        (rec,) = json_lines(err)
        assert rec["error"] == "domain-error"
        assert "finite" in rec["message"]


class TestCliGridRange:
    # h^N overflowed (1e300) or underflowed (1e-300) in the weights
    @pytest.mark.parametrize("r_max", ["1e300", "1e-300"])
    @pytest.mark.parametrize("command", [["solve", "--c", "0.6"],
                                         ["landscape"]])
    def test_rejected_as_domain_error(self, capsys, monkeypatch, tmp_path,
                                      r_max, command):
        monkeypatch.setenv("BHGS_GRID__R_MAX", r_max)
        monkeypatch.chdir(tmp_path)
        rc, out, err = run_cli(capsys, *command)
        assert rc == 3 and out == ""
        (rec,) = json_lines(err)
        assert rec["error"] == "domain-error"
        assert "float range" in rec["message"]
        assert list(tmp_path.iterdir()) == []


class TestCliLargeDimension:
    # estimated mode builds the C_gn grid (1025, 40) at the configured N:
    # at N = 100 its node-1 weight is negative (the ascent's Cholesky then
    # failed), at N = 172 its exact weights overflowed a float
    @pytest.mark.parametrize("N,why", [("100", "weight <= 0"),
                                       ("172", "float range")])
    def test_rejected_as_domain_error(self, capsys, monkeypatch, N, why):
        monkeypatch.setenv("BHGS_PROBLEM__N", N)
        monkeypatch.setenv("BHGS_PROBLEM__Q", "2.01")
        monkeypatch.setenv("BHGS_CONSTANTS__MODE", "estimated")
        rc, out, err = run_cli(capsys, "constants")
        assert rc == 3 and out == ""
        (rec,) = json_lines(err)
        assert rec["error"] == "domain-error"
        assert why in rec["message"] and f"dim-{N}" in rec["message"]


class TestCliParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
