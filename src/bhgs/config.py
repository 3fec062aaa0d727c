"""Configuration: INI file over defaults, environment variables over both.

The keys are problem data only: [problem] N/q/mu, [constants] the
working-constant mode and the synthetic values, [grid] the solve mesh, and
[sweep] the mass grid shared by `landscape` and `sweep`. Numerical controls
(solver tolerances, sample counts, lemma tolerances) are constants where
they are used. Any key can be overridden
per process with BHGS_<SECTION>__<KEY> (two underscores), e.g.
BHGS_PROBLEM__Q=2.8.

A missing file is `config-not-found`; an unparsable or non-UTF-8 one is
`config-parse`; any other read failure (a directory, no permission) is left
to the caller as OSError. `resolve_params` turns a Config into the one
LandscapeParams a command works with, estimating C_gn and taking the sharp
S_sob in estimated mode. Numeric validation that encodes the admissible
parameter ranges lives in the domain types themselves (LandscapeParams,
build_grid); this module only parses, applies precedence, and rejects
unknown keys. numpy, the grid and the minimizer are imported by the
functions that use them, so loading a config and resolving synthetic
constants import none of them.
"""
from __future__ import annotations

import configparser
import os
from dataclasses import dataclass

from .landscape import LandscapeParams, estimate_sobolev_constant

__all__ = ["ConfigError", "Config", "load_config", "resolve_params",
           "sweep_masses", "DEFAULTS", "ENV_PREFIX"]

ENV_PREFIX = "BHGS_"

DEFAULTS: dict[str, dict[str, str]] = {
    "problem": {"n": "5", "q": "3.0", "mu": "1.0"},
    # synthetic: use c_gn/s_sob as-is
    "constants": {"mode": "synthetic", "c_gn": "1.0", "s_sob": "1.0"},
    "grid": {"n": "2049", "r_max": "1000.0"},
    "sweep": {"c_grid": "0.1,0.15,0.2,0.25,0.3,0.4,0.5,0.9"},  # c/c0 fractions
}


class ConfigError(Exception):
    """Carries a machine-readable kind alongside the message."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


@dataclass(frozen=True)
class Config:
    raw: dict[str, dict[str, str]]

    def get_str(self, section: str, key: str) -> str:
        return self.raw[section][key]

    def get_float(self, section: str, key: str) -> float:
        txt = self.get_str(section, key)
        try:
            return float(txt)
        except ValueError as exc:
            raise ConfigError(
                "config-value", f"[{section}] {key}={txt!r} is not a number") from exc

    def get_int(self, section: str, key: str) -> int:
        txt = self.get_str(section, key)
        try:
            return int(txt)
        except ValueError as exc:
            raise ConfigError(
                "config-value", f"[{section}] {key}={txt!r} is not an integer") from exc

    # typed views -----------------------------------------------------------
    def problem(self, c_gn: float = 1.0, s_sob: float = 1.0) -> LandscapeParams:
        return LandscapeParams(N=self.get_int("problem", "n"),
                               q=self.get_float("problem", "q"),
                               mu=self.get_float("problem", "mu"),
                               C_gn=c_gn, S_sob=s_sob)

    @property
    def constants_mode(self) -> str:
        mode = self.get_str("constants", "mode")
        if mode not in ("synthetic", "estimated"):
            raise ConfigError(
                "config-value",
                f"[constants] mode must be synthetic or estimated, got {mode!r}")
        return mode

    def solve_grid(self):
        """The [grid] mesh for the [problem] dimension, a RadialGrid."""
        from .grid import build_grid
        return build_grid(self.get_int("problem", "n"),
                          self.get_int("grid", "n"),
                          self.get_float("grid", "r_max"))


def load_config(path: str | None = None,
                env: dict[str, str] | None = None) -> Config:
    """Defaults, then the INI file at path (if given), then BHGS_ env keys."""
    raw = {sec: dict(kv) for sec, kv in DEFAULTS.items()}
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(path, encoding="utf-8") as fh:
                parser.read_file(fh)
        except FileNotFoundError as exc:
            raise ConfigError(
                "config-not-found", f"config file not found: {path}") from exc
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError("config-parse", f"{path}: {exc}") from exc
        for sec in parser.sections():
            if sec not in raw:
                raise ConfigError("config-value", f"{path}: unknown section [{sec}]")
            for key, val in parser.items(sec):
                if key not in raw[sec]:
                    raise ConfigError(
                        "config-value", f"{path}: unknown key [{sec}] {key}")
                raw[sec][key] = val
    env = os.environ if env is None else env
    for name, val in env.items():
        if not name.startswith(ENV_PREFIX):
            continue
        body = name[len(ENV_PREFIX):]
        if "__" not in body:
            raise ConfigError(
                "config-value",
                f"environment override {name} must look like "
                f"{ENV_PREFIX}SECTION__KEY")
        sec, key = (part.lower() for part in body.split("__", 1))
        if sec not in raw or key not in raw[sec]:
            raise ConfigError(
                "config-value", f"environment override {name} matches no key")
        raw[sec][key] = val
    return Config(raw=raw)


def resolve_params(cfg: Config) -> LandscapeParams:
    """LandscapeParams with working constants per the configured mode.

    In estimated mode C_gn is the quotient of the minimizer's held (N, q)
    profile, a grid estimate of the radial constant with no error bar yet,
    and S_sob is sharp; the derived c0 and rho0 inherit C_gn's error, and
    the CLI records say so.
    """
    if cfg.constants_mode == "synthetic":
        return cfg.problem(cfg.get_float("constants", "c_gn"),
                           cfg.get_float("constants", "s_sob"))
    from .minimizer import estimate_gn_constant
    probe = cfg.problem()
    return cfg.problem(estimate_gn_constant(probe),
                       estimate_sobolev_constant(probe))


def sweep_masses(cfg: Config, c0: float):
    """Ascending mass grid, a numpy array: the c_grid fractions of c0,
    distinct and finite."""
    import numpy as np
    try:
        fracs = sorted(float(tok) for tok in
                       cfg.get_str("sweep", "c_grid").split(","))
    except ValueError as exc:
        raise ConfigError(
            "config-value", "[sweep] c_grid is not a comma list of numbers"
        ) from exc
    if len(fracs) < 4:
        raise ConfigError("config-value", "[sweep] c_grid needs >= 4 points")
    if not (0 < fracs[0] and fracs[-1] < 1):
        raise ConfigError(
            "config-value", "[sweep] c_grid fractions must lie in (0, 1)")
    # NaN compares false, so it fails here along with repeated fractions
    if not all(a < b for a, b in zip(fracs, fracs[1:])):
        raise ConfigError(
            "config-value", "[sweep] c_grid fractions must be distinct numbers")
    return c0 * np.array(fracs)
