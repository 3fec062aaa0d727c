"""Spans around the public functions of every bhgs layer, installed from outside.

The layers are the package's modules. `install` wraps each function listed in
LAYERS and rebinds every module attribute in the package that holds the
original object, because `from .functionals import norm_bundle` and similar
imports bind one function under several module names; rebinding only the
defining module would miss those calls.

A span records its name, start, end, parent span, op id and whether the call
returned. Spans stay in memory; `Tracer.dump` writes them when the run ends.
Self time is a span's duration minus the time its direct children cover
(single-threaded, so children nest inside their parent and do not overlap).

Standard library only: the command launcher imports this module in every
fresh interpreter before the program.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# layer -> public functions wrapped. minimizer.cholesky_banded and
# minimizer.cho_solve_banded are scipy functions under the names minimizer
# binds them to; they are the banded-operator kernels.
LAYERS = {
    "cli": ["main"],
    "config": ["load_config", "resolve_params"],
    "grid": ["build_grid", "load_field", "save_field", "integrate", "laplacian"],
    "functionals": ["norm_bundle", "energy", "l2_gradient",
                    "lagrange_multiplier"],
    "minimizer": ["minimize", "seed", "fiber_consistency",
                  "estimate_gn_constant", "estimate_sobolev_constant",
                  "cholesky_banded", "cho_solve_banded"],
    "fiber": ["analyze_fiber", "psi", "psi_prime", "xi"],
    "landscape": ["mass_threshold", "rho_star", "f_landscape",
                  "comparison_check"],
    "verify": ["run_all", "golden_argmax", "bisect_threshold",
               "fiber_sign_scan", "bump_field"],
}

SPAN_NAMES = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]

# Arrays of length n each call reads or writes, for the computed-bytes
# model (n * 8 B * arrays). A model, not a measurement: it ignores caches,
# temporaries numpy may elide, and the sparse index arrays.
ARRAYS_TOUCHED = {
    "functionals.norm_bundle": 8,        # u, Lu, |u|, w, four weighted products
    "functionals.l2_gradient": 9,
    "minimizer.minimize": 12,            # per iteration: gradient and direction
    "minimizer.cho_solve_banded": 7,     # 5-band factor, rhs, solution
    "minimizer.cholesky_banded": 10,     # 5-band input and factor
    "grid.integrate": 2,
    "grid.laplacian": 3,
}


class Tracer:
    """In-memory span recorder. `op` is the current op id; -1 is set-up."""

    def __init__(self) -> None:
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op_of: list[int] = []
        self.ok: list[bool] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: dict[str, float] = {}
        self._bound: list[tuple[object, str, object]] = []

    # ----------------------------------------------------------- recording
    def wrap(self, name: str, fn, on_return=None):
        names, start, end, parent = self.name, self.start, self.end, self.parent
        op_of, ok, stack, clock = self.op_of, self.ok, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            op_of.append(self.op)
            ok.append(False)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            ok[idx] = True
            if on_return is not None:
                on_return(self, args, result)
            return result

        return traced

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    # ------------------------------------------------------ installation
    def install(self) -> None:
        """Wrap every LAYERS function and rebind all package references."""
        hooks = {
            "grid.build_grid": lambda t, a, r: t.add("grid.build_grid.nodes", r.n),
            "minimizer.minimize": lambda t, a, r: t.add("minimizer.iters", r.iters),
        }
        wrappers = {}
        for layer, fns in LAYERS.items():
            mod = importlib.import_module(f"bhgs.{layer}")
            for fn in fns:
                orig = getattr(mod, fn)
                name = f"{layer}.{fn}"
                wrappers[id(orig)] = (orig, self.wrap(name, orig, hooks.get(name)))
        for mod in _package_modules():
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._bound.append((mod, attr, val))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._bound):
            setattr(mod, attr, orig)
        self._bound.clear()

    # ------------------------------------------------------------- output
    def table(self) -> dict:
        names = sorted(set(self.name))
        idx = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "spans": [[idx[n], s, e, p, o, k] for n, s, e, p, o, k in zip(
                self.name, self.start, self.end, self.parent, self.op_of,
                self.ok)],
            "counts": self.counts,
        }

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.table(), fh)


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "bhgs" or n.startswith("bhgs."))]


def summarize(tables: list[dict], grid_n: int) -> dict:
    """Additive totals over span tables: per span name `calls` and
    `self_s` (all spans) and `timed_self_s` (spans of ops, op id >= 0), the
    tracer's counts, and the derived solver counts."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    timed_self: dict[str, float] = {}
    out = {"counts": {}, "bundles_under_minimize": 0, "bundles_direct": 0,
           "minimize_ok": 0, "iterations": 0, "seed_halvings": 0,
           "computed_bytes": 0}
    for tab in tables:
        names = tab["names"]
        spans = tab["spans"]
        child_time = [0.0] * len(spans)
        nb_children = [0] * len(spans)
        for name_i, s, e, p, _, _ in spans:
            if p >= 0:
                child_time[p] += e - s
                if names[name_i] == "functionals.norm_bundle":
                    nb_children[p] += 1
        for i, (name_i, s, e, p, op, ok) in enumerate(spans):
            name = names[name_i]
            own = (e - s) - child_time[i]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            if op >= 0:
                timed_self[name] = timed_self.get(name, 0.0) + own
            parent_name = names[spans[p][0]] if p >= 0 else None
            if name == "functionals.norm_bundle":
                if parent_name == "minimizer.minimize":
                    out["bundles_direct"] += 1
                if _under(spans, names, i, "minimizer.minimize"):
                    out["bundles_under_minimize"] += 1
            elif name == "minimizer.minimize" and ok:
                out["minimize_ok"] += 1
                out["iterations"] += 1      # the converged, unsolved iteration
            elif name == "minimizer.cho_solve_banded" and parent_name == "minimizer.minimize":
                out["iterations"] += 1
            elif name == "minimizer.seed":
                out["seed_halvings"] += nb_children[i] - (1 if ok else 0)
            arrays = ARRAYS_TOUCHED.get(name)
            if arrays and name != "minimizer.minimize":
                out["computed_bytes"] += grid_n * 8 * arrays
        for key, val in tab["counts"].items():
            out["counts"][key] = out["counts"].get(key, 0) + val
    out["computed_bytes"] += (grid_n * 8 * ARRAYS_TOUCHED["minimizer.minimize"]
                              * out["iterations"])
    out["calls"] = calls
    out["self_s"] = self_s
    out["timed_self_s"] = timed_self
    return out


def _under(spans, names, i: int, ancestor: str) -> bool:
    p = spans[i][3]
    while p >= 0:
        if names[spans[p][0]] == ancestor:
            return True
        p = spans[p][3]
    return False
