"""Solve for a normalized ground state below the mass threshold.

Seeds a Gaussian inside the potential well, runs the preconditioned
projected descent, and checks the two variational signatures of a ground
state: the Pohozaev residual vanishes, and the converged field sits at
s = 1 on its own fiber (dilating it in either direction raises energy).
The field round-trips through CSV bit for bit.
"""
import os
import tempfile

import numpy as np

from bhgs import (
    LandscapeParams,
    fiber_consistency,
    lagrange_multiplier,
    load_field,
    mass_threshold,
    minimize,
    norm_bundle,
    save_field,
)
from bhgs.config import load_config


def main():
    params = LandscapeParams(N=5, q=3.0, mu=1.0)
    M, c0, rho0 = mass_threshold(params)
    c = 0.5 * c0
    print(f"threshold c0 = {c0:.9f}; solving at c = c0/2 = {c:.9f}")

    grid = load_config(env={}).solve_grid()
    state = minimize(params, grid, c)
    b = norm_bundle(params, state.field)
    print(f"converged in {state.iters} iterations")
    print(f"  m(c)        = {state.m:+.9e}   (negative: well is nontrivial)")
    print(f"  lambda      = {state.lam:+.9e}   "
          f"(recomputed {lagrange_multiplier(params, b):+.9e})")
    print(f"  bend        = {state.bend:.9e}   vs rho0 = {rho0:.6f}")
    print(f"  |Q|/bend    = {state.q_residual:.3e}")
    print(f"  |s1 - 1|    = {fiber_consistency(params, state):.3e}")
    print(f"  constraint boundary touched: {state.constraint_active}")

    path = os.path.join(tempfile.mkdtemp(), "ground_state.csv")
    save_field(state.field, path)
    back = load_field(path)
    same = np.array_equal(back.values, state.field.values)
    print(f"CSV round trip at {path}: bitwise identical = {same}")


if __name__ == "__main__":
    main()
