"""Estimate the two functional constants and see how the threshold moves.

The interpolation and critical-embedding constants enter every landscape
formula.  Synthetic mode pins both to 1.  Estimated mode maximizes the
interpolation quotient over grid fields, which can only produce a lower
bound for the optimal C_gn: some admissible profile always does a little
better than the best grid field.  The critical-embedding constant is known
in closed form (the bubbles attain it), so S_sob is sharp.  A smaller C_gn
makes M smaller and therefore c0 = (2M)^(-N/4) larger, so the
estimated-mode threshold errs on the optimistic side.  That is why the CLI
attaches a warning to every estimated-mode record.
"""
from bhgs import (
    LandscapeParams,
    build_grid,
    estimate_gn_constant,
    estimate_sobolev_constant,
    mass_threshold,
)
from bhgs.config import GN_GRID


def main():
    base = LandscapeParams(N=5, q=3.0, mu=1.0)
    M_syn, c0_syn, rho0_syn = mass_threshold(base)
    print(f"synthetic constants:  C_gn=1.0  S_sob=1.0")
    print(f"  M={M_syn:.6f}  c0={c0_syn:.6f}  rho0={rho0_syn:.6f}")
    print()

    # the grid `bhgs constants` uses in estimated mode, and the sharp law
    c_gn = estimate_gn_constant(base, build_grid(5, *GN_GRID))
    s_sob = estimate_sobolev_constant(base)
    print(f"estimated constants:  C_gn={c_gn:.12f}  S_sob={s_sob:.12f}")

    est = LandscapeParams(N=5, q=3.0, mu=1.0, C_gn=c_gn, S_sob=s_sob)
    M_est, c0_est, rho0_est = mass_threshold(est)
    print(f"  M={M_est:.6f}  c0={c0_est:.6f}  rho0={rho0_est:.6f}")
    print()
    print(f"threshold ratio c0_est/c0_syn = {c0_est / c0_syn:.2f}")
    print("C_gn is a lower bound for the optimal constant and S_sob is sharp,")
    print("so the derived c0 and rho0 can only overestimate their true")
    print("values: masses close to c0_est are not certified to sit inside")
    print("the well")


if __name__ == "__main__":
    main()
