"""Estimate the two functional constants and see how the threshold moves.

The interpolation and critical-embedding constants enter every landscape
formula.  Synthetic mode pins both to 1.  Estimated mode takes the
interpolation quotient of the solver's held ground-state profile for
(N, q), which maximizes it (Weinstein 1983): a grid estimate of the radial
constant C_gn.  The estimate has no error bar yet, and its grid error has
either sign: the discrete quotient is not bounded by the continuum one.  The critical-embedding constant is known in closed form
(the bubbles attain it), so S_sob is sharp.  Since c0 = (2M)^(-N/4) and M
grows with C_gn, the derived c0 and rho0 inherit C_gn's error.  That is why
the CLI attaches a warning to every estimated-mode record.
"""
from bhgs import (
    LandscapeParams,
    estimate_gn_constant,
    estimate_sobolev_constant,
    mass_threshold,
)


def main():
    base = LandscapeParams(N=5, q=3.0, mu=1.0)
    M_syn, c0_syn, rho0_syn = mass_threshold(base)
    print(f"synthetic constants:  C_gn=1.0  S_sob=1.0")
    print(f"  M={M_syn:.6f}  c0={c0_syn:.6f}  rho0={rho0_syn:.6f}")
    print()

    # the (N, q) profile's quotient `bhgs constants` uses in estimated
    # mode, and the sharp law
    c_gn = estimate_gn_constant(base)
    s_sob = estimate_sobolev_constant(base)
    print(f"estimated constants:  C_gn={c_gn:.12f}  S_sob={s_sob:.12f}")

    est = LandscapeParams(N=5, q=3.0, mu=1.0, C_gn=c_gn, S_sob=s_sob)
    M_est, c0_est, rho0_est = mass_threshold(est)
    print(f"  M={M_est:.6f}  c0={c0_est:.6f}  rho0={rho0_est:.6f}")
    print()
    print(f"threshold ratio c0_est/c0_syn = {c0_est / c0_syn:.2f}")
    print("C_gn is a grid estimate of the radial constant, with no error bar")
    print("yet, and S_sob is sharp; the derived c0 and rho0 inherit C_gn's")
    print("error, so masses close to c0_est are not certified to sit inside")
    print("the well")


if __name__ == "__main__":
    main()
