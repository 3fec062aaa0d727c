"""Shared hypothesis strategies for the property tests, and the generic
fiber bisection the fiber oracles keep as their reference."""
import math

from hypothesis import strategies as st

from bhgs import LandscapeParams, NormBundle


@st.composite
def params_st(draw):
    n = draw(st.integers(min_value=5, max_value=12))
    t = draw(st.floats(min_value=0.02, max_value=0.98))
    q = 2.0 + t * 8.0 / n
    mu = math.exp(draw(st.floats(min_value=-2.0, max_value=2.0)))
    c_gn = math.exp(draw(st.floats(min_value=-0.7, max_value=0.7)))
    s_sob = math.exp(draw(st.floats(min_value=-0.7, max_value=0.7)))
    return LandscapeParams(N=n, q=q, mu=mu, C_gn=c_gn, S_sob=s_sob)


@st.composite
def bundle_st(draw):
    # log-uniform positive norms over six decades, unit mass
    logs = [draw(st.floats(min_value=-3.0, max_value=3.0)) for _ in range(3)]
    a, b, c = (10.0 ** x for x in logs)
    return NormBundle(mass=1.0, bend=a, subcrit=b, crit=c)


def ref_bisect(fn, lo, hi):
    """The zero of fn in [lo, hi] by bisection on ln s, fn(lo) and fn(hi)
    of opposite signs: the generic loop over a closure, which evaluates fn
    at lo where fiber._xi_zero takes its sign from the branch, kept as the
    fiber oracles' reference."""
    tlo, thi = math.log(lo), math.log(hi)
    flo = fn(lo)
    for _ in range(60):
        if thi - tlo <= 1e-10:
            break
        tmid = 0.5 * (tlo + thi)
        fmid = fn(math.exp(tmid))
        if (fmid > 0) == (flo > 0):
            tlo, flo = tmid, fmid
        else:
            thi = tmid
    return math.exp(0.5 * (tlo + thi))
