"""Normalized ground states of the biharmonic Schrodinger equation.

Library layout:

- landscape: closed-form energy-landscape layer (exponents, f(c, rho), the
  maximizer rho_c, the mass threshold c0, the sharp Sobolev constant) and
  the package's error types.
- grid: radial discretization (quadrature, Laplacian, field CSV).
- functionals: norms, energy, Pohozaev value, gradient, multiplier, and the
  exact bundle rescaling under amplitude and dilation.
- fiber: scalar fiber-map analysis (psi, psi', xi, zero structure).
- minimizer: the constrained solver and the estimated C_gn.
- config / verify / cli: front end.

The names in __all__ are resolved on access (PEP 562): `bhgs.minimize`
imports bhgs.minimizer on first use and reads its attribute on every
access, never holding it here. So `import bhgs` loads no submodule and no
numpy, and a rebinding of a submodule's attribute is seen through the
package.
"""
import importlib

__version__ = "0.1.0"

# the submodule that defines each exported name
_SOURCES = {
    "landscape": ["DomainError", "ExponentSet", "LandscapeParams",
                  "comparison_check", "derive_exponents", "f_landscape",
                  "mass_threshold", "rho_star", "estimate_sobolev_constant",
                  "ConvergenceError", "KernelsUnavailable"],
    "grid": ["RadialField", "RadialGrid", "build_grid", "integrate",
             "laplacian", "load_field", "save_field", "sphere_area"],
    "functionals": ["NormBundle", "energy", "l2_gradient",
                    "lagrange_multiplier", "norm_bundle", "pohozaev",
                    "rescale_bundle"],
    "fiber": ["FiberAnalysis", "analyze_fiber", "psi", "psi_prime", "xi",
              "xi_turning_point"],
    "minimizer": ["GroundState", "SolverConfig", "estimate_gn_constant",
                  "fiber_consistency", "minimize", "seed"],
    "config": ["Config", "ConfigError", "load_config", "resolve_params"],
}
_EXPORTS = {name: module for module, names in _SOURCES.items()
            for name in names}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted([*globals(), *_EXPORTS])
