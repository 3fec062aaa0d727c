"""Normalized ground states of the biharmonic Schrodinger equation.

Library layout:

- landscape: closed-form energy-landscape layer (exponents, f(c, rho), the
  maximizer rho_c, the mass threshold c0).
- grid: radial discretization (quadrature, Laplacian, field CSV).
- functionals: norms, energy, Pohozaev value, gradient, multiplier, and the
  exact bundle rescaling under amplitude and dilation.
- fiber: scalar fiber-map analysis (psi, psi', xi, zero structure).
- minimizer: the constrained solver and the constant estimators.
- config / verify / cli: front end.
"""
from .landscape import (DomainError, ExponentSet, LandscapeParams,
                        comparison_check, derive_exponents, f_landscape,
                        mass_threshold, rho_star)
from .grid import (RadialField, RadialGrid, build_grid, integrate, laplacian,
                   load_field, save_field, sphere_area)
from .functionals import (NormBundle, energy, l2_gradient,
                          lagrange_multiplier, norm_bundle, pohozaev,
                          rescale_bundle)
from .fiber import FiberAnalysis, analyze_fiber, psi, psi_prime, xi, \
    xi_turning_point
from .minimizer import (ConvergenceError, GroundState, SolverConfig,
                        estimate_gn_constant, estimate_sobolev_constant,
                        fiber_consistency, minimize, seed)
from .config import Config, ConfigError, load_config, resolve_params

__version__ = "0.1.0"

__all__ = [
    "DomainError", "ExponentSet", "LandscapeParams", "comparison_check",
    "derive_exponents", "f_landscape", "mass_threshold", "rho_star",
    "RadialField", "RadialGrid", "build_grid", "integrate", "laplacian",
    "load_field", "save_field", "sphere_area",
    "NormBundle", "energy", "l2_gradient", "lagrange_multiplier",
    "norm_bundle", "pohozaev", "rescale_bundle",
    "FiberAnalysis", "analyze_fiber", "psi", "psi_prime", "xi",
    "xi_turning_point",
    "ConvergenceError", "GroundState", "SolverConfig",
    "estimate_gn_constant", "estimate_sobolev_constant", "fiber_consistency",
    "minimize", "seed",
    "Config", "ConfigError", "load_config", "resolve_params",
    "__version__",
]
