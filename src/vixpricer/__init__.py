"""Pricing engine for VIX futures and European/American VIX options.

The VIX is modeled as a power-sum transform of a square-root mean-reverting
factor. The package prices futures and European options by quadrature
against the factor's exact transition density, solves the American exercise
boundary by backward induction on its integral equation, inverts Black
prices into implied-volatility skews, and verifies everything against an
exact-simulation Monte Carlo oracle.
"""

from .american import (Boundary, SolverConfig, SolverError, american_price,
                       convexity_witness, smooth_fit_check, solve_boundary,
                       terminal_levels)
from .black import SkewPoint, black_call, implied_vol, skew_curve
from .cir import ChiSquareLaw, CirParams, transition_law
from .european import (DivergentIntegralError, OptionSpec, QuadratureConfig,
                       eep_kernel, european_price, futures_price,
                       futures_taylor)
from .mc import (McEstimate, mc_american_policy, mc_european, mc_futures,
                 policy_bias_indicator)
from .models import (AssumptionError, CriticalLevels, ModelSpec,
                     critical_levels, f_deriv, f_eval, g_eval,
                     mixture_inverse, model_from_dict, payoff_levels,
                     waiting_benefit, x_star)

__version__ = "0.1.0"

__all__ = [
    "Boundary", "SolverConfig", "SolverError", "american_price",
    "convexity_witness", "smooth_fit_check", "solve_boundary",
    "terminal_levels",
    "SkewPoint", "black_call", "implied_vol", "skew_curve",
    "ChiSquareLaw", "CirParams", "transition_law",
    "DivergentIntegralError", "OptionSpec", "QuadratureConfig",
    "eep_kernel", "european_price", "futures_price", "futures_taylor",
    "McEstimate", "mc_american_policy", "mc_european", "mc_futures",
    "policy_bias_indicator",
    "AssumptionError", "CriticalLevels", "ModelSpec",
    "critical_levels", "f_deriv", "f_eval", "g_eval",
    "mixture_inverse", "model_from_dict", "payoff_levels", "waiting_benefit",
    "x_star",
]
