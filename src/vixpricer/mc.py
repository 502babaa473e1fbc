"""Monte Carlo verification layer built on exact factor sampling.

The factor is drawn from its exact law (``Generator.noncentral_chisquare``), so
estimates carry no time-discretization bias in the state; only the
American stopping rule is restricted to a time grid, which makes the policy
estimator a lower bound up to that grid bias. Fixed seeds reproduce every
estimate bit for bit, which also gives common random numbers across
parameter bumps, under the same NumPy generator algorithms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cir import CirParams, law_params, transition_law
from .european import OptionSpec, factor_state, vix_level
from .models import ModelSpec, f_eval

__all__ = ["McEstimate", "mc_european", "mc_futures", "mc_american_policy",
           "policy_bias_indicator"]


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    n_paths: int
    seed: int

    def z_score(self, reference: float) -> float:
        """Standardized gap to a reference value (0 when both are exact)."""
        if self.std_error == 0.0:
            return 0.0 if reference == self.mean else math.inf
        return (reference - self.mean) / self.std_error


def _summarize(values: np.ndarray, seed: int) -> McEstimate:
    n = len(values)
    mean = float(values.mean())
    if n > 1 and not np.all(values == values[0]):
        se = float(values.std(ddof=1) / math.sqrt(n))
    else:
        se = 0.0
    return McEstimate(mean=mean, std_error=se, n_paths=n, seed=seed)


def _check_paths(n):
    """Every estimator draws at least one path, also at zero horizon."""
    if n < 1:
        raise ValueError("sample size must be at least 1")


def _terminal_vix(m, p, horizon, state, n, seed):
    """``n`` exact draws of the VIX level ``horizon > 0`` ahead of the state."""
    law = transition_law(p, horizon, factor_state(m, state))
    return f_eval(m, law.sample(n, np.random.default_rng(seed)))


def mc_european(m: ModelSpec, p: CirParams, option: OptionSpec, t: float,
                state: float, n: int, seed: int) -> McEstimate:
    """Sample average of the discounted terminal payoff."""
    _check_paths(n)
    tau = option.maturity - t
    if tau < 0.0:
        raise ValueError("valuation time lies beyond maturity")
    if tau == 0.0:
        return McEstimate(mean=float(option.payoff_vix(vix_level(m, state))),
                          std_error=0.0, n_paths=n, seed=seed)
    x = _terminal_vix(m, p, tau, state, n, seed)
    return _summarize(option.payoff_vix(x) * math.exp(-option.rate * tau), seed)


def mc_futures(m: ModelSpec, p: CirParams, horizon: float, state: float,
               n: int, seed: int) -> McEstimate:
    """Sample average of the terminal VIX level."""
    _check_paths(n)
    if horizon < 0.0:
        raise ValueError("horizon must be non-negative")
    if horizon == 0.0:
        return McEstimate(mean=vix_level(m, state), std_error=0.0, n_paths=n,
                          seed=seed)
    return _summarize(_terminal_vix(m, p, horizon, state, n, seed), seed)


def mc_american_policy(m: ModelSpec, p: CirParams, option: OptionSpec,
                       boundary, t: float, state: float, n: int,
                       n_time_steps: int, seed: int) -> McEstimate:
    """Discounted payoff under the boundary's stopping rule.

    Paths evolve by exact transition sampling between grid times; each path
    stops at the first grid time it enters the exercise region and collects
    the payoff there, maturity included. The region is the boundary's stored
    factor stop pair, linearly interpolated in time, so the factor paths are
    compared with it directly. Stopping only on the grid biases the
    estimate low. At maturity it is :func:`mc_european`'s exact payoff. The
    boundary must cover the valuation as in :func:`american_price`.
    """
    _check_paths(n)
    if n_time_steps < 1:
        raise ValueError("need at least one time step")
    boundary.check_covers(option, t)
    tau = option.maturity - t
    if tau == 0.0:
        return mc_european(m, p, option, t, state, n, seed)
    rng = np.random.default_rng(seed)
    y0 = factor_state(m, state)
    times = t + np.linspace(0.0, tau, n_time_steps + 1)
    lo_cut, hi_cut = boundary.cuts_at(times)

    payoff = np.zeros(n)
    # the live paths' levels and indices, compact and in path order
    y, live = np.full(n, y0), np.arange(n)
    for i, s in enumerate(times):
        last = i == len(times) - 1
        stopped = (y <= lo_cut[i]) | (y >= hi_cut[i]) | last  # all at maturity
        if stopped.any():
            disc = math.exp(-option.rate * (s - t))
            payoff[live[stopped]] = disc * option.payoff_vix(f_eval(m, y[stopped]))
            y, live = y[~stopped], live[~stopped]
        if last or not len(y):
            break
        step = times[i + 1] - times[i]
        if step == 0.0:  # rounded away near maturity: no time elapses
            continue
        lam_unit, scale = law_params(p, step, 1.0)
        y = scale * rng.noncentral_chisquare(p.df, lam_unit * y)
    return _summarize(payoff, seed)


def policy_bias_indicator(m: ModelSpec, p: CirParams, option: OptionSpec,
                          boundary, t: float, state: float, n: int,
                          n_time_steps: int, seed: int) -> float:
    """Richardson-style grid-bias gauge for the policy estimator.

    Absolute difference between runs with the full and halved numbers of
    stopping dates, same seed. The runs share the seed but not the paths,
    so the gauge is about as noisy as the late-exercise bias it gauges and
    does not bound it: it can read near 0 while the estimate sits several
    standard errors below the premium formula.
    """
    full = mc_american_policy(m, p, option, boundary, t, state, n,
                              n_time_steps, seed)
    half = mc_american_policy(m, p, option, boundary, t, state, n,
                              max(n_time_steps // 2, 1), seed)
    return abs(full.mean - half.mean)
