"""Black futures-option formula, implied-volatility inversion, skew curves."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .cir import CirParams, transition_law
from .european import (DEFAULT_CONFIG, OptionSpec, QuadratureConfig,
                       _european_on, _futures_on, factor_state)
from .models import ModelSpec
from .numerics import ConvergenceError, bracket_downcrossing, newton_bisect

__all__ = ["SkewPoint", "black_call", "implied_vol", "skew_curve"]


def _norm_cdf(x):
    # complementary-error-function form keeps the deep tails exact
    return 0.5 * special.erfc(-x / math.sqrt(2.0))


@dataclass(frozen=True)
class SkewPoint:
    """One point of an implied-volatility curve.

    ``moneyness`` is log(K / F_T); ``implied_vol`` is NaN where
    :func:`skew_curve` gives the point no vol.
    """

    moneyness: float
    implied_vol: float


def black_call(F: float, K: float, T: float, r: float, sigma: float) -> float:
    """Discounted Black call on a futures level.

    It is the intrinsic value ``(F - K)^+`` plus the time value, the price of
    the out-of-the-money side, formed as ``min(F, K) P(d2 < Z < d1) - |F - K|
    Phi(-max(|d1|, |d2|))``. So no ``F Phi(d1) - K Phi(d2)`` of two near
    halves cancels at the money, where the time value is ``F erf(sigma
    sqrt(T) / sqrt(8))`` to the last bits at any vol.
    """
    if not (all(map(math.isfinite, (F, K, T, r, sigma)))
            and min(F, K, T, sigma) > 0.0):
        raise ValueError("F, K, T, r and sigma must be finite, and F, K, T "
                         "and sigma strictly positive")
    vol = sigma * math.sqrt(T)
    d1 = (math.log(F / K) + 0.5 * vol * vol) / vol
    d2 = d1 - vol
    time_value = (min(F, K) * _norm_between(d2, d1)
                  - abs(F - K) * _norm_cdf(-max(abs(d1), abs(d2))))
    return math.exp(-r * T) * (max(F - K, 0.0) + time_value)


def _norm_between(lo, hi):
    """``P(lo < Z < hi)`` for a standard normal ``Z``, from the tail on the
    interval's side of 0 (``erf`` where it holds 0), so the difference
    keeps its relative accuracy."""
    root2 = math.sqrt(2.0)
    if lo >= 0.0:
        return 0.5 * (special.erfc(lo / root2) - special.erfc(hi / root2))
    if hi <= 0.0:
        return 0.5 * (special.erfc(-hi / root2) - special.erfc(-lo / root2))
    return 0.5 * (special.erf(hi / root2) - special.erf(lo / root2))


def implied_vol(price: float, F: float, K: float, T: float, r: float) -> float:
    """Volatility solving ``black_call(F, K, T, r, sigma) = price``.

    The price must lie strictly inside the static no-arbitrage band
    ``(e^{-rT} (F - K)^+, e^{-rT} F)``. The vol is bracketed by
    :func:`~vixpricer.numerics.bracket_downcrossing` in steps of 2 from
    ``sigma = 1``, within [1e-300, 1e300], and found by
    :func:`~vixpricer.numerics.newton_bisect`'s false position to 1e-14
    relative; no vol is priced twice. A price whose vol the search cannot
    bracket raises :class:`~vixpricer.numerics.ConvergenceError`.
    """
    disc = math.exp(-r * T)
    lo_band = disc * max(F - K, 0.0)
    hi_band = disc * F
    if not lo_band < price < hi_band:
        raise ValueError(
            f"price {price} outside the invertible band ({lo_band}, {hi_band})")
    gap = lambda sigma: price - black_call(F, K, T, r, sigma)  # + below the vol
    return newton_bisect(gap, *bracket_downcrossing(gap, (1.0, gap(1.0))),
                         rel_tol=1e-14)


def skew_curve(m: ModelSpec, p: CirParams, T: float, r: float, state: float,
               moneyness_grid, config: QuadratureConfig = DEFAULT_CONFIG):
    """Implied-vol curve of model option prices across log-moneyness.

    For each moneyness the strike is ``F_T * exp(moneyness)``; the model
    call price is inverted through the Black formula. A point gets NaN vol
    instead of raising where the price is outside the invertible band, where
    :func:`implied_vol` cannot bracket its vol, or where its time value
    ``price - e^{-rT} (F_T - K)^+`` is at most ``config.rel_tol * price``,
    within the quadrature's own error. The futures level and every strike
    share one law and its box, and the strikes are priced as one ladder
    (:func:`~vixpricer.european._european_on`): one adaptive run, whose
    passes evaluate the density once for all strikes, and one origin moment
    series, each price bit for bit the one :func:`european_price` gives.
    Where the ladder fails, the strikes are priced one at a time, so the
    first failing strike in grid order raises what it raises alone.
    """
    law = transition_law(p, T, factor_state(m, state))
    box = law.mass_bounds(config.tail_mass_cut)
    fut = _futures_on(m, law, config, box)
    grid = np.asarray(moneyness_grid, dtype=float)

    def ladder(grid):
        options = [OptionSpec(strike=fut * math.exp(mny), maturity=T, rate=r, kind="call")
                   for mny in grid]
        return options, _european_on(m, options, T, law, box, config)

    try:
        options, prices = ladder(grid)
    except (ArithmeticError, RuntimeError, ValueError):
        for mny in grid:  # the first strike that fails alone raises
            ladder([mny])
        raise
    points = []
    for mny, option, price in zip(grid, options, prices):
        strike = option.strike
        time_value = price - math.exp(-r * T) * max(fut - strike, 0.0)
        try:
            vol = (implied_vol(price, fut, strike, T, r)
                   if time_value > config.rel_tol * price else math.nan)
        except (ValueError, ConvergenceError):
            vol = math.nan
        points.append(SkewPoint(moneyness=float(mny), implied_vol=vol))
    return points
