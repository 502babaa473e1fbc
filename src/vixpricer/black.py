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
from .numerics import newton_bisect

__all__ = ["SkewPoint", "black_call", "implied_vol", "skew_curve"]

_VOL_LO = 1e-6
_VOL_HI = 10.0


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
    """Discounted Black call on a futures level."""
    if min(F, K, T, sigma) <= 0.0:
        raise ValueError("F, K, T and sigma must be strictly positive")
    vol = sigma * math.sqrt(T)
    d1 = (math.log(F / K) + 0.5 * vol * vol) / vol
    d2 = d1 - vol
    return math.exp(-r * T) * (F * _norm_cdf(d1) - K * _norm_cdf(d2))


def implied_vol(price: float, F: float, K: float, T: float, r: float) -> float:
    """Volatility solving ``black_call(F, K, T, r, sigma) = price``.

    The price must lie strictly inside the static no-arbitrage band
    ``(e^{-rT} (F - K)^+, e^{-rT} F)``. The vol is found by
    :func:`~vixpricer.numerics.newton_bisect`'s false position on the
    bracket [1e-6, 10], to 1e-14 relative. Each end is priced once; a price
    past an end returns the floor or the cap, read off the ends' signs.
    """
    disc = math.exp(-r * T)
    lo_band = disc * max(F - K, 0.0)
    hi_band = disc * F
    if not lo_band < price < hi_band:
        raise ValueError(
            f"price {price} outside the invertible band ({lo_band}, {hi_band})")
    gap = lambda sigma: black_call(F, K, T, r, sigma) - price
    lo, hi = (_VOL_LO, gap(_VOL_LO)), (_VOL_HI, gap(_VOL_HI))
    if lo[1] > 0.0 or hi[1] < 0.0:  # the price lies past an end
        return _VOL_LO if lo[1] > 0.0 else _VOL_HI
    return newton_bisect(gap, lo, hi, rel_tol=1e-14)


def skew_curve(m: ModelSpec, p: CirParams, T: float, r: float, state: float,
               moneyness_grid, config: QuadratureConfig = DEFAULT_CONFIG):
    """Implied-vol curve of model option prices across log-moneyness.

    For each moneyness the strike is ``F_T * exp(moneyness)``; the model
    call price is inverted through the Black formula. A point gets NaN vol
    instead of raising where the price is outside the invertible band, or
    where its time value ``price - e^{-rT} (F_T - K)^+`` is at most
    ``config.rel_tol * price``, within the quadrature's own error. The
    futures level and every strike share one law and its box.
    """
    law = transition_law(p, T, factor_state(m, state))
    box = law.mass_bounds(config.tail_mass_cut)
    fut = _futures_on(m, law, box, config)
    points = []
    for mny in np.asarray(moneyness_grid, dtype=float):
        strike = fut * math.exp(mny)
        option = OptionSpec(strike=strike, maturity=T, rate=r, kind="call")
        price = _european_on(m, option, T, law, box, config)
        time_value = price - math.exp(-r * T) * max(fut - strike, 0.0)
        try:
            vol = (implied_vol(price, fut, strike, T, r)
                   if time_value > config.rel_tol * price else math.nan)
        except ValueError:
            vol = math.nan
        points.append(SkewPoint(moneyness=float(mny), implied_vol=vol))
    return points
