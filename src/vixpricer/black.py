"""Black futures-option formula, implied-volatility inversion, skew curves."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .cir import CirParams
from .european import (DEFAULT_CONFIG, OptionSpec, QuadratureConfig,
                       european_price, futures_price)
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

    ``moneyness`` is log(K / F_T); ``implied_vol`` is NaN when the price
    could not be inverted.
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


def _vega(F, K, T, r, sigma):
    vol = sigma * math.sqrt(T)
    d1 = (math.log(F / K) + 0.5 * vol * vol) / vol
    return math.exp(-r * T) * F * math.sqrt(T) \
        * math.exp(-0.5 * d1 * d1) / math.sqrt(2.0 * math.pi)


def implied_vol(price: float, F: float, K: float, T: float, r: float) -> float:
    """Volatility solving ``black_call(F, K, T, r, sigma) = price``.

    The price must lie strictly inside the static no-arbitrage band
    ``(e^{-rT} (F - K)^+, e^{-rT} F)``. The vol is found by
    :func:`~vixpricer.numerics.newton_bisect` on the bracket [1e-6, 10],
    with Newton steps on the vega; prices beyond the bracket's ends return
    the floor or the cap.
    """
    disc = math.exp(-r * T)
    lo_band = disc * max(F - K, 0.0)
    hi_band = disc * F
    if not lo_band < price < hi_band:
        raise ValueError(
            f"price {price} outside the invertible band ({lo_band}, {hi_band})")
    # Python floats: numpy scalars would warn on an overflowing Newton step
    gap = lambda sigma: float(black_call(F, K, T, r, sigma) - price)
    vega = lambda sigma: float(_vega(F, K, T, r, sigma))
    if gap(_VOL_LO) > 0.0:  # price below the sigma floor; report the floor
        return _VOL_LO
    if gap(_VOL_HI) < 0.0:
        return _VOL_HI
    return newton_bisect(gap, _VOL_LO, _VOL_HI, dfn=vega, rel_tol=1e-14)


def skew_curve(m: ModelSpec, p: CirParams, T: float, r: float, state: float,
               moneyness_grid, config: QuadratureConfig = DEFAULT_CONFIG):
    """Implied-vol curve of model option prices across log-moneyness.

    For each moneyness the strike is ``F_T * exp(moneyness)``; the model
    call price is inverted through the Black formula. Points whose price
    falls outside the invertible band come back with NaN vol instead of
    raising.
    """
    fut = futures_price(m, p, T, state, config)
    points = []
    for mny in np.asarray(moneyness_grid, dtype=float):
        strike = fut * math.exp(mny)
        option = OptionSpec(strike=strike, maturity=T, rate=r, kind="call")
        price = european_price(m, p, option, 0.0, state, config)
        try:
            vol = implied_vol(price, fut, strike, T, r)
        except ValueError:
            vol = math.nan
        points.append(SkewPoint(moneyness=float(mny), implied_vol=vol))
    return points
