"""Pricing of European VIX options, futures, and premium kernels.

The futures level ``E[f(Y_T)]`` is exact: the map ``f`` is a power sum, and
each power's moment is a Poisson-gamma series of the transition law
(:meth:`~vixpricer.cir.ChiSquareLaw.power_moments`), with no support box
and no quadrature where it converges (:func:`_futures_on`).

Every other expectation integrates a signed power sum ``(terms, const)``
against the factor's transition density over a list of ``(lo, hi)`` factor
regions: the payoff over the payoff regions of :func:`_euro_regions`, the
waiting benefit over the stopping regions of :func:`_stop_regions`. Regions
are split exactly at payoff kinks, so no rule straddles a discontinuity,
and are truncated at a support box holding all but ``tail_mass_cut`` of the
probability mass. A call struck at or below a mixture map's minimum pays at
every level and is priced from the futures series instead.

Two integrators take the same regions and integrands:

* the public functions use adaptive Gauss-Kronrod subdivision to the
  configured tolerance, log-spaced on a region from near 0, on the exact
  quantile box, of which they compute only the edges that can clip a
  region (:func:`_clipping_box`), and check a region from 0 by its exact
  moment piece below the box (:func:`_check_origin`). A strike ladder on
  one law and box (:func:`_european_on`: a skew's strikes, or the one
  strike of :func:`european_price`) is one adaptive run over every
  strike's regions, one integrand row per strike, and takes its origin
  pieces from one moment series per box edge (:func:`_integrate`), each
  price bit for bit the one its strike gets alone;
* :func:`kernel_row` and :func:`euro_fast` use a composite Gauss-Legendre
  rule (:func:`_row_values`) on a cheap box with a tail-bound upper edge,
  one row per horizon, panels set by each row's span, and refuse a region
  from 0 with a power ``df/2 + e <= 0``, which diverges. The boundary solver
  runs on this route, which the tests check against the adaptive one.

State conventions: monotone families quote the state as a VIX level,
mixture models quote the factor level directly; :func:`factor_state` and
:func:`vix_level` read a quoted state in either coordinate.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .cir import CirParams, ChiSquareLaw, law_params, log_density, transition_law
from .models import (ModelSpec, _benefit_terms, _power_sum, f_eval, f_deriv,
                     g_eval, payoff_levels)
from .numerics import adaptive_gauss_kronrod, panel_nodes

__all__ = [
    "QuadratureConfig",
    "OptionSpec",
    "DivergentIntegralError",
    "european_price",
    "futures_price",
    "futures_taylor",
    "eep_kernel",
    "euro_fast",
    "kernel_row",
]

log = logging.getLogger(__name__)


class DivergentIntegralError(RuntimeError):
    """The integrand's mass near the origin does not settle under refinement."""


# absolute tolerance of every adaptive integral
_ABS_TOL = 1e-12


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances of the quadrature routes.

    ``rel_tol`` is the adaptive route's relative tolerance. ``tail_mass_cut``
    is the probability mass each side of the support box leaves out, for
    European prices, premium kernels and skews. Futures are exact and read
    it only where the level diverges at the origin (a power ``e`` with
    ``df / 2 + e <= 0``, as on fig5): there the box, as for fig5's adaptive
    calls, makes the expectation finite, a regularization, not an error.
    """

    rel_tol: float = 1e-9
    tail_mass_cut: float = 1e-12

    def __post_init__(self):
        if not 0.0 < self.rel_tol < 1.0:
            raise ValueError("rel_tol must lie in (0, 1)")
        if not 0.0 < self.tail_mass_cut < 0.5:
            raise ValueError("tail_mass_cut must lie in (0, 0.5)")


DEFAULT_CONFIG = QuadratureConfig()


@dataclass(frozen=True)
class OptionSpec:
    """Contract terms of a VIX option."""

    strike: float
    maturity: float
    rate: float
    kind: str = "call"

    def __post_init__(self):
        if not 0.0 < self.strike < math.inf:
            raise ValueError("strike must be finite and strictly positive")
        if not 0.0 < self.maturity < math.inf:
            raise ValueError("maturity must be finite and strictly positive")
        if not 0.0 <= self.rate < math.inf:
            raise ValueError("rate must be finite and non-negative")
        if self.kind not in ("call", "put"):
            raise ValueError(f"kind must be 'call' or 'put', got {self.kind!r}")

    def payoff_vix(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "call":
            return np.maximum(x - self.strike, 0.0)
        return np.maximum(self.strike - x, 0.0)


# ---------------------------------------------------------------------------
# state handling and integration regions
# ---------------------------------------------------------------------------

def _checked_state(state: float) -> float:
    state = float(state)
    if not (math.isfinite(state) and state > 0.0):
        raise ValueError("state must be strictly positive")
    return state


def factor_state(m: ModelSpec, state: float) -> float:
    """Map the quoted state to the factor coordinate."""
    state = _checked_state(state)
    return state if m.is_mixture else g_eval(m, state)


def vix_level(m: ModelSpec, state: float) -> float:
    """VIX level of the quoted state."""
    state = _checked_state(state)
    return float(f_eval(m, state)) if m.is_mixture else state


def _stop_regions(cuts):
    """Factor regions ``[(0, lower), (upper, inf)]`` of a ``(lower, upper)`` pair."""
    lower, upper = cuts
    return [(0.0, lower), (upper, math.inf)]


def _euro_regions(m: ModelSpec, option: OptionSpec):
    """Factor regions where the contract's payoff is positive, between the
    strike crossings of :func:`~vixpricer.models.payoff_levels`."""
    cuts = payoff_levels(m, option.strike)[:2]
    return _stop_regions(cuts) if option.kind == "call" else [cuts]


def _payoff_integrand(m: ModelSpec, option: OptionSpec):
    """Signed payoff ``+-(f(y) - K)``, positive on the payoff regions."""
    sign = 1.0 if option.kind == "call" else -1.0
    return tuple((sign * c, e) for c, e in m._power_terms[0]), -sign * option.strike


def _benefit_integrand(m: ModelSpec, p: CirParams, option: OptionSpec):
    """Signed waiting benefit: the premium kernel's integrand when stopped."""
    sign, r = (-1.0 if option.kind == "call" else 1.0), option.rate
    return tuple((sign * c, e) for c, e in _benefit_terms(m, p, r)), sign * r * option.strike


# ---------------------------------------------------------------------------
# adaptive integration against a transition law
# ---------------------------------------------------------------------------

def _integrate(law: ChiSquareLaw, box, terms, rows, config: QuadratureConfig):
    """One sum of integrals per row ``(const, regions, scale_floor)``: of the
    power sum ``const + sum c y^e`` over ``terms`` times the density, over
    the row's ``(lo, hi)`` regions within the law's support ``box`` (its
    ``mass_bounds``), or, where ``box`` is None, within the edges of that box
    that can clip a live region (:func:`_clipping_box`).

    Every row's regions are the intervals of one
    :func:`~vixpricer.numerics.adaptive_gauss_kronrod` run: each pass
    evaluates the density, and the power sum of every row, once on the open
    pieces of all rows, and a row's integrals take its values on its own.
    A row's live region from 0, where a power is negative, has its exact
    piece on ``[lo / 2, lo]`` below the box edge ``lo`` checked by
    :func:`_check_origin` against the larger of the row's result and its
    ``scale_floor``, from one ``power_moments`` call per distinct edge.
    """
    if box is None:
        box = _clipping_box(law, [r for _, regions, _ in rows for r in regions],
                            config.tail_mass_cut)
    box_lo, box_hi = box
    # per row, each live region's start and its ends within the box
    ends = [[(a, max(a, box_lo), min(b, box_hi)) for a, b in regions if b > a]
            for _, regions, _ in rows]
    totals = [0.0] * len(rows)
    if any(hi > lo for row in ends for _, lo, hi in row):
        consts = (rows[0][0] if len(rows) == 1  # one row: fn returns y's shape
                  else np.array([[const] for const, _, _ in rows]))

        def fn(y):
            return _power_sum(terms, y, consts) * np.exp(law.log_pdf(y))

        if len(ends) == 1 and len(ends[0]) == 1:  # one interval: the scalar call
            (_, lo, hi), = ends[0]
            totals = [adaptive_gauss_kronrod(fn, lo, hi, rel_tol=config.rel_tol,
                                             abs_tol=_ABS_TOL)[0]]
        else:
            width = max(map(len, ends))
            lo, hi = np.array([[(a, b) for _, a, b in row] + [(0.0, 0.0)] * (width - len(row))
                               for row in ends]).transpose(2, 0, 1)
            vals, _ = adaptive_gauss_kronrod(fn, lo, hi, rel_tol=config.rel_tol,
                                             abs_tol=_ABS_TOL)
            # an empty interval adds 0.0, as no interval does
            totals = [sum(row) for row in vals.tolist()]
    pieces = {}  # the moments on [lo / 2, lo] per box edge lo
    for (const, _, floor), row, total in zip(rows, ends, totals):
        if not row:
            continue
        start, lo, hi = row[0]  # a region from 0 is the row's first
        if start == 0.0 and hi > lo > 0.0 and min(e for _, e in terms) < 0.0:
            coefs, powers = np.array(terms + ((const, 0.0),)).T
            if lo not in pieces:
                pieces[lo] = law.power_moments(powers, (0.5 * lo, lo))[0]
            _check_origin(float(pieces[lo] @ coefs), total, floor, lo, config)
    return totals


def _clipping_box(law: ChiSquareLaw, regions, tail_mass):
    """The edges of ``law.mass_bounds(tail_mass)`` that can clip one of the
    live ``regions`` (those with ``hi > lo``), with 0 and ``inf`` in place
    of the others.

    The lower edge ``ppf(tail_mass)`` is computed where a region starts at 0
    or where ``cdf`` at its start is below ``tail_mass``, the upper edge
    where a region ends at ``inf`` or where ``sf`` at its end is below
    ``tail_mass``; an edge that is not computed lies outside every region.
    A monotone quote's one region pays for one tail quantile and at most one
    series evaluation at its strike cut, not for both quantiles. None is
    evaluated at a region's start ``reach`` or more above the mean, or at
    its end ``reach`` or more below it: by Cantelli's inequality, ``P(Y -
    mean >= d) <= var / (var + d^2)``, at least ``2 tail_mass`` of the mass
    lies on the mean's side of such a cut, so its ``cdf`` or ``sf`` is not
    below ``tail_mass`` and the edge lies outside the region.
    """
    mean = law.mean()
    reach = law.std() * math.sqrt(2.0 * tail_mass / (1.0 - 2.0 * tail_mass))
    lower = any(a == 0.0 or a < mean + reach and law.cdf(a) < tail_mass
                for a, b in regions if b > a)
    upper = any(b == math.inf or b > mean - reach and law.sf(b) < tail_mass
                for a, b in regions if b > a)
    if lower and upper:
        return law.mass_bounds(tail_mass)
    # mass_bounds' upper edge is the upper-tail quantile at tail_mass itself
    return (law.ppf(tail_mass) if lower else 0.0,
            law._tail_quantile(-1.0, tail_mass) if upper else math.inf)


def _check_origin(piece, total, scale_floor, cutoff, config):
    """Raise :class:`DivergentIntegralError` where ``piece``, the exact
    integral over ``[cutoff / 2, cutoff]``, is above 1e-2 of the larger of
    the result ``total`` and ``scale_floor``."""
    rel = abs(piece) / max(abs(total), scale_floor, _ABS_TOL)
    if rel > 1e-2:
        raise DivergentIntegralError(
            f"integrand mass below the truncation point moves the result "
            f"by {rel:.2e} relative; the expectation looks divergent at 0")
    if rel > 10.0 * config.rel_tol:
        log.debug("origin truncation sensitivity %.3e relative at cutoff %.3e",
                  rel, cutoff)


def european_price(m: ModelSpec, p: CirParams, option: OptionSpec,
                   t: float, state: float,
                   config: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Discounted expected payoff at valuation time ``t`` and given state.

    It is the ladder of one strike (:func:`_european_on`). Only the edges of
    the law's ``mass_bounds(tail_mass_cut)`` that can clip a payoff region
    are computed (:func:`_clipping_box`): one for a monotone quote whose
    strike cut lies inside the box, at the price the whole box gives.
    """
    tau = option.maturity - t
    if tau < 0.0:
        raise ValueError("valuation time lies beyond maturity")
    if tau == 0.0:
        return float(option.payoff_vix(vix_level(m, state)))
    law = transition_law(p, tau, factor_state(m, state))
    return _european_on(m, [option], tau, law, None, config)[0]


def _european_on(m, options, tau, law, box, config) -> list:
    """:func:`european_price` of each option of a strike ladder (options of
    one kind and rate) ``tau`` before maturity, on the law at maturity,
    within the support ``box``, or, for None, the edges of it that clip a
    payoff region (:func:`_clipping_box`).

    A call struck at or below a mixture map's minimum is in the money at
    every level (:func:`~vixpricer.models.payoff_levels`): it is worth its
    discounted forward payoff ``e^{-r tau} (F - K)``, from the futures series,
    which takes the whole box only where the level diverges at the origin.
    Every other strike is a row of one :func:`_integrate` run, each price
    bit for bit the one it gets alone.
    """
    disc = math.exp(-options[0].rate * tau)
    prices, rows, priced, forward = [], [], [], None
    for i, option in enumerate(options):
        k_lower, k_upper, _ = payoff_levels(m, option.strike)
        if option.kind == "call" and k_lower == k_upper:
            if forward is None:
                forward = _futures_on(m, law, config, box)
            prices.append(disc * (forward - option.strike))
        else:
            terms, const = _payoff_integrand(m, option)
            rows.append((const, _euro_regions(m, option), option.strike))
            priced.append(i)
            prices.append(None)
    if rows:
        for i, val in zip(priced, _integrate(law, box, terms, rows, config)):
            prices[i] = disc * max(val, 0.0)
    return prices


def futures_price(m: ModelSpec, p: CirParams, horizon: float, state: float,
                  config: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Futures level E[X_T] for the given horizon and current state.

    It is the exact Poisson-gamma moment series of the map's power terms
    (:func:`_futures_on`), with no support box and no quadrature, within
    3e-14 of 40-digit arithmetic on the bundled configs. ``config`` matters
    only where the level diverges at the origin: the series is then taken
    on its ``tail_mass_cut`` box, and :class:`DivergentIntegralError` is
    raised where even that box does not settle it (:func:`_check_origin`).
    """
    if horizon < 0.0:
        raise ValueError("horizon must be non-negative")
    if horizon == 0.0:
        return vix_level(m, state)
    return _futures_on(m, transition_law(p, horizon, factor_state(m, state)), config)


def _futures_on(m, law, config, box=None) -> float:
    """:func:`futures_price` on the law at the horizon: ``sum c E[Y^e]`` over
    the map's terms ``c y^e``, from :meth:`~vixpricer.cir.ChiSquareLaw.
    power_moments`.

    Where every power has ``df / 2 + e > 0`` the moments are exact on the
    whole line, and nothing is truncated. Otherwise the level diverges at the
    origin, and ``tail_mass_cut`` regularizes it: the moments are taken on
    the law's ``mass_bounds(tail_mass_cut)`` (``box``, where the caller has
    it), with the exact piece on ``[lo / 2, lo]`` for :func:`_check_origin`.
    """
    coefs, powers = np.array(m._power_terms[0]).T
    if 0.5 * law.df + powers.min() > 0.0:
        return float(law.power_moments(powers)[0] @ coefs)
    lo, hi = law.mass_bounds(config.tail_mass_cut) if box is None else box
    piece, total = map(float, law.power_moments(powers, (0.5 * lo, lo, hi)) @ coefs)
    _check_origin(piece, total, 0.0, lo, config)
    return total


def futures_taylor(m: ModelSpec, p: CirParams, horizon: float,
                   state: float) -> float:
    """Fourth-order moment expansion of the futures level about E[Y_T].

    A short-horizon approximation, exact only for a linear map. Against
    :func:`futures_price` at the bundled config states the relative gap
    stays within 0.8 % out to 2 y on fig1, but on fig7 it is 1.1 % at
    0.75 y, 1.3 % at 1 y and 1.5 % at 1.5-2 y. The test suite holds it to
    1 % only for fig1 (out to 2 y) and fig5 (out to 2 months).
    """
    if not horizon > 0.0:
        raise ValueError("horizon must be strictly positive")
    y0 = factor_state(m, state)
    law = transition_law(p, horizon, y0)
    center = law.mean()
    out = float(f_eval(m, center))
    fact = 1.0
    for k in (2, 3, 4):
        fact *= k
        out += law.central_moment(k) * float(f_deriv(m, center, k)) / fact
    return out


def eep_kernel(m: ModelSpec, p: CirParams, option: OptionSpec, y0: float,
               u: float, cuts, config: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Early-exercise premium density after elapsed time ``u``, adaptively.

    The arguments are :func:`kernel_row`'s for one elapsed time: ``y0`` is
    the factor level and ``cuts`` the ``(lower, upper)`` factor stop pair.
    ``u = 0`` is the continuity limit: minus the contract's waiting benefit
    at ``y0``, restricted to the stopping region. As in
    :func:`european_price`, only the box edges that can clip a stopping
    region are computed: ``(0, lower)`` takes the lower one, ``(upper,
    inf)`` the upper one, and either takes the other only where its cut
    lies beyond it.
    """
    if u < 0.0:
        raise ValueError("elapsed time must be non-negative")
    terms, const = _benefit_integrand(m, p, option)
    lower, upper = (float(c) for c in cuts)
    if u == 0.0:
        return _power_sum(terms, y0, const) if y0 <= lower or y0 >= upper else 0.0
    law = transition_law(p, u, y0)
    val, = _integrate(law, None, terms, [(const, _stop_regions((lower, upper)), 0.0)],
                      config)
    return math.exp(-option.rate * u) * val


# ---------------------------------------------------------------------------
# fast fixed-rule path (vectorized across horizons)
# ---------------------------------------------------------------------------

# the composite Gauss-Legendre rule, (base panel count, nodes per panel)
_RULE = (5, 16)


def _approx_mass_box(df, lam, scale, tail_mass):
    """Cheap support box per law (vectorized), cutting at most ``tail_mass``
    above it and about ``tail_mass`` below it.

    With ``m = df + lam``, ``v = df + 2 lam`` and ``L = -log(tail_mass)``,
    at most ``e^-L`` of a unit-scale law lies above ``m + 2 sqrt(v L) + 2 L``
    or below ``m - 2 sqrt(v L)`` (Birgé 2001, Lemma 8.1). The upper edge is
    the first bound; the lower edge is the larger of the second and the
    quantile of the mixture's first term (a gamma inverse shifted by the
    Poisson zero-weight), which is not a bound.
    """
    big_l = -math.log(tail_mass)
    mean = df + lam
    dev = 2.0 * np.sqrt((df + 2.0 * lam) * big_l)
    hi = scale * (mean + dev + 2.0 * big_l)
    q = np.exp(np.minimum(math.log(tail_mass) + 0.5 * lam, math.log(0.5)))
    lo = scale * np.maximum(2.0 * special.gammaincinv(0.5 * df, q), mean - dev)
    # a zero lower quantile would defeat the log-graded panel layout
    return np.maximum(lo, 1e-18 * hi), hi


def _row_values(p, y0, u, regions, config, integrand):
    """Integrate ``integrand`` times the density over ``regions``, per horizon.

    ``u`` is an array of horizons; ``regions`` lists ``(lo, hi)`` factor
    bounds, scalars or arrays matching ``u``. Each live region's part of the
    cheap support box gets the ``_RULE = (n_panels, n_nodes)`` composite
    Gauss-Legendre rule, or one panel per decade of a wider part, at most
    ``2 n_panels``, batched by panel count; kernel and European rows alike.
    A live region from 0 with a power ``df/2 + e <= 0`` raises, never on a validated model.
    """
    terms, const = integrand
    reach = 0.5 * p.df + min(e for _, e in terms)
    lam, scale = law_params(p, u, y0)
    box_lo, box_hi = _approx_mass_box(p.df, lam, scale, config.tail_mass_cut)
    base, n_nodes = _RULE
    total = np.zeros_like(u)
    for a, b in regions:
        lo, hi = np.maximum(a, box_lo), np.minimum(b, box_hi)
        live = np.flatnonzero(hi > lo)
        if not live.size:  # absent side, or beyond every support box
            continue
        if reach <= 0.0 and np.any(np.broadcast_to(a, u.shape)[live] == 0.0):
            raise DivergentIntegralError(f"df/2 + power = {reach:.3g} <= 0: divergent at 0")
        lo, hi = lo[live], hi[live]
        panels = np.minimum(np.maximum(np.ceil(np.log10(hi / lo)), base), 2 * base)
        for n_panels in set(panels.tolist()):
            at = panels == n_panels
            nodes, weights = panel_nodes(lo[at], hi[at], int(n_panels), n_nodes)
            rows = live[at]
            dens = np.exp(log_density(p.df, lam[rows], scale[rows], nodes))
            total[rows] += (_power_sum(terms, nodes, const) * dens * weights).sum(axis=1)
    if np.isnan(total).any():
        raise ValueError("NaN in a fixed-rule integral: the log-density or "
                         "the integrand is not a number at some node")
    return total


def kernel_row(m: ModelSpec, p: CirParams, option: OptionSpec, y0: float,
               u, cuts, config: QuadratureConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Premium kernel for a whole vector of elapsed times at once.

    ``cuts`` is the ``(lower, upper)`` factor-space pair per elapsed time
    (scalars or arrays) bounding the stopping region, as stored on a solved
    boundary. :func:`eep_kernel` is the adaptive route for one elapsed time.
    """
    u = np.asarray(u, dtype=float)
    vals = _row_values(p, y0, u, _stop_regions(cuts), config,
                       _benefit_integrand(m, p, option))
    return np.exp(-option.rate * u) * vals


def euro_fast(m: ModelSpec, p: CirParams, option: OptionSpec, tau: float,
              y0: float, config: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """European price on the fixed rule, state already in factor coordinates."""
    if tau <= 0.0:
        return float(option.payoff_vix(float(f_eval(m, y0))))
    val = _row_values(p, y0, np.array([tau]), _euro_regions(m, option), config,
                      _payoff_integrand(m, option))
    return math.exp(-option.rate * tau) * max(float(val[0]), 0.0)
