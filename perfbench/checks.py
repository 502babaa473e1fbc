"""Reference values computed apart from vixpricer, and the checks built on them.

Every function here reads only the inputs of an operation (model terms,
factor parameters, contract) and recomputes the quantity with closed forms
or with SciPy's non-central chi-squared law and ``quad``. None of them
calls into vixpricer, so a fault in the program cannot hide in its own
reference.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, optimize, stats

# Value matching and the American lower bounds hold up to the time
# discretization of the boundary: the premium formula undershoots the payoff
# at the boundary by a gap that shrinks with the step dt. Measured at 20, 40,
# 80 and 160 steps, the worst case (the put on the fig1 parameters) was
# 0.27, 0.20, 0.18 and 0.16 times max(K, x) * dt, x the VIX level quoted;
# the tolerance is 0.3 max(K, x) dt.
DISCRETIZATION_TOL = 0.3
# European re-pricing by ncx2 + quad against the adaptive route.
REPRICE_REL, REPRICE_ABS = 1e-6, 1e-9
# Put-call parity, closed-form futures mean, Black round trip.
IDENTITY_REL, IDENTITY_ABS = 1e-7, 1e-9
TAYLOR_GAP = 0.01
# Monte Carlo estimates must sit within MC_Z standard errors of the analytic
# value. A run makes up to 7 such checks and a set of runs a few hundred;
# at 4 standard errors one spurious failure in a few hundred checks has a
# chance of about 2 %, at 5 it is below 1e-4, so a failure means a fault.
MC_Z = 5.0


def close(a, b, rel, abs_tol):
    return abs(a - b) <= abs_tol + rel * abs(b)


# ---------------------------------------------------------------------------
# the VIX map and the factor law, written out from the model's term lists
# ---------------------------------------------------------------------------

def _decreasing(model):
    return model.terms if model.family in ("a1", "mixture") else ()


def _increasing(model):
    if model.family == "a2":
        return model.terms
    return model.terms_a2 if model.family == "mixture" else ()


def vix_map(model, y):
    """f(y) = sum w y^-p over the decreasing terms + sum w y^p over the rest."""
    return (sum(w * y ** -p for w, p in _decreasing(model))
            + sum(w * y ** p for w, p in _increasing(model)))


def factor_of(model, state):
    """Factor level of a quoted state (mixtures quote the factor itself)."""
    if model.family == "mixture":
        return float(state)
    (w, p), = model.terms
    return (w / state) ** (1.0 / p) if model.family == "a1" else (state / w) ** (1.0 / p)


def factor_law(params, horizon, y0):
    growth = -math.expm1(-params.alpha * horizon)
    scale = params.kappa ** 2 * growth / (4.0 * params.alpha)
    nc = 4.0 * params.alpha * math.exp(-params.alpha * horizon) * y0 \
        / (params.kappa ** 2 * growth)
    return stats.ncx2(4.0 * params.beta / params.kappa ** 2, nc, scale=scale)


def _unit_power_terms(terms):
    """Weight of a single ``w * y^(+-1)`` term list, else None."""
    if len(terms) == 1 and terms[0][1] == 1.0:
        return terms[0][0]
    return None


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def terminal_level(model, params, option):
    """b(T) in closed form, or None where the map has no closed form here.

    For f = w/y the waiting benefit in the VIX coordinate is the quadratic
    ``(kappa^2 - beta) x^2 / w + (alpha - r) x + r K``; for f = w y it is
    linear with root ``(w beta + r K) / (alpha + r)``. A call exercises at
    expiry above ``max(K, x*)``, a put below ``min(K, x*)``. For the mixture
    ``w1/y + w2 y`` the benefit times ``y^2`` is a cubic in the factor whose
    roots on each payoff lobe extend the strike cuts.
    """
    a, b, k2 = params.alpha, params.beta, params.kappa ** 2
    r, strike = option.rate, option.strike
    if model.family == "mixture":
        w1, w2 = _unit_power_terms(model.terms), _unit_power_terms(model.terms_a2)
        if w1 is None or w2 is None:
            return None
        disc = math.sqrt(strike * strike - 4.0 * w1 * w2)
        k_lo = (strike - disc) / (2.0 * w2)
        k_hi = (strike + disc) / (2.0 * w2)
        roots = np.roots([-w2 * (a + r), w2 * b + r * strike, w1 * (a - r), w1 * (k2 - b)])
        real = [z.real for z in roots if abs(z.imag) < 1e-12 and z.real > 0.0]
        lower = [z for z in real if z < k_lo]
        upper = [z for z in real if z > k_hi]
        return (min([k_lo] + lower), max([k_hi] + upper))
    w = _unit_power_terms(model.terms)
    if w is None:
        return None
    if model.family == "a1":
        qa, qb, qc = (k2 - b) / w, a - r, r * strike
        roots = np.roots([qa, qb, qc])
        x_star = max(z.real for z in roots if abs(z.imag) < 1e-12)
    else:
        x_star = (w * b + r * strike) / (a + r)
    return max(strike, x_star) if option.kind == "call" else min(strike, x_star)


def futures_mean(model, params, horizon, state):
    """E[X_T] for f = w y: the factor's conditional mean times w; else None."""
    w = _unit_power_terms(model.terms) if model.family == "a2" else None
    if w is None:
        return None
    decay = math.exp(-params.alpha * horizon)
    return w * (params.beta / params.alpha * (1.0 - decay) + state / w * decay)


def black_call(forward, strike, horizon, rate, vol):
    sd = vol * math.sqrt(horizon)
    d1 = (math.log(forward / strike) + 0.5 * sd * sd) / sd
    return math.exp(-rate * horizon) * (forward * stats.norm.cdf(d1)
                                        - strike * stats.norm.cdf(d1 - sd))


# ---------------------------------------------------------------------------
# European price by SciPy's ncx2 density and adaptive quad
# ---------------------------------------------------------------------------

def european_by_quad(model, params, option, t, state):
    tau = option.maturity - t
    law = factor_law(params, tau, factor_of(model, state))
    lo, hi = law.ppf(1e-15), law.isf(1e-15)
    sign = 1.0 if option.kind == "call" else -1.0

    def gap(y):
        return vix_map(model, y) - option.strike

    grid = np.geomspace(lo, hi, 400)
    vals = [gap(y) for y in grid]
    kinks = [optimize.brentq(gap, grid[i], grid[i + 1], xtol=1e-15, rtol=1e-14)
             for i in range(len(grid) - 1) if vals[i] * vals[i + 1] < 0.0]
    edges = [lo] + kinks + [hi]
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (a + b)
        if sign * gap(mid) <= 0.0:
            continue
        val, _ = integrate.quad(lambda y: sign * gap(y) * law.pdf(y), a, b,
                                epsabs=1e-14, epsrel=1e-11, limit=400)
        total += val
    return math.exp(-option.rate * tau) * total


# ---------------------------------------------------------------------------
# property checks on solved boundaries
# ---------------------------------------------------------------------------

def boundary_problems(model, params, option, boundary):
    """Terminal level against the closed form, monotone shape, no crossing."""
    problems = []
    expected = terminal_level(model, params, option)
    if boundary.upper is not None:
        got = (boundary.values[-1], boundary.upper[-1])
        if expected is not None and not all(
                close(g, e, 1e-8, 1e-12) for g, e in zip(got, expected)):
            problems.append(f"terminal pair {got} != closed form {expected}")
        if np.any(np.diff(boundary.values) < -1e-12):
            problems.append("lower boundary not increasing in t")
        if np.any(np.diff(boundary.upper) > 1e-12):
            problems.append("upper boundary not decreasing in t")
        if np.any(boundary.values >= boundary.upper):
            problems.append("boundaries cross")
        return problems
    got = boundary.values[-1]
    if expected is not None and not close(got, expected, 1e-8, 1e-12):
        problems.append(f"terminal level {got} != closed form {expected}")
    steps = np.diff(boundary.values)
    if option.kind == "call":
        if np.any(steps > 1e-12):
            problems.append("call boundary not decreasing in t")
        if expected is not None and np.any(boundary.values < expected - 1e-12):
            problems.append("call boundary below max(K, x*)")
    else:
        if np.any(steps < -1e-12):
            problems.append("put boundary not increasing in t")
        if expected is not None and np.any(boundary.values > expected + 1e-12):
            problems.append("put boundary above min(K, x*)")
    return problems
