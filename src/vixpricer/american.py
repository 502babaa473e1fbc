"""Exercise boundaries by backward induction and premium-formula pricing.

The American price decomposes into the European price plus a time integral
of the premium kernel along the exercise boundary (Carr, Jarrow & Myneni
1992). That premium formula is written once, in :func:`_premium_formula`:
:func:`american_price` evaluates it at any state, and the backward sweep
evaluates it on the boundary itself, which yields an integral equation whose
value at any date only involves later boundary values. Over a uniform time
grid this determines the whole curve: the terminal value is known
analytically, and each earlier value solves a scalar equation. The premium
integral is discretized by the trapezoid rule whose zero-time node is the
analytic kernel limit weighted by the local boundary-crossing mass; all
other nodes depend on already-solved values only.

Every family's boundary is one factor-space stop pair ``(lower, upper)``
per grid time, a state stopping when ``y <= lower`` or ``y >= upper``; a
monotone family's pair lacks one side (0 below, inf above), a mixture's may.
Each scalar equation is a fixed point ``y = update(y)`` of value matching on
one side, solved by secant steps (:func:`_solve_step`) that start from the
polynomial in ``sqrt(T - t)``, the variable the boundary moves in near
expiry, through up to four later solved levels, and carry the slope of
``update`` from one grid time to the next. A step stops on an estimate of
its distance from the fixed point, not on the residual; scaled by the map's
slope, ``inner_tol`` bounds each level's estimated distance, in VIX units,
from the fixed point of its own equation; the errors of the later levels it
reads carry into it, so the tests hold whole curves to ``2 * inner_tol``.

A solve reports a monotone family's VIX curve or the mixture's factor pair,
with the stop pair of those curves (:func:`_stop_pair` maps VIX levels):
:func:`american_price`, its zero-time node included, and the Monte Carlo
policy read that pair, interpolated in the factor coordinate between grid
times, and invert no boundary level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy import special

from .cir import CirParams
from .european import (DEFAULT_CONFIG, OptionSpec, QuadratureConfig,
                       _benefit_integrand, euro_fast, factor_state, kernel_row,
                       vix_level)
from .models import (ModelSpec, _power_sum, critical_levels, f_deriv, f_eval,
                     g_eval, mixture_inverse)
from .numerics import ConvergenceError, newton_bisect

__all__ = [
    "Boundary",
    "SolverConfig",
    "SolverError",
    "terminal_levels",
    "solve_boundary",
    "american_price",
    "smooth_fit_check",
    "convexity_witness",
]


class SolverError(RuntimeError):
    """The boundary iteration failed to converge or broke an invariant."""


@dataclass(frozen=True)
class SolverConfig:
    """Sweep settings: ``n_steps`` uniform time steps, and ``inner_tol``,
    the estimated distance in VIX units each solved boundary level may keep
    from the fixed point of its value-matching equation."""

    n_steps: int = 200
    inner_tol: float = 1e-9

    def __post_init__(self):
        if not isinstance(self.n_steps, (int, np.integer)):
            raise ValueError(f"n_steps must be an integer, got "
                             f"{self.n_steps!r}")
        if self.n_steps < 2:
            raise ValueError("n_steps must be at least 2")
        if not 0.0 < self.inner_tol < math.inf:
            raise ValueError("inner_tol must be finite and positive")


@dataclass
class Boundary:
    """Exercise boundary curve(s) on a time grid, with their stopping region.

    ``values`` is the single curve for monotone families (VIX coordinate)
    or the lower curve for mixtures (factor coordinate); ``upper`` is the
    mixture's upper curve. ``cuts`` is the ``(2, n+1)`` factor-space stop
    pair ``(lower, upper)`` per grid time, the mixture's curves themselves or
    :func:`_stop_pair` of a monotone curve: a state stops when
    ``y <= lower`` or ``y >= upper``, and an absent side sits at 0 or inf.
    Between grid points every row interpolates linearly, the cuts in the
    factor coordinate. ``diagnostics`` of a solve holds
    ``monotonicity_clips``, the isotonic projection's ``(time, adjustment)``
    pairs, in factor levels; and, as ``(2, n+1)`` rows for the lower and
    upper cut, ``inner_updates``, the value-matching ``update`` calls per
    grid time, and ``inner_error``, the final error estimate of each solved
    level in VIX units (at most ``inner_tol``). Both are 0 where no step was
    solved: the terminal time and an absent side.
    """

    times: np.ndarray
    values: np.ndarray
    cuts: np.ndarray
    upper: np.ndarray | None = None
    kind: str = "call"
    diagnostics: dict = field(default_factory=dict)

    @property
    def is_pair(self) -> bool:
        return self.upper is not None

    def value_at(self, t):
        return np.interp(t, self.times, self.values)

    def upper_at(self, t):
        if self.upper is None:
            raise ValueError("this boundary has a single curve")
        return np.interp(t, self.times, self.upper)

    def cuts_at(self, t):
        """Factor-space stop pair ``(lower, upper)`` at time(s) ``t``."""
        return tuple(np.interp(t, self.times, row) for row in self.cuts)

    def check_covers(self, option: OptionSpec, t: float):
        """Raise ValueError unless this boundary can price ``option`` at ``t``:
        same kind, ending at its maturity, and starting no later than ``t``,
        with ``t`` no later than that maturity."""
        if self.kind != option.kind:
            raise ValueError(f"a {self.kind} boundary cannot price a "
                             f"{option.kind}")
        if self.times[-1] != option.maturity:
            raise ValueError(f"the boundary ends at {self.times[-1]:g}, the "
                             f"contract matures at {option.maturity:g}")
        if not self.times[0] <= t <= option.maturity:  # NaN included
            raise ValueError(f"valuation time {t:g} lies before the "
                             f"boundary's first time {self.times[0]:g} or "
                             f"beyond maturity {option.maturity:g}")


def terminal_levels(m: ModelSpec, p: CirParams, option: OptionSpec):
    """Boundary value(s) at expiry, from the critical thresholds."""
    levels = critical_levels(m, p, option.rate, option.strike)
    if not m.is_mixture:
        if option.kind == "call":
            return max(option.strike, levels.x_star)
        return min(option.strike, levels.x_star)
    lo = levels.k_lower
    if levels.y_lower is not None:
        lo = min(lo, levels.y_lower)
    hi = levels.k_upper
    if levels.y_upper is not None:
        hi = max(hi, levels.y_upper)
    return lo, hi


# ---------------------------------------------------------------------------
# scalar equation solver (fixed point, secant-accelerated, bracketed)
# ---------------------------------------------------------------------------

_MAX_INNER_ITERS = 100  # secant steps before the bracketed fallback


def _solve_step(update, x0, tol, slope=None):
    """Solve x = update(x) near x0, to an estimated error of ``tol``.

    Secant steps on the residual ``r = update(x) - x``: with ``s`` the slope
    of ``update`` through the last two evaluations, the next point is
    ``x + r / (1 - s)``. Before a solve's second evaluation ``s`` is
    ``slope``, the previous solve's last slope; with none known the step is
    the plain fixed-point step. A residual bracket is tracked along the way.

    ``update(x)`` lies about ``|r s / (1 - s)|`` from the fixed point, and
    the solve returns it once that estimate is at most ``tol``. With no
    slope known only a zero residual stops, and ``s == 1`` never does. If a
    step would leave the bracket, or ``_MAX_INNER_ITERS`` steps pass, the
    bracket's ends and residuals go to
    :func:`~vixpricer.numerics.newton_bisect`, whose final bracket width is
    the error. Returns ``(level, slope, error)``: the solved level, the last
    secant slope (``slope`` if none was formed) and the level's error
    estimate.
    """
    lo = hi = None  # bracket ends (x, resid): resid > 0 at lo, < 0 at hi
    x = x0
    prev = None  # (x, resid)
    for _ in range(_MAX_INNER_ITERS):
        fx = update(x)
        resid = fx - x
        if resid == 0.0:
            return x, slope, 0.0
        if prev is not None and prev[0] != x:
            slope = 1.0 + (resid - prev[1]) / (x - prev[0])
        cand = x + resid
        if slope is not None and slope != 1.0:
            error = abs(resid * slope / (1.0 - slope))
            if error <= tol:
                return fx, slope, error
            sec = x + resid / (1.0 - slope)  # the secant's (or chord's) root
            if np.isfinite(sec) and sec > 0.0:
                cand = sec
        point = (x, resid)
        if resid > 0.0:
            lo = point if lo is None else max(lo, point)
        else:
            hi = point if hi is None else min(hi, point)
        if lo and hi and not (min(lo, hi)[0] < cand < max(lo, hi)[0]):
            break
        prev = point
        if cand <= 0.0:
            cand = 0.5 * x
        x = cand
    if lo is None or hi is None:
        sign = "negative" if lo is None else "positive"
        raise SolverError(f"inner iteration formed no bracket: the residual "
                          f"stayed {sign} (last residual {resid:.3e})")
    seen = dict((lo, hi))  # x -> residual: the ends and the fallback's points

    def residual(v):
        seen[v] = update(v) - v
        return seen[v]

    try:
        x = newton_bisect(residual, *sorted((lo, hi)), rel_tol=0.0,
                          abs_tol=tol)
    except ConvergenceError:
        raise SolverError(f"inner iteration did not converge (last residual "
                          f"{resid:.3e})") from None
    # the other end of the final bracket is the nearest point of opposite sign
    error = min((abs(v - x) for v, r in seen.items() if r * seen[x] < 0.0),
                default=0.0)
    return x, slope, error


# ---------------------------------------------------------------------------
# boundary solvers
# ---------------------------------------------------------------------------

def solve_boundary(m: ModelSpec, p: CirParams, option: OptionSpec,
                   cfg: SolverConfig = SolverConfig(),
                   quad: QuadratureConfig = DEFAULT_CONFIG) -> Boundary:
    """Backward induction on the boundary integral equation(s).

    Every family solves its factor stop pair (:func:`_sweep`), projected
    onto the monotone cone; a monotone family reports the VIX level of its
    finite side.
    """
    if m.is_mixture and option.kind != "call":
        raise SolverError("mixture contracts support calls only")
    n = cfg.n_steps
    times = np.linspace(0.0, option.maturity, n + 1)
    levels = terminal_levels(m, p, option)
    terminal = np.array(levels) if m.is_mixture else _stop_pair(m, option, levels)
    raw, updates, errors = _sweep(m, p, option, times, terminal, cfg, quad)

    # isotonic projection: the lower cut rises towards expiry, the upper falls
    cuts = np.array([np.minimum.accumulate(raw[0, ::-1])[::-1],
                     np.maximum.accumulate(raw[1, ::-1])[::-1]])
    clips = [(float(times[i]), float(raw[k, i] - cuts[k, i]))
             for k, i in zip(*np.nonzero(raw != cuts))]
    if m.is_mixture:
        values, upper = cuts.copy()
    else:  # the VIX level of the one finite side, mapped back so it stops
        values, upper = f_eval(m, cuts[0 if _is_active(cuts[0, n]) else 1]), None
        cuts = _stop_pair(m, option, values)
    diag = {"monotonicity_clips": clips, "inner_updates": updates.tolist(),
            "inner_error": errors.tolist()}
    return Boundary(times=times, values=values, cuts=cuts, upper=upper,
                    kind=option.kind, diagnostics=diag)


def _stop_pair(m, option, values):
    """Factor stop pair ``(lower, upper)`` of a monotone family's VIX level(s).

    The inverse map puts each level on the side where the contract stops:
    an ``a1`` call or ``a2`` put stops below its cut, the others above it.
    The absent side is 0 below and inf above. Returns a ``(2, ...)`` array.
    """
    values = np.asarray(values, dtype=float)
    cut = np.reshape([g_eval(m, float(v)) for v in values.ravel()], values.shape)
    if (m.family == "a1") == (option.kind == "call"):
        return np.array([cut, np.full(values.shape, np.inf)])
    return np.array([np.zeros(values.shape), cut])


def _is_active(level):
    """Whether a cut is a real boundary (absent sides sit at 0 / inf)."""
    return 0.0 < level < math.inf


# later solved levels through which each sweep step's start is extrapolated
_PREDICTOR_POINTS = 4


def _extrapolate(x, xs, ys):
    """Value at ``x`` of the polynomial through the points ``(xs, ys)``
    (Lagrange form); ``nan`` when there are none."""
    total = math.nan if len(xs) == 0 else 0.0
    for j, (xj, yj) in enumerate(zip(xs, ys)):
        weight = 1.0
        for ell, xl in enumerate(xs):
            if ell != j:
                weight *= (x - xl) / (xj - xl)
        total += weight * yj
    return total


def _sweep(m, p, option, times, terminal, cfg, quad):
    """Solve the stop pair at every grid time before expiry, backwards from
    the ``terminal`` pair at the last time: ``(cuts, updates, errors)``.

    A side is active where ``terminal`` is finite and above 0; an inactive
    side keeps its terminal value. On an active side the premium formula at
    level ``y``, against the paying stop pairs of the later steps, gives the
    exercise level ``K +- (euro + prem)``, which the map's inverse on that
    side takes back to ``update(y)``. The zero-time node reads the later
    step's pair with the side moved to ``y``, where it weighs exactly 1/2.
    Each solve starts from the polynomial in ``sqrt(T - t)`` through the
    side's later levels solved here, up to ``_PREDICTOR_POINTS`` of them and
    never the terminal value, from the later level when none was solved or
    the guess is not positive, and inherits the side's last secant slope. Its
    tolerance is ``inner_tol / |f'|`` at the later level. The three
    ``(2, n+1)`` arrays returned are the raw (unprojected) cuts, the
    ``update`` calls and each solved level's final error estimate in VIX
    units, the last two 0 where nothing was solved.
    """
    strike = option.strike
    sign = 1.0 if option.kind == "call" else -1.0
    n_last = len(times) - 1
    dt = times[1] - times[0]
    cuts = np.repeat(terminal[:, None], n_last + 1, axis=1)
    updates = np.zeros(cuts.shape, dtype=int)
    errors = np.zeros(cuts.shape)
    slopes = [None, None]  # each side's last secant slope
    active = []  # (row, name, the map's inverse on that side)
    for k, name in enumerate(("lower", "upper")):
        if _is_active(terminal[k]):
            inverse = (partial(mixture_inverse, m, branch=name) if m.is_mixture
                       else partial(g_eval, m))
            active.append((k, name, inverse))
    root_tau = np.sqrt(times[n_last] - times)
    for i in range(n_last - 1, -1, -1):
        tau = times[n_last] - times[i]
        u = dt * np.arange(1, n_last - i + 1)
        for k, name, inverse in active:

            def update(y):
                updates[k, i] += 1
                stop = cuts[:, i + 1].copy()
                stop[k] = y
                euro, prem = _premium_formula(m, p, option, tau, y, stop, u,
                                              cuts[:, i + 1:], quad)
                level = strike + sign * (euro + prem)
                try:
                    return inverse(level)
                except ValueError:
                    raise SolverError(
                        f"value matching gave VIX level {level:.6g} outside "
                        f"the map's range") from None

            later = cuts[k, i + 1]
            map_slope = abs(float(f_deriv(m, later, 1)))
            solved = slice(i + 1, min(i + 1 + _PREDICTOR_POINTS, n_last))
            y0 = _extrapolate(root_tau[i], root_tau[solved], cuts[k, solved])
            if not y0 > 0.0:
                y0 = later
            try:
                cuts[k, i], slopes[k], error = _solve_step(
                    update, y0, cfg.inner_tol / map_slope, slopes[k])
            except SolverError as exc:
                raise SolverError(f"{name} boundary step at t={times[i]:.6g} "
                                  f"failed: {exc}") from exc
            errors[k, i] = error * map_slope
        if cuts[0, i] >= cuts[1, i]:
            raise SolverError(
                f"boundaries crossed at t={times[i]:.6g}: "
                f"{cuts[0, i]:.6g} >= {cuts[1, i]:.6g}")
    return cuts, updates, errors


# ---------------------------------------------------------------------------
# pricing against a solved boundary
# ---------------------------------------------------------------------------

# finite-difference step of smooth_fit_check, relative to the boundary level
_SMOOTH_FIT_STEP = 1e-3


def _zero_node_mass(d):
    """Effective weight of the premium integrand's zero-time node.

    Models the kernel on the first time panel as the local benefit times the
    Gaussian mass past the boundary, ``Phi(d / sqrt(s))``; pairing its exact
    panel integral with the trapezoid's half-weight endpoint yields the
    factor ``2 V(d) - Phi(d)`` with ``V(d) = int_0^1 Phi(d/sqrt(s)) ds``.
    Smooth sigmoid: 0 deep in continuation, 1 deep in the stopping region.
    """
    a = abs(d)
    if not a < 40.0:  # saturated (covers +-inf against a degenerate boundary)
        return 1.0 if d > 0.0 else 0.0
    phi_a = math.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi)
    cdf_a = 0.5 * special.erfc(-a / math.sqrt(2.0))
    v = cdf_a * (1.0 + a * a) + a * phi_a - a * a
    if d < 0.0:
        v = 1.0 - v
    cdf_d = cdf_a if d >= 0.0 else 1.0 - cdf_a
    return 2.0 * v - cdf_d


def _crossing_mass(p, y0, cuts, du):
    """Local Gaussian mass past the factor stop pair ``cuts`` within ``du``.

    Each side is reached at the factor's local volatility
    ``kappa sqrt(y0 du)``. Absent sides (at 0 / inf) add nothing; a side
    through ``y0`` adds exactly 1/2.
    """
    vol = p.kappa * math.sqrt(y0 * du)
    lower, upper = cuts
    mass = 0.0
    if _is_active(lower):
        mass += _zero_node_mass((lower - y0) / vol)
    if _is_active(upper):
        mass += _zero_node_mass((y0 - upper) / vol)
    return mass


def _premium_formula(m, p, option, tau, y0, stop, u, cuts, quad):
    """European price and early-exercise premium at factor state ``y0``:
    ``(euro, prem)``.

    The American price is their sum (Carr, Jarrow & Myneni 1992). The
    premium is the kernel's time integral by the trapezoid rule over the
    uniform elapsed times ``u`` (step ``u[0]``), against the paying stop
    pairs ``cuts`` at those times. The zero-time node is the analytic kernel
    limit, the signed waiting benefit at ``y0``, on the trapezoid's half
    panel and weighted by the local mass past the current stop pair ``stop``
    (exactly 1/2 on one of its sides).
    """
    du = u[0]
    euro = euro_fast(m, p, option, tau, y0, quad)
    row = kernel_row(m, p, option, y0, u, cuts, quad)
    weights = np.full(len(u), du)
    weights[-1] = 0.5 * du
    mass = _crossing_mass(p, y0, stop, du)
    terms, const = _benefit_integrand(m, p, option)
    return euro, 0.5 * du * mass * _power_sum(terms, y0, const) + float(row @ weights)


def american_price(m: ModelSpec, p: CirParams, option: OptionSpec,
                   boundary: Boundary, t: float, state: float,
                   quad: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """European price plus the premium integral along the boundary.

    The time integral uses the trapezoid rule on the boundary grid, against
    the boundary's stored factor stop pair (interpolated in the factor
    coordinate off the grid); the zero-time endpoint is the analytic kernel
    limit weighted by the local Gaussian mass past the stop pair at ``t``,
    which keeps the premium accurate deep in the stopping region and smooth
    across the boundary. The boundary must be the contract's and start no
    later than ``t``, and ``t`` must not pass maturity
    (:meth:`Boundary.check_covers`).
    """
    boundary.check_covers(option, t)
    tau = option.maturity - t
    if tau == 0.0:
        return float(option.payoff_vix(vix_level(m, state)))
    grid_step = boundary.times[1] - boundary.times[0]
    n_sub = max(1, int(math.ceil(tau / grid_step - 1e-12)))
    u = tau / n_sub * np.arange(1, n_sub + 1)
    euro, prem = _premium_formula(m, p, option, tau, factor_state(m, state),
                                  boundary.cuts_at(t), u,
                                  boundary.cuts_at(t + u), quad)
    return euro + max(prem, 0.0)


def smooth_fit_check(m: ModelSpec, p: CirParams, option: OptionSpec,
                     boundary: Boundary, t: float, which: str = "single",
                     quad: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Gap between the continuation-side delta and the payoff slope.

    The derivative is a one-sided finite difference of the premium-formula
    price, stepping ``_SMOOTH_FIT_STEP`` times the boundary level into the
    continuation region; at a true smooth-fit point the gap vanishes up to
    discretization error. ``which`` names the curve: ``"single"`` on a
    monotone boundary, ``"lower"`` or ``"upper"`` on a mixture's pair.
    """
    boundary.check_covers(option, t)
    if t >= option.maturity:
        raise ValueError("smooth fit is checked strictly before expiry")
    if boundary.is_pair:
        if which not in ("lower", "upper"):
            raise ValueError("pick 'lower' or 'upper' for a mixture boundary")
        b = boundary.value_at(t) if which == "lower" else boundary.upper_at(t)
        if not _is_active(b):
            raise ValueError(f"this mixture has no {which} boundary")
        inward = 1.0 if which == "lower" else -1.0  # continuation between the pair
        slope = float(f_deriv(m, b, 1))
    else:
        if which != "single":
            raise ValueError("a single-curve boundary takes which='single'")
        b = boundary.value_at(t)
        slope = 1.0 if boundary.kind == "call" else -1.0
        inward = -slope  # a call continues below its boundary, a put above
    step = inward * _SMOOTH_FIT_STEP * b
    d = (american_price(m, p, option, boundary, t, b + step, quad)
         - american_price(m, p, option, boundary, t, b, quad)) / step
    return d - slope


def convexity_witness(states, prices, tol: float = 1e-7):
    """First grid triple where the middle value rises above the chord.

    Returns ``(x1, x2, x3)`` exposing a convexity violation larger than
    ``tol``, or ``None`` when the sampled values are convex.
    """
    x = np.asarray(states, dtype=float)
    v = np.asarray(prices, dtype=float)
    for i in range(1, len(x) - 1):
        w = (x[i] - x[i - 1]) / (x[i + 1] - x[i - 1])
        chord = (1.0 - w) * v[i - 1] + w * v[i + 1]
        if v[i] > chord + tol:
            return float(x[i - 1]), float(x[i]), float(x[i + 1])
    return None
