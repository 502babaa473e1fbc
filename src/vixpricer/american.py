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

Monotone families carry one boundary in the VIX coordinate; the mixture
family carries a lower/upper pair in the factor coordinate (one of the two
may be degenerate at 0 / inf when the corresponding map part is absent).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .cir import CirParams
from .european import (DEFAULT_CONFIG, OptionSpec, QuadratureConfig,
                       _benefit_integrand, euro_fast, factor_state, kernel_row,
                       stop_cuts)
from .models import (ModelSpec, critical_levels, f_deriv, f_eval, g_eval,
                     mixture_inverse)
from .numerics import ConvergenceError, newton_bisect

__all__ = [
    "Boundary",
    "SolverConfig",
    "SolverError",
    "terminal_levels",
    "solve_boundary",
    "american_price",
    "smooth_fit_check",
    "exercise_region_query",
    "convexity_witness",
]


class SolverError(RuntimeError):
    """The boundary iteration failed to converge or broke an invariant."""


@dataclass(frozen=True)
class SolverConfig:
    n_steps: int = 200
    inner_tol: float = 1e-9
    max_inner_iters: int = 100

    def __post_init__(self):
        if self.n_steps < 2:
            raise ValueError("n_steps must be at least 2")
        if not self.inner_tol > 0.0:
            raise ValueError("inner_tol must be positive")
        if self.max_inner_iters < 1:
            raise ValueError("max_inner_iters must be positive")


@dataclass
class Boundary:
    """Exercise boundary curve(s) on a time grid.

    ``values`` is the single curve for monotone families (VIX coordinate)
    or the lower curve for mixtures (factor coordinate); ``upper`` is the
    mixture's upper curve. Between grid points values interpolate linearly.
    """

    times: np.ndarray
    values: np.ndarray
    upper: np.ndarray | None = None
    kind: str = "call"
    diagnostics: dict = field(default_factory=dict)

    @property
    def is_pair(self) -> bool:
        return self.upper is not None

    @property
    def expiry(self) -> float:
        return float(self.times[-1])

    def value_at(self, t):
        return np.interp(t, self.times, self.values)

    def upper_at(self, t):
        if self.upper is None:
            raise ValueError("this boundary has a single curve")
        return np.interp(t, self.times, self.upper)

    def levels_at(self, t):
        """``(value,)`` or ``(lower, upper)`` at time(s) ``t``."""
        if self.upper is None:
            return (self.value_at(t),)
        return self.value_at(t), self.upper_at(t)


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

def _solve_step(update, x0, tol, max_iters):
    """Solve x = update(x) near x0.

    Fixed-point steps with secant acceleration on the residual; a
    residual bracket is tracked along the way and bisection takes over when
    an accelerated step leaves it. If the iteration stalls, the bracket is
    handed to :func:`~vixpricer.numerics.newton_bisect`.
    """
    lo = hi = None  # bracket: resid > 0 at lo, < 0 at hi
    x = x0
    prev = None  # (x, resid)
    for _ in range(max_iters):
        fx = update(x)
        resid = fx - x
        if abs(resid) <= tol:
            return x if abs(resid) == 0.0 else fx
        if resid > 0.0:
            lo = x if lo is None else max(lo, x)
        else:
            hi = x if hi is None else min(hi, x)
        cand = x + resid
        if prev is not None:
            x1, r1 = prev
            if r1 != resid:
                sec = x - resid * (x - x1) / (resid - r1)
                if np.isfinite(sec) and sec > 0.0:
                    cand = sec
        if lo is not None and hi is not None and not (min(lo, hi) < cand < max(lo, hi)):
            cand = 0.5 * (lo + hi)
        prev = (x, resid)
        if cand <= 0.0:
            cand = 0.5 * x
        x = cand
    if lo is not None and hi is not None:
        try:
            return newton_bisect(lambda v: update(v) - v, min(lo, hi),
                                 max(lo, hi), rel_tol=0.0, abs_tol=tol)
        except ConvergenceError:
            pass
    raise SolverError(f"inner iteration did not converge (last residual {resid:.3e})")


# ---------------------------------------------------------------------------
# boundary solvers
# ---------------------------------------------------------------------------

# Near expiry the value-matching equation degenerates whenever the terminal
# boundary sits away from the strike: every term is of the order of the time
# step and the first backward roots carry a grid-independent wobble. The
# sweep therefore pins the first _PIN_STEPS values at the terminal level
# (their true displacement is O(sqrt(dt))), discards the first actually
# solved value, and rebuilds the startup window with a square-root bridge
# anchored at the first trusted step. Monotonicity is imposed afterwards as
# an isotonic projection whose adjustments are reported, so the sweep itself
# always works with raw solutions and can self-correct.
_PIN_STEPS = 2
_BRIDGE_STEPS = 1


def solve_boundary(m: ModelSpec, p: CirParams, option: OptionSpec,
                   cfg: SolverConfig = SolverConfig(),
                   quad: QuadratureConfig = DEFAULT_CONFIG) -> Boundary:
    """Backward induction on the boundary integral equation(s).

    Monotone families solve one curve in the VIX coordinate; the mixture
    solves its lower/upper pair in the factor coordinate, where a side
    whose map part is absent stays pinned at 0 / inf.
    """
    if m.is_mixture and option.kind != "call":
        raise SolverError("mixture contracts support calls only")
    n = cfg.n_steps
    times = np.linspace(0.0, option.maturity, n + 1)
    terminal = np.atleast_1d(terminal_levels(m, p, option))
    curves = np.repeat(terminal[:, None], n + 1, axis=1)
    active = [_is_active(level) for level in terminal]
    pinned, discard = _startup_steps(n)
    _sweep(m, p, option, times, curves, active, n - pinned, cfg, quad)

    # a call's VIX boundary and a pair's upper curve fall towards expiry
    falling = (option.kind == "call",) if len(curves) == 1 else (False, True)
    out, clips = [], []
    for curve, solved, decreasing_in_t in zip(curves, active, falling):
        if solved:
            _apply_bridge(times, curve, pinned + discard)
        curve, found = _isotonic_backward(curve, decreasing_in_t,
                                          tol=cfg.inner_tol * 1e3)
        out.append(curve)
        clips += found
    diag = {"monotonicity_clips": [(float(times[i]), gap) for i, gap in clips]}
    return Boundary(times=times, values=out[0],
                    upper=out[1] if len(out) == 2 else None, kind=option.kind,
                    diagnostics=diag)


def _is_active(level):
    """Whether a curve level is a real boundary (absent sides sit at 0 / inf)."""
    return 0.0 < level < math.inf


def _sweep(m, p, option, times, curves, active, start, cfg, quad):
    """Solve the active curves at steps start-1 .. 0 of a uniform grid, in place.

    ``curves`` holds one row (monotone, VIX coordinate) or a lower/upper
    pair (mixture, factor coordinate); each row is iterated in its own
    coordinate and mapped back by value matching on the premium formula,
    evaluated on the curve itself against the paying stop pairs of the
    later steps. The other curve of a pair enters at its later-step level.
    """
    strike = option.strike
    sign = 1.0 if option.kind == "call" else -1.0
    n_last = len(times) - 1
    dt = times[1] - times[0]
    names = ("lower", "upper") if len(curves) == 2 else ("",)
    cuts = np.empty((2, n_last + 1))
    for j in range(start, n_last + 1):
        cuts[:, j] = stop_cuts(m, option, *curves[:, j], in_the_money=True)
    for i in range(start - 1, -1, -1):
        tau = times[n_last] - times[i]
        u = dt * np.arange(1, n_last - i + 1)
        for k, name in enumerate(names):
            if not active[k]:
                continue

            def update(v):
                y0 = v if m.is_mixture else g_eval(m, v)
                levels = (*curves[:k, i + 1], v, *curves[k + 1:, i + 1])
                euro, prem = _premium_formula(m, p, option, tau, v, y0, levels,
                                              u, cuts[:, i + 1:], quad)
                if m.is_mixture:
                    return mixture_inverse(m, strike + euro + prem, name)
                return strike + sign * (euro + prem)

            try:
                curves[k, i] = _solve_step(update, curves[k, i + 1],
                                           cfg.inner_tol, cfg.max_inner_iters)
            except SolverError as exc:
                raise SolverError(
                    f"{name} boundary step at t={times[i]:.6g} failed: "
                    f"{exc}".lstrip()) from exc
        if len(curves) == 2 and curves[0, i] >= curves[1, i]:
            raise SolverError(
                f"boundaries crossed at t={times[i]:.6g}: "
                f"{curves[0, i]:.6g} >= {curves[1, i]:.6g}")
        cuts[:, i] = stop_cuts(m, option, *curves[:, i], in_the_money=True)


def _startup_steps(n_steps):
    pinned = _PIN_STEPS if n_steps >= 4 * (_PIN_STEPS + _BRIDGE_STEPS) else 0
    return pinned, (_BRIDGE_STEPS if pinned else 0)


def _apply_bridge(times, vals, n_window):
    """Rebuild the last ``n_window`` interior values on a sqrt profile."""
    if not n_window:
        return
    n_last = len(times) - 1
    anchor = n_last - n_window - 1
    expiry = times[n_last]
    span = expiry - times[anchor]
    for i in range(anchor + 1, n_last):
        w = math.sqrt((expiry - times[i]) / span)
        vals[i] = vals[n_last] + (vals[anchor] - vals[n_last]) * w


def _isotonic_backward(values, decreasing_in_t, tol):
    """Project onto the monotone cone, returning (projected, adjustments)."""
    out = values.copy()
    clips = []
    for i in range(len(out) - 2, -1, -1):
        bound = out[i + 1]
        if decreasing_in_t:
            fixed = max(out[i], bound)
        else:
            fixed = min(out[i], bound)
        if fixed != out[i] and abs(fixed - out[i]) > tol:
            clips.append((i, float(out[i] - fixed)))
        out[i] = fixed
    return out, clips


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


def _crossing_mass(m, p, option, state, y0, levels, du):
    """Local Gaussian mass past the boundary ``levels`` within time ``du``.

    A pair's levels are factor levels, reached at the factor's local
    volatility ``kappa sqrt(y0 du)``; a monotone boundary is a VIX level,
    whose local volatility carries the map's slope too (each coordinate keeps
    its own rounding of the square roots). Absent sides (at 0 / inf) add
    nothing; on the boundary itself a side adds exactly 1/2.
    """
    if len(levels) == 2:
        vol = p.kappa * math.sqrt(y0 * du)
        lower, upper = levels
        mass = 0.0
        if _is_active(lower):
            mass += _zero_node_mass((lower - y0) / vol)
        if _is_active(upper):
            mass += _zero_node_mass((y0 - upper) / vol)
        return mass
    (b,) = levels
    d = state - b if option.kind == "call" else b - state
    if d == 0.0:  # on the boundary, as in every sweep update: skip the slope
        return _zero_node_mass(0.0)
    vol = p.kappa * abs(float(f_deriv(m, y0, 1))) * math.sqrt(y0) * math.sqrt(du)
    return _zero_node_mass(d / vol)


def _premium_formula(m, p, option, tau, state, y0, levels, u, cuts, quad):
    """European price and early-exercise premium at one state: ``(euro, prem)``.

    The American price is their sum (Carr, Jarrow & Myneni 1992). The
    premium is the kernel's time integral by the trapezoid rule over the
    uniform elapsed times ``u`` (step ``u[0]``), against the paying stop
    pairs ``cuts`` at those times. The zero-time node is the analytic kernel
    limit, the signed waiting benefit at ``y0``, on the trapezoid's half
    panel and weighted by the local mass past the current boundary
    ``levels`` (exactly 1/2 on the boundary itself).
    """
    du = u[0]
    euro = euro_fast(m, p, option, tau, y0, quad)
    row = kernel_row(m, p, option, y0, u, cuts, quad)
    weights = np.full(len(u), du)
    weights[-1] = 0.5 * du
    mass = _crossing_mass(m, p, option, state, y0, levels, du)
    benefit = float(_benefit_integrand(m, p, option)(y0))
    return euro, 0.5 * du * mass * benefit + float(row @ weights)


def american_price(m: ModelSpec, p: CirParams, option: OptionSpec,
                   boundary: Boundary, t: float, state: float,
                   quad: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """European price plus the premium integral along the boundary.

    The time integral uses the trapezoid rule on the boundary grid; the
    zero-time endpoint is the analytic kernel limit weighted by the local
    Gaussian crossing mass, which keeps the premium accurate deep in the
    stopping region and smooth across the boundary.
    """
    tau = option.maturity - t
    if tau < 0.0:
        raise ValueError("valuation time lies beyond maturity")
    if tau == 0.0:
        x = f_eval(m, state) if m.is_mixture else state
        return float(option.payoff_vix(x))
    grid_step = boundary.times[1] - boundary.times[0]
    n_sub = max(1, int(math.ceil(tau / grid_step - 1e-12)))
    u = tau / n_sub * np.arange(1, n_sub + 1)
    cuts = stop_cuts(m, option, *boundary.levels_at(t + u), in_the_money=True)
    euro, prem = _premium_formula(m, p, option, tau, state,
                                  factor_state(m, state), boundary.levels_at(t),
                                  u, cuts, quad)
    return euro + max(prem, 0.0)


def exercise_region_query(boundary: Boundary, t: float, state: float) -> str:
    """Classify a state as ``"exercise"`` or ``"continue"`` (region closed)."""
    if not 0.0 <= t <= boundary.expiry:
        raise ValueError("time outside the boundary grid")
    if boundary.is_pair:
        if state <= boundary.value_at(t) or state >= boundary.upper_at(t):
            return "exercise"
        return "continue"
    b = boundary.value_at(t)
    if boundary.kind == "call":
        return "exercise" if state >= b else "continue"
    return "exercise" if state <= b else "continue"


def smooth_fit_check(m: ModelSpec, p: CirParams, option: OptionSpec,
                     boundary: Boundary, t: float, which: str = "single",
                     quad: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Gap between the continuation-side delta and the payoff slope.

    The derivative is a one-sided finite difference of the premium-formula
    price, stepping ``_SMOOTH_FIT_STEP`` times the boundary level into the
    continuation region; at a true smooth-fit point the gap vanishes up to
    discretization error.
    """
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
