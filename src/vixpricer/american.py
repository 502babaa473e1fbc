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

Each scalar equation is a fixed point ``x = update(x)`` of value matching,
solved by secant steps (:func:`_solve_step`) that start from the linear
extrapolation of the two later solved levels and carry the slope of
``update`` from one grid time to the next. A step stops on an estimate of
its distance from the fixed point, not on the residual, so ``inner_tol``
bounds each solved level's error; the estimates are recorded per step.

Monotone families carry one boundary in the VIX coordinate; the mixture
family carries a lower/upper pair in the factor coordinate (one of the two
may be degenerate at 0 / inf when the corresponding map part is absent).
Every solved boundary also carries its stopping region as one factor-space
cut pair per grid time (:func:`~vixpricer.european.stop_cuts`, mapped once
after the solve): :func:`american_price`, its zero-time node included, and
the Monte Carlo policy read that pair, interpolated in the factor coordinate
between grid times, and invert no boundary level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .cir import CirParams
from .european import (DEFAULT_CONFIG, OptionSpec, QuadratureConfig,
                       _benefit_integrand, euro_fast, factor_state, kernel_row,
                       stop_cuts, vix_level)
from .models import ModelSpec, critical_levels, f_deriv, mixture_inverse
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
    the estimated distance each solved boundary level may keep from the
    fixed point of its value-matching equation."""

    n_steps: int = 200
    inner_tol: float = 1e-9

    def __post_init__(self):
        if self.n_steps < 2:
            raise ValueError("n_steps must be at least 2")
        if not self.inner_tol > 0.0:
            raise ValueError("inner_tol must be positive")


@dataclass
class Boundary:
    """Exercise boundary curve(s) on a time grid, with their stopping region.

    ``values`` is the single curve for monotone families (VIX coordinate)
    or the lower curve for mixtures (factor coordinate); ``upper`` is the
    mixture's upper curve. ``cuts`` is the ``(2, n+1)`` factor-space stop
    pair ``(lower, upper)`` per grid time, as :func:`stop_cuts` maps the
    curves: a state stops when ``y <= lower`` or ``y >= upper``. Between
    grid points every row interpolates linearly, the cuts in the factor
    coordinate. ``diagnostics`` of a solve holds ``monotonicity_clips``, the
    isotonic projection's ``(time, adjustment)`` pairs; ``inner_updates``,
    the value-matching ``update`` calls per curve and grid time; and
    ``inner_error``, the final error estimate of each solved level (at most
    ``inner_tol``). Both are 0 where no step was solved: the terminal time
    and an absent mixture side.
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
        same kind, ending at its maturity, and starting no later than ``t``."""
        if self.kind != option.kind:
            raise ValueError(f"a {self.kind} boundary cannot price a "
                             f"{option.kind}")
        if self.times[-1] != option.maturity:
            raise ValueError(f"the boundary ends at {self.times[-1]:g}, the "
                             f"contract matures at {option.maturity:g}")
        if t < self.times[0]:
            raise ValueError(f"valuation time {t:g} lies before the "
                             f"boundary's first time {self.times[0]:g}")


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


@dataclass
class _InnerCarry:
    """What one curve's inner solves pass on from one grid time to the next:
    the last secant slope of ``update`` (None before any is known) and the
    error estimate of the last solve."""

    slope: float | None = None
    error: float = 0.0


def _solve_step(update, x0, tol, max_iters=_MAX_INNER_ITERS, carry=None):
    """Solve x = update(x) near x0, to an estimated error of ``tol``.

    Secant steps on the residual ``r = update(x) - x``: with ``s`` the slope
    of ``update`` through the last two evaluations, the next point is
    ``x + r / (1 - s)``. Before a solve's second evaluation ``s`` is
    ``carry.slope``, the previous solve's last slope; with none known the
    step is the plain fixed-point step. A residual bracket is tracked along
    the way and bisection takes over when a step leaves it.

    ``update(x)`` lies about ``|r s / (1 - s)|`` from the fixed point, and
    the solve returns it once that estimate is at most ``tol``. With no
    slope known only a zero residual stops, and ``s == 1`` never does. If
    the iteration stalls, the bracket's ends and residuals go to
    :func:`~vixpricer.numerics.newton_bisect`, whose final bracket width is
    the error. ``carry`` (an :class:`_InnerCarry`) receives the last slope
    and the error estimate of the returned value.
    """
    carry = _InnerCarry() if carry is None else carry
    lo = hi = None  # bracket ends (x, resid): resid > 0 at lo, < 0 at hi
    x = x0
    prev = None  # (x, resid)
    for _ in range(max_iters):
        fx = update(x)
        resid = fx - x
        if resid == 0.0:
            carry.error = 0.0
            return x
        if prev is not None and prev[0] != x:
            carry.slope = 1.0 + (resid - prev[1]) / (x - prev[0])
        s = carry.slope
        cand = x + resid
        if s is not None and s != 1.0:
            error = abs(resid * s / (1.0 - s))
            if error <= tol:
                carry.error = error
                return fx
            sec = x + resid / (1.0 - s)  # the secant's (or chord's) root
            if np.isfinite(sec) and sec > 0.0:
                cand = sec
        point = (x, resid)
        if resid > 0.0:
            lo = point if lo is None else max(lo, point)
        else:
            hi = point if hi is None else min(hi, point)
        if lo and hi and not (min(lo, hi)[0] < cand < max(lo, hi)[0]):
            cand = 0.5 * (lo[0] + hi[0])
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
    carry.error = min((abs(v - x) for v, r in seen.items()
                       if r * seen[x] < 0.0), default=0.0)
    return x


# ---------------------------------------------------------------------------
# boundary solvers
# ---------------------------------------------------------------------------

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
    updates = np.zeros(curves.shape, dtype=int)
    errors = np.zeros(curves.shape)
    _sweep(m, p, option, times, curves, active, cfg, quad, updates, errors)

    # a call's VIX boundary and a pair's upper curve fall towards expiry
    falling = (option.kind == "call",) if len(curves) == 1 else (False, True)
    out, clips = [], []
    for curve, decreasing_in_t in zip(curves, falling):
        curve, found = _isotonic_backward(curve, decreasing_in_t,
                                          tol=cfg.inner_tol * 1e3)
        out.append(curve)
        clips += found
    diag = {"monotonicity_clips": [(float(times[i]), gap) for i, gap in clips],
            "inner_updates": updates.tolist(), "inner_error": errors.tolist()}
    return Boundary(times=times, values=out[0],
                    cuts=np.array(stop_cuts(m, option, *out)),
                    upper=out[1] if len(out) == 2 else None, kind=option.kind,
                    diagnostics=diag)


def _is_active(level):
    """Whether a curve level is a real boundary (absent sides sit at 0 / inf)."""
    return 0.0 < level < math.inf


def _sweep(m, p, option, times, curves, active, cfg, quad, updates, errors):
    """Solve the active curves at every grid time before expiry, in place.

    ``curves`` holds one row (monotone, VIX coordinate) or a lower/upper
    pair (mixture, factor coordinate); each row is iterated in its own
    coordinate and mapped back by value matching on the premium formula,
    evaluated on the curve itself against the paying stop pairs of the
    later steps. Its zero-time node reads the later step's stop pair with
    the solved side (a monotone curve's finite one) moved to the iterate's
    factor level, where that side weighs exactly 1/2. Each solve starts
    from the linear extrapolation of the curve's two later levels once both
    were solved here (and the guess is positive), from the later level
    otherwise, and inherits the curve's last secant slope.
    ``updates`` and ``errors``, shaped like ``curves``, receive the
    ``update`` calls and the final error estimate per curve and grid time.
    """
    strike = option.strike
    sign = 1.0 if option.kind == "call" else -1.0
    n_last = len(times) - 1
    dt = times[1] - times[0]
    names = ("lower", "upper") if len(curves) == 2 else ("",)
    carries = [_InnerCarry() for _ in names]
    cuts = np.empty((2, n_last + 1))
    cuts[:, n_last] = stop_cuts(m, option, *curves[:, n_last])
    # the cut-pair side each curve moves: a monotone curve's finite side
    sides = (0, 1) if m.is_mixture else (int(np.isinf(cuts[0, n_last])),)
    for i in range(n_last - 1, -1, -1):
        tau = times[n_last] - times[i]
        u = dt * np.arange(1, n_last - i + 1)
        for k, name in enumerate(names):
            if not active[k]:
                continue

            def update(v):
                updates[k, i] += 1
                y0 = factor_state(m, v)
                stop = cuts[:, i + 1].copy()
                stop[sides[k]] = y0
                euro, prem = _premium_formula(m, p, option, tau, y0, stop, u,
                                              cuts[:, i + 1:], quad)
                if m.is_mixture:
                    return mixture_inverse(m, strike + euro + prem, name)
                return strike + sign * (euro + prem)

            x0 = curves[k, i + 1]
            if i + 2 < n_last and 2.0 * x0 - curves[k, i + 2] > 0.0:
                x0 = 2.0 * x0 - curves[k, i + 2]
            try:
                curves[k, i] = _solve_step(update, x0, cfg.inner_tol,
                                           carry=carries[k])
                errors[k, i] = carries[k].error
            except SolverError as exc:
                raise SolverError(
                    f"{name} boundary step at t={times[i]:.6g} failed: "
                    f"{exc}".lstrip()) from exc
        if len(curves) == 2 and curves[0, i] >= curves[1, i]:
            raise SolverError(
                f"boundaries crossed at t={times[i]:.6g}: "
                f"{curves[0, i]:.6g} >= {curves[1, i]:.6g}")
        cuts[:, i] = stop_cuts(m, option, *curves[:, i])


def _isotonic_backward(values, decreasing_in_t, tol):
    """Project onto the monotone cone, returning (projected, adjustments)."""
    out = values.copy()
    clips = []
    for i in range(len(out) - 2, -1, -1):
        fixed = (max if decreasing_in_t else min)(out[i], out[i + 1])
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
    benefit = float(_benefit_integrand(m, p, option)(y0))
    return euro, 0.5 * du * mass * benefit + float(row @ weights)


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
    later than ``t`` (:meth:`Boundary.check_covers`).
    """
    boundary.check_covers(option, t)
    tau = option.maturity - t
    if tau < 0.0:
        raise ValueError("valuation time lies beyond maturity")
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
