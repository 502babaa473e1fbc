"""Shared numerical routines: bracketed root finding and vectorized quadrature.

Every bracketed scalar root of the package is found here: an outward search
(:func:`bracket_downcrossing`) when no bracket is known, then one safeguarded
solve (:func:`newton_bisect`: Anderson-Björck false position, bisecting
where a step would stall), passing bracket points as evaluated pairs
``(x, f(x))``, so no point is evaluated twice. Implied vols, the map
inverses and minimum, the waiting benefit's sign change, the factor law's
quantiles and the boundary solver's stalled fixed-point steps all go through
them, and none supplies a slope.

All quadrature helpers expect integrands that map a numpy array of abscissae
to an array of the same shape, so a single call evaluates a whole batch of
nodes at once.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "ConvergenceError",
    "bracket_downcrossing",
    "newton_bisect",
    "adaptive_gauss_kronrod",
    "panel_nodes",
]


class ConvergenceError(RuntimeError):
    """An iterative routine failed to reach its tolerance."""


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------

_SEARCH_RANGE = (1e-300, 1e300)  # bracket_downcrossing's, for every caller


def bracket_downcrossing(fn, start, grow=2.0, max_steps=None):
    """Bracket the sign change of a function that goes from + to - as x grows.

    From the evaluated point ``start = (x0, fn(x0))`` the bracket is expanded
    geometrically by the factor ``grow``: upward while the function is
    still positive, downward while it is still negative, within
    [1e-300, 1e300] and, when given, ``max_steps`` new points. Returns the
    evaluated ends ``(lo, fn(lo)), (hi, fn(hi))``, ``fn(lo) > 0 >=
    fn(hi)``; ``fn`` runs once per new point.
    """
    x0, f0 = start
    if not np.isfinite(f0) and not np.isneginf(f0):
        raise ValueError(f"objective not evaluable at starting point {x0}")
    steps = 0
    if f0 > 0.0:
        lo, x = start, x0 * grow
        while x <= _SEARCH_RANGE[1] and steps != max_steps:
            hi = (x, fn(x))
            if hi[1] <= 0.0:
                return lo, hi
            lo, x, steps = hi, x * grow, steps + 1
        raise ConvergenceError("no sign change found while expanding upward")
    hi, x = start, x0 / grow
    while x >= _SEARCH_RANGE[0] and steps != max_steps:
        lo = (x, fn(x))
        if lo[1] > 0.0:
            return lo, hi
        hi, x, steps = lo, x / grow, steps + 1
    raise ConvergenceError("no sign change found while expanding downward")


_MAX_ITER = 200  # newton_bisect's steps before it gives up


def newton_bisect(fn, lo, hi, rel_tol=1e-12, abs_tol=0.0):
    """Root of ``fn`` on a bracket, by false-position steps safeguarded by
    bisection; it takes no Newton steps and needs no slope.

    The ends are evaluated points ``lo = (a, fn(a))``, ``hi = (b, fn(b))``,
    ``a < b``, of opposite signs (one may be zero); ``fn`` is not called at
    them. The first point is the bracket's midpoint. Each step is false
    position on the current bracket, where an end kept twice in a row has
    its value scaled by the Anderson-Björck factor ``1 - f(x) / f(replaced
    end)`` (0.5 when that is not positive), so that both ends move towards
    the root (Anderson & Björck, BIT 13, 1973); a step stays half the
    tolerance inside the bracket, so that it can close it. A step is taken
    when it is at most half the step before the last one; otherwise the
    step bisects, so the bracket always shrinks and a run that creeps
    towards the root from one side (a steep, convex objective) cannot
    stall. Once the bracket is at most ``rel_tol |x| + abs_tol`` wide, the
    evaluated end with the smaller ``|fn|`` is returned.
    """
    (lo, f_lo), (hi, f_hi) = lo, hi
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if np.sign(f_lo) == np.sign(f_hi):
        raise ValueError("root is not bracketed")
    w_lo, w_hi = f_lo, f_hi  # the ends' false-position weights
    moved = None  # the end the last step replaced
    x = 0.5 * (lo + hi)
    step = step_old = hi - lo
    for _ in range(_MAX_ITER):
        f_x = fn(x)
        if f_x == 0.0:
            return x
        if np.sign(f_x) == np.sign(f_lo):
            w_hi *= _kept_weight(f_x, f_lo, moved == "lo")
            lo, f_lo, w_lo, moved = x, f_x, f_x, "lo"
        else:
            w_lo *= _kept_weight(f_x, f_hi, moved == "hi")
            hi, f_hi, w_hi, moved = x, f_x, f_x, "hi"
        # NaN where an end's value is infinite: the step bisects
        x_new = (lo * w_hi - hi * w_lo) / (w_hi - w_lo)
        inside = 0.5 * (rel_tol * abs(x) + abs_tol)
        x_new = min(max(x_new, lo + inside), hi - inside)
        if lo < x_new < hi and abs(x_new - x) <= 0.5 * step_old:
            step_old, step = step, abs(x_new - x)
            x = x_new
        else:
            step_old, step = step, 0.5 * (hi - lo)
            x = 0.5 * (lo + hi)
        if hi - lo <= rel_tol * abs(x) + abs_tol:
            return lo if abs(f_lo) < abs(f_hi) else hi
    raise ConvergenceError("newton_bisect did not converge")


def _kept_weight(f_x, f_replaced, again):
    """Anderson-Björck factor for the end a step keeps: 1 unless the same end
    was kept by the step before too."""
    if not again:
        return 1.0
    m = 1.0 - f_x / f_replaced
    return m if m > 0.0 else 0.5


# ---------------------------------------------------------------------------
# Gauss-Kronrod 15(7) adaptive quadrature
# ---------------------------------------------------------------------------

# Standard 15-point Kronrod extension of 7-point Gauss-Legendre on [-1, 1].
_XK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

# full symmetric node/weight vectors, ascending
_K_NODES = np.concatenate([-_XK[:-1], _XK[::-1]])
_K_WEIGHTS = np.concatenate([_WK[:-1], _WK[::-1]])
_G_WEIGHTS = np.zeros_like(_K_WEIGHTS)
_G_WEIGHTS[1:-1:2] = np.concatenate([_WG[:-1], _WG[::-1]])


def _gk_batch(fn, a, b):
    """Kronrod integral and error estimate for each interval [a_i, b_i]."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    nodes = mid[:, None] + half[:, None] * _K_NODES[None, :]
    vals = fn(nodes.ravel()).reshape(nodes.shape)
    ik = half * (vals @ _K_WEIGHTS)
    ig = half * (vals @ _G_WEIGHTS)
    # QUADPACK-style sharpened error estimate
    avg = ik / (b - a)
    resasc = half * (np.abs(vals - avg[:, None]) @ _K_WEIGHTS)
    err = np.abs(ik - ig)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = np.where(resasc > 0.0,
                          resasc * np.minimum(1.0, (200.0 * err / np.maximum(resasc, 1e-300)) ** 1.5),
                          err)
    return ik, np.where(err > 0.0, scaled, err)


# the most new intervals one refinement pass may evaluate (15 abscissae
# each, in one integrand call)
_MAX_PASS_INTERVALS = 4096


def adaptive_gauss_kronrod(fn, a, b, rel_tol=1e-9, abs_tol=1e-12,
                           max_subdivisions=200):
    """Adaptive Gauss-Kronrod integration of a vectorized integrand.

    The interval is bisected where the local Kronrod error estimate is
    largest until the summed error meets ``max(abs_tol, rel_tol * |I|)``.
    Callers split the domain at kinks (e.g. payoff kinks) beforehand.
    ``ConvergenceError`` is raised after ``max_subdivisions`` passes, or
    when a pass would evaluate more than ``_MAX_PASS_INTERVALS`` new
    intervals, as the count can double on every pass.

    Returns ``(value, error_estimate)``.
    """
    if not b > a:
        return 0.0, 0.0
    # seed the interval with several segments so narrow features register in
    # the error estimate before any refinement decision is taken
    edges = np.linspace(a, b, 9)
    lo, hi = edges[:-1], edges[1:]
    vals, errs = _gk_batch(fn, lo, hi)
    for _ in range(max_subdivisions):
        total = vals.sum()
        err_total = errs.sum()
        tol = max(abs_tol, rel_tol * abs(total))
        if err_total <= tol:
            return float(total), float(err_total)
        # split every interval responsible for a meaningful error share
        cutoff = max(tol / (2.0 * len(errs)), errs.max() * 1e-3)
        split = errs >= cutoff
        if not split.any():
            split[np.argmax(errs)] = True
        n_new = 2 * int(split.sum())
        if n_new > _MAX_PASS_INTERVALS:
            raise ConvergenceError(
                f"quadrature pass would evaluate {n_new} intervals, more than "
                f"{_MAX_PASS_INTERVALS} (error {errs.sum():.3e} on "
                f"[{a:.6g}, {b:.6g}])")
        keep_lo, keep_hi = lo[~split], hi[~split]
        keep_vals, keep_errs = vals[~split], errs[~split]
        mids = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([keep_lo, lo[split], mids])
        new_hi = np.concatenate([keep_hi, mids, hi[split]])
        new_vals, new_errs = _gk_batch(fn, np.concatenate([lo[split], mids]),
                                       np.concatenate([mids, hi[split]]))
        vals = np.concatenate([keep_vals, new_vals])
        errs = np.concatenate([keep_errs, new_errs])
        lo, hi = new_lo, new_hi
    raise ConvergenceError(
        f"quadrature did not converge within {max_subdivisions} subdivisions "
        f"(error {errs.sum():.3e} on [{a:.6g}, {b:.6g}])")


# ---------------------------------------------------------------------------
# fixed composite Gauss-Legendre rule (fast path for kernel sums)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _panel_rule(n_panels, n_nodes):
    """Composite rule on [0, 1]: nodes and weights, shape (n_panels*n_nodes,)."""
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    width = 1.0 / n_panels
    starts = np.arange(n_panels) * width
    nodes = (starts[:, None] + 0.5 * width * (x[None, :] + 1.0)).ravel()
    weights = np.tile(0.5 * width * w, n_panels)
    return nodes, weights


def panel_nodes(lo, hi, n_panels, n_nodes):
    """Composite Gauss-Legendre nodes/weights on each [lo_i, hi_i].

    ``lo`` and ``hi`` are arrays of interval endpoints; empty intervals
    (hi <= lo) produce zero weights. Intervals with ``hi > 20 lo > 0``
    switch to log-spaced panels: a Gauss panel converges at a rate set by
    its distance from a branch point at 0, so fractional-power behavior near
    a small left endpoint stays resolved. Returns ``(nodes, weights)`` with
    shape ``(len(lo), n_panels * n_nodes)``.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    base, wts = _panel_rule(n_panels, n_nodes)
    # [0, 1] maps onto a wide interval exponentially, onto the others linearly
    wide = (lo > 0.0) & (hi > 20.0 * lo)
    ratio = np.log(np.where(wide, hi, 1.0) / np.where(wide, lo, 1.0))[..., None]
    span = np.where(wide, 0.0, np.maximum(hi - lo, 0.0))[..., None]
    nodes = lo[..., None] * np.exp(ratio * base) + span * base
    return nodes, ratio * wts * nodes + span * wts

