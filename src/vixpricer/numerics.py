"""Shared numerical routines: bracketed root finding and vectorized quadrature.

Every bracketed scalar root of the package is found here: an outward search
(:func:`bracket_downcrossing`) when no bracket is known, then one safeguarded
Newton-bisection (:func:`newton_bisect`). Implied vols, the map inverses and
the boundary solver's stalled fixed-point steps all go through them.

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

def bracket_downcrossing(fn, x0=1.0, grow=2.0, lo_limit=1e-14, hi_limit=1e14):
    """Bracket the sign change of a function that goes from + to - as x grows.

    Starting from ``x0`` the bracket is expanded geometrically: upward while
    the function is still positive, downward while it is still negative.
    Returns ``(lo, hi)`` with ``fn(lo) > 0 >= fn(hi)``.
    """
    f0 = fn(x0)
    if not np.isfinite(f0) and not np.isneginf(f0):
        raise ValueError(f"objective not evaluable at starting point {x0}")
    if f0 > 0.0:
        lo = x0
        hi = x0 * grow
        while hi <= hi_limit:
            if fn(hi) <= 0.0:
                return lo, hi
            lo, hi = hi, hi * grow
        raise ConvergenceError("no sign change found while expanding upward")
    lo = x0 / grow
    hi = x0
    while lo >= lo_limit:
        if fn(lo) > 0.0:
            return lo, hi
        lo, hi = lo / grow, lo
    raise ConvergenceError("no sign change found while expanding downward")


def newton_bisect(fn, lo, hi, dfn=None, rel_tol=1e-12, abs_tol=0.0,
                  max_iter=200):
    """Root of ``fn`` on a bracket, Newton steps safeguarded by bisection.

    ``fn(lo)`` and ``fn(hi)`` must have opposite signs (one may be zero).
    Newton is used whenever a derivative is supplied, the step stays inside
    the current bracket and it is at most half the step before the last one;
    otherwise the step falls back to bisection, so the bracket always shrinks
    and a Newton run that creeps towards the root from one side (a steep,
    convex objective) cannot stall.
    """
    f_lo = fn(lo)
    f_hi = fn(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if np.sign(f_lo) == np.sign(f_hi):
        raise ValueError("root is not bracketed")
    x = 0.5 * (lo + hi)
    step = step_old = hi - lo
    for _ in range(max_iter):
        f_x = fn(x)
        if f_x == 0.0:
            return x
        if np.sign(f_x) == np.sign(f_lo):
            lo, f_lo = x, f_x
        else:
            hi, f_hi = x, f_x
        step_ok = False
        if dfn is not None:
            d = dfn(x)
            if np.isfinite(d) and d != 0.0:
                x_new = x - f_x / d
                if lo < x_new < hi and abs(x_new - x) <= 0.5 * step_old:
                    step_old, step = step, abs(x_new - x)
                    x, step_ok = x_new, True
        if not step_ok:
            step_old, step = step, 0.5 * (hi - lo)
            x = 0.5 * (lo + hi)
        if hi - lo <= rel_tol * abs(x) + abs_tol:
            return x
    raise ConvergenceError("newton_bisect did not converge")


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


def adaptive_gauss_kronrod(fn, a, b, rel_tol=1e-9, abs_tol=1e-12,
                           max_subdivisions=200):
    """Adaptive Gauss-Kronrod integration of a vectorized integrand.

    The interval is bisected where the local Kronrod error estimate is
    largest until the summed error meets ``max(abs_tol, rel_tol * |I|)``.
    Callers split the domain at kinks (e.g. payoff kinks) beforehand.

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
def _gl_rule(n_nodes):
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    return x, w


@lru_cache(maxsize=None)
def _panel_rule(n_panels, n_nodes):
    """Composite rule on [0, 1]: nodes and weights, shape (n_panels*n_nodes,)."""
    x, w = _gl_rule(n_nodes)
    width = 1.0 / n_panels
    starts = np.arange(n_panels) * width
    nodes = (starts[:, None] + 0.5 * width * (x[None, :] + 1.0)).ravel()
    weights = np.tile(0.5 * width * w, n_panels)
    return nodes, weights


def panel_nodes(lo, hi, n_panels=10, n_nodes=16):
    """Composite Gauss-Legendre nodes/weights on each [lo_i, hi_i].

    ``lo`` and ``hi`` are arrays of interval endpoints; empty intervals
    (hi <= lo) produce zero weights. Intervals spanning more than two
    decades switch to log-spaced panels, which keeps fractional-power
    behavior near a small left endpoint well resolved. Returns
    ``(nodes, weights)`` with shape ``(len(lo), n_panels * n_nodes)``.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    base, wts = _panel_rule(n_panels, n_nodes)
    span = np.maximum(hi - lo, 0.0)
    nodes = lo[..., None] + span[..., None] * base[None, :]
    weights = span[..., None] * wts[None, :]
    wide = (span > 0.0) & (lo > 0.0) & (hi > 100.0 * lo)
    if np.any(wide):
        ratio = np.log(hi[wide] / lo[wide])[..., None]
        log_nodes = lo[wide][..., None] * np.exp(ratio * base[None, :])
        nodes[wide] = log_nodes
        weights[wide] = ratio * wts[None, :] * log_nodes
    return nodes, weights

