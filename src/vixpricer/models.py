"""Catalog of VIX map functions and their critical thresholds.

A model maps the square-root factor ``Y`` to the VIX through one power sum
``X = f(Y) = sum_j w_j * Y**s_j``, kept as one signed term list: ``s = -p``
for the falling terms of family ``a1`` (generalized 3/2; strictly
decreasing and convex, from +inf down to 0) and ``s = +p``, ``p`` in (0, 1],
for the rising terms of family ``a2`` (generalized 1/2; strictly increasing
and weakly concave). Family ``mixture`` has both and is U-shaped in the
factor; one part may be empty, which leaves a single monotone branch
expressed in factor coordinates.

The waiting benefit ``h`` (the drift of the discounted payoff along the
factor) is a power sum too: :func:`_power_sum` evaluates ``f``, its
derivatives and ``h``. The module also locates the level thresholds that
determine terminal exercise boundaries and verifies the sign-structure
assumptions the boundary theory relies on.

Every threshold comes from two facts about one side of the map, worked out
by one function each. :func:`_side_inverse` inverts the map on its lower
(falling) or upper (rising) side, in closed form for a lone term on a
monotone map; :func:`g_eval`, :func:`mixture_inverse` and
:func:`payoff_levels` all go through it. :func:`_sign_change` scans ``h`` on
a factor grid and solves for its single sign change: across the whole map
for ``x_star`` of the monotone families, and on each payoff lobe for the
mixture's ``y_lower`` / ``y_upper``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .cir import CirParams
from .numerics import bracket_downcrossing, newton_bisect

__all__ = [
    "AssumptionError",
    "ModelSpec",
    "CriticalLevels",
    "model_from_dict",
    "f_eval",
    "f_deriv",
    "g_eval",
    "mixture_inverse",
    "waiting_benefit",
    "x_star",
    "payoff_levels",
    "critical_levels",
    "validate_model_params",
]

# bracket width of the threshold solves, relative; a false-position solve
# returns an evaluated end, so this is its accuracy
_ROOT_TOL = 1e-14


class AssumptionError(ValueError):
    """A model/parameter combination breaks a required sign structure."""


@dataclass(frozen=True)
class ModelSpec:
    """One VIX map: family tag plus (weight, power) term lists.

    ``terms`` holds the family's own powers for ``a1``/``a2`` models; for the
    mixture family ``terms`` is the decreasing (a1) part and ``terms_a2`` the
    increasing (a2) part.
    """

    family: str
    terms: tuple = ()
    terms_a2: tuple = ()

    def __post_init__(self):
        fam = self.family.lower()
        if fam not in ("a1", "a2", "mixture"):
            raise ValueError(f"unknown model family {self.family!r}")
        object.__setattr__(self, "family", fam)
        object.__setattr__(self, "terms", _clean_terms(self.terms))
        object.__setattr__(self, "terms_a2", _clean_terms(self.terms_a2))
        if fam in ("a1", "a2"):
            if not self.terms:
                raise ValueError(f"family {fam!r} needs at least one term")
            if self.terms_a2:
                raise ValueError("terms_a2 is only meaningful for the mixture family")
        else:
            if not self.terms and not self.terms_a2:
                raise ValueError("mixture needs at least one term on either side")
        for _, p in self.decreasing_terms:
            if p <= 0.0:
                raise ValueError(f"decreasing-side power must be positive, got {p}")
        for _, p in self.increasing_terms:
            if not 0.0 < p <= 1.0:
                raise ValueError(f"increasing-side power must lie in (0, 1], got {p}")
        # These checks fix the map's shape: falling terms are decreasing and
        # convex, rising ones increasing and weakly concave, and with both,
        # y f'(y) rises strictly from -inf to +inf, so there is one minimum.

    @property
    def decreasing_terms(self):
        """(weight, power) pairs entering as w * y**(-p)."""
        return () if self.family == "a2" else self.terms

    @property
    def increasing_terms(self):
        """(weight, power) pairs entering as w * y**p."""
        return self.terms if self.family == "a2" else self.terms_a2

    @property
    def is_mixture(self) -> bool:
        return self.family == "mixture"

    @cached_property
    def _power_terms(self):
        """Term lists of ``f = sum w * y**s`` (falling terms first, ``s = -p``)
        and of its first four derivatives."""
        signed = tuple((w, -p) for w, p in self.decreasing_terms) + self.increasing_terms
        return tuple(_derivative(signed, k) for k in range(5))


def _clean_terms(terms):
    out = []
    for w, p in terms:
        w, p = float(w), float(p)
        if not (np.isfinite(w) and w > 0.0):
            raise ValueError(f"term weight must be positive, got {w}")
        if not np.isfinite(p):
            raise ValueError(f"term power must be finite, got {p}")
        out.append((w, p))
    return tuple(out)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def model_from_dict(doc: dict) -> ModelSpec:
    """Build a model from ``{"class": ..., "terms": [{"weight","power"},...]}``."""
    try:
        fam = str(doc["class"]).lower()
        terms = tuple((t["weight"], t["power"]) for t in doc.get("terms", []))
        terms_a2 = tuple((t["weight"], t["power"]) for t in doc.get("terms_a2", []))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed model document: {exc}") from exc
    return ModelSpec(family=fam, terms=terms, terms_a2=terms_a2)


# ---------------------------------------------------------------------------
# map evaluation
# ---------------------------------------------------------------------------

def f_eval(m: ModelSpec, y):
    """VIX level f(y) at factor level(s) y > 0."""
    return f_deriv(m, y, 0)


def f_deriv(m: ModelSpec, y, order: int = 1):
    """Derivative of the VIX map, orders 0 through 4."""
    if order not in (0, 1, 2, 3, 4):
        raise ValueError(f"unsupported derivative order {order}")
    if (y <= 0.0 if isinstance(y, float)
            else np.any(np.asarray(y, dtype=float) <= 0.0)):
        raise ValueError("factor level must be strictly positive")
    return _power_sum(m._power_terms[order], y)


# powers that ``ndarray ** e`` takes by an exact ufunc instead of ``np.power``
# (reciprocal, square root, square), and the trivial 0 and 1, each written
# here as the same exact operation on a float
_EXACT_POWERS = {0.0: lambda y: 1.0, 1.0: lambda y: y, -1.0: lambda y: 1.0 / y,
                 0.5: math.sqrt, 2.0: lambda y: y * y}


def _power_sum(pairs, y, const=0.0):
    """``const + sum c * y**e`` over ``(c, e)`` pairs; zero coefficients drop out.

    A positive finite float is summed in plain floats, its other powers from
    one ``np.power`` call, which rounds them as the array path's does: both
    paths agree bit for bit.
    """
    if isinstance(y, float) and 0.0 < y < math.inf:
        y = float(y)  # a NumPy scalar's arithmetic is slower
        kept, powers = _float_plan(pairs)
        rest = iter(np.power(y, powers).tolist()) if powers.size else None
        out = const
        for c, exact in kept:
            out = out + c * (exact(y) if exact else next(rest))
        return float(out)
    y_arr = np.asarray(y, dtype=float)
    out = np.full_like(y_arr, const)
    for c, e in pairs:
        if c != 0.0:
            out = out + c * y_arr ** e
    return out if isinstance(y, np.ndarray) else float(out)


@lru_cache(maxsize=256)
def _float_plan(pairs):
    """A power sum's nonzero terms as ``(c, exact power or None)``, and as
    an array the powers ``np.power`` evaluates."""
    kept = [(c, e) for c, e in pairs if c != 0.0]
    return (tuple((c, _EXACT_POWERS.get(e)) for c, e in kept),
            np.array([e for _, e in kept if e not in _EXACT_POWERS]))


def _derivative(pairs, k):
    """Term list of the ``k``-th derivative of a power sum."""
    return tuple((c * math.prod(e - i for i in range(k)), e - k) for c, e in pairs)


def g_eval(m: ModelSpec, x: float) -> float:
    """Inverse of the map: f(g(x)) = x. Monotone families only."""
    if m.is_mixture:
        raise ValueError("the mixture map has no global inverse; use mixture_inverse")
    return _side_inverse(m, x, "lower" if m.family == "a1" else "upper")


@lru_cache(maxsize=64)
def minimum_location(m: ModelSpec) -> float:
    """Factor level minimizing the map (inf / 0 when it only falls / rises)."""
    if not m.increasing_terms:
        return math.inf
    if not m.decreasing_terms:
        return 0.0
    obj = lambda yy: -f_deriv(m, yy, 1)  # + below the minimum, - above
    return newton_bisect(obj, *bracket_downcrossing(obj, (1.0, obj(1.0))),
                         rel_tol=_ROOT_TOL)


def mixture_inverse(m: ModelSpec, x: float, branch: str) -> float:
    """Factor level solving f(y) = x on the requested side of the minimum.

    ``branch`` is ``"lower"`` (left of the minimum, f decreasing) or
    ``"upper"``. Requires ``x >= f(y_min)``; at the minimum both branches
    return the minimizer itself.
    """
    if branch not in ("lower", "upper"):
        raise ValueError(f"branch must be 'lower' or 'upper', got {branch!r}")
    if not m.is_mixture:
        raise ValueError("mixture_inverse applies to mixture maps")
    return _side_inverse(m, x, branch)


def _side_inverse(m: ModelSpec, x: float, side: str) -> float:
    """Factor level solving f(y) = x on one side of the map's minimum.

    ``side`` is ``"lower"`` (the falling terms' side) or ``"upper"`` (the
    rising terms'). A lone term on a monotone map inverts in closed form.
    Every other case is one bracketed solve, started at 1 on a monotone map
    and at the minimizer otherwise; there ``x`` must reach the map minimum,
    where the minimizer itself is returned.
    """
    if not x > 0.0:
        raise ValueError("VIX level must be strictly positive")
    lower = side == "lower"
    own, other = ((m.decreasing_terms, m.increasing_terms) if lower
                  else (m.increasing_terms, m.decreasing_terms))
    if not own:
        raise ValueError(f"the {side} branch of this map is empty")
    if not other and len(own) == 1:
        w, p = own[0]
        return (w / x) ** (1.0 / p) if lower else (x / w) ** (1.0 / p)
    sign = 1.0 if lower else -1.0  # the objective falls through the root
    obj = lambda yy: sign * (f_eval(m, yy) - x)
    if other:
        y_min = minimum_location(m)
        f_min = float(f_eval(m, y_min))
        if x < f_min * (1.0 - 1e-14):
            raise ValueError(f"no factor level reaches VIX level {x} (minimum {f_min})")
        if x <= f_min * (1.0 + 1e-14):
            return y_min
        start = (y_min, sign * (f_min - x))
    else:
        start = (1.0, obj(1.0))
    return newton_bisect(obj, *bracket_downcrossing(obj, start), rel_tol=_ROOT_TOL)


# ---------------------------------------------------------------------------
# waiting benefit
# ---------------------------------------------------------------------------

def waiting_benefit(m: ModelSpec, p: CirParams, r: float, strike: float, y):
    """Drift-adjusted payoff rate h, expressed in the factor coordinate.

    ``h(y) = (beta - alpha y) f'(y) + kappa^2 y f''(y) / 2 - r f(y) + r K``,
    a power sum itself (:func:`_benefit_terms`). Terms sharing a power are
    grouped so the evaluation stays finite near the origin even when
    individual pieces diverge.
    """
    return _power_sum(_benefit_terms(m, p, r), y, r * strike)


@lru_cache(maxsize=256)
def _benefit_terms(m, p, r):
    """Term list of ``h - r K``: each map term ``w * y**s`` gives
    ``w s (beta + kappa^2 (s - 1) / 2)`` at power ``s - 1`` and
    ``-w (alpha s + r)`` at power ``s``."""
    half_k2 = 0.5 * p.kappa ** 2
    terms = []
    for w, s in m._power_terms[0]:
        terms.append(((w * s) * (p.beta + half_k2 * (s - 1.0)), s - 1.0))
        terms.append((-(w * (p.alpha * s + r)), s))
    return tuple(terms)


# ---------------------------------------------------------------------------
# parameter conditions and critical thresholds
# ---------------------------------------------------------------------------

def validate_model_params(m: ModelSpec, p: CirParams):
    """Reject parameter pairings whose waiting benefit loses its sign shape.

    Every map term ``w * y**s`` needs ``beta + kappa^2 (s - 1) / 2 > 0``. On
    the falling side (``s = -p``) this is ``beta > kappa^2 (p + 1) / 2``, so
    the benefit falls to -inf at the origin; on the rising side the Feller
    condition implies it.
    """
    half_k2 = 0.5 * p.kappa ** 2
    for _, s in m._power_terms[0]:
        if p.beta + half_k2 * (s - 1.0) <= 0.0:
            side = "decreasing" if s < 0.0 else "increasing"
            raise AssumptionError(
                f"beta={p.beta} must exceed kappa^2 (1-s)/2 = "
                f"{-(half_k2 * (s - 1.0))} for {side} power {abs(s)}")


@dataclass(frozen=True)
class CriticalLevels:
    """Thresholds governing terminal exercise behavior.

    Monotone families use only ``x_star`` (VIX level where the waiting
    benefit changes sign). The mixture family uses the factor levels where
    the map crosses the strike (``k_lower``/``k_upper``), the benefit
    sign-change points on each payoff lobe (``y_lower``/``y_upper``, None
    when the benefit keeps one sign on a lobe) and the map minimizer.
    """

    x_star: float | None = None
    k_lower: float | None = None
    k_upper: float | None = None
    y_lower: float | None = None
    y_upper: float | None = None
    y_min: float | None = None


def x_star(m: ModelSpec, p: CirParams, r: float, strike: float) -> float:
    """Sign-change level of the waiting benefit for a monotone family.

    The benefit is scanned on a factor grid covering VIX levels 1e-4 to 1e3;
    it must change sign exactly once there, rising with the factor for
    ``a1`` (from -inf at the origin) and falling for ``a2``.
    """
    if m.is_mixture:
        raise ValueError("x_star is defined for monotone families only")
    validate_model_params(m, p)
    ends = sorted((g_eval(m, 1e-4), g_eval(m, 1e3)))
    grid = np.geomspace(max(ends[0], 1e-300), ends[1], 1000)
    y_root = _sign_change(m, p, r, strike, grid, rising=(m.family == "a1"))
    if y_root is None:
        raise AssumptionError(
            "waiting benefit never changes sign on the scan grid; a single "
            "crossing is required")
    return float(f_eval(m, y_root))


@lru_cache(maxsize=512)
def payoff_levels(m: ModelSpec, strike: float):
    """Factor levels bounding the in-the-money set of a call.

    Returns ``(k_lower, k_upper, y_min)``: the call pays for ``y <= k_lower``
    or ``y >= k_upper``. A map without rising terms (``a1``) reports
    ``k_upper = y_min = inf``, one without falling terms (``a2``)
    ``k_lower = y_min = 0``. A strike at or below a mixture map's minimum
    ``f(y_min)`` leaves the call in the money at every level, and all three
    levels are the minimizer.
    """
    if strike <= 0.0:
        raise ValueError("strike must be strictly positive")
    y_min = minimum_location(m)
    if 0.0 < y_min < math.inf and float(f_eval(m, y_min)) >= strike:
        return y_min, y_min, y_min
    k_lo = _side_inverse(m, strike, "lower") if m.decreasing_terms else 0.0
    k_hi = _side_inverse(m, strike, "upper") if m.increasing_terms else math.inf
    return k_lo, k_hi, y_min


def critical_levels(m: ModelSpec, p: CirParams, r: float, strike: float) -> CriticalLevels:
    """All exercise thresholds, with the sign-structure grid verification.

    Raises :class:`AssumptionError` if the waiting benefit changes sign more
    than once on the scanned range (disconnected exercise regions are out of
    scope) or in the wrong direction; ``ValueError`` if a mixture strike
    leaves no out-of-the-money band (:func:`payoff_levels`).
    """
    if strike <= 0.0:
        raise ValueError("strike must be strictly positive")
    validate_model_params(m, p)
    if not m.is_mixture:
        return CriticalLevels(x_star=x_star(m, p, r, strike))

    k_lo, k_hi, y_min = payoff_levels(m, strike)
    if k_lo == k_hi:
        raise ValueError(f"strike {strike} does not exceed the map minimum "
                         f"{float(f_eval(m, y_min))}")
    y_lower = y_upper = None
    if k_lo > 0.0:
        y_lower = _sign_change(m, p, r, strike,
                               np.geomspace(1e-4 * k_lo, k_lo, 1000), rising=True)
    if np.isfinite(k_hi):
        y_upper = _sign_change(m, p, r, strike,
                               np.geomspace(k_hi, 1e3 * k_hi, 1000), rising=False)
    return CriticalLevels(k_lower=k_lo, k_upper=k_hi,
                          y_lower=y_lower, y_upper=y_upper, y_min=y_min)


def _sign_change(m, p, r, strike, grid, rising):
    """Unique benefit sign change on a factor grid, or None if never positive.

    The benefit must cross zero at most once on the grid, upwards in the
    factor when ``rising`` and downwards otherwise; the crossing is then
    refined between its two grid neighbours. Exact zeros on the grid take
    the sign to their left.
    """
    h_vals = waiting_benefit(m, p, r, strike, grid)
    sign = np.sign(h_vals)
    for i in range(1, len(sign)):
        if sign[i] == 0.0:
            sign[i] = sign[i - 1]
    changes = np.nonzero(np.diff(sign))[0]
    if len(changes) == 0:
        if np.all(h_vals <= 0.0):
            return None
        raise AssumptionError(
            "waiting benefit is positive across the whole scan grid; the "
            "boundary structure does not apply")
    if len(changes) > 1:
        raise AssumptionError(
            f"waiting benefit changes sign {len(changes)} times on the scan "
            "grid; a single crossing is required")
    i = changes[0]
    direction_ok = (h_vals[i] < 0.0 < h_vals[i + 1]) if rising else (h_vals[i] > 0.0 > h_vals[i + 1])
    if not direction_ok:
        raise AssumptionError("waiting benefit changes sign in the wrong direction")
    sign = -1.0 if rising else 1.0  # the objective falls through the root
    return newton_bisect(lambda yy: sign * waiting_benefit(m, p, r, strike, yy),
                         (grid[i], sign * h_vals[i]),
                         (grid[i + 1], sign * h_vals[i + 1]), rel_tol=_ROOT_TOL)
