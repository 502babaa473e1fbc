"""Square-root mean-reverting factor process.

The factor ``Y`` solves ``dY = (beta - alpha * Y) dt - kappa * sqrt(Y) dB``.
Conditional on ``Y_0 = y0`` the time-``t`` marginal is a scaled non-central
chi-squared law::

    Y_t ~ c * ncx2(df, lam),   df  = 4 beta / kappa^2,
                               c   = kappa^2 (1 - e^{-alpha t}) / (4 alpha),
                               lam = 4 alpha e^{-alpha t} y0
                                     / (kappa^2 (1 - e^{-alpha t})).

This module provides the parameter container, the transition law with
density / distribution / quantile / moment evaluation, and exact sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import special

from .numerics import ConvergenceError, bracket_downcrossing, newton_bisect

__all__ = ["CirParams", "ChiSquareLaw", "transition_law"]

_LN2 = math.log(2.0)
# relative size at which additional series terms stop mattering
_TERM_EPS = 1e-16
_BLOCK = 32
# ppf: bracket width on the log-quantile
_PPF_TOL = 1e-12
# ppf's bracket from the chndtrix seed: its step count and each step's
# multiple of the seed's estimated distance from the quantile
_SEED_STEPS = 4
_SEED_REACH = 3.0

# Table of log ive(nu, z): the octaves 2^(e-1) <= z < 2^e of np.frexp's
# exponents _OCTAVES[0] <= e < _OCTAVES[1], split into _PANELS equal panels
# each, with one Chebyshev interpolant of degree _DEGREE per panel.
_OCTAVES = (-9, 25)
_PANELS = 16
_DEGREE = 7
_Z_MAX = math.ldexp(1.0, _OCTAVES[1] - 1)
# panels whose samples of ive fall below the normal range are left out
_LOG_TINY = math.log(np.finfo(float).tiny)
# from this z on, log ive is Hankel's large-argument expansion to this many
# terms (special.ive returns NaN from about 2^30)
_Z_HANKEL = 2.0 ** 29
_HANKEL_TERMS = 6


@dataclass(frozen=True)
class CirParams:
    """Coefficients of the square-root factor process.

    ``alpha`` is the mean-reversion speed (1/year), ``beta`` the drift level
    (1/year) and ``kappa`` the diffusion scale (1/sqrt(year)). The Feller
    condition ``beta >= kappa^2 / 2`` keeps the factor strictly positive and
    is enforced at construction; ``allow_non_feller=True`` opts out for
    parameter sets that deliberately violate it (the factor then touches
    zero and maps with unbounded inverse terms must be treated with care).
    """

    alpha: float
    beta: float
    kappa: float
    allow_non_feller: bool = field(default=False, compare=False, repr=False)

    def __post_init__(self):
        for name in ("alpha", "beta", "kappa"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {v}")
        if not self.allow_non_feller and self.beta < 0.5 * self.kappa ** 2:
            raise ValueError(
                f"Feller condition violated: beta={self.beta} < kappa^2/2="
                f"{0.5 * self.kappa ** 2}")

    @property
    def df(self) -> float:
        """Degrees of freedom of the transition law, 4*beta/kappa^2."""
        return 4.0 * self.beta / self.kappa ** 2

    @property
    def long_run_mean(self) -> float:
        return self.beta / self.alpha

    def mean_at(self, t, y0):
        """Closed-form conditional mean E[Y_t | Y_0 = y0]."""
        w = np.exp(-self.alpha * np.asarray(t, dtype=float))
        return self.long_run_mean * (1.0 - w) + np.asarray(y0) * w


@dataclass(frozen=True)
class ChiSquareLaw:
    """Scaled non-central chi-squared law c * ncx2(df, noncentrality)."""

    df: float
    noncentrality: float
    scale: float

    def __post_init__(self):
        if not (np.isfinite(self.df) and self.df > 0.0):
            raise ValueError(f"df must be positive, got {self.df}")
        if not (np.isfinite(self.noncentrality) and self.noncentrality >= 0.0):
            raise ValueError(
                f"noncentrality must be non-negative, got {self.noncentrality}")
        if not (np.isfinite(self.scale) and self.scale > 0.0):
            raise ValueError(f"scale must be positive, got {self.scale}")

    # -- moments ------------------------------------------------------------

    def mean(self) -> float:
        return self.scale * (self.df + self.noncentrality)

    def std(self) -> float:
        return math.sqrt(self.central_moment(2))

    def central_moment(self, k: int) -> float:
        """Central moment E[(Y - EY)^k] for k in {1, 2, 3, 4}."""
        d, l, c = self.df, self.noncentrality, self.scale
        if k == 1:
            return 0.0
        if k == 2:
            return c ** 2 * 2.0 * (d + 2.0 * l)
        if k == 3:
            return c ** 3 * 8.0 * (d + 3.0 * l)
        if k == 4:
            return c ** 4 * (12.0 * (d + 2.0 * l) ** 2 + 48.0 * (d + 4.0 * l))
        raise ValueError(f"unsupported central moment order {k}")

    # -- density and distribution function -----------------------------------

    def pdf(self, y):
        """Probability density at positive level(s) ``y``.

        The Poisson-weighted series of gamma densities of
        :func:`_poisson_gamma_sum`, each term formed in log space. It does
        not use the Bessel table, so it is the oracle for :meth:`log_pdf`.
        Deep-tail values below the double-precision floor come out as 0.
        """
        return self._series(y, _gamma_pdf, 0)

    def log_pdf(self, y):
        """Log-density via the tabulated scaled Bessel function, vectorized.

        Fast path used by the quadrature engines (see :func:`log_density`);
        agrees with :meth:`pdf` to near machine precision (asserted in the
        test suite), and stays finite where :meth:`pdf` underflows to 0.
        """
        y_arr, scalar = _as_positive_array(y)
        logp = log_density(self.df, [self.noncentrality], [self.scale], y_arr)[0]
        return float(logp[0]) if scalar else logp

    def cdf(self, y):
        """P(Y <= y): the Poisson-weighted series of regularized lower
        incomplete gamma functions (:func:`_poisson_gamma_sum`), accurate
        relative to the value deep in the lower tail."""
        return self._series(y, special.gammainc, -1)

    def sf(self, y):
        """P(Y > y): the series of upper incomplete gamma functions, accurate
        relative to the value deep in the upper tail."""
        return self._series(y, special.gammaincc, 1)

    def _series(self, y, kernel, trend):
        """:func:`_poisson_gamma_sum` at ``u = y / (2 scale)``: the density
        for ``trend`` 0, else the regularized incomplete gamma function that
        falls (-1, lower) or rises (+1, upper) with the shape, capped at 1.

        Density terms fall beyond ``r(u)``, the root of ``j (j + half_df -
        1) = half_nc u``; a falling (rising) kernel's terms fall with the
        weights above (below) the mode."""
        y_arr, scalar = _as_positive_array(y)
        half_df, half_nc = 0.5 * self.df, 0.5 * self.noncentrality
        u = 0.5 * y_arr / self.scale
        b = 0.5 * (half_df - 1.0)
        root = lambda v: math.sqrt(b * b + half_nc * v) - b
        falls = (math.inf if trend > 0 else root(u.min(initial=math.inf)),
                 0.0 if trend < 0 else root(u.max(initial=0.0)))
        out = _poisson_gamma_sum(half_df, half_nc, u, kernel, falls)
        out = np.minimum(out, 1.0) if trend else out * (0.5 / self.scale)
        return float(out[0]) if scalar else out

    def power_moments(self, powers, cuts=(0.0, math.inf)):
        """``E[Y^e; c_i < Y < c_{i+1}]`` for each power ``e`` (columns) and
        each interval between consecutive ``cuts`` (rows).

        One :func:`_poisson_gamma_sum` walk: with ``a_k = df / 2 + k`` and
        ``x = y / (2 scale)``, the moment is ``(2 scale)^e sum_k P(k)
        Gamma(a_k + e, x_i, x_{i+1}) / Gamma(a_k)``, the incomplete gamma
        function between the interval's ends. On the whole line that is the
        ratio ``Gamma(a_k + e) / Gamma(a_k)`` (:func:`_gamma_ratio`), and a
        moment over an interval from 0 is finite iff ``df / 2 + e > 0``
        (``ValueError`` otherwise); an interval from ``c > 0`` has no such
        bound (:func:`_truncated_moment_kernel`). The powers must be finite
        and the cuts rise strictly from 0 or above, ``inf`` only last.

        The walk's terms fall above the larger root ``j`` of ``j (j + df/2 -
        1) = half_nc (j + df/2 - 1 + e)`` for the largest rising power (the
        Poisson mode for none), and below ``half_nc (df/2 + e) / (df/2)`` for
        the most negative power, as ``(a + e) / a`` is at least ``(df/2 + e)
        / (df/2)`` there; a power with ``df/2 + e <= 0`` walks down to
        ``k = 0``.
        """
        powers = np.asarray(powers, dtype=float)
        cuts = np.asarray(cuts, dtype=float)
        if not (np.isfinite(powers).all() and cuts[0] >= 0.0 and (np.diff(cuts) > 0.0).all()):
            raise ValueError("powers must be finite and cuts must rise from 0 or above")
        half_df, half_nc = 0.5 * self.df, 0.5 * self.noncentrality
        if cuts[0] == 0.0 and not half_df + powers.min() > 0.0:
            raise ValueError("the moment diverges at the origin: df/2 + power <= 0")
        c = 0.5 * (half_nc - half_df + 1.0)
        rising = max(powers.max(), 0.0)
        falls = (half_nc * min(1.0, (half_df + powers.min()) / half_df),
                 c + math.sqrt(c * c + half_nc * (half_df - 1.0 + rising)))
        two_scale = 2.0 * self.scale
        whole = cuts.size == 2 and cuts[0] == 0.0 and cuts[1] == math.inf
        kernel = _gamma_ratio if whole else _truncated_moment_kernel(cuts / two_scale)
        out = _poisson_gamma_sum(half_df, half_nc, powers, kernel, falls, normalized=True)
        return out.reshape(powers.size, -1).T * two_scale ** powers

    def ppf(self, p: float) -> float:
        """Quantile: :meth:`_tail_quantile` of the lower tail ``p`` below the
        median, of the upper tail ``1 - p`` above it, seeded at ``p``."""
        if not 0.0 < p < 1.0:
            raise ValueError(f"quantile probability must lie in (0, 1), got {p}")
        if p <= 0.5:
            return self._tail_quantile(1.0, p)
        return self._tail_quantile(-1.0, 1.0 - p)

    def mass_bounds(self, tail_mass: float):
        """Interval holding all but ``tail_mass`` of probability per side: the
        lower edge is ``ppf(tail_mass)``; the upper edge is the upper-tail
        :meth:`_tail_quantile` at ``tail_mass`` itself, which reads ``1 -
        tail_mass``, as it rounds, only for its seed."""
        return self.ppf(tail_mass), self._tail_quantile(-1.0, tail_mass)

    def _tail_quantile(self, sign, tail):
        """Level where a tail probability equals ``tail``: ``cdf`` with
        ``sign`` 1, ``sf`` with -1. It is the root in ``s = log v`` of
        ``sign (log tail - log prob(e^s))``, where each series keeps full
        relative accuracy in its own tail.

        The root is bracketed from a seed, the quantile of the lower-tail
        probability ``p`` (``tail`` for ``cdf``, ``1 - tail`` as it rounds
        for ``sf``), by :meth:`_seeded_bracket`. Where that finds no
        bracket, :func:`bracket_downcrossing` brackets it in steps of 10 from
        the mean, so an upper quantile is never sought where ``sf`` rounds
        to 1; below 1e-300 the quantile is 0. Either way
        :func:`newton_bisect` then takes false-position steps in ``s`` until
        the bracket is ``_PPF_TOL`` wide, the same relative width in the
        quantile; the seed moves the result only within that width.
        """
        prob, p = (self.cdf, tail) if sign > 0 else (self.sf, 1.0 - tail)
        log_target = math.log(tail)

        def target(s):  # positive below the quantile, negative above it
            q = prob(math.exp(s))
            return sign * (log_target - (math.log(q) if q > 0.0 else -math.inf))

        fn = lambda v: target(math.log(v))
        ends = self._seeded_bracket(fn, sign, p)
        if ends is None:
            mean = self.mean()
            start = (mean, fn(mean))
            try:
                ends = bracket_downcrossing(fn, start, 10.0)
            except ConvergenceError:
                if start[1] > 0.0:
                    raise ValueError("quantile bracket expansion failed") from None
                return 0.0
        return math.exp(newton_bisect(target, *((math.log(v), f) for v, f in ends),
                                      rel_tol=0.0, abs_tol=_PPF_TOL))

    def _seeded_bracket(self, fn, sign, p):
        """Bracket of the quantile objective ``fn`` (of the level) from the
        seed ``scale * special.chndtrix(p, df, nc)``, or None.

        On the bundled laws the seed is within about 1e-13 of a lower
        quantile in ``log v`` (4e-8 at nc 4.8e6); an upper one is off by the
        rounding of ``1 - tail`` to ``p`` and by chndtrix's own error, up to
        2e-5.
        :func:`bracket_downcrossing` takes at most ``_SEED_STEPS`` equal
        steps in ``log v`` from it, each ``_SEED_REACH`` times the seed's
        error in log probability, ``|fn(seed)|``, over a rough slope of the
        log tail probability: that of the log density, ``nu + (sqrt(nc x)
        - x) / 2`` (``nu = df / 2 - 1``, ``x`` the seed over the scale, the
        Bessel factor at large argument), plus 1 in the lower tail, at
        least 1 in size. The steps stay within ``[_PPF_TOL / 10, 0.1]``.
        None where the seed or its objective is not finite (chndtrix is
        ``inf`` at ``p`` within about 1.1e-16 of 1) or the steps find no
        sign change.
        """
        seed = self.scale * special.chndtrix(p, self.df, self.noncentrality)
        if not 0.0 < seed < math.inf:
            return None
        start = (seed, fn(seed))
        if not math.isfinite(start[1]):
            return None
        x = seed / self.scale
        slope = (0.5 * self.df - 1.0 + 0.5 * (math.sqrt(self.noncentrality * x) - x)
                 + (1.0 if sign > 0 else 0.0))
        step = _SEED_REACH * abs(start[1]) / max(abs(slope), 1.0)
        step = min(max(step, 0.1 * _PPF_TOL), 0.1)
        try:
            return bracket_downcrossing(fn, start, math.exp(step), max_steps=_SEED_STEPS)
        except ConvergenceError:
            return None

    # -- sampling -------------------------------------------------------------

    def sample(self, n: int, rng) -> np.ndarray:
        """Draw ``n`` i.i.d. levels, exactly, by one NumPy
        ``Generator.noncentral_chisquare`` call: ``(Z + sqrt(lam))**2 +
        chi2(df - 1)`` for df > 1 (every Feller law), the Poisson-gamma
        mixture for df <= 1.

        ``rng`` is an integer seed or a ``numpy.random.Generator``. The same
        seed reproduces the same draws bit for bit under one NumPy version.
        """
        if n < 1:
            raise ValueError("sample size must be at least 1")
        gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        return gen.noncentral_chisquare(self.df, self.noncentrality, n) * self.scale


def _as_positive_array(y):
    arr = np.atleast_1d(np.asarray(y, dtype=float))
    if arr.size and not (arr.min() > 0.0 and arr.max() < math.inf):
        raise ValueError("levels must be finite and strictly positive")
    return arr, np.isscalar(y) or np.ndim(y) == 0


def _gamma_pdf(a, u):
    """Density of the unit-scale gamma law of shape ``a`` at ``u``."""
    return np.exp((a - 1.0) * np.log(u) - u - special.gammaln(a))


@lru_cache(maxsize=64)
def _poisson_block(half_df, half_nc, k_lo, k_hi):
    """Gamma shapes (a column) and Poisson(``half_nc``) weights of the indices
    ``k_lo <= k < k_hi``; cached, as the series calls on one law (the eight
    or so of its ``mass_bounds``, again for each quote on that law) read
    the same few blocks."""
    ks = np.arange(k_lo, k_hi, dtype=float)
    w = np.exp(ks * math.log(half_nc) - half_nc - special.gammaln(ks + 1.0))
    shapes = half_df + ks[:, None]
    for arr in (shapes, w):
        arr.setflags(write=False)  # shared by every caller through the cache
    return shapes, w


def _poisson_gamma_sum(half_df, half_nc, u, kernel, falls, normalized=False):
    """``sum_k P(k) kernel(half_df + k, u)`` over a Poisson(``half_nc``) index.

    ``kernel(a, u)`` maps a column of gamma shapes and the row ``u`` to one
    row of columns per shape: :func:`_gamma_pdf` or a regularized incomplete
    gamma function at the abscissae ``u``, or the power moments ``u`` of the
    gamma laws (:meth:`ChiSquareLaw.power_moments`), which may exceed 1 and
    grow with the shape. ``falls = (r_lo, r_hi)``: every column's terms fall
    going down from any index at most ``r_lo``, and going up from any index
    at least ``r_hi``. The index is walked from the Poisson mode upwards,
    then downwards, in blocks of ``_BLOCK`` terms, each summed as one
    matrix-vector product. Each direction stops where the walk is past its
    turning index and its edge term is at most ``_TERM_EPS`` of the running
    sum, or at an underflowed weight, whatever the sum: past it all terms
    are below the double range. No Poisson-mass cut truncates the tails.

    ``normalized`` divides the sum by the walked weights' own sum. Each
    weight is off by up to about ``half_nc`` ulps (1e-9 at ``half_nc``
    2.4e6), but the error is nearly common to the weights near the mode, so
    the ratio keeps a kernel that varies slowly with the shape, a moment,
    within about 3e-14.
    """
    if half_nc == 0.0:
        return kernel(np.array([[half_df]]), u)[0]
    r_lo, r_hi = falls
    total = mass = 0.0
    for up in (True, False):
        k = int(half_nc)
        while up or k > 0:
            k_lo, k_hi = (k, k + _BLOCK) if up else (max(0, k - _BLOCK), k)
            shapes, w = _poisson_block(half_df, half_nc, k_lo, k_hi)
            terms = kernel(shapes, u)
            total = total + w @ terms
            if normalized:
                mass += w.sum()
            k, edge = (k_hi, -1) if up else (k_lo, 0)
            past = k >= r_hi if up else 0 < k <= r_lo
            if w[edge] == 0.0 or past and (w[edge] * terms[edge] <= _TERM_EPS * total).all():
                break
    return total / mass if normalized else total


# shapes from which Stirling's series gives the log gamma ratio, and its
# coefficients B_2n / (2n (2n - 1)), n = 1..5
_STIRLING_FROM = 20.0
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0)


def _gamma_ratio(shapes, powers):
    """``Gamma(a + e) / Gamma(a)`` for a column of shapes ``a`` one apart
    (a :func:`_poisson_block`) and a row of powers ``e``.

    The last row is :func:`_gamma_ratio_at`; each row above it is the one
    below times ``a / (a + e)``, so no two log-gammas of size ``a log a``
    cancel. Within 6e-15 relative of 40-digit mpmath for powers from -2.7 to
    1 and shapes from 0.4 to 2.4e6. Rows with ``a + e <= 0`` may not be
    finite: :func:`_truncated_moment_kernel` does not read them.
    """
    out = np.empty((shapes.shape[0], powers.size))
    a = float(shapes[-1, 0])
    out[-1] = [_gamma_ratio_at(a, e) for e in powers.tolist()]
    head = shapes[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        np.multiply(np.cumprod((head / (head + powers))[::-1], axis=0)[::-1], out[-1],
                    out=out[:-1])
    return out


def _gamma_ratio_at(a, e):
    """``Gamma(a + e) / Gamma(a)`` at one shape: the two gamma functions below
    ``min(a, a + e) = 20``, above it Stirling's series for the log ratio,
    ``e log a + (a + e - 1/2) log1p(e / a) - e + S(a + e) - S(a)``."""
    s = a + e
    if s <= 0.0:
        return math.nan
    if min(a, s) < _STIRLING_FROM:
        return math.gamma(s) / math.gamma(a)

    def tail(x):  # S(x) = log Gamma(x) - ((x - 1/2) log x - x + log(2 pi) / 2)
        x2, acc = 1.0 / (x * x), 0.0
        for c in reversed(_STIRLING):
            acc = c + x2 * acc
        return acc / x
    return math.exp(e * math.log(a) + ((s - 0.5) * math.log1p(e / a) - e)
                    + (tail(s) - tail(a)))


def _truncated_moment_kernel(x_cuts):
    """Kernel of :meth:`ChiSquareLaw.power_moments` between consecutive
    ``x_cuts``: ``Gamma(s, x_i, x_{i+1}) / Gamma(a)`` at ``s = a + e``, one
    column per (power, interval). For ``s > 0`` it is the gamma ratio times
    ``P(s, x_{i+1}) - P(s, x_i)``, accurate relative to the value on an
    interval in the lower tail; for ``s <= 0`` (the first shapes of a power
    that diverges at the origin) the difference of :func:`_upper_gamma`."""
    def kernel(shapes, powers):
        s = shapes + powers
        with np.errstate(invalid="ignore"):  # s <= 0, overwritten below
            out = (_gamma_ratio(shapes, powers)[..., None]
                   * np.diff(special.gammainc(s[..., None], x_cuts), axis=-1))
        neg = s <= 0.0
        if neg.any():
            upper = _upper_gamma(s[neg][:, None], x_cuts)
            a = np.broadcast_to(shapes, s.shape)[neg][:, None]
            out[neg] = (upper[:, :-1] - upper[:, 1:]) / special.gamma(a)
        return out.reshape(s.shape[0], -1)
    return kernel


def _upper_gamma(s, x):
    """Unregularized ``Gamma(s, x)`` for ``s <= 0`` and ``x > 0``: from
    ``s + n`` in ``[0, 1)`` (``special.exp1`` at 0) down by ``Gamma(s, x) =
    (Gamma(s + 1, x) - x^s e^-x) / s`` (DLMF 8.8.2)."""
    n = np.ceil(-s)
    top = s + n
    with np.errstate(invalid="ignore"):  # top == 0 takes exp1
        val = np.where(top > 0.0, special.gammaincc(top, x) * special.gamma(top),
                       special.exp1(x))
    e_x = np.exp(-x)
    for step in range(1, int(n.max()) + 1):
        cur = np.where(step <= n, top - step, 1.0)  # 1.0: a row already done
        val = np.where(step <= n, (val - x ** cur * e_x) / cur, val)
    return val


@lru_cache(maxsize=64)
def _ive_table(nu):
    """Chebyshev coefficients of ``log ive(nu, .)``, ``(_DEGREE + 1, panels)``,
    and the smallest ``z`` they serve.

    Panel ``j`` covers ``2^(e-1) (1 + s / _PANELS) <= z < 2^(e-1) (1 + (s+1) /
    _PANELS)`` for ``j = (e - _OCTAVES[0]) * _PANELS + s``. One ``ive`` call
    samples every panel at its Chebyshev points; the coefficients are one
    matrix product away. At large ``nu`` the lowest panels underflow: the
    table then starts above the highest panel with a sample that is not a
    finite, normal value.
    """
    n = _DEGREE + 1
    theta = np.pi * (np.arange(n) + 0.5) / n
    to_coefs = (2.0 / n) * np.cos(np.outer(np.arange(n), theta))
    to_coefs[0] *= 0.5
    exps = np.arange(*_OCTAVES) - 1
    left = np.ldexp(1.0 + np.arange(_PANELS) / _PANELS, exps[:, None]).ravel()
    half = np.repeat(np.ldexp(0.5 / _PANELS, exps), _PANELS)
    z = left[:, None] + half[:, None] * (1.0 + np.cos(theta))
    with np.errstate(divide="ignore"):
        vals = np.log(special.ive(nu, z))
    bad = np.flatnonzero(~(vals > _LOG_TINY).all(axis=1))
    start = bad[-1] + 1 if bad.size else 0
    vals[:start] = 0.0  # never read: their z take the exact call
    z_min = left[start] if start < left.size else math.inf
    coefs = to_coefs @ vals.T
    coefs.setflags(write=False)  # shared by every caller through the cache
    return coefs, z_min


def _log_ive(nu, z):
    """``log(special.ive(nu, z))`` from the table of :func:`_ive_table`.

    Clenshaw's recurrence on each abscissa's panel coefficients. Abscissae
    from ``_Z_HANKEL`` on take :func:`_log_ive_hankel`, where ``special.ive``
    returns NaN; other abscissae outside the table, zero and NaN included,
    take ``special.ive`` itself. Every value depends on its own abscissa
    alone, not on the batch.
    """
    z = np.asarray(z, dtype=float)
    coefs, z_min = _ive_table(nu)
    mant, e = np.frexp(z)
    # panel _PANELS + s of the octave, and the position in it, in [0, 1)
    x, s = np.modf(mant * (2 * _PANELS))
    x *= 2.0
    x -= 1.0
    with np.errstate(invalid="ignore"):  # non-finite z, handled below
        j = (e * _PANELS + s).astype(np.intp)
    j -= (_OCTAVES[0] + 1) * _PANELS
    c = coefs.take(j, axis=1, mode="clip")
    x2 = x + x
    b2 = c[_DEGREE]
    b1 = x2 * b2
    b1 += c[_DEGREE - 1]
    out = c[_DEGREE - 1]  # spent row, reused as the third buffer
    for k in range(_DEGREE - 2, 0, -1):
        np.multiply(x2, b1, out=out)
        out -= b2
        out += c[k]
        b1, b2, out = out, b1, b2
    np.multiply(x, b1, out=out)
    out -= b2
    out += c[0]
    if not (z.min(initial=z_min) >= z_min and z.max(initial=0.0) < _Z_MAX):
        large = z >= _Z_HANKEL
        exact = ~((z >= z_min) & (z < _Z_MAX) | large)
        with np.errstate(divide="ignore"):
            out[exact] = np.log(special.ive(nu, z[exact]))
        out[large] = _log_ive_hankel(nu, z[large])
    return out


def _log_ive_hankel(nu, z):
    """``log ive(nu, z)`` for large ``z`` by Hankel's expansion,
    ``ive ~ (2 pi z)^(-1/2) sum_k (-1)^k a_k(nu) / z^k`` with
    ``a_k = prod_{j <= k} (4 nu^2 - (2j - 1)^2) / (k! 8^k)``, to
    ``_HANKEL_TERMS`` terms: within 1e-16 relative of the exact value from
    2^24 on, for orders up to 400. At ``z = inf`` it is the limit, ``-inf``.
    """
    mu = 4.0 * nu * nu
    term = np.ones_like(z)
    corr = np.zeros_like(z)
    for k in range(1, _HANKEL_TERMS + 1):
        term *= (2 * k - 1) ** 2 - mu
        term /= 8.0 * k * z
        corr += term
    return np.log1p(corr) - 0.5 * np.log(2.0 * math.pi * z)


def log_density(df, lam, scale, y):
    """Log-density of ``scale * ncx2(df, lam)``, laws (rows) against levels.

    ``lam`` and ``scale`` hold one law per row and ``y`` broadcasts against
    them to ``(rows, levels)``. Every row takes the exponentially scaled
    Bessel form; rows with ``lam < 1e-12`` are then overwritten with the
    central density times the first-order non-centrality factor
    ``exp(-lam / 2) (1 + lam x / (2 df))``, as the next order is below double
    precision there. The Bessel function's logarithm comes from a table
    built once per order ``nu = df / 2 - 1`` (:func:`_log_ive`): 16 panels
    per octave of ``z = sqrt(lam x)`` from 2^-10 to 2^24, each holding a
    degree-7 Chebyshev interpolant of ``log ive(nu, z)``, within 1e-13 of
    ``log(special.ive(nu, z))`` relative to ``max(1, |log ive|)``. From
    ``z = 2^29`` on, Hankel's large-argument expansion takes over, as
    ``special.ive`` returns NaN from about 2^30; elsewhere outside the table,
    for NaN ``z`` and below the panels where ``ive`` underflows,
    ``special.ive`` is called itself. Where that leaves the normal range
    (large orders, small ``z``), the central form takes over with the whole
    non-centrality factor, ``exp(-lam / 2) 0F1(; df / 2; lam x / 4)``
    (``special.hyp0f1``). Every caller goes through this one evaluation, and
    a value does not depend on the batch it comes in.
    """
    lam = np.asarray(lam, dtype=float)[:, None]
    scale = np.asarray(scale, dtype=float)[:, None]
    x = y / scale
    half_df = 0.5 * df
    nu = half_df - 1.0

    def central(x, log_x, lam):  # log of the central density times e^(-lam/2)
        return (half_df - 1.0) * log_x - 0.5 * x - half_df * _LN2 \
            - special.gammaln(half_df) - 0.5 * lam

    def bessel(x, log_x, lam):
        # -(x + lam) / 2 + z is -(sqrt(x) - sqrt(lam))^2 / 2, formed from
        # x - lam so that no terms of size lam cancel
        root_x, root_lam = np.sqrt(x), np.sqrt(lam)
        gap = (x - lam) / (root_x + root_lam)
        log_ive = _log_ive(nu, root_x * root_lam)
        logp = -0.5 * gap * gap + 0.5 * nu * (log_x - np.log(lam)) + log_ive - _LN2
        # where ive left the normal range (large orders, small z), the
        # regularized form: I_nu(z) = (z/2)^nu 0F1(; nu + 1; z^2/4) / Gamma(nu + 1)
        if log_ive.min(initial=0.0) < _LOG_TINY:
            lost = (log_ive < _LOG_TINY) & (x > 0.0) & (lam > 0.0)
            x, lam = (np.broadcast_to(v, lost.shape)[lost] for v in (x, lam))
            logp[lost] = central(x, np.log(x), lam) + np.log(special.hyp0f1(half_df, 0.25 * lam * x))
        return logp

    flat = lam[:, 0] < 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        log_x = np.log(x)
        logp = bessel(x, log_x, lam)
        if flat.any():
            logp = np.where(flat[:, None],
                            central(x, log_x, lam) + np.log1p(0.5 * lam * x / df), logp)
        return logp - np.log(scale)


def law_params(params: CirParams, t, y0):
    """``(lam, scale)`` of ``Y_t`` given ``Y_0 = y0``, broadcasting over both.

    ``lam`` is linear in ``y0``. Inputs are checked by :func:`transition_law`.
    """
    decay = np.exp(-params.alpha * t)
    growth = -np.expm1(-params.alpha * t)  # 1 - e^{-alpha t}, stable for small t
    scale = params.kappa ** 2 * growth / (4.0 * params.alpha)
    lam = 4.0 * params.alpha * decay * y0 / (params.kappa ** 2 * growth)
    return lam, scale


def transition_law(params: CirParams, t: float, y0: float) -> ChiSquareLaw:
    """Conditional law of ``Y_t`` given ``Y_0 = y0``.

    Raises ``ValueError`` when ``t`` is so extreme that the law parameters
    are not representable (e.g. the non-centrality overflows for tiny
    ``alpha * t``).
    """
    if not (np.isfinite(t) and t > 0.0):
        raise ValueError(f"horizon must be finite and positive, got {t}")
    if not (np.isfinite(y0) and y0 > 0.0):
        raise ValueError(f"initial level must be positive, got {y0}")
    with np.errstate(divide="ignore", over="ignore"):
        noncentrality, scale = map(float, law_params(params, t, y0))
    if not (scale > 0.0 and np.isfinite(scale)):
        raise ValueError(f"transition scale not representable for t={t}")
    if not np.isfinite(noncentrality):
        raise ValueError(f"non-centrality overflows for t={t}, y0={y0}")
    return ChiSquareLaw(df=params.df, noncentrality=noncentrality, scale=scale)
