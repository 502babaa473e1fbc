import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import special, stats

from vixpricer import cir
from vixpricer.cir import (_OCTAVES, _PANELS, _Z_HANKEL, _Z_MAX, ChiSquareLaw,
                           CirParams, _gamma_ratio, _ive_table, _log_ive,
                           _log_ive_hankel, log_density, transition_law)
from vixpricer.cli import load_config
from vixpricer.numerics import adaptive_gauss_kronrod


def make_params(alpha=1.0, beta=2.0, kappa=1.0, **kw):
    return CirParams(alpha=alpha, beta=beta, kappa=kappa, **kw)


class TestCirParams:
    def test_df_formula(self):
        assert make_params().df == pytest.approx(8.0)

    @pytest.mark.parametrize("bad", [
        dict(alpha=0.0), dict(beta=-1.0), dict(kappa=0.0),
        dict(alpha=float("nan")),
    ])
    def test_positivity_validation(self, bad):
        with pytest.raises(ValueError):
            make_params(**bad)

    def test_feller_is_a_constructor_error(self):
        with pytest.raises(ValueError, match="Feller"):
            make_params(beta=0.4, kappa=1.0)
        # boundary case is allowed, and the explicit opt-out works
        make_params(beta=0.5, kappa=1.0)
        make_params(beta=0.1, kappa=1.0, allow_non_feller=True)


class TestTransitionLaw:
    def test_parameterization(self):
        p = make_params()
        law = transition_law(p, 1.0, 3.0)
        decay = math.exp(-1.0)
        growth = 1.0 - decay
        assert law.df == pytest.approx(4.0 * p.beta / p.kappa**2)
        assert law.scale == pytest.approx(p.kappa**2 * growth / (4 * p.alpha))
        assert law.noncentrality == pytest.approx(
            4 * p.alpha * decay * 3.0 / (p.kappa**2 * growth))

    def test_mean_matches_closed_form(self):
        p = make_params(alpha=1.7, beta=1.9, kappa=1.3)
        for t in (1e-4, 0.1, 1.0, 10.0):
            law = transition_law(p, t, 0.7)
            assert law.mean() == pytest.approx(p.mean_at(t, 0.7), rel=1e-12)

    def test_noncentrality_vanishes_at_long_horizons(self):
        p = make_params()
        assert transition_law(p, 1e3, 5.0).noncentrality < 1e-300 * 1e10

    def test_short_horizon_mean_limit(self):
        p = make_params()
        law = transition_law(p, 1e-8, 0.9)
        assert law.mean() == pytest.approx(0.9, rel=1e-7)

    def test_mean_tower_property(self):
        p = make_params(alpha=2.2, beta=3.0, kappa=1.1)
        y0 = 1.4
        m_s = p.mean_at(0.4, y0)
        assert p.mean_at(0.9, y0) == pytest.approx(p.mean_at(0.5, m_s), rel=1e-14)

    @pytest.mark.parametrize("t,y0", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0),
                                      (1e-310, 1.0)])
    def test_rejects_degenerate_inputs(self, t, y0):
        with pytest.raises(ValueError):
            transition_law(make_params(), t, y0)


class TestDensity:
    def test_matches_independent_series_oracle(self):
        # slow high-precision Poisson-gamma summation, fixed term count
        import mpmath as mp
        mp.mp.dps = 50
        law = ChiSquareLaw(df=8.0, noncentrality=2.0, scale=0.1)
        mode_region = [0.6, 0.8, 1.0]
        for y in mode_region:
            x = mp.mpf(y) / mp.mpf("0.1")
            total = mp.mpf(0)
            for k in range(120):
                w = mp.e**mp.mpf(-1) / mp.factorial(k)
                a = mp.mpf(4) + k
                total += w * x**(a - 1) * mp.e**(-x / 2) / (2**a * mp.gamma(a))
            want = float(total / mp.mpf("0.1"))
            assert law.pdf(y) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("df,nc,scale", [
        (8.0, 2.0, 0.1), (2.7, 0.03, 0.4), (16.3, 40.0, 0.05),
        (0.8, 37.0, 0.02), (5.0, 1500.0, 0.003),
    ])
    def test_matches_scipy(self, df, nc, scale):
        law = ChiSquareLaw(df=df, noncentrality=nc, scale=scale)
        mean, sd = law.mean(), law.std()
        ys = np.linspace(max(mean - 5 * sd, 1e-6 * scale), mean + 8 * sd, 31)
        want = stats.ncx2.pdf(ys / scale, df, nc) / scale
        np.testing.assert_allclose(law.pdf(ys), want, rtol=5e-12, atol=1e-300)
        np.testing.assert_allclose(law.cdf(ys), stats.ncx2.cdf(ys / scale, df, nc),
                                   rtol=1e-10, atol=1e-14)

    def test_log_pdf_fast_path_agrees(self):
        for nc in (0.0, 1e-13, 0.5, 80.0, 4000.0):
            law = ChiSquareLaw(df=6.1, noncentrality=nc, scale=0.2)
            ys = np.geomspace(law.mean() * 1e-3, law.mean() * 8, 41)
            dens = law.pdf(ys)
            fast = np.exp(law.log_pdf(ys))
            np.testing.assert_allclose(fast, dens, rtol=1e-11, atol=1e-300)

    @pytest.mark.parametrize("lam", [1e-11, 1e-6])
    def test_large_order_small_noncentrality(self, lam):
        # df 300 at its mean: the series gives log-density -4.118; ive(149,
        # z) underflows there, so the regularized small-z form takes over
        law = ChiSquareLaw(df=300.0, noncentrality=lam, scale=1.0)
        want = math.log(law.pdf(300.0))
        assert law.log_pdf(300.0) == pytest.approx(want, rel=1e-11)
        assert log_density(300.0, [lam], [1.0], np.array([300.0]))[0, 0] == \
            pytest.approx(want, rel=1e-11)

    def test_law_rows_match_single_laws(self):
        # one call over mixed rows (central and Bessel branches) reproduces
        # each law's own evaluation bit for bit
        lam = np.array([0.0, 3.0, 1e-13, 250.0])
        scale = np.array([0.2, 0.05, 1.3, 0.01])
        ys = np.geomspace(1e-4, 40.0, 25)[None, :] * scale[:, None] * 6.0
        rows = log_density(6.1, lam, scale, ys)
        for r in range(len(lam)):
            law = ChiSquareLaw(df=6.1, noncentrality=lam[r], scale=scale[r])
            assert np.array_equal(rows[r], law.log_pdf(ys[r]))

    def test_all_central_rows_match_single_laws(self):
        # a batch of central rows only goes through the Bessel form too,
        # whose NaNs at lam = 0 the central form overwrites, silently
        lam = np.array([0.0, 1e-13])
        scale = np.array([0.2, 1.3])
        ys = np.geomspace(1e-4, 40.0, 25)[None, :] * scale[:, None] * 6.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rows = log_density(6.1, lam, scale, ys)
            for r in range(len(lam)):
                alone = log_density(6.1, lam[r:r + 1], scale[r:r + 1], ys[r])
                assert np.array_equal(rows[r], alone[0])
        assert np.isfinite(rows).all()

    def test_finite_at_bessel_arguments_past_2_30(self):
        # lam 2e9: z = sqrt(lam x) is about 2e9 within 5 sd of the mean,
        # where special.ive is NaN
        df, lam, scale = 8.0, 2e9, 0.01
        x = lam + np.array([-5.0, 0.0, 5.0]) * math.sqrt(2.0 * (df + 2.0 * lam))
        got = log_density(df, [lam], [scale], scale * x)[0]
        assert np.isfinite(got).all()
        np.testing.assert_allclose(
            got, _mpmath_log_density(df, lam, scale, scale * x), rtol=0.0,
            atol=1e-11)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(df=st.floats(0.5, 60.0), log_lam=st.floats(4.0, 9.0),
           where=st.floats(-3.0, 3.0))
    def test_large_noncentrality_matches_mpmath(self, df, log_lam, where):
        # the terms -(x + lam) / 2 and sqrt(lam x) of size lam cancel; the
        # density keeps its absolute accuracy within 3 sd of the mean
        lam, scale = 10.0 ** log_lam, 0.05
        sd = math.sqrt(2.0 * (df + 2.0 * lam))
        y = scale * np.array([lam + df + where * sd])
        np.testing.assert_allclose(log_density(df, [lam], [scale], y)[0],
                                   _mpmath_log_density(df, lam, scale, y),
                                   rtol=0.0, atol=1e-11)

    def test_deep_tail_is_zero_not_nan(self):
        law = ChiSquareLaw(df=8.0, noncentrality=2.0, scale=0.1)
        val = law.pdf(1e6)
        assert val == 0.0
        assert law.pdf(np.array([1e5, 1e6])).tolist() == [0.0, 0.0]

    def test_rejects_nonpositive_levels(self):
        law = ChiSquareLaw(df=8.0, noncentrality=2.0, scale=0.1)
        with pytest.raises(ValueError):
            law.pdf(0.0)
        with pytest.raises(ValueError):
            law.cdf(np.array([1.0, -2.0]))

    @settings(max_examples=12, deadline=None)
    @given(alpha=st.floats(0.2, 4.0), beta=st.floats(0.6, 20.0),
           kappa=st.floats(0.3, 1.0), t=st.floats(1e-4, 10.0),
           y0=st.floats(0.05, 8.0))
    def test_normalization_and_mean(self, alpha, beta, kappa, t, y0):
        p = CirParams(alpha=alpha, beta=beta, kappa=kappa)
        law = transition_law(p, t, y0)
        lo, hi = law.mass_bounds(1e-13)
        mass, _ = adaptive_gauss_kronrod(law.pdf, lo, hi, rel_tol=1e-11,
                                         max_subdivisions=400)
        assert mass == pytest.approx(1.0, abs=1e-8)
        mean, _ = adaptive_gauss_kronrod(lambda y: y * law.pdf(y), lo, hi,
                                         rel_tol=1e-11, max_subdivisions=400)
        assert mean == pytest.approx(law.mean(), rel=1e-8)

    def test_quantiles_bracket_mass(self):
        # the upper edge takes the tail mass itself, not 1 - (1 - tail):
        # that is 9.99978e-13 at 1e-12, and 1 below about 1.1e-16
        for law in (ChiSquareLaw(df=5.0, noncentrality=3.0, scale=0.2),
                    ChiSquareLaw(df=16.28, noncentrality=42.07, scale=0.091)):
            for tail in (1e-9, 1e-12, 1e-17):
                lo, hi = law.mass_bounds(tail)
                assert law.cdf(lo) == pytest.approx(tail, rel=1e-10)
                assert law.sf(hi) == pytest.approx(tail, rel=1e-10)

    @settings(max_examples=1000, deadline=None, derandomize=True,
              database=None)
    @given(df=st.floats(0.1, 60.0),
           lam=st.one_of(st.just(0.0), st.floats(0.0, 1e-12),
                         st.floats(1e-12, 2e3)),
           scale=st.floats(1e-3, 10.0), where=st.floats(-3.0, 1.0))
    @example(df=6.1, lam=0.0, scale=0.2, where=0.0)
    @example(df=0.7, lam=5e-13, scale=0.05, where=-2.0)
    # a central row far in the tail, where exp(-lam / 2) (1 + lam x / (2 df))
    # differs from 1 by more than the tolerance
    @example(df=1.0, lam=9e-13, scale=1.0, where=1.0)
    def test_log_density_matches_series(self, df, lam, scale, where):
        # levels from 1e-3 of the mean to about 30 times it, on both sides
        # of the central-row switch at lam = 1e-12
        law = ChiSquareLaw(df=df, noncentrality=lam, scale=scale)
        ys = law.mean() * np.geomspace(10.0 ** where, 10.0 ** (where + 0.5), 7)
        fast = np.exp(log_density(df, [lam], [scale], ys)[0])
        np.testing.assert_allclose(fast, law.pdf(ys), rtol=1e-11, atol=1e-300)

    @pytest.mark.parametrize("df", [0.8, 2.0, 6.1, 16.3, 60.0])
    def test_distribution_tails_match_scipy(self, df):
        # cdf and sf keep their relative accuracy from 1e-3 to 30 times the
        # mean, far into both tails, batched and one level at a time
        for lam in (0.0, 0.3, 5.0, 80.0, 1500.0, 2e4):
            law = ChiSquareLaw(df=df, noncentrality=lam, scale=0.7)
            ys = law.mean() * np.geomspace(1e-3, 30.0, 13)
            ref = (stats.ncx2(df, lam, scale=0.7) if lam
                   else stats.chi2(df, scale=0.7))
            for name in ("cdf", "sf"):
                want = getattr(ref, name)(ys)
                batch = getattr(law, name)(ys)
                single = np.array([getattr(law, name)(y) for y in ys[::3]])
                seen = want >= 1e-100
                np.testing.assert_allclose(batch[seen], want[seen], rtol=1e-9,
                                           err_msg=f"{name} lam={lam}")
                seen = seen[::3]
                np.testing.assert_allclose(single[seen], want[::3][seen],
                                           rtol=1e-9, err_msg=f"{name} lam={lam}")

    def test_deep_lower_tail_matches_mpmath(self):
        # the series summed in 40-digit mpmath arithmetic
        law = ChiSquareLaw(df=6.1, noncentrality=1500.0, scale=1.0)
        want = 2.44507526109541e-69
        assert law.cdf(0.3 * law.mean()) == pytest.approx(want, rel=1e-9, abs=0.0)


class TestQuantile:
    PROBS = (1e-14, 1e-12, 1e-9, 1e-5, 0.3, 0.5, 0.7, 1.0 - 1e-9, 1.0 - 1e-12)

    @staticmethod
    def assert_hits(law, p):
        v = law.ppf(p)
        got, want = (law.cdf(v), p) if p <= 0.5 else (law.sf(v), 1.0 - p)
        assert abs(got - want) <= 1e-10 * want, f"{law} p={p}: {got} for {want}"

    @pytest.mark.parametrize("df", [0.3, 0.8, 2.0, 6.1, 16.3, 60.0])
    def test_probability_at_the_quantile(self, df):
        # far into both tails, at every non-centrality from central to 2e4
        for lam in (0.0, 1e-13, 0.3, 5.0, 80.0, 1500.0, 2e4):
            law = ChiSquareLaw(df=df, noncentrality=lam, scale=0.7)
            for p in self.PROBS:
                self.assert_hits(law, p)

    def test_non_feller_law(self):
        cfg = load_config("fig5")
        law = transition_law(cfg.cir, cfg.contract.maturity, cfg.initial_factor())
        for p in self.PROBS:
            self.assert_hits(law, p)

    def test_upper_quantile_reads_no_level_below_the_mean(self, monkeypatch):
        # below the mean sf rounds to 1 far into the lower tail, so the
        # objective is flat there and its evaluations are wasted
        levels = []
        sf = ChiSquareLaw.sf
        monkeypatch.setattr(ChiSquareLaw, "sf",
                            lambda law, y: levels.append(y) or sf(law, y))
        law = ChiSquareLaw(df=16.28, noncentrality=42.07, scale=0.091)
        self.assert_hits(law, 1.0 - 1e-12)
        assert min(levels) >= law.mean() * (1.0 - 1e-15)

    def test_upper_quantile_from_the_mean_reads_no_level_below_it(self, monkeypatch):
        # the same without a seed, on the search from the mean
        monkeypatch.setattr(special, "chndtrix", lambda *args: math.nan)
        self.test_upper_quantile_reads_no_level_below_the_mean(monkeypatch)

    @staticmethod
    def count_series_calls(monkeypatch):
        calls = []
        series = cir._poisson_gamma_sum
        monkeypatch.setattr(cir, "_poisson_gamma_sum",
                            lambda *args: calls.append(1) or series(*args))
        return calls

    @pytest.mark.parametrize("name", ["fig1", "fig5", "fig7"])
    def test_series_calls_per_quantile(self, name, monkeypatch):
        # the support box of the adaptive route: both tails of the
        # configured tail mass, from a few hours to the maturity
        calls = self.count_series_calls(monkeypatch)
        cfg = load_config(name)
        tail = cfg.quadrature.tail_mass_cut
        for t in (1e-3, 0.01, 0.1, 0.5, cfg.contract.maturity):
            law = transition_law(cfg.cir, t, cfg.initial_factor())
            for p in (tail, 1.0 - tail):
                calls.clear()
                law.ppf(p)
                assert 0 < len(calls) <= 6, f"t={t} p={p}: {len(calls)} calls"

    def test_deep_lower_quantile(self, monkeypatch):
        # the seed sits on the quantile, where a search from the mean spent
        # one series call per decade
        calls = self.count_series_calls(monkeypatch)
        cfg = load_config("fig5")
        law = transition_law(cfg.cir, 0.5, cfg.initial_factor())
        v = law.ppf(1e-14)
        assert len(calls) <= 4
        assert abs(law.cdf(v) - 1e-14) <= 1e-10 * 1e-14

    def test_near_expiry_box(self, monkeypatch):
        # noncentrality 4.8e6, where each series call sums thousands of terms
        calls = self.count_series_calls(monkeypatch)
        cfg = load_config("fig1")
        law = transition_law(cfg.cir, 1e-6, cfg.initial_factor())
        assert law.noncentrality > 4e6
        lo, hi = law.mass_bounds(cfg.quadrature.tail_mass_cut)
        assert len(calls) <= 16
        assert lo < law.mean() < hi

    LAWS = ((0.3, 5.0), (2.0, 0.3), (6.1, 80.0), (16.3, 2e4))

    @pytest.mark.parametrize("seed", [math.nan, math.inf, 2.0])
    def test_fallback_from_the_mean(self, seed, monkeypatch):
        # a seed that is not finite, or twice the quantile (beyond the seed's
        # few steps), leaves the search from the mean: the same quantiles
        want = [(law.ppf(1e-9), law.ppf(0.7), law.mass_bounds(1e-12))
                for law in (ChiSquareLaw(df, lam, 0.7) for df, lam in self.LAWS)]
        chndtrix = special.chndtrix
        monkeypatch.setattr(special, "chndtrix", (lambda *args: seed * chndtrix(*args))
                            if math.isfinite(seed) else (lambda *args: seed))
        levels = []
        mean = ChiSquareLaw.mean
        monkeypatch.setattr(ChiSquareLaw, "mean",
                            lambda law: levels.append(1) or mean(law))
        for (df, lam), (lower, upper, box) in zip(self.LAWS, want):
            law = ChiSquareLaw(df, lam, 0.7)
            levels.clear()
            got = (law.ppf(1e-9), law.ppf(0.7), law.mass_bounds(1e-12))
            assert len(levels) == 4  # every solve fell back to the mean
            for a, b in zip((lower, upper, *box), (got[0], got[1], *got[2])):
                assert abs(math.log(a / b)) <= cir._PPF_TOL, (df, lam, a, b)

    @pytest.mark.parametrize("df, lam", LAWS)
    def test_box_at_a_tail_beyond_the_seed(self, df, lam):
        # chndtrix(1 - 1e-17) is inf, as 1 - 1e-17 rounds to 1: the upper
        # edge is sought from the mean, the lower one from its seed
        assert special.chndtrix(1.0 - 1e-17, df, lam) == math.inf
        law = ChiSquareLaw(df, lam, 0.7)
        lo, hi = law.mass_bounds(1e-17)
        assert abs(law.cdf(lo) - 1e-17) <= 1e-10 * 1e-17
        assert abs(law.sf(hi) - 1e-17) <= 1e-10 * 1e-17


def _mpmath_log_density(df, lam, scale, y):
    """Log-density of ``scale * ncx2(df, lam)`` at levels ``y`` in 60-digit
    arithmetic, from the Bessel-function form, at the rounded ``y / scale``
    that :func:`log_density` itself forms."""
    import mpmath as mp
    xs = np.asarray(y, dtype=float) / scale
    with mp.workdps(60):
        lam, nu = mp.mpf(lam), mp.mpf(df) / 2 - 1
        return [float(-(x + lam) / 2 + nu / 2 * mp.log(x / lam)
                      + mp.log(mp.besseli(nu, mp.sqrt(lam * x)))
                      - mp.log(2) - mp.log(scale)) for x in map(mp.mpf, xs)]


def _exact_log_ive(nu, z):
    with np.errstate(divide="ignore"):
        return np.log(special.ive(nu, z))


def _mpmath_log_ive(nu, z):
    """``log ive(nu, z)`` in 40-digit arithmetic, at finite positive ``z``."""
    import mpmath as mp
    with mp.workdps(40):
        return np.array([float(mp.log(mp.besseli(nu, v)) - mp.mpf(v))
                         for v in np.atleast_1d(z)])


class TestLogIve:
    """The tabulated ``log ive`` against ``np.log(special.ive)``."""

    ORDERS = (-0.95, -0.59, 0.0, 0.36, 1.0, 3.0, 7.138, 25.0, 60.0, 120.0)

    @staticmethod
    def assert_close(nu, z):
        got, want = _log_ive(nu, z), _exact_log_ive(nu, z)
        assert not np.isnan(got[~np.isnan(z)]).any()
        # special.ive is NaN from about 2^30 on: there, every 25th abscissa
        # is held to mpmath instead
        lost = np.isnan(want) & (z < np.inf)
        assert (z[lost] >= _Z_HANKEL).all()
        sample = np.flatnonzero(lost)[::25]
        want[sample] = _mpmath_log_ive(nu, z[sample])
        keep = ~lost
        keep[sample] = True
        got, want = got[keep], want[keep]
        fin = np.isfinite(want)
        # non-finite values come from the exact call, bit for bit
        np.testing.assert_array_equal(got[~fin], want[~fin])
        gap = np.abs(got[fin] - want[fin])
        assert np.all(gap <= 1e-13 * np.maximum(1.0, np.abs(want[fin])))
        return got, want

    @pytest.mark.parametrize("nu", ORDERS)
    def test_matches_exact_call(self, nu):
        self.assert_close(nu, np.geomspace(1e-8, 1e12, 20_001))

    @pytest.mark.parametrize("nu", (-0.59, 0.36, 7.138, 60.0))
    def test_panel_edges(self, nu):
        octaves = np.arange(_OCTAVES[0] - 1, _OCTAVES[1] - 1)
        edges = np.ldexp(1.0 + np.arange(_PANELS) / _PANELS, octaves[:, None]).ravel()
        edges = np.append(edges, _Z_MAX)
        for z in (edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)):
            self.assert_close(nu, z)

    @pytest.mark.parametrize("nu", (-0.59, 0.0, 7.138))
    def test_outside_the_table_is_the_exact_call(self, nu):
        z_min = _ive_table(nu)[1]
        z = np.array([0.0, 5e-324, 1e-300, 1e-8, np.nextafter(z_min, 0.0), _Z_MAX,
                      1e8, np.nextafter(_Z_HANKEL, 0.0), np.nan])
        np.testing.assert_array_equal(_log_ive(nu, z), _exact_log_ive(nu, z))
        # where special.ive is NaN, Hankel's expansion against mpmath, and
        # its limit at infinity
        z = np.array([2.0 ** 31, 1e12, np.inf])
        assert np.isnan(_exact_log_ive(nu, z)).all()
        got = _log_ive(nu, z)
        np.testing.assert_allclose(got[:-1], _mpmath_log_ive(nu, z[:-1]), rtol=1e-15)
        assert got[-1] == -np.inf

    @pytest.mark.parametrize("nu", (-0.95, -0.6, 0.0, 3.0, 25.0, 200.0))
    def test_large_argument_expansion(self, nu):
        # within 4e-16 of mpmath from 2^24 on; it takes over at 2^29, where
        # the exact call is as close
        z = np.geomspace(2.0 ** 24, 1e12, 25)
        np.testing.assert_allclose(_log_ive_hankel(nu, z), _mpmath_log_ive(nu, z),
                                   rtol=4e-16)
        z = np.array([np.nextafter(_Z_HANKEL, 0.0), _Z_HANKEL])
        got = _log_ive(nu, z)
        assert got[0] == _exact_log_ive(nu, z[0])
        assert got[1] == _log_ive_hankel(nu, z[1:])[0]
        np.testing.assert_allclose(got[1], got[0], rtol=1e-15)

    def test_large_order_underflow(self):
        # at nu = 120 the low panels underflow; the table starts above them
        z_min = _ive_table(120.0)[1]
        assert z_min > math.ldexp(1.0, _OCTAVES[0] - 1)
        z = np.geomspace(1e-8, 1e3, 5_001)
        got, want = self.assert_close(120.0, z)
        assert np.isneginf(want).any()
        assert not np.isnan(got).any()
        low = z < z_min
        np.testing.assert_array_equal(got[low], want[low])

    def test_value_does_not_depend_on_the_batch(self):
        z = np.exp(np.random.default_rng(5).uniform(-12.0, 20.0, 50_000))
        z[::997] = np.inf
        batch = _log_ive(3.3, z)
        block = _log_ive(3.3, z.reshape(250, 200)).ravel()
        np.testing.assert_array_equal(block, batch)
        for i in range(0, z.size, 2_503):
            np.testing.assert_array_equal(_log_ive(3.3, z[i:i + 1]), batch[i:i + 1])


def _mpmath_moment(law, power):
    """``E[Y^power]`` in 40-digit arithmetic, from Kummer's function:
    ``(2 scale)^e Gamma(df/2 + e) / Gamma(df/2) M(-e, df/2, -lam/2)``."""
    import mpmath as mp
    with mp.workdps(40):
        hd, e = mp.mpf(law.df) / 2, mp.mpf(power)
        return float((2 * mp.mpf(law.scale)) ** e * mp.gamma(hd + e) / mp.gamma(hd)
                     * mp.hyp1f1(-e, hd, -mp.mpf(law.noncentrality) / 2))


class TestPowerMoments:
    POWERS = (-2.7, -1.2, -0.75, 0.3, 0.5, 1.0)

    @pytest.mark.parametrize("first", [0.05, 0.408, 8.14, 15.5, 3200.4, 2.4e6])
    def test_gamma_ratio_block(self, first):
        # a block of 32 shapes one apart, from its last row upwards
        import mpmath as mp
        shapes = (first + np.arange(32.0))[:, None]
        got = _gamma_ratio(shapes, np.array(self.POWERS))
        with mp.workdps(40):
            for j in (0, 7, 31):
                for i, e in enumerate(self.POWERS):
                    a = mp.mpf(shapes[j, 0])
                    if a + e > 0:
                        want = mp.gamma(a + e) / mp.gamma(a)
                        assert abs(got[j, i] / want - 1) <= 1e-14, (j, e)

    @pytest.mark.parametrize("df, lam", [(8.0, 0.0), (2.72, 0.3), (16.3, 54.0),
                                         (0.816, 37.0), (6.1, 4.8e4)])
    def test_whole_line_matches_kummer(self, df, lam):
        law = ChiSquareLaw(df, lam, 0.07)
        powers = [e for e in self.POWERS if df / 2 + e > 0] + [0.0]
        got = law.power_moments(powers)[0]
        assert got[-1] == pytest.approx(1.0, rel=1e-15)
        for e, v in zip(powers, got):
            assert v == pytest.approx(_mpmath_moment(law, e), rel=1e-13, abs=0.0)

    def test_intervals_add_up_to_the_whole_line(self):
        law = ChiSquareLaw(6.1, 12.0, 0.2)
        cuts = (0.0, 0.5, 1.5, 2.0, 4.0, math.inf)
        parts = law.power_moments([-1.0, 0.0, 1.0], cuts)
        assert parts.shape == (5, 3)
        np.testing.assert_allclose(parts.sum(axis=0), law.power_moments([-1.0, 0.0, 1.0])[0],
                                   rtol=1e-14)
        # the zeroth moment between cuts is the probability there
        np.testing.assert_allclose(parts[1:-1, 1], np.diff(law.cdf(np.array(cuts[1:-1]))),
                                   rtol=1e-13)

    def test_divergent_power_from_the_origin_raises(self):
        law = ChiSquareLaw(0.816, 37.0, 0.02)  # df/2 - 0.75 < 0
        with pytest.raises(ValueError, match="diverges"):
            law.power_moments([-0.75, 1.0])
        with pytest.raises(ValueError, match="diverges"):
            law.power_moments([-0.75], (0.0, 1.0))

    @pytest.mark.parametrize("df, power", [(0.816, -0.75), (0.5, -2.3), (1.5, -0.75)])
    def test_divergent_power_away_from_the_origin(self, df, power):
        # the first shapes have a + e <= 0 (a pole, a + e = 0, at df 1.5):
        # the upper incomplete gamma function stepped down from (0, 1]
        import mpmath as mp
        law = ChiSquareLaw(df, 3.0, 0.5)
        lo, hi = 1e-3, 4.0
        got = law.power_moments([power], (lo, hi))[0, 0]
        with mp.workdps(40):
            hd, hn, two = mp.mpf(df) / 2, mp.mpf(1.5), mp.mpf(1)
            want = sum(mp.exp(-hn) * hn ** k / mp.factorial(k)
                       * mp.gammainc(hd + k + power, lo / two, hi / two) / mp.gamma(hd + k)
                       for k in range(80))
        assert got == pytest.approx(float(want), rel=1e-13)

    @pytest.mark.parametrize("powers, cuts", [
        ([-1.0, 0.0], (2.0, 1.0)),            # falling cuts hung the walk
        ([-1.0, 0.0], (1.0, 1.0)),
        ([-1.0, 0.0], (-1.0, 1.0)),
        ([-1.0, 0.0], (0.0, math.nan)),
        ([-1.0, 0.0], (math.nan, 1.0)),
        ([-1.0, 0.0], (0.5, math.inf, 4.0)),
        ([math.nan, 0.0], (0.5, 1.0)),
        ([math.inf], (0.5, 1.0)),
    ])
    def test_rejects_bad_powers_and_cuts(self, powers, cuts):
        with pytest.raises(ValueError, match="powers must be finite"):
            ChiSquareLaw(8.0, 20.0, 0.1).power_moments(powers, cuts)

    def test_walk_stops_at_an_underflowed_weight_whatever_the_sum(self):
        # a negative column never meets the relative stop test, so the walk
        # up must end where the Poisson weights underflow
        got = cir._poisson_gamma_sum(4.0, 10.0, np.zeros(1),
                                     lambda shapes, u: -np.ones((shapes.shape[0], 1)),
                                     (0.0, 0.0))
        assert got[0] == pytest.approx(-1.0, rel=1e-13)


MOMENT_LAW = ChiSquareLaw(df=6.5, noncentrality=4.2, scale=0.3)


class TestMoments:
    @pytest.fixture
    def law(self):
        return MOMENT_LAW

    def test_first_central_moment_is_zero(self, law):
        assert law.central_moment(1) == 0.0

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_central_moments_match_numeric_integration(self, law, k):
        lo, hi = law.mass_bounds(1e-14)
        mean = law.mean()
        want, _ = adaptive_gauss_kronrod(
            lambda y: (y - mean) ** k * law.pdf(y), lo, hi, rel_tol=1e-12,
            max_subdivisions=400)
        assert law.central_moment(k) == pytest.approx(want, rel=1e-7)

    def test_second_third_closed_forms(self, law):
        d, l, c = law.df, law.noncentrality, law.scale
        assert law.central_moment(2) == pytest.approx(c**2 * 2 * (d + 2 * l))
        assert law.central_moment(3) == pytest.approx(c**3 * 8 * (d + 3 * l))

    def test_unsupported_order(self, law):
        with pytest.raises(ValueError):
            law.central_moment(5)


class TestSampling:
    def test_mean_within_four_standard_errors(self):
        law = ChiSquareLaw(df=8.0, noncentrality=3.0, scale=0.25)
        n = 10**6
        draws = law.sample(n, 123)
        se = draws.std(ddof=1) / math.sqrt(n)
        assert abs(draws.mean() - law.mean()) < 4 * se

    def test_all_samples_positive(self):
        law = ChiSquareLaw(df=0.9, noncentrality=0.1, scale=0.1)
        assert (law.sample(200_000, 7) > 0).all()

    def test_bit_reproducible(self):
        law = ChiSquareLaw(df=4.0, noncentrality=1.0, scale=0.5)
        a = law.sample(1000, 99)
        b = law.sample(1000, 99)
        assert (a == b).all()
        assert not (a == law.sample(1000, 100)).all()

    def test_kolmogorov_smirnov_against_numeric_cdf(self):
        law = ChiSquareLaw(df=7.3, noncentrality=2.4, scale=0.15)
        n = 10**5
        draws = np.sort(law.sample(n, 2024))
        cdf = law.cdf(draws)
        grid = np.arange(1, n + 1) / n
        d_stat = max(np.max(grid - cdf), np.max(cdf - (grid - 1.0 / n)))
        critical_1pct = 1.6276 / math.sqrt(n)
        assert d_stat < critical_1pct

    # NumPy draws (Z + sqrt(lam))**2 + chi2(df - 1) for df > 1 and the
    # Poisson-gamma mixture for df <= 1: fig5's df takes the second branch,
    # df 2.72 a chi2(df - 1) of gamma shape below 1, (8, 398) and (16.3, 469)
    # are fig7 and fig1 policy steps
    @pytest.mark.parametrize("df, noncentrality", [
        (0.816, 5.72), (1.3, 0.7), (2.72, 0.126), (2.72, 78.8), (8.0, 398.0),
        (16.3, 469.0), (16.3, 0.0)])
    def test_draws_follow_the_law_on_both_branches(self, df, noncentrality):
        # Kolmogorov-Smirnov distance on 256 sample quantiles: a supremum
        # over a grid is at most the full statistic, so the 0.1 % critical
        # value still holds
        law = ChiSquareLaw(df=df, noncentrality=noncentrality, scale=0.2)
        n = 10**5
        draws = np.sort(law.sample(n, 2024))
        levels = np.quantile(draws, (np.arange(256) + 0.5) / 256)
        empirical = np.searchsorted(draws, levels, side="right") / n
        d_stat = np.max(np.abs(empirical - law.cdf(levels)))
        assert d_stat < 1.9495 / math.sqrt(n)

    @pytest.mark.parametrize("noncentrality", [0.0, 0.7, 45.0])
    def test_per_draw_noncentrality_reproduces_the_law(self, noncentrality):
        # df 0.8 takes NumPy's Poisson-gamma branch, 1.3 and 16.3 the other
        for df in (0.8, 1.3, 16.3):
            law = ChiSquareLaw(df=df, noncentrality=noncentrality, scale=0.2)
            gen_law, gen_std = np.random.default_rng(17), np.random.default_rng(17)
            want = law.sample(500, gen_law)
            got = gen_std.noncentral_chisquare(law.df, np.full(500, noncentrality)) * law.scale
            np.testing.assert_array_equal(got, want)
            # both generators stand at the same state afterwards
            assert gen_law.random() == gen_std.random()

    def test_rejects_empty_sample(self):
        law = ChiSquareLaw(df=4.0, noncentrality=1.0, scale=0.5)
        with pytest.raises(ValueError):
            law.sample(0, 1)
