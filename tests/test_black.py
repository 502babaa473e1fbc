import math
import warnings

import numpy as np
import pytest
from scipy import stats

from vixpricer.black import SkewPoint, black_call, implied_vol, skew_curve
from vixpricer.cir import ChiSquareLaw, CirParams
from vixpricer.cli import load_config
from vixpricer.european import (DEFAULT_CONFIG, OptionSpec, european_price,
                                futures_price)
from vixpricer.models import ModelSpec
from vixpricer.numerics import ConvergenceError


class TestBlackCall:
    def test_at_the_money_value(self):
        # F = K, sigma sqrt(T) = 0.2, r = 0: price/F = Phi(0.1) - Phi(-0.1)
        price = black_call(1.0, 1.0, 1.0, 0.0, 0.2)
        want = stats.norm.cdf(0.1) - stats.norm.cdf(-0.1)
        assert price == pytest.approx(want, rel=1e-12)
        assert price == pytest.approx(0.0797, abs=5e-5)

    @pytest.mark.parametrize("sigma", [1e-12, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6])
    def test_at_the_money_small_vols_match_mpmath(self, sigma):
        # F N(d1) - K N(d2) at F = K cancels two halves: 4.1e-5 off at 1e-12
        import mpmath as mp
        with mp.workdps(50):
            vol = mp.mpf(sigma) * mp.sqrt(mp.mpf(0.5))
            want = mp.exp(-mp.mpf(0.05) * mp.mpf(0.5)) * mp.mpf(0.2) * (
                mp.ncdf(vol / 2) - mp.ncdf(-vol / 2))
        got = black_call(0.2, 0.2, 0.5, 0.05, sigma)
        assert abs(got / float(want) - 1.0) <= 1e-14

    def test_time_value_on_both_sides_matches_mpmath(self):
        import mpmath as mp
        for F, K, sigma in ((0.25, 0.2, 0.3), (0.2, 0.25, 0.3), (0.2, 0.2001, 0.01),
                            (0.2001, 0.2, 0.01), (0.2, 0.298, 0.5)):
            with mp.workdps(50):
                Fm, Km, v = mp.mpf(F), mp.mpf(K), mp.mpf(sigma)
                d1 = (mp.log(Fm / Km) + v * v / 2) / v
                want = mp.exp(-mp.mpf(0.05)) * (Fm * mp.ncdf(d1) - Km * mp.ncdf(d1 - v))
            assert black_call(F, K, 1.0, 0.05, sigma) == pytest.approx(float(want), rel=1e-14)

    def test_vanishing_vol_limit(self):
        intrinsic = math.exp(-0.03) * 0.05
        assert black_call(0.25, 0.20, 1.0, 0.03, 1e-8) == \
            pytest.approx(intrinsic, rel=1e-10)

    def test_increasing_in_vol(self):
        prices = [black_call(0.2, 0.22, 0.5, 0.02, s)
                  for s in (0.1, 0.3, 0.6, 1.2, 2.5)]
        assert all(a < b for a, b in zip(prices, prices[1:]))

    def test_static_bounds(self):
        price = black_call(0.2, 0.15, 1.0, 0.05, 0.8)
        disc = math.exp(-0.05)
        assert disc * 0.05 < price < disc * 0.2

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            black_call(0.0, 0.2, 1.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            black_call(0.2, 0.2, 1.0, 0.0, 0.0)
        # non-finite inputs raise instead of pricing NaN
        good = (0.2, 0.2, 1.0, 0.05, 0.5)
        for i in range(5):
            with pytest.raises(ValueError):
                black_call(*good[:i], math.nan, *good[i + 1:])
        with pytest.raises(ValueError):
            black_call(0.2, 0.2, math.inf, 0.05, 0.5)


# at-the-money prices (F = K, T = 1) whose vols lie far from 1: the price,
# F, r and the vol to 1e-3
FAR_VOLS = [(math.exp(-0.05) * 0.2 * (1.0 - 1e-8), 0.2, 0.05, 11.46),
            (1e-7, 1.0, 0.0, 2.5066e-7)]


class TestImpliedVol:
    def test_roundtrip(self):
        price = black_call(0.22, 0.25, 0.75, 0.04, 0.8)
        assert implied_vol(price, 0.22, 0.25, 0.75, 0.04) == \
            pytest.approx(0.8, abs=1e-8)

    def test_many_random_roundtrips(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            F = rng.uniform(0.05, 0.6)
            K = F * math.exp(rng.uniform(-0.5, 0.5))
            T = rng.uniform(0.05, 2.0)
            r = rng.uniform(0.0, 0.08)
            sigma = rng.uniform(0.05, 2.2)
            price = black_call(F, K, T, r, sigma)
            disc = math.exp(-r * T)
            if not disc * max(F - K, 0.0) < price < disc * F:
                continue  # numerically pinned to a band edge
            back = implied_vol(price, F, K, T, r)
            redone = black_call(F, K, T, r, back)
            assert abs(redone - price) <= 1e-10

    @pytest.mark.parametrize("price,F,r,want", FAR_VOLS,
                             ids=["above-10", "below-1e-6"])
    def test_vols_far_from_one_reprice(self, price, F, r, want):
        # at the money, T = 1: no floor or cap stands between a price
        # inside the band and the vol that reprices it
        vol = implied_vol(price, F, F, 1.0, r)
        assert vol == pytest.approx(want, rel=1e-3)
        assert black_call(F, F, 1.0, r, vol) == pytest.approx(price, rel=1e-9)

    def test_numpy_scalar_inputs_raise_no_warning(self):
        F, K, T, r, sigma = map(np.float64, (
            0.46449809045616314, 0.31260534121206357, 1.2663857904704,
            0.05721522372316213, 0.9755953593077494))
        price = black_call(F, K, T, r, sigma)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = implied_vol(price, F, K, T, r)
        assert back == pytest.approx(sigma, rel=1e-12)

    def test_deep_out_of_the_money_converges(self):
        # the vega falls off so fast below the root that plain Newton
        # steps creep towards it from above
        F, K, T, r, sigma = (0.4073420869915338, 0.5975054222489732,
                             0.14730117171761803, 0.029658040189968107,
                             0.05097688147947135)
        price = black_call(F, K, T, r, sigma)
        assert price < 1e-88
        assert implied_vol(price, F, K, T, r) == pytest.approx(sigma, rel=1e-12)

    @pytest.mark.parametrize("price,F,r,want", [
        (black_call(1.0, 1.0, 1.0, 0.0, 0.8), 1.0, 0.0, 0.8), *FAR_VOLS],
        ids=["near-one", "above-10", "below-1e-6"])
    def test_search_starts_at_one_and_prices_no_vol_twice(
            self, monkeypatch, price, F, r, want):
        from vixpricer import black
        sigmas = []

        def counted(F, K, T, r, sigma):
            sigmas.append(sigma)
            return black_call(F, K, T, r, sigma)

        monkeypatch.setattr(black, "black_call", counted)
        assert implied_vol(price, F, F, 1.0, r) == pytest.approx(want, rel=1e-3)
        assert sigmas[0] == 1.0
        assert len(set(sigmas)) == len(sigmas)

    def test_band_edges_rejected(self):
        disc = math.exp(-0.05)
        with pytest.raises(ValueError):
            implied_vol(disc * 0.05, 0.2, 0.15, 1.0, 0.05)
        with pytest.raises(ValueError):
            implied_vol(disc * 0.2, 0.2, 0.15, 1.0, 0.05)
        with pytest.raises(ValueError):
            implied_vol(0.0, 0.2, 0.25, 1.0, 0.05)


class TestSkewCurve:
    @pytest.fixture
    def curve_inputs(self):
        m = ModelSpec("a1", terms=((1.0, 1.0),))
        p = CirParams(2.94, 17.10, 2.05)
        return m, p, np.linspace(-0.2, 0.2, 7)

    def test_deterministic_and_grid_order_independent(self, curve_inputs):
        m, p, grid = curve_inputs
        a = skew_curve(m, p, 0.5, 0.05, 0.2, grid)
        b = skew_curve(m, p, 0.5, 0.05, 0.2, grid)
        assert a == b
        rev = skew_curve(m, p, 0.5, 0.05, 0.2, grid[::-1])
        assert list(reversed(rev)) == a

    def test_positive_skew_for_reciprocal_family(self, curve_inputs):
        m, p, grid = curve_inputs
        pts = skew_curve(m, p, 0.5, 0.05, 0.2, grid)
        vols = np.array([q.implied_vol for q in pts])
        slope = np.polyfit(grid, vols, 1)[0]
        assert slope > 0.0

    def test_low_vol_of_vol_is_flat_and_low(self):
        m = ModelSpec("a2", terms=((1.0, 1.0),))
        p = CirParams(3.0, 0.68, 0.05)
        grid = np.linspace(-0.05, 0.05, 5)
        pts = skew_curve(m, p, 0.5, 0.05, 0.22, grid)
        vols = np.array([q.implied_vol for q in pts])
        assert np.nanmax(vols) < 0.1
        assert np.nanmax(vols) - np.nanmin(vols) < 0.02

    @pytest.mark.parametrize("m,p,state", [
        (ModelSpec("a1", terms=((1.0, 1.0),)), CirParams(2.94, 17.10, 2.05), 0.2),
        (ModelSpec("a2", terms=((1.0, 1.0),)), CirParams(3.0, 0.68, 1.0), 0.2),
        (ModelSpec("mixture", terms=((0.07, 1.0),), terms_a2=((0.07, 1.0),)),
         CirParams(1.0, 2.0, 1.0), 1.2),
    ])
    def test_one_support_box_per_curve(self, m, p, state, monkeypatch):
        # the futures level and every strike share one law and one box, and
        # price as the one-contract functions do, bit for bit
        grid = np.linspace(-0.3, 0.3, 7)
        calls = []
        mass_bounds = ChiSquareLaw.mass_bounds
        monkeypatch.setattr(ChiSquareLaw, "mass_bounds",
                            lambda law, tail: calls.append(law) or mass_bounds(law, tail))
        pts = skew_curve(m, p, 0.5, 0.05, state, grid)
        assert len(calls) == 1
        fut = futures_price(m, p, 0.5, state)
        for mny, pt in zip(grid, pts):
            strike = fut * math.exp(mny)
            price = european_price(m, p, OptionSpec(strike, 0.5, 0.05), 0.0, state)
            time_value = price - math.exp(-0.05 * 0.5) * max(fut - strike, 0.0)
            try:
                want = (implied_vol(price, fut, strike, 0.5, 0.05)
                        if time_value > DEFAULT_CONFIG.rel_tol * price else math.nan)
            except ValueError:
                want = math.nan
            assert pt.implied_vol == want or math.isnan(pt.implied_vol) and math.isnan(want)

    def test_unbracketed_vol_is_nan(self, curve_inputs, monkeypatch):
        from vixpricer import black

        def unbracketed(*args):
            raise ConvergenceError("no sign change found")

        monkeypatch.setattr(black, "implied_vol", unbracketed)
        m, p, grid = curve_inputs
        pts = skew_curve(m, p, 0.5, 0.05, 0.2, grid)
        assert all(math.isnan(q.implied_vol) for q in pts)

    def test_rounding_level_time_value_has_no_vol(self):
        # fig7's strike at log-moneyness -0.2, 0.124, lies below the map
        # minimum 0.14: the call is in the money at every level and priced
        # at its discounted forward payoff, so its time value is 0 and it
        # has no vol
        cfg = load_config("fig7")
        pts = skew_curve(cfg.model, cfg.cir, 0.2, cfg.contract.rate,
                         cfg.initial_state(), (-0.2, 0.1), cfg.quadrature)
        assert math.isnan(pts[0].implied_vol)
        assert math.isfinite(pts[1].implied_vol)

    def test_forward_priced_point_has_no_vol(self):
        # the CLI's skew check: -0.6 on fig7 at 0.5 y strikes below 0.14
        cfg = load_config("fig7")
        fut = futures_price(cfg.model, cfg.cir, 0.5, cfg.initial_state())
        assert fut * math.exp(-0.6) < 0.14
        pts = skew_curve(cfg.model, cfg.cir, 0.5, cfg.contract.rate,
                         cfg.initial_state(), (-0.6, 0.0), cfg.quadrature)
        assert math.isnan(pts[0].implied_vol)
        assert math.isfinite(pts[1].implied_vol)

    def test_points_carry_moneyness(self, curve_inputs):
        m, p, grid = curve_inputs
        pts = skew_curve(m, p, 0.5, 0.05, 0.2, grid)
        assert [q.moneyness for q in pts] == list(grid)
        assert isinstance(pts[0], SkewPoint)


def _sequential_outcome(m, p, T, r, state, grid, config):
    """The first error of pricing the forward and then the grid's calls one
    after another, as ``(type, message)``, or None."""
    try:
        fut = futures_price(m, p, T, state, config)
        for mny in grid:
            european_price(m, p, OptionSpec(fut * math.exp(mny), T, r), 0.0, state, config)
    except Exception as exc:
        return type(exc), str(exc)
    return None


class TestSkewLadder:
    """A skew prices its strikes as one ladder: one adaptive run and one
    origin moment series, each price bit for bit its own."""

    GRID = np.linspace(-0.3, 0.3, 7)

    @staticmethod
    def _counted(monkeypatch, owner, name):
        calls = []
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda *a, **k: calls.append(a) or fn(*a, **k))
        return calls

    def test_one_origin_series_besides_the_forward(self, monkeypatch):
        # fig1's map falls like 1/y, so every strike's region from the box's
        # lower edge has an origin piece; the ladder takes it from one walk
        cfg = load_config("fig1")
        moments = self._counted(monkeypatch, ChiSquareLaw, "power_moments")
        pts = skew_curve(cfg.model, cfg.cir, 0.5, cfg.contract.rate, cfg.initial_state(),
                         self.GRID, cfg.quadrature)
        assert all(math.isfinite(pt.implied_vol) for pt in pts)
        assert len(moments) == 2
        fut = futures_price(cfg.model, cfg.cir, 0.5, cfg.initial_state(), cfg.quadrature)
        moments.clear()
        european_price(cfg.model, cfg.cir, OptionSpec(fut, 0.5, cfg.contract.rate), 0.0,
                       cfg.initial_state(), cfg.quadrature)
        assert len(moments) == 1  # the origin piece of one strike alone

    @pytest.mark.parametrize("name, T", [("fig1", 0.5), ("fig2", 0.5), ("fig7", 0.5),
                                         ("fig1_mix", 1.0)])
    def test_log_pdf_calls_are_the_slowest_strikes_passes(self, name, T, monkeypatch):
        cfg = load_config(name)
        m, p, r, state, quad = (cfg.model, cfg.cir, cfg.contract.rate, cfg.initial_state(),
                                cfg.quadrature)
        grid = (0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3) if name == "fig7" else self.GRID
        fut = futures_price(m, p, T, state, quad)
        density = self._counted(monkeypatch, ChiSquareLaw, "log_pdf")
        alone = []
        for mny in grid:
            density.clear()
            european_price(m, p, OptionSpec(fut * math.exp(mny), T, r), 0.0, state, quad)
            alone.append(len(density))
        density.clear()
        skew_curve(m, p, T, r, state, grid, quad)
        assert len(density) == max(alone) < sum(alone)

    @pytest.mark.parametrize("fail", [(4,), (2, 4), (4, 2), (1, 3, 5)])
    def test_errors_keep_their_order(self, fail, monkeypatch):
        # the first listed strike's integrand is NaN (its quadrature cannot
        # converge), the others' origin checks raise; the ladder raises what
        # the first failing strike in grid order raises alone
        from vixpricer import european
        cfg = load_config("fig1")
        m, p, r, state, quad = (cfg.model, cfg.cir, cfg.contract.rate, cfg.initial_state(),
                                cfg.quadrature)
        fut = futures_price(m, p, 0.5, state, quad)
        strikes = [fut * math.exp(mny) for mny in self.GRID]
        nan_const, raising = -strikes[fail[0]], {strikes[i] for i in fail[1:]}
        power_sum, check = european._power_sum, european._check_origin

        def nan_row(terms, y, const=0.0):
            out = power_sum(terms, y, const)
            return np.where(np.asarray(const) == nan_const, np.nan, out)

        def forced(piece, total, floor, cutoff, config):
            if floor in raising:
                raise european.DivergentIntegralError(f"forced at strike {floor!r}")
            check(piece, total, floor, cutoff, config)

        monkeypatch.setattr(european, "_power_sum", nan_row)
        monkeypatch.setattr(european, "_check_origin", forced)
        want = _sequential_outcome(m, p, 0.5, r, state, self.GRID, quad)
        assert want is not None
        with pytest.raises(want[0]) as got:
            skew_curve(m, p, 0.5, r, state, self.GRID, quad)
        assert (type(got.value), str(got.value)) == want

    def test_fig5_at_045_y_raises_divergent(self):
        # fig5's forward and calls diverge at the origin from about 0.38 y
        from vixpricer.european import DivergentIntegralError
        cfg = load_config("fig5")
        m, p, r, state, quad = (cfg.model, cfg.cir, cfg.contract.rate, cfg.initial_state(),
                                cfg.quadrature)
        grid = [round(-0.3 + 0.05 * i, 10) for i in range(13)]  # the CLI's
        want = _sequential_outcome(m, p, 0.45, r, state, grid, quad)
        assert want is not None and want[0] is DivergentIntegralError
        with pytest.raises(DivergentIntegralError) as got:
            skew_curve(m, p, 0.45, r, state, grid, quad)
        assert str(got.value) == want[1]
