import math
import warnings

import numpy as np
import pytest
from scipy import stats

from vixpricer.black import (_VOL_HI, _VOL_LO, SkewPoint, black_call,
                             implied_vol, skew_curve)
from vixpricer.cir import CirParams
from vixpricer.models import ModelSpec


class TestBlackCall:
    def test_at_the_money_value(self):
        # F = K, sigma sqrt(T) = 0.2, r = 0: price/F = Phi(0.1) - Phi(-0.1)
        price = black_call(1.0, 1.0, 1.0, 0.0, 0.2)
        want = stats.norm.cdf(0.1) - stats.norm.cdf(-0.1)
        assert price == pytest.approx(want, rel=1e-12)
        assert price == pytest.approx(0.0797, abs=5e-5)

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

    def test_prices_beyond_the_vol_bracket_return_its_ends(self):
        disc = math.exp(-0.05)
        assert black_call(0.2, 0.2, 1.0, 0.05, _VOL_LO) > 1e-9
        assert implied_vol(1e-9, 0.2, 0.2, 1.0, 0.05) == _VOL_LO
        price = disc * 0.2 * (1.0 - 1e-8)
        assert black_call(0.2, 0.2, 1.0, 0.05, _VOL_HI) < price
        assert implied_vol(price, 0.2, 0.2, 1.0, 0.05) == _VOL_HI

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

    def test_points_carry_moneyness(self, curve_inputs):
        m, p, grid = curve_inputs
        pts = skew_curve(m, p, 0.5, 0.05, 0.2, grid)
        assert [q.moneyness for q in pts] == list(grid)
        assert isinstance(pts[0], SkewPoint)
