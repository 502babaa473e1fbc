import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from vixpricer import european
from vixpricer.american import (SolverConfig, _stop_pair, american_price,
                                solve_boundary)
from vixpricer.cir import ChiSquareLaw, CirParams, transition_law
from vixpricer.cli import bundled_config_names, cmd_price, load_config
from vixpricer.european import (DivergentIntegralError,
                                OptionSpec, QuadratureConfig,
                                _approx_mass_box, eep_kernel,
                                euro_fast, european_price, factor_state,
                                futures_price, futures_taylor, kernel_row)
from vixpricer.mc import mc_european, mc_futures
from vixpricer.models import (AssumptionError, ModelSpec, _power_sum, f_eval,
                              g_eval, validate_model_params, waiting_benefit)
from vixpricer.numerics import panel_nodes

M32 = ModelSpec("a1", terms=((1.0, 1.0),))
M12 = ModelSpec("a2", terms=((1.0, 1.0),))
MIX7 = ModelSpec("mixture", terms=((0.07, 1.0),), terms_a2=((0.07, 1.0),))
M1MIX = ModelSpec("a1", terms=((0.5, 1.0), (0.5, 1.2)))  # fig1_mix
M1NU12 = ModelSpec("a1", terms=((1.0, 1.2),))  # fig1_nu12
P1 = CirParams(2.94, 17.10, 2.05)
P1MIX = CirParams(3.27, 17.10, 2.05)
P1NU12 = CirParams(3.64, 17.10, 2.05)
P2 = CirParams(3.0, 0.68, 1.0)
P7 = CirParams(1.0, 2.0, 1.0)
CALL = OptionSpec(0.15, 1.0, 0.05, "call")
PUT = OptionSpec(0.15, 1.0, 0.05, "put")

FAMS = [(M32, P1, 0.2), (M12, P2, 0.2), (MIX7, P7, 1.2)]


class TestOptionSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            OptionSpec(0.0, 1.0, 0.05)
        with pytest.raises(ValueError):
            OptionSpec(0.15, 0.0, 0.05)
        with pytest.raises(ValueError):
            OptionSpec(0.15, 1.0, -0.01)
        with pytest.raises(ValueError):
            OptionSpec(0.15, 1.0, 0.05, "straddle")

    @pytest.mark.parametrize("field", ["strike", "maturity", "rate"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_terms_must_be_finite(self, field, value):
        terms = {"strike": 0.15, "maturity": 1.0, "rate": 0.05, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            OptionSpec(**terms)

    def test_quadrature_config_validation(self):
        with pytest.raises(ValueError):
            QuadratureConfig(rel_tol=2.0)
        with pytest.raises(ValueError):
            QuadratureConfig(tail_mass_cut=0.0)

    @pytest.mark.parametrize("tail", [0.5, 0.6, math.nan])
    def test_tail_mass_cut_leaves_a_support_box(self, tail):
        # at 0.5 or more the box around the mass is empty: every price reads 0
        with pytest.raises(ValueError, match="tail_mass_cut"):
            QuadratureConfig(tail_mass_cut=tail)


class TestEuropeanPrice:
    def test_expiry_returns_payoff(self):
        assert european_price(M32, P1, CALL, 1.0, 0.4) == pytest.approx(0.25)
        assert european_price(M32, P1, PUT, 1.0, 0.05) == pytest.approx(0.10)
        assert european_price(MIX7, P7, CALL, 1.0, 3.0) == \
            pytest.approx(f_eval(MIX7, 3.0) - 0.15)

    def test_tiny_strike_degenerates_to_futures(self):
        small = OptionSpec(1e-9, 1.0, 0.05, "call")
        price = european_price(M32, P1, small, 0.0, 0.2)
        fut = futures_price(M32, P1, 1.0, 0.2)
        assert price == pytest.approx(math.exp(-0.05) * (fut - 1e-9), rel=1e-7)

    @pytest.mark.parametrize("m,p,state", FAMS)
    def test_put_call_parity(self, m, p, state):
        call = european_price(m, p, CALL, 0.0, state)
        put = european_price(m, p, PUT, 0.0, state)
        fut = futures_price(m, p, 1.0, state)
        want = math.exp(-0.05) * (fut - 0.15)
        assert call - put == pytest.approx(want, abs=2e-9)

    def test_strike_below_mixture_minimum_prices_at_intrinsic(self):
        # fig7's map never falls below 0.14, so a call struck at 0.12 is in
        # the money at every level and worth its discounted forward payoff,
        # priced from the same futures series; the put is worthless
        for strike in (0.12, 0.14):
            low = OptionSpec(strike, 1.0, 0.05, "call")
            want = math.exp(-0.05) * (futures_price(MIX7, P7, 1.0, 1.2) - strike)
            assert european_price(MIX7, P7, low, 0.0, 1.2) == want
            put = OptionSpec(strike, 1.0, 0.05, "put")
            assert european_price(MIX7, P7, put, 0.0, 1.2) == 0.0

    def test_monotone_in_strike(self):
        prices = [european_price(M32, P1, OptionSpec(k, 1.0, 0.05), 0.0, 0.2)
                  for k in (0.10, 0.15, 0.20, 0.30)]
        assert all(a > b for a, b in zip(prices, prices[1:]))

    def test_bounded_by_discounted_futures(self):
        price = european_price(M32, P1, CALL, 0.0, 0.2)
        assert 0.0 < price < math.exp(-0.05) * futures_price(M32, P1, 1.0, 0.2)

    def test_rejects_time_beyond_maturity(self):
        with pytest.raises(ValueError):
            european_price(M32, P1, CALL, 1.5, 0.2)

    @pytest.mark.parametrize("m,p,state", FAMS)
    def test_fast_route_agrees_with_adaptive(self, m, p, state):
        y0 = factor_state(m, state)
        for option in (CALL, PUT):
            slow = european_price(m, p, option, 0.25, state)
            fast = euro_fast(m, p, option, 0.75, y0)
            assert fast == pytest.approx(slow, rel=1e-8, abs=1e-11)

    def test_tail_mass_below_the_rounding_of_one(self):
        # 1 - 1e-17 rounds to 1, so the box's upper edge must be sought from
        # the tail mass itself; both routes price such a config
        cfg = load_config("fig1")
        quad = QuadratureConfig(tail_mass_cut=1e-17)
        state = cfg.initial_state()
        option = cfg.contract
        fast = euro_fast(cfg.model, cfg.cir, option, option.maturity,
                         factor_state(cfg.model, state), quad)
        slow = european_price(cfg.model, cfg.cir, option, 0.0, state, quad)
        assert slow == pytest.approx(fast, rel=quad.rel_tol)
        assert futures_price(cfg.model, cfg.cir, option.maturity, state, quad) > 0.0

    def test_fast_route_raises_on_a_nan_density(self, monkeypatch):
        # -inf is zero density, NaN is a failed evaluation
        def log_density(df, lam, scale, y):
            out = np.full(np.shape(y), -np.inf)
            out[:, 3] = np.nan
            return out
        monkeypatch.setattr(european, "log_density", log_density)
        with pytest.raises(ValueError, match="NaN"):
            euro_fast(M32, P1, CALL, 0.75, factor_state(M32, 0.2))


class TestFutures:
    def test_zero_horizon(self):
        assert futures_price(M32, P1, 0.0, 0.37) == 0.37
        assert futures_price(MIX7, P7, 0.0, 1.0) == pytest.approx(0.14)

    def test_identity_map_closed_form(self):
        for T in (0.1, 0.5, 2.0):
            want = P2.mean_at(T, 0.2)
            assert futures_price(M12, P2, T, 0.2) == pytest.approx(want, rel=1e-10)

    def test_taylor_exact_for_linear_map(self):
        for T in (0.25, 1.0):
            assert futures_taylor(M12, P2, T, 0.2) == \
                pytest.approx(futures_price(M12, P2, T, 0.2), rel=1e-10)

    def test_taylor_within_one_percent_reciprocal(self):
        quad = futures_price(M32, P1, 1.0, 0.2)
        tay = futures_taylor(M32, P1, 1.0, 0.2)
        assert abs(tay - quad) / quad < 0.01

    def test_taylor_short_horizon_limit(self):
        got = futures_taylor(M32, P1, 1e-7, 0.2)
        assert got == pytest.approx(0.2, rel=1e-5)

    def test_divergent_tail_reported(self):
        # non-Feller factor with a strong inverse power: the expectation
        # genuinely blows up at the origin and must be refused, not hung
        m = ModelSpec("mixture", terms=((0.1, 0.75),), terms_a2=((0.02, 1.0),))
        p = CirParams(0.2, 0.1, 0.7, allow_non_feller=True)
        with pytest.raises(DivergentIntegralError):
            futures_price(m, p, 2.0, 0.776)

    def test_truncation_regularized_benchmark_is_stable(self):
        m = ModelSpec("mixture", terms=((0.1, 0.75),), terms_a2=((0.02, 1.0),))
        p = CirParams(0.2, 0.1, 0.7, allow_non_feller=True)
        cfg = QuadratureConfig(tail_mass_cut=1e-5)
        a = futures_price(m, p, 2.0 / 12.0, 0.776, cfg)
        b = futures_price(m, p, 2.0 / 12.0, 0.776,
                          QuadratureConfig(tail_mass_cut=1e-6))
        assert a == pytest.approx(b, rel=2e-4)

    def test_non_feller_benchmark_matches_monte_carlo(self):
        from vixpricer.mc import mc_futures
        m = ModelSpec("mixture", terms=((0.1, 0.75),), terms_a2=((0.02, 1.0),))
        p = CirParams(0.2, 0.1, 0.7, allow_non_feller=True)
        cfg = QuadratureConfig(tail_mass_cut=1e-5)
        quad_val = futures_price(m, p, 2.0 / 12.0, 0.776, cfg)
        est = mc_futures(m, p, 2.0 / 12.0, 0.776, 10**6, 5)
        assert abs(est.z_score(quad_val)) < 3.0


def _mpmath_futures(m, law, box=None):
    """``E[f(Y)]`` in 40-digit arithmetic: on the whole line from Kummer's
    function, ``(2 scale)^e Gamma(a + e) / Gamma(a) M(-e, a, -lam/2)`` with
    ``a = df / 2``; on a ``box`` the Poisson sum of ``gammainc(a_k + e,
    lo, hi) / Gamma(a_k)`` over 12 standard deviations of the index and its
    first terms."""
    import mpmath as mp
    with mp.workdps(40):
        hd, hn = mp.mpf(law.df) / 2, mp.mpf(law.noncentrality) / 2
        two = 2 * mp.mpf(law.scale)
        total = mp.mpf(0)
        for c, e in m._power_terms[0]:
            e = mp.mpf(e)
            if box is None:
                mom = mp.gamma(hd + e) / mp.gamma(hd) * mp.hyp1f1(-e, hd, -hn)
            else:
                lo, hi = mp.mpf(box[0]) / two, mp.mpf(box[1]) / two
                spread = 12 * mp.sqrt(hn) + 12
                ks = sorted(set(range(4)) | set(range(max(0, int(hn - spread)),
                                                      int(hn + spread) + 1)))
                mom = mp.fsum(mp.exp(k * mp.log(hn) - hn - mp.loggamma(k + 1))
                              * mp.gammainc(hd + k + e, lo, hi) / mp.gamma(hd + k)
                              for k in ks)
            total += c * two ** e * mom
        return float(total)


FIG5_MAP = ModelSpec("mixture", terms=((0.1, 0.75),), terms_a2=((0.02, 1.0),))
FIG5_PARAMS = CirParams(0.2, 0.1, 0.7, allow_non_feller=True)


class TestFuturesSeries:
    """Futures from the exact Poisson-gamma moment series."""

    @pytest.mark.parametrize("name", ["fig1", "fig1_mix", "fig1_nu12", "fig2",
                                      "fig3", "fig4", "fig7"])
    def test_matches_mpmath(self, name):
        cfg = load_config(name)
        m, p = cfg.model, cfg.cir
        cases = [(T, k) for T in (1e-4, 1e-2, 0.3, 2.0) for k in (0.5, 1.0, 2.0)]
        if name == "fig1":
            cases.append((1e-6, 1.0))  # noncentrality 4.8e6
        for T, k in cases:
            state = k * cfg.initial_state()
            law = transition_law(p, T, factor_state(m, state))
            got = futures_price(m, p, T, state, cfg.quadrature)
            assert got == pytest.approx(_mpmath_futures(m, law), rel=1e-13, abs=0.0), (T, k)

    @pytest.mark.parametrize("branch, horizon", [("lower", 5e-3), ("lower", 0.02),
                                                 ("lower", 0.3), ("upper", 0.1),
                                                 ("upper", 2.0)])
    def test_fig5_box_matches_mpmath(self, branch, horizon):
        # df/2 - 0.75 < 0: the level diverges at the origin, so it is the
        # moment series on the tail_mass_cut box; its first shape has
        # a + e < 0
        cfg = load_config("fig5")
        y0 = cfg.initial_factor(branch)
        law = transition_law(cfg.cir, horizon, y0)
        box = law.mass_bounds(cfg.quadrature.tail_mass_cut)
        got = futures_price(cfg.model, cfg.cir, horizon, y0, cfg.quadrature)
        assert got == pytest.approx(_mpmath_futures(cfg.model, law, box), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("branch, first_divergent", [("lower", 0.4), ("upper", None)])
    def test_fig5_diverges_where_the_adaptive_route_did(self, branch, first_divergent):
        # the origin probe, the exact piece on [lo / 2, lo], raises on the
        # same horizons of 0.02-0.5 y as the adaptive probe did
        cfg = load_config("fig5")
        y0 = cfg.initial_factor(branch)
        for horizon in np.round(np.arange(1, 26) * 0.02, 2):
            diverges = first_divergent is not None and horizon >= first_divergent
            if diverges:
                with pytest.raises(DivergentIntegralError):
                    futures_price(cfg.model, cfg.cir, horizon, y0, cfg.quadrature)
            else:
                assert futures_price(cfg.model, cfg.cir, horizon, y0, cfg.quadrature) > 0.0

    @pytest.mark.parametrize("m, p, state, boxes", [(M32, P1, 0.2, 0), (MIX7, P7, 1.2, 0),
                                                    (FIG5_MAP, FIG5_PARAMS, 0.776, 1)])
    def test_one_walk_and_a_box_only_where_divergent(self, m, p, state, boxes, monkeypatch):
        from vixpricer import cir
        from vixpricer.cir import ChiSquareLaw
        moments, quads, box_calls = [], [], []
        for owner, name, calls in ((ChiSquareLaw, "power_moments", moments),
                                   (ChiSquareLaw, "mass_bounds", box_calls),
                                   (european, "adaptive_gauss_kronrod", quads)):
            fn = getattr(owner, name)
            monkeypatch.setattr(owner, name,
                                lambda *a, fn=fn, calls=calls, **k: calls.append(1) or fn(*a, **k))
        walks = []
        series = cir._poisson_gamma_sum
        monkeypatch.setattr(cir, "_poisson_gamma_sum",
                            lambda *a, **k: walks.append(k) or series(*a, **k))
        futures_price(m, p, 0.1, state, QuadratureConfig(tail_mass_cut=1e-5))
        assert (len(moments), len(box_calls), len(quads)) == (1, boxes, 0)
        assert sum(1 for k in walks if k.get("normalized")) == 1

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(df=st.floats(0.3, 40.0),
           lam=st.one_of(st.just(0.0), st.floats(1e-3, 1e4)),
           scale=st.floats(1e-3, 1.0),
           family=st.sampled_from(["a1", "a2", "mixture"]),
           falls=st.lists(st.tuples(st.floats(0.01, 1.0), st.floats(0.02, 0.98)),
                          min_size=1, max_size=2),
           rises=st.lists(st.tuples(st.floats(0.01, 1.0), st.floats(0.05, 1.0)),
                          min_size=1, max_size=2))
    def test_random_convergent_laws_and_maps(self, df, lam, scale, family, falls, rises):
        # every falling power p is below df/2, so the level is finite
        falling = tuple((w, frac * df / 2) for w, frac in falls)
        m = ModelSpec(family, terms=rises if family == "a2" else falling,
                      terms_a2=rises if family == "mixture" else ())
        law = ChiSquareLaw(df, lam, scale)
        got = european._futures_on(m, law, QuadratureConfig())
        assert got == pytest.approx(_mpmath_futures(m, law), rel=1e-13, abs=0.0)


class TestOriginCheck:
    """One origin check: the exact series piece on the adaptive route, the
    exact divergence condition on the fixed rule."""

    @pytest.mark.parametrize("branch, first_divergent", [("lower", 0.38), ("upper", None)])
    def test_fig5_calls_raise_where_halving_the_cutoff_moves_them(self, branch,
                                                                  first_divergent):
        # the points where halving the cutoff moved the price by more than
        # 1e-2: from 0.38 y at every strike on the lower branch, none above
        cfg = load_config("fig5")
        y0 = cfg.initial_factor(branch)
        for strike in (0.12, 0.137, 0.16):
            for horizon in np.round(np.arange(1, 26) * 0.02, 2):
                option = OptionSpec(strike, horizon, cfg.contract.rate, "call")
                if first_divergent is not None and horizon >= first_divergent:
                    with pytest.raises(DivergentIntegralError):
                        european_price(cfg.model, cfg.cir, option, 0.0, y0, cfg.quadrature)
                else:
                    assert european_price(cfg.model, cfg.cir, option, 0.0, y0,
                                          cfg.quadrature) >= 0.0

    @pytest.mark.parametrize("route", ["eep_kernel", "kernel_row"])
    def test_non_feller_a2_put_kernel_raises(self, route):
        # benefit power 0.5 - 1 with df/2 - 0.5 = -0.09: the truncated kernel
        # reads -3.60 / -28.3 / -224 at tail cuts 1e-12 / 1e-16 / 1e-20
        m = ModelSpec("a2", terms=((0.2, 0.5),))
        p = CirParams(2.0, 0.1, 0.7, allow_non_feller=True)
        put = OptionSpec(0.15, 1.0, 0.05, "put")
        with pytest.raises(DivergentIntegralError):
            if route == "eep_kernel":
                eep_kernel(m, p, put, 0.3, 0.5, (0.4, np.inf))
            else:
                kernel_row(m, p, put, 0.3, np.array([0.5]), (0.4, np.inf))

    def test_fixed_rule_raises_on_fig5(self):
        # unchecked, the rule reads 47.07 and -1.18e7 here, set by the box
        cfg = load_config("fig5")
        y0 = 0.5 * cfg.initial_factor("lower")
        option = OptionSpec(0.169, 0.5, cfg.contract.rate, "call")
        with pytest.raises(DivergentIntegralError):
            euro_fast(cfg.model, cfg.cir, option, 0.5, y0, cfg.quadrature)
        with pytest.raises(DivergentIntegralError):
            kernel_row(cfg.model, cfg.cir, option, y0, np.array([0.3]), (0.5 * y0, np.inf),
                       cfg.quadrature)

    @pytest.mark.parametrize("m, p, state, kind, regions, pieces", [
        (M32, P1, 0.2, "call", 1, 1), (M32, P1, 0.2, "put", 1, 0),
        (MIX7, P7, 1.2, "call", 2, 1), (MIX7, P7, 1.2, "put", 1, 0)])
    def test_one_quadrature_per_live_region(self, m, p, state, kind, regions, pieces,
                                            monkeypatch):
        # the origin check is one exact moment piece, not a second quadrature,
        # and the live regions are the intervals of one adaptive run
        from vixpricer.cir import ChiSquareLaw
        quads, moments = [], []
        for owner, name, calls in ((european, "adaptive_gauss_kronrod", quads),
                                   (ChiSquareLaw, "power_moments", moments)):
            fn = getattr(owner, name)
            monkeypatch.setattr(owner, name,
                                lambda *a, fn=fn, calls=calls, **k: calls.append(a) or fn(*a, **k))
        option = OptionSpec(0.15, 0.5, 0.05, kind)
        assert european_price(m, p, option, 0.0, state) > 0.0
        assert (len(quads), len(moments)) == (1, pieces)
        (_, lo, hi), = quads
        assert np.count_nonzero(np.asarray(hi) > np.asarray(lo)) == regions

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(alpha=st.floats(0.1, 5.0), beta=st.floats(0.01, 20.0),
           kappa=st.floats(0.1, 5.0), family=st.sampled_from(["a1", "a2", "mixture"]),
           falls=st.lists(st.tuples(st.floats(0.01, 1.0), st.floats(0.05, 3.0)),
                          min_size=1, max_size=2),
           rises=st.lists(st.tuples(st.floats(0.01, 1.0), st.floats(0.05, 1.0)),
                          min_size=1, max_size=2))
    def test_validation_is_convergence_at_the_origin(self, alpha, beta, kappa, family,
                                                     falls, rises):
        # beta + kappa^2 (s - 1) / 2 > 0 for every map term is df/2 + e > 0
        # for every power e of the payoff and of the waiting benefit
        m = ModelSpec(family, terms=rises if family == "a2" else falls,
                      terms_a2=rises if family == "mixture" else ())
        p = CirParams(alpha, beta, kappa, allow_non_feller=True)
        assume(all(abs(0.5 * p.df + s - 1.0) > 1e-9 for _, s in m._power_terms[0]))
        option = OptionSpec(0.15, 1.0, 0.05, "call")
        powers = [e for terms, _ in (european._payoff_integrand(m, option),
                                     european._benefit_integrand(m, p, option))
                  for _, e in terms]
        try:
            validate_model_params(m, p)
            valid = True
        except AssumptionError:
            valid = False
        assert valid == (0.5 * p.df + min(powers) > 0.0)


def _outcome(fn, *args):
    """``fn(*args)``, or the type of the DivergentIntegralError it raises."""
    try:
        return fn(*args)
    except DivergentIntegralError as exc:
        return type(exc)


class TestClippingBox:
    """European prices and premium kernels compute only the edges of the
    support box that can clip a live region, each the number mass_bounds
    returns, so they match the whole box bit for bit."""

    MATURITIES = (0.05, 0.25, 1.0)

    @staticmethod
    def _strikes(cfg, law):
        # cuts at three quantiles, one below the box's lower edge (its other
        # region then needs both edges), and a forward-priced fig5 call
        lo = law.ppf(cfg.quadrature.tail_mass_cut)
        levels = [law.ppf(q) for q in (0.05, 0.5, 0.95)] + [0.5 * lo]
        strikes = [float(f_eval(cfg.model, y)) for y in levels]
        return strikes + [0.09] if cfg.model == FIG5_MAP else strikes

    @pytest.mark.parametrize("name", bundled_config_names())
    def test_european_price_matches_the_whole_box(self, name):
        cfg = load_config(name)
        m, p, quad, state = cfg.model, cfg.cir, cfg.quadrature, cfg.initial_state()
        for T in self.MATURITIES:
            law = transition_law(p, T, factor_state(m, state))
            box = law.mass_bounds(quad.tail_mass_cut)
            for strike in self._strikes(cfg, law):
                for kind in ("call", "put"):
                    option = OptionSpec(strike, T, cfg.contract.rate, kind)
                    got = _outcome(european_price, m, p, option, 0.0, state, quad)
                    want = _outcome(lambda: european._european_on(m, [option], T, law, box,
                                                                  quad)[0])
                    assert got == want, (T, strike, kind)

    @pytest.mark.parametrize("name", bundled_config_names())
    def test_eep_kernel_matches_the_whole_box(self, name):
        cfg = load_config(name)
        m, p, quad = cfg.model, cfg.cir, cfg.quadrature
        y0 = factor_state(m, cfg.initial_state())
        for kind in ("call", "put"):
            option = OptionSpec(cfg.contract.strike, 1.0, cfg.contract.rate, kind)
            terms, const = european._benefit_integrand(m, p, option)
            for u in self.MATURITIES:
                law = transition_law(p, u, y0)
                box = law.mass_bounds(quad.tail_mass_cut)
                q05, q95, below = law.ppf(0.05), law.ppf(0.95), 0.5 * box[0]
                for cuts in ((q05, np.inf), (0.0, q95), (q05, q95), (below, np.inf),
                             (0.0, below)):
                    got = _outcome(eep_kernel, m, p, option, y0, u, cuts, quad)
                    want = _outcome(lambda: math.exp(-option.rate * u) * european._integrate(
                        law, box, terms, [(const, european._stop_regions(cuts), 0.0)], quad)[0])
                    assert got == want, (kind, u, cuts)

    @pytest.mark.parametrize("name", ["fig1", "fig1_nu12", "fig2", "fig3", "fig4"])
    def test_one_tail_quantile_per_monotone_quote(self, name, monkeypatch):
        # mass_bounds takes two; a region past the box's lower edge takes both
        quantiles = []
        tail_quantile = ChiSquareLaw._tail_quantile
        monkeypatch.setattr(ChiSquareLaw, "_tail_quantile",
                            lambda law, *a: quantiles.append(a) or tail_quantile(law, *a))
        cfg = load_config(name)
        m, p, quad, state = cfg.model, cfg.cir, cfg.quadrature, cfg.initial_state()
        law = transition_law(p, 0.25, factor_state(m, state))
        counts = {}
        for strike in self._strikes(cfg, law):
            for kind in ("call", "put"):
                quantiles.clear()
                european_price(m, p, OptionSpec(strike, 0.25, 0.05, kind), 0.0, state, quad)
                counts[strike, kind] = len(quantiles)
        *inside, beyond = self._strikes(cfg, law)
        assert all(counts[k, kind] == 1 for k in inside for kind in ("call", "put"))
        # the region from 0 ends below the box and is empty; the other
        # starts below it and runs to inf
        assert sorted(counts[beyond, kind] for kind in ("call", "put")) == [1, 2]

    def test_mixture_put_inside_the_box_takes_no_quantile(self, monkeypatch):
        quantiles = []
        tail_quantile = ChiSquareLaw._tail_quantile
        monkeypatch.setattr(ChiSquareLaw, "_tail_quantile",
                            lambda law, *a: quantiles.append(a) or tail_quantile(law, *a))
        for kind, count in (("put", 0), ("call", 2)):
            quantiles.clear()
            european_price(MIX7, P7, OptionSpec(0.15, 0.5, 0.05, kind), 0.0, 1.2)
            assert len(quantiles) == count, kind

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(df=st.floats(0.3, 60.0), lam=st.one_of(st.just(0.0), st.floats(1e-3, 1e5)),
           scale=st.floats(1e-3, 10.0), tail=st.floats(1e-16, 0.4),
           beyond=st.floats(0.0, 3.0))
    def test_cantelli_cut_is_not_beyond_the_edge(self, df, lam, scale, tail, beyond):
        # a cut reach or more from the mean, on the bulk's side, has at least
        # 2 tail of mass on that side, as the series finds
        law = ChiSquareLaw(df, lam, scale)
        reach = law.std() * math.sqrt(2.0 * tail / (1.0 - 2.0 * tail))
        above = law.mean() + reach * (1.0 + beyond)
        assert law.cdf(above) >= tail
        below = law.mean() - reach * (1.0 + beyond)
        if below > 0.0:
            assert law.sf(below) >= tail

    @pytest.mark.parametrize("kind, series", [("call", "cdf"), ("put", "sf")])
    def test_no_series_at_a_cut_past_the_mean(self, kind, series, monkeypatch):
        # fig2's identity map: a call struck a standard deviation above the
        # mean and a put half of one below it take no series at the cut
        calls = []
        fn = getattr(ChiSquareLaw, series)
        monkeypatch.setattr(ChiSquareLaw, series,
                            lambda law, y: calls.append(y) or fn(law, y))
        cfg = load_config("fig2")
        law = transition_law(cfg.cir, 0.5, factor_state(cfg.model, 0.2))
        shift = 1.0 if kind == "call" else -0.5
        strike = float(f_eval(cfg.model, law.mean() + shift * law.std()))
        option = OptionSpec(strike, 0.5, 0.05, kind)
        (a, b), = [r for r in european._euro_regions(cfg.model, option) if r[1] > r[0]]
        got = european_price(cfg.model, cfg.cir, option, 0.0, 0.2, cfg.quadrature)
        assert (a if kind == "call" else b) not in calls
        box = law.mass_bounds(cfg.quadrature.tail_mass_cut)
        assert got == european._european_on(cfg.model, [option], 0.5, law, box,
                                             cfg.quadrature)[0]


class TestZeroHorizonState:
    """At zero horizon every public quote rejects a state that is not finite
    and positive, as it does at any positive horizon."""

    @pytest.fixture
    def quotes(self, fig1_boundary_coarse, fig7_boundary_coarse):
        cfg = load_config("fig1")
        boundaries = {M32: fig1_boundary_coarse, MIX7: fig7_boundary_coarse}
        return {
            "futures_price": lambda m, p, s: futures_price(m, p, 0.0, s),
            "european_price": lambda m, p, s: european_price(m, p, CALL, 1.0, s),
            "american_price": lambda m, p, s: american_price(
                m, p, CALL, boundaries[m], 1.0, s),
            "mc_european": lambda m, p, s: mc_european(m, p, CALL, 1.0, s, 10, 1),
            "mc_futures": lambda m, p, s: mc_futures(m, p, 0.0, s, 10, 1),
            "cmd_price": lambda m, p, s: cmd_price(
                cfg, cfg.contract.maturity, [s], boundaries[M32]),
        }

    @pytest.mark.parametrize("state", [0.0, -0.5, math.inf, math.nan])
    @pytest.mark.parametrize("m,p", [(M32, P1), (MIX7, P7)], ids=["a1", "mixture"])
    def test_rejects_non_positive_state(self, quotes, m, p, state):
        for name, quote in quotes.items():
            with pytest.raises(ValueError, match="state must be strictly positive"):
                quote(m, p, state)

    def test_positive_state_still_quotes(self, quotes):
        assert quotes["futures_price"](M32, P1, 0.37) == 0.37
        assert quotes["mc_futures"](M32, P1, 0.37).mean == 0.37
        assert quotes["european_price"](M32, P1, 0.4) == pytest.approx(0.25)


class TestEepKernel:
    def test_empty_region_vanishes(self):
        y0 = g_eval(M32, 0.3)
        assert eep_kernel(M32, P1, CALL, y0, 0.5, _stop_pair(M32, CALL, 1e9)) \
            == pytest.approx(0.0, abs=1e-30)
        val = eep_kernel(MIX7, P7, CALL, 1.0, 0.5, (1e-9, 1e9))
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_zero_elapsed_time_limit(self):
        x = 0.3
        cuts = _stop_pair(M32, CALL, 0.25)
        want = -waiting_benefit(M32, P1, 0.05, 0.15, g_eval(M32, x))
        assert eep_kernel(M32, P1, CALL, g_eval(M32, x), 0.0, cuts) == \
            pytest.approx(want)
        assert eep_kernel(M32, P1, CALL, g_eval(M32, 0.2), 0.0, cuts) == 0.0

    def test_sign_beyond_critical_levels(self):
        from vixpricer.models import x_star
        xs = x_star(M32, P1, 0.05, 0.15)
        y0 = g_eval(M32, 0.25)
        for u in (0.05, 0.3, 0.8):
            for z in np.linspace(max(0.15, xs), 0.6, 5):
                cuts = _stop_pair(M32, CALL, z)
                assert eep_kernel(M32, P1, CALL, y0, u, cuts) >= -1e-12

    def test_matches_monte_carlo(self):
        u, x, z = 0.5, 0.3, 0.3
        law = transition_law(P1, u, g_eval(M32, x))
        y = law.sample(400_000, 31)
        vix = f_eval(M32, y)
        h = waiting_benefit(M32, P1, 0.05, 0.15, y)
        draw = -math.exp(-0.05 * u) * h * (vix >= max(z, 0.15))
        se = draw.std(ddof=1) / math.sqrt(len(draw))
        got = eep_kernel(M32, P1, CALL, g_eval(M32, x), u, _stop_pair(M32, CALL, z))
        assert abs(got - draw.mean()) < 3 * se

    def test_put_kernel_positive_below_threshold(self):
        got = eep_kernel(M12, P2, PUT, g_eval(M12, 0.10), 0.3,
                         _stop_pair(M12, PUT, 0.12))
        assert got > 0.0

    @pytest.mark.parametrize("m,p,state,kind", [
        (M32, P1, 0.3, "call"), (M12, P2, 0.3, "call"),
        (M32, P1, 0.08, "put"), (M12, P2, 0.08, "put"),
        (M1MIX, P1MIX, 0.3, "call"), (MIX7, P7, 1.0, "call"),
    ])
    def test_row_route_agrees_with_adaptive(self, m, p, state, kind):
        # both routes take the same (y0, u[i], cuts[:, i])
        option = OptionSpec(0.15, 1.0, 0.05, kind)
        y0 = factor_state(m, state)
        if m.is_mixture:
            u = np.array([0.05, 0.3, 0.8])
            cuts = np.array([[0.5, 0.55, 0.6], [2.6, 2.4, 2.3]])
            rtol, atol = 5e-7, 1e-10
        else:
            u = np.array([0.02, 0.1, 0.4, 0.9])
            z = [0.40, 0.35, 0.30, 0.25] if kind == "call" else [0.05, 0.07, 0.09, 0.11]
            cuts = _stop_pair(m, option, z)
            rtol, atol = 2e-7, 1e-12
        row = kernel_row(m, p, option, y0, u, cuts)
        slow = [eep_kernel(m, p, option, y0, u[i], cuts[:, i])
                for i in range(len(u))]
        np.testing.assert_allclose(row, slow, rtol=rtol, atol=atol)

    @pytest.mark.parametrize("m", [M32, M12, M1MIX])
    @pytest.mark.parametrize("kind", ["call", "put"])
    def test_in_the_money_cuts_stop_past_the_strike(self, m, kind):
        # a solved stop pair lies inside the payoff region, so the kernel's
        # stopping region needs no intersection with it
        p = {M32: P1, M12: P2, M1MIX: P1MIX}[m]
        option = OptionSpec(0.15, 1.0, 0.05, kind)
        b = solve_boundary(m, p, option, SolverConfig(n_steps=12))
        k = g_eval(m, option.strike)
        lower, upper = b.cuts
        if (m.family == "a1") == (kind == "call"):
            assert np.all(lower <= k) and np.all(upper == np.inf)
        else:
            assert np.all(upper >= k) and np.all(lower == 0.0)


BOX_LAMS = [0.0, 0.3, 5.0, 15.5, 78.0, 300.0, 4000.0, 4e4, 1e5]
BOX_DFS = [2.0, 2.72, 6.3, 8.0, 16.3, 60.0]


class TestMassBox:
    @pytest.mark.parametrize("lam", BOX_LAMS)
    @pytest.mark.parametrize("df", BOX_DFS)
    def test_box_tracks_the_requested_mass(self, lam, df, request):
        # Feller-valid factors always have df >= 2, the box's support regime
        from vixpricer.cir import ChiSquareLaw
        if (df, lam) == (60.0, 78.0):
            request.applymarker(pytest.mark.xfail(
                strict=True, reason="the first-term lower edge is not a bound: "
                "it cuts 1.3e-6 of this law's mass"))
        scale = 0.21
        lo, hi = _approx_mass_box(df, np.array([lam]), np.array([scale]), 1e-12)
        law = ChiSquareLaw(df=df, noncentrality=lam, scale=scale)
        assert law.cdf(max(lo[0], 1e-300)) < 1e-9
        assert law.sf(hi[0]) < 1e-12
        # concentrated laws keep their peak inside with room to spare
        if law.mean() - 4 * law.std() > 0:
            assert lo[0] < law.mean() - 4 * law.std()

    @pytest.mark.parametrize("lam", BOX_LAMS)
    @pytest.mark.parametrize("df", BOX_DFS)
    def test_upper_edge_is_certified_and_tight(self, lam, df):
        # Birgé's bound: at most the requested mass above the upper edge,
        # and no edge far out in the tails of a concentrated law
        from vixpricer.cir import ChiSquareLaw
        scale = 0.21
        lo, hi = _approx_mass_box(df, np.array([lam]), np.array([scale]), 1e-12)
        law = ChiSquareLaw(df=df, noncentrality=lam, scale=scale)
        assert law.sf(hi[0]) <= 1e-12
        if lam >= 300.0:
            assert hi[0] <= law.mean() + 10.0 * law.std()
        assert lo[0] >= law.mean() - 10.0 * law.std()

    @pytest.mark.xfail(strict=True, reason="the first-term lower edge is not "
                       "a bound near lam 54 (ROADMAP item 3)")
    @pytest.mark.parametrize("df", BOX_DFS)
    def test_lower_edge_cuts_the_requested_mass_near_lam_54(self, df):
        # where the bundled laws' lower edges cut the most mass
        from vixpricer.cir import ChiSquareLaw
        scale = 0.21
        lo, _ = _approx_mass_box(df, np.array([54.0]), np.array([scale]), 1e-12)
        law = ChiSquareLaw(df=df, noncentrality=54.0, scale=scale)
        assert law.cdf(lo[0]) <= 1e-12


def _feller_variants(name, m, p):
    """``p`` with ``kappa`` scaled 0.5-4x and ``beta`` 0.25-4x, df >= 2 kept."""
    out = []
    for k in (0.5, 1.0, 2.0, 4.0):
        for b in (0.25, 1.0, 4.0):
            if p.df * b / k ** 2 >= 2.0:
                q = CirParams(p.alpha, p.beta * b, p.kappa * k)
                out.append(pytest.param(m, q, id=f"{name}-beta{b}-kappa{k}"))
    return out


RULE_LAWS = [case for law in [("fig1", M32, P1), ("fig2", M12, P2),
                              ("fig4", M12, P1), ("fig7", MIX7, P7),
                              ("fig1_mix", M1MIX, P1MIX),
                              ("fig1_nu12", M1NU12, P1NU12)]
             for case in _feller_variants(*law)]


class TestFixedRule:
    """The fast route's rule against the same rows at twice the panels."""

    @pytest.mark.parametrize("m,p", RULE_LAWS)
    def test_rows_within_1e8_of_their_l1_scale(self, m, p, monkeypatch):
        # horizons 1e-3 to 2 y, states 0.2-5x the long-run mean, kernel cuts
        # 0.3-3x the state on the stop side, strikes 0.8 and 1.25x the level;
        # a row whose region from 0 meets a power with df/2 + e <= 0 diverges
        # there and must raise, which happens exactly on the nine laws that
        # fail validate_model_params (their values depended on the box cut)
        u = np.geomspace(1e-3, 2.0, 12)
        disc = np.exp(-0.05 * u)
        cases = []  # (discounted row's route, integrand, y0, regions)
        for y0 in p.long_run_mean * np.array([0.2, 1.0, 5.0]):
            x = float(f_eval(m, y0))
            for kind in ("call",) if m.is_mixture else ("call", "put"):
                for c in (0.3, 1.0, 3.0):
                    if m.is_mixture:
                        cuts = (0.5 * c * y0, 2.0 * c * y0)
                    elif (m.family == "a1") == (kind == "call"):
                        cuts = (c * y0, np.inf)
                    else:
                        cuts = (0.0, c * y0)
                    option = OptionSpec(x, 1.0, 0.05, kind)
                    cases.append((
                        lambda o=option, y=y0, cc=cuts: kernel_row(m, p, o, y, u, cc),
                        european._benefit_integrand(m, p, option), y0,
                        european._stop_regions(cuts)))
                for k in (0.8, 1.25):
                    option = OptionSpec(k * x, 1.0, 0.05, kind)
                    cases.append((
                        lambda o=option, y=y0: np.array([euro_fast(m, p, o, t, y) for t in u]),
                        european._payoff_integrand(m, option), y0,
                        european._euro_regions(m, option)))
        diverges = [regions[0][0] == 0.0 < regions[0][1]
                    and 0.5 * p.df + min(e for _, e in terms) <= 0.0
                    for _, (terms, _), _, regions in cases]
        try:
            validate_model_params(m, p)
            assert not any(diverges)
        except AssumptionError:
            assert any(diverges)
        for (route, *_), bad in zip(cases, diverges):
            if bad:
                with pytest.raises(DivergentIntegralError):
                    route()
        cases = [case for case, bad in zip(cases, diverges) if not bad]
        rows = [route() for route, *_ in cases]
        monkeypatch.setattr(european, "panel_nodes",
                            lambda lo, hi, n, k: panel_nodes(lo, hi, 2 * n, k))
        twice = [route() for route, *_ in cases]
        # the L1 scale: the same rule on the integrand's absolute value
        monkeypatch.setattr(european, "_power_sum", lambda *a: np.abs(_power_sum(*a)))
        for (route, integrand, y0, regions), row, row2 in zip(cases, rows, twice):
            l1 = disc * european._row_values(p, y0, u, regions, QuadratureConfig(),
                                             integrand)
            err = np.abs(row - row2)
            assert np.all(err <= 1e-8 * l1), (y0, regions, np.max(err / l1))

    @pytest.mark.parametrize("kappa", [0.5, 0.25])  # df 32 and 128
    def test_concentrated_law_matches_the_adaptive_route(self, kappa):
        # fig7's map 1e-3 y before expiry from 5x the long-run mean: the law
        # is a few std wide, so the box must sit on the mass, not around it
        p = CirParams(1.0, 2.0, kappa)
        y0 = 5.0 * p.long_run_mean
        option = OptionSpec(0.15, 1e-3, 0.05, "call")
        slow = european_price(MIX7, p, option, 0.0, y0, QuadratureConfig(rel_tol=1e-12))
        assert euro_fast(MIX7, p, option, 1e-3, y0) == pytest.approx(slow, rel=1e-10)
