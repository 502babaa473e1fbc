import math

import numpy as np
import pytest

from vixpricer.american import SolverConfig, solve_boundary
from vixpricer.cir import CirParams, law_params, transition_law
from vixpricer.european import OptionSpec, factor_state
from vixpricer.mc import (McEstimate, _summarize, mc_american_policy,
                          mc_european, mc_futures, policy_bias_indicator)
from vixpricer.models import ModelSpec, f_eval

M32 = ModelSpec("a1", terms=((1.0, 1.0),))
M12 = ModelSpec("a2", terms=((1.0, 1.0),))
P1 = CirParams(2.94, 17.10, 2.05)
P2 = CirParams(3.0, 0.68, 1.0)
CALL = OptionSpec(0.15, 1.0, 0.05, "call")


class TestEuropeanEstimates:
    def test_expiry_is_exact(self):
        est = mc_european(M32, P1, CALL, 1.0, 0.4, 1000, 1)
        assert est == McEstimate(mean=0.25, std_error=0.0, n_paths=1000, seed=1)

    def test_seed_determinism(self):
        a = mc_european(M32, P1, CALL, 0.0, 0.2, 50_000, 11)
        b = mc_european(M32, P1, CALL, 0.0, 0.2, 50_000, 11)
        assert a == b
        assert a != mc_european(M32, P1, CALL, 0.0, 0.2, 50_000, 12)

    def test_doubling_paths_halves_standard_error(self):
        small = mc_european(M32, P1, CALL, 0.0, 0.2, 100_000, 5)
        big = mc_european(M32, P1, CALL, 0.0, 0.2, 400_000, 5)
        ratio = small.std_error / big.std_error
        assert ratio == pytest.approx(2.0, rel=0.2)

    def test_z_score_semantics(self):
        est = McEstimate(mean=1.0, std_error=0.1, n_paths=10, seed=0)
        assert est.z_score(1.2) == pytest.approx(2.0)
        exact = McEstimate(mean=1.0, std_error=0.0, n_paths=10, seed=0)
        assert exact.z_score(1.0) == 0.0
        assert math.isinf(exact.z_score(1.1))


class TestFuturesEstimates:
    def test_zero_horizon(self):
        est = mc_futures(M32, P1, 0.0, 0.37, 100, 3)
        assert est.mean == 0.37 and est.std_error == 0.0

    def test_identity_map_matches_closed_form(self):
        est = mc_futures(M12, P2, 0.7, 0.2, 10**6, 21)
        want = P2.mean_at(0.7, 0.2)
        assert abs(est.mean - want) < 3 * est.std_error

    def test_single_step_vs_many_steps_agree(self):
        # stepping through intermediate exact transitions must not change
        # the terminal law
        horizon, y0, n = 0.8, 1.3, 300_000
        one = mc_futures(M12, P2, horizon, f_eval(M12, 1.3), n, 40)
        rng = np.random.default_rng(41)
        y = np.full(n, y0)
        for _ in range(100):
            law = transition_law(P2, horizon / 100, 1.0)
            mix = rng.poisson(0.5 * law.noncentrality * y)
            y = 2.0 * law.scale * rng.standard_gamma(0.5 * P2.df + mix)
        stepped_mean = f_eval(M12, y).mean()
        se = math.hypot(one.std_error,
                        float(f_eval(M12, y).std(ddof=1)) / math.sqrt(n))
        assert abs(one.mean - stepped_mean) < 3 * se


class TestPathCount:
    # every estimator rejects a non-positive path count, also at zero
    # horizon where it draws nothing
    @pytest.mark.parametrize("n", [0, -5])
    @pytest.mark.parametrize("horizon", [0.0, 0.5])
    def test_terminal_estimators_reject_no_paths(self, n, horizon):
        with pytest.raises(ValueError, match="sample size must be at least 1"):
            mc_european(M32, P1, CALL, 1.0 - horizon, 0.2, n, 1)
        with pytest.raises(ValueError, match="sample size must be at least 1"):
            mc_futures(M32, P1, horizon, 0.2, n, 1)


class TestPolicyEstimates:
    def test_immediate_exercise_is_exact(self, fig1_boundary_coarse):
        b = fig1_boundary_coarse
        x = b.values[0] * 1.5
        est = mc_american_policy(M32, P1, CALL, b, 0.0, x, 500, 50, 9)
        assert est.mean == pytest.approx(x - 0.15)
        assert est.std_error == 0.0

    def test_maturity_is_exact(self):
        # a continuation state at maturity: no step is drawn
        b = solve_boundary(M32, P1, CALL, SolverConfig(n_steps=12))
        est = mc_american_policy(M32, P1, CALL, b, 1.0, 0.2, 1000, 12, 3)
        assert est == McEstimate(mean=pytest.approx(0.05), std_error=0.0,
                                 n_paths=1000, seed=3)
        assert est == mc_european(M32, P1, CALL, 1.0, 0.2, 1000, 3)

    def test_steps_rounded_to_zero_leave_the_paths(self):
        # 1e-15 before maturity some of the 12 grid steps round to zero
        b = solve_boundary(M32, P1, CALL, SolverConfig(n_steps=12))
        t = 1.0 - 1e-15
        assert (np.diff(t + np.linspace(0.0, 1.0 - t, 13)) == 0.0).any()
        est = mc_american_policy(M32, P1, CALL, b, t, 0.2, 1000, 12, 3)
        assert est.mean == pytest.approx(0.05, abs=1e-8)
        assert est.mean == pytest.approx(
            mc_european(M32, P1, CALL, t, 0.2, 1000, 3).mean, abs=1e-8)

    def test_dominates_european_estimate(self, fig1_boundary_coarse):
        b = fig1_boundary_coarse
        am = mc_american_policy(M32, P1, CALL, b, 0.0, 0.2, 100_000, 100, 13)
        eu = mc_european(M32, P1, CALL, 0.0, 0.2, 100_000, 13)
        assert am.mean >= eu.mean - 3 * math.hypot(am.std_error, eu.std_error)

    def test_bias_indicator_shrinks_with_grid(self, fig1_boundary_coarse):
        b = fig1_boundary_coarse
        coarse = policy_bias_indicator(M32, P1, CALL, b, 0.0, 0.2, 150_000, 50, 17)
        fine = policy_bias_indicator(M32, P1, CALL, b, 0.0, 0.2, 150_000, 200, 17)
        assert fine < coarse

    def test_determinism(self, fig1_boundary_coarse):
        b = fig1_boundary_coarse
        a1 = mc_american_policy(M32, P1, CALL, b, 0.0, 0.2, 20_000, 50, 23)
        a2 = mc_american_policy(M32, P1, CALL, b, 0.0, 0.2, 20_000, 50, 23)
        assert a1 == a2

    def test_mixture_policy_runs(self, fig7_boundary_coarse):
        mix = ModelSpec("mixture", terms=((0.07, 1.0),), terms_a2=((0.07, 1.0),))
        p7 = CirParams(1.0, 2.0, 1.0)
        est = mc_american_policy(mix, p7, CALL, fig7_boundary_coarse, 0.0, 1.0,
                                 50_000, 100, 29)
        eu = mc_european(mix, p7, CALL, 0.0, 1.0, 50_000, 29)
        assert est.mean >= eu.mean - 3 * math.hypot(est.std_error, eu.std_error)
        assert est.mean > 0.0


def _alive_mask_policy(m, p, option, boundary, t, state, n, n_time_steps, seed):
    """The policy estimator as a loop over every path with an alive mask,
    drawing the live paths' next levels in path order; also each path's stop
    date."""
    rng = np.random.default_rng(seed)
    times = t + np.linspace(0.0, option.maturity - t, n_time_steps + 1)
    lo_cut, hi_cut = boundary.cuts_at(times)
    payoff, y = np.zeros(n), np.full(n, factor_state(m, state))
    alive, stop_date = np.ones(n, dtype=bool), np.full(n, -1)
    for i, s in enumerate(times):
        last = i == n_time_steps
        stopped = alive & ((y <= lo_cut[i]) | (y >= hi_cut[i]) | last)
        disc = math.exp(-option.rate * (s - t))
        payoff[stopped] = disc * option.payoff_vix(f_eval(m, y[stopped]))
        stop_date[stopped] = i
        alive &= ~stopped
        if last:
            break
        lam_unit, scale = law_params(p, times[i + 1] - s, 1.0)
        idx = np.nonzero(alive)[0]
        y[idx] = scale * rng.noncentral_chisquare(p.df, lam_unit * y[idx])
    return _summarize(payoff, seed), stop_date


class TestPolicyDrawOrder:
    # the estimator carries only its live paths; it must draw exactly what
    # the alive-mask loop draws, in the same order
    @pytest.mark.parametrize("case", ["fig1", "fig7"])
    def test_matches_the_alive_mask_loop_bit_for_bit(
            self, case, request, model_32, params_fig1, model_mix7,
            params_fig7, call_contract):
        m, p, state = {"fig1": (model_32, params_fig1, 0.25),
                       "fig7": (model_mix7, params_fig7, 3.0)}[case]
        b = request.getfixturevalue(f"{case}_boundary_coarse")
        want, stop_date = _alive_mask_policy(m, p, call_contract, b, 0.0,
                                             state, 5000, 40, 5)
        # paths stop on most dates, and some live until maturity
        assert len(np.unique(stop_date)) >= 35 and (stop_date == 40).any()
        got = mc_american_policy(m, p, call_contract, b, 0.0, state, 5000, 40, 5)
        assert got == want
