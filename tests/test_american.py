import dataclasses
import math
import sys
import warnings
from functools import partial

import numpy as np
import pytest

from vixpricer import american
from vixpricer.american import (SolverConfig, SolverError, _solve_step,
                                _stop_pair, american_price,
                                convexity_witness, smooth_fit_check,
                                solve_boundary, terminal_levels)
from vixpricer.cir import CirParams
from vixpricer.cli import bundled_config_names, load_config
from vixpricer.european import (OptionSpec, QuadratureConfig, european_price,
                                factor_state)
from vixpricer.mc import mc_american_policy
from vixpricer.models import AssumptionError, ModelSpec, f_eval, g_eval, x_star

M32 = ModelSpec("a1", terms=((1.0, 1.0),))
M12 = ModelSpec("a2", terms=((1.0, 1.0),))
MIX7 = ModelSpec("mixture", terms=((0.07, 1.0),), terms_a2=((0.07, 1.0),))
M1MIX = ModelSpec("a1", terms=((0.5, 1.0), (0.5, 1.2)))  # fig1_mix
MIX_A2 = ModelSpec("mixture", terms_a2=((1.0, 1.0),))  # M12's map, no lower side
P1 = CirParams(2.94, 17.10, 2.05)
P1MIX = CirParams(3.27, 17.10, 2.05)
P2 = CirParams(3.0, 0.68, 1.0)
P7 = CirParams(1.0, 2.0, 1.0)
CALL = OptionSpec(0.15, 1.0, 0.05, "call")
PUT = OptionSpec(0.15, 1.0, 0.05, "put")
PUT25 = OptionSpec(0.25, 1.0, 0.05, "put")


class TestTerminalLevels:
    def test_strike_below_mixture_minimum_rejected(self):
        # fig7's map bottoms out at 0.14: no out-of-the-money band, no boundary
        low = OptionSpec(0.12, 1.0, 0.05, "call")
        with pytest.raises(ValueError, match="does not exceed the map minimum"):
            solve_boundary(MIX7, P7, low, SolverConfig(n_steps=8))

    def test_reciprocal_call(self):
        got = terminal_levels(M32, P1, CALL)
        assert got == pytest.approx(0.226638, abs=1e-4)
        assert got == max(0.15, x_star(M32, P1, 0.05, 0.15))

    def test_identity_call(self):
        assert terminal_levels(M12, P2, CALL) == pytest.approx(0.225410, abs=1e-4)

    def test_put_is_strike_capped(self):
        got = terminal_levels(M32, P1, PUT)
        assert got == min(0.15, x_star(M32, P1, 0.05, 0.15)) == 0.15
        high_strike = OptionSpec(0.30, 1.0, 0.05, "put")
        got = terminal_levels(M32, P1, high_strike)
        assert got == pytest.approx(x_star(M32, P1, 0.05, 0.30), rel=1e-12)

    def test_mixture_pair(self):
        lo, hi = terminal_levels(MIX7, P7, CALL)
        # benefit sign changes sit outside the strike crossings here
        assert lo == pytest.approx(0.556379, abs=1e-5)
        assert hi == pytest.approx(2.221099, abs=1e-5)


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(n_steps=1)
        with pytest.raises(ValueError):
            SolverConfig(inner_tol=0.0)

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_inner_tol_must_be_finite(self, tol):
        with pytest.raises(ValueError, match="inner_tol must be finite"):
            SolverConfig(inner_tol=tol)

    @pytest.mark.parametrize("n_steps", [12.5, 12.0, "12"])
    def test_n_steps_must_be_an_integer(self, n_steps):
        with pytest.raises(ValueError, match="n_steps must be an integer"):
            SolverConfig(n_steps=n_steps)


class TestBoundaryShape:
    def test_call_boundary_monotone_and_above_terminal(self, fig1_boundary_coarse):
        b = fig1_boundary_coarse
        assert np.all(np.diff(b.values) <= 1e-12)
        assert np.all(b.values >= b.values[-1] - 1e-12)
        assert b.values[-1] == pytest.approx(0.226638, abs=1e-4)

    def test_put_boundary_monotone_increasing(self):
        contract = OptionSpec(0.25, 1.0, 0.05, "put")
        b = solve_boundary(M12, P2, contract, SolverConfig(n_steps=40))
        assert np.all(np.diff(b.values) >= -1e-12)
        assert b.values[-1] == pytest.approx(
            min(0.25, x_star(M12, P2, 0.05, 0.25)), rel=1e-10)
        assert np.all(b.values <= b.values[-1] + 1e-12)

    def test_mixture_pair_shape(self, fig7_boundary_coarse):
        b = fig7_boundary_coarse
        assert b.is_pair
        assert np.all(np.diff(b.values) >= -1e-12)
        assert np.all(np.diff(b.upper) <= 1e-12)
        assert np.all(b.values < b.upper)

    def test_grid_self_convergence(self):
        b1 = solve_boundary(M32, P1, CALL, SolverConfig(n_steps=40))
        b2 = solve_boundary(M32, P1, CALL, SolverConfig(n_steps=80))
        assert abs(b1.values[0] - b2.values[0]) < 0.002 * 0.15

    def test_mixture_put_not_supported(self):
        with pytest.raises(SolverError):
            solve_boundary(MIX7, P7, PUT, SolverConfig(n_steps=10))

    @pytest.mark.parametrize("m,p,option,want", [
        (M32, P1, CALL, (0.3686610939849542, 0.3320719869418082)),
        (M32, P1, PUT, (0.10913912188325235, 0.11393404258602001)),
        (M12, P2, CALL, (0.5665809136732544, 0.4942217889457924)),
        (MIX7, P7, CALL, (0.27734327197884384, 0.31771235270486364,
                          3.2163318916352006, 2.961282579465914)),
    ])
    def test_pinned_values(self, m, p, option, want):
        # b(0) and b(T/2) at 30 steps (VIX levels of a monotone curve, factor
        # levels of the pair), each within 5.0e-11 of the solve at
        # inner_tol=1e-12 (the put; fig1 9.1e-12, fig2 2.2e-16, the pair
        # 7.5e-12 in factor levels and 3.0e-12 in VIX); guards refactors of
        # the sweep against drift far below the discretization error
        b = solve_boundary(m, p, option, SolverConfig(n_steps=30))
        got = [b.values[0], b.values[15]]
        if b.is_pair:
            got += [b.upper[0], b.upper[15]]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("m,p,option", [
        (M32, P1, CALL), (M32, P1, PUT), (M12, P2, CALL), (MIX7, P7, CALL)],
        ids=["fig1", "fig1-put", "fig2", "fig7-pair"])
    def test_whole_curve_within_inner_tol_of_a_tight_solve(self, m, p, option):
        # inner_tol is a VIX-level accuracy for every family, also on the
        # coarse grids where each step's start extrapolates the fewest
        # later levels
        for n_steps in (8, 12, 30):
            cfg = SolverConfig(n_steps=n_steps)
            b = solve_boundary(m, p, option, cfg)
            tight = solve_boundary(m, p, option,
                                   dataclasses.replace(cfg, inner_tol=1e-12))
            for got, want in ((b.values, tight.values), (b.upper, tight.upper)):
                if got is not None:
                    if m.is_mixture:
                        got, want = f_eval(m, got), f_eval(m, want)
                    np.testing.assert_allclose(got, want, rtol=0.0,
                                               atol=2 * cfg.inner_tol,
                                               err_msg=f"{n_steps} steps")

    @pytest.mark.parametrize("name,kind", [
        ("fig1", "call"), ("fig2", "call"), ("fig1", "put"), ("fig7", "call")])
    def test_secant_roots_keep_curves_within_a_quarter_inner_tol(self, name, kind):
        # a step returns the root of its secant model, far nearer the fixed
        # point than the error estimate that stops it: the benchmark's
        # curves at 30 and 100 steps stay within inner_tol / 4 VIX of the
        # inner_tol=1e-13 solve (at most 1.2e-10 at inner_tol 1e-9)
        cfg = load_config(name)
        option = dataclasses.replace(cfg.contract, kind=kind)
        for n_steps in (30, 100):
            solver = SolverConfig(n_steps=n_steps)
            b, tight = (solve_boundary(cfg.model, cfg.cir, option, c,
                                       cfg.quadrature)
                        for c in (solver, dataclasses.replace(solver,
                                                              inner_tol=1e-13)))
            for got, want in ((b.values, tight.values), (b.upper, tight.upper)):
                if got is not None:
                    if b.is_pair:
                        got, want = f_eval(cfg.model, got), f_eval(cfg.model, want)
                    np.testing.assert_allclose(got, want, rtol=0.0,
                                               atol=0.25 * solver.inner_tol,
                                               err_msg=f"{n_steps} steps")

    @pytest.mark.parametrize("m,p,option", [
        (M32, P1, CALL), (M32, P1, PUT), (M12, P2, CALL), (M1MIX, P1MIX, CALL),
        (MIX7, P7, CALL)], ids=["fig1-call", "fig1-put", "fig2-call",
                                "fig1_mix", "fig7-pair"])
    def test_value_matching_at_every_grid_time(self, m, p, option):
        # the sweep prices against the curve it solved: at each grid time
        # before expiry the premium formula on a boundary level is the payoff
        b = solve_boundary(m, p, option, SolverConfig(n_steps=30))
        for i, t in enumerate(b.times[:-1]):
            for level in (b.values[i], b.upper[i]) if b.is_pair else (b.values[i],):
                vix = float(f_eval(m, level)) if b.is_pair else level
                payoff = float(option.payoff_vix(vix))
                got = american_price(m, p, option, b, t, level)
                assert abs(got - payoff) <= 1e-8, (t, level, got - payoff)

    @pytest.mark.parametrize("single_model,p", [
        (M12, P2), (M32, P1), (M1MIX, P1MIX)],
        ids=["a2-identity", "a1-reciprocal", "a1-two-term"])
    def test_one_sided_mixture_is_the_monotone_boundary(self, single_model, p):
        # a monotone map restated as a mixture with one part empty: its
        # absent curve stays pinned and adds no zero-node mass, its solved
        # curve maps onto the monotone one (the two take the same sweep
        # through the same factor cut), and both price alike, the mixture
        # quoted at the factor level g(x)
        curve_atol, price_atol = 1e-13, 1e-15
        rising = single_model.family == "a2"
        mix = ModelSpec("mixture", **{("terms_a2" if rising else "terms"):
                                      single_model.terms})
        for n_steps in (12, 30):
            cfg = SolverConfig(n_steps=n_steps)
            single = solve_boundary(single_model, p, CALL, cfg)
            pair = solve_boundary(mix, p, CALL, cfg)
            solved, absent = ((pair.upper, pair.values) if rising
                              else (pair.values, pair.upper))
            assert np.all(absent == (0.0 if rising else np.inf))
            np.testing.assert_allclose(f_eval(mix, solved), single.values,
                                       rtol=0.0, atol=curve_atol)
            for x in np.linspace(0.08, 0.45, 10):
                for t in (0.0, 0.4):
                    got = american_price(mix, p, CALL, pair, t,
                                         g_eval(single_model, x))
                    want = american_price(single_model, p, CALL, single, t, x)
                    assert got == pytest.approx(want, rel=0.0, abs=price_atol), \
                        (n_steps, t, x)


class TestSolveStep:
    # a steep falling update whose secant steps form a bracket around the
    # fixed point 2 without reaching it in two iterations
    UPDATE = staticmethod(lambda x: 2.0 - 3.0 * math.atan(5.0 * (x - 2.0)))

    def test_bracketed_fallback_reaches_the_fixed_point(self, monkeypatch):
        monkeypatch.setattr(american, "_MAX_INNER_ITERS", 2)
        got, _, _ = _solve_step(self.UPDATE, 1.0, 1e-9)
        assert abs(got - 2.0) <= 1e-9

    def test_fallback_reports_its_bracket_width(self, monkeypatch):
        monkeypatch.setattr(american, "_MAX_INNER_ITERS", 2)
        got, _, error = _solve_step(self.UPDATE, 1.0, 1e-9)
        assert 0.0 < error <= 1e-9
        assert abs(got - 2.0) <= error

    def test_overshooting_secant_hands_its_bracket_over(self, monkeypatch):
        # from 1.0 a secant step of UPDATE leaves the residual bracket long
        # before the iteration limit; the bracket goes to newton_bisect
        handed = []
        newton_bisect = american.newton_bisect

        def spy(fn, lo, hi, **kwargs):
            handed.append((lo, hi))
            return newton_bisect(fn, lo, hi, **kwargs)

        monkeypatch.setattr(american, "newton_bisect", spy)
        calls = []

        def update(x):
            calls.append(x)
            return self.UPDATE(x)

        got, _, error = _solve_step(update, 1.0, 1e-9)
        assert len(handed) == 1 and len(calls) < 20
        (a, r_a), (b, r_b) = handed[0]
        assert a < b and r_a * r_b < 0.0
        # the error is the final bracket's width, which holds the fixed point
        assert 0.0 < error <= 1e-9
        assert abs(got - 2.0) <= error

    def test_stops_on_the_error_estimate_not_the_residual(self):
        # slope 0.95: the first residual, 5e-10, is inside the tolerance
        # while update(x0) is 9.5e-9 from the fixed point 2
        got, _, _ = _solve_step(lambda x: 0.95 * x + 0.1, 2.0 - 1e-8, 1e-9)
        assert abs(got - 2.0) <= 1e-9

    def test_carry_receives_the_slope_and_the_error(self):
        got, slope, error = _solve_step(lambda x: 0.95 * x + 0.1, 1.0, 1e-9)
        assert slope == pytest.approx(0.95, rel=1e-6)
        assert abs(got - 2.0) <= error <= 1e-9

    def test_carried_slope_stops_after_one_call(self):
        calls = []

        def update(x):
            calls.append(x)
            return 0.95 * x + 0.1

        got, _, error = _solve_step(update, 2.0 - 1e-12, 1e-9, slope=0.95)
        assert len(calls) == 1
        # the secant's root with the exact slope is the fixed point 2, up to
        # rounding; the error estimate, update(x)'s distance, bounds it
        assert abs(got - 2.0) <= 1e-15
        assert error >= abs(got - 2.0)

    def test_no_bracket_is_a_solver_error(self, monkeypatch):
        monkeypatch.setattr(american, "_MAX_INNER_ITERS", 1)
        with pytest.raises(SolverError):
            _solve_step(self.UPDATE, 1.0, 1e-9)

    def test_no_bracket_names_the_sign_kept(self, monkeypatch):
        monkeypatch.setattr(american, "_MAX_INNER_ITERS", 1)
        with pytest.raises(SolverError,
                           match="no bracket: the residual stayed positive"):
            _solve_step(self.UPDATE, 1.0, 1e-9)

    @pytest.mark.parametrize("name", bundled_config_names())
    def test_bundled_sweeps_hand_no_bracket_over(self, name, monkeypatch):
        # every bundled step reaches its error estimate by secant steps, so
        # the pinned boundaries are the secant iterates'; the contracts that
        # have no boundary fail as they always have, without a bracket either
        handed = []
        newton_bisect = american.newton_bisect

        def spy(*args, **kwargs):
            handed.append(args[1:3])
            return newton_bisect(*args, **kwargs)

        monkeypatch.setattr(american, "newton_bisect", spy)
        cfg = load_config(name)
        expected = {("fig5", "call"): (AssumptionError, "must exceed"),
                    ("fig5", "put"): (SolverError, "calls only"),
                    ("fig7", "put"): (SolverError, "calls only"),
                    ("fig4", "put", 12): (SolverError, "outside the map's range")}
        for kind in ("call", "put"):
            option = dataclasses.replace(cfg.contract, kind=kind)
            for n_steps in (12, 30):
                failure = (expected.get((name, kind))
                           or expected.get((name, kind, n_steps)))
                solve = partial(solve_boundary, cfg.model, cfg.cir, option,
                                SolverConfig(n_steps=n_steps), cfg.quadrature)
                if failure:
                    with pytest.raises(failure[0], match=failure[1]):
                        solve()
                else:
                    assert np.all(np.isfinite(solve().values))
                assert handed == [], (kind, n_steps)

    @pytest.mark.parametrize("n", [12, 14, 16, 18, 20])
    def test_coarse_a2_puts_solve(self, n):
        cfg = load_config("fig2")
        put = dataclasses.replace(cfg.contract, kind="put")
        b = solve_boundary(cfg.model, cfg.cir, put, SolverConfig(n_steps=n),
                           cfg.quadrature)
        assert np.all(np.isfinite(b.values)) and b.values[0] > 0.0
        assert np.all(np.diff(b.values) >= 0.0)

    def test_coarse_put_failure_names_its_reason(self):
        # at the first solved step of a 12-step grid, value matching on
        # fig4's put gives a negative exercise level, which no factor level
        # reaches; at 30 steps it solves
        cfg = load_config("fig4")
        put = dataclasses.replace(cfg.contract, kind="put")
        with pytest.raises(SolverError, match=r"step at t=0\.916667 failed: "
                           r"value matching gave VIX level -0\.197065 "
                           r"outside the map's range"):
            solve_boundary(cfg.model, cfg.cir, put, SolverConfig(n_steps=12),
                           cfg.quadrature)
        b = solve_boundary(cfg.model, cfg.cir, put, SolverConfig(n_steps=30),
                           cfg.quadrature)
        assert np.all(np.isfinite(b.values)) and b.values[0] > 0.0


class TestExtrapolate:
    def test_polynomial_through_the_points_is_exact(self):
        cubic = lambda s: 0.3 - 0.2 * s + 0.05 * s**2 - 0.01 * s**3
        xs = np.sqrt([0.1, 0.2, 0.3, 0.4])
        got = american._extrapolate(0.0, xs, cubic(xs))
        assert got == pytest.approx(cubic(0.0), rel=1e-12)

    def test_fewer_points_lower_the_degree(self):
        assert american._extrapolate(0.5, [1.0], [2.0]) == 2.0
        assert american._extrapolate(0.5, [1.0, 2.0], [2.0, 4.0]) == 1.0
        assert math.isnan(american._extrapolate(0.5, [], []))

    def test_start_takes_the_order_that_predicted_the_last_level(self):
        xs = [0.1 * k for k in range(1, 8)]
        quadratic = lambda s: 0.3 - 0.2 * s + 0.5 * s**2
        quintic = lambda s: quadratic(s) - 3.0 * s**3 + 7.0 * s**4 - 9.0 * s**5
        # levels on a quadratic but the farthest: the cubic predicts the
        # nearest level exactly, the orders reading the stray one do not
        ys = [quadratic(s) for s in xs]
        ys[-1] += 1e-3
        start = american._root_tau_start(0.0, xs, ys)
        assert start == pytest.approx(quadratic(0.0), rel=1e-12)
        # levels on a quintic: only the order-6 polynomial predicts them
        ys = [quintic(s) for s in xs]
        start = american._root_tau_start(0.0, xs, ys)
        assert start == pytest.approx(quintic(0.0), rel=1e-10)
        # with three levels or fewer no order can be compared: all are read
        assert american._root_tau_start(0.0, xs[:3], ys[:3]) == \
            american._extrapolate(0.0, xs[:3], ys[:3])
        assert math.isnan(american._root_tau_start(0.0, [], []))


class TestDiagnostics:
    def test_monotonicity_clips_report_planted_violations(self, monkeypatch):
        sweep = american._sweep

        def planted(*args):
            cuts, updates, errors = sweep(*args)
            # an a1 call stops below its lower cut, which rises in t
            cuts[0, 3] = cuts[0, 4] + 1e-3
            cuts[0, 5] = cuts[0, 6] + 1e-8
            return cuts, updates, errors

        monkeypatch.setattr(american, "_sweep", planted)
        b = solve_boundary(M32, P1, CALL, SolverConfig(n_steps=12))
        # every isotonic adjustment is reported, in factor levels
        clips = b.diagnostics["monotonicity_clips"]
        assert [c[0] for c in clips] == [b.times[3], b.times[5]]
        assert clips[0][1] == pytest.approx(1e-3, rel=1e-9)
        assert clips[1][1] == pytest.approx(1e-8, rel=1e-6)
        assert b.values[3] == b.values[4] and b.values[5] == b.values[6]

    @pytest.mark.parametrize("m,p", [(M32, P1), (MIX7, P7),
                                     (ModelSpec("mixture", terms_a2=((1.0, 1.0),)), P2)],
                             ids=["fig1", "fig7-pair", "increasing-only-mixture"])
    def test_inner_updates_count_the_premium_formula_calls(self, m, p, monkeypatch):
        calls = []
        formula = american._premium_formula
        monkeypatch.setattr(american, "_premium_formula",
                            lambda *args: calls.append(1) or formula(*args))
        n = 16
        b = solve_boundary(m, p, CALL, SolverConfig(n_steps=n))
        updates = np.array(b.diagnostics["inner_updates"])
        assert updates.shape == (2, n + 1)  # lower and upper cut
        assert updates.sum() == len(calls)
        # the error estimate of every solved step is within inner_tol
        errors = np.array(b.diagnostics["inner_error"])
        assert errors.shape == updates.shape
        assert not errors[updates == 0].any()
        assert (errors[updates > 0] <= SolverConfig().inner_tol).all()
        # only the expiry column and an absent side are not solved
        assert not updates[:, n].any()
        for row, level in zip(updates, b.cuts[:, n]):
            if american._is_active(level):
                assert (row[:n] >= 1).all()
            else:
                assert not row.any()


    @pytest.mark.parametrize("name,kind", [
        ("fig1", "call"), ("fig2", "call"), ("fig1", "put"), ("fig7", "call")])
    def test_root_tau_start_keeps_fine_steps_cheap(self, name, kind):
        # each step starts from the polynomial in sqrt(T - t) through its
        # side's later solved levels, secant roots, of the order that best
        # predicted the last of them; at 100 steps that takes at most 2.0
        # updates per solved side-step (2.82-3.36 from the linear start in
        # t, 2.08-2.34 from a cubic through the levels update returned,
        # 1.40-1.79 from this one)
        cfg = load_config(name)
        option = dataclasses.replace(cfg.contract, kind=kind)
        b = solve_boundary(cfg.model, cfg.cir, option,
                           SolverConfig(n_steps=100), cfg.quadrature)
        updates = np.array(b.diagnostics["inner_updates"])
        assert updates.sum() / np.count_nonzero(updates) <= 2.0

    @pytest.mark.parametrize("name,most", [
        ("fig1", 39), ("fig2", 39), ("fig3", 39), ("fig7", 79)])
    def test_root_tau_start_costs_coarse_calls_no_more(self, name, most):
        # at 8 steps most starts extrapolate fewer than four levels; the
        # calls re-solved there still take no more updates in total than
        # from the linear start in t (39, 39, 39 and 79)
        cfg = load_config(name)
        b = solve_boundary(cfg.model, cfg.cir, cfg.contract,
                           SolverConfig(n_steps=8), cfg.quadrature)
        assert np.sum(b.diagnostics["inner_updates"]) <= most


class TestAmericanPrice:
    @pytest.mark.xfail(strict=True, reason="the fixed rule's lower edge bounds "
                       "mass, not the benefit's y^-2 tail (ROADMAP item 3)")
    def test_near_edge_model_does_not_depend_on_the_tail_cut(self):
        # fig1's map at kappa 4.1: df/2 = 2.035 just above p + 1 = 2, so the
        # model is valid and its kernels converge, slowly; the 30-step call
        # reads 0.3758 / 0.4490 / 0.5117 at tail cuts 1e-12 / 1e-16 / 1e-20
        p = CirParams(2.94, 17.1, 4.1)
        prices = []
        for cut in (1e-12, 1e-20):
            quad = QuadratureConfig(tail_mass_cut=cut)
            b = solve_boundary(M32, p, CALL, SolverConfig(n_steps=30), quad)
            prices.append(american_price(M32, p, CALL, b, 0.0, 0.2, quad))
        assert prices[0] == pytest.approx(prices[1], rel=1e-6)

    def test_expiry_is_payoff(self, fig1_boundary_coarse):
        got = american_price(M32, P1, CALL, fig1_boundary_coarse, 1.0, 0.4)
        assert got == pytest.approx(0.25)

    def test_dominance(self, fig1_boundary_coarse):
        for x in (0.08, 0.15, 0.25, 0.4):
            am = american_price(M32, P1, CALL, fig1_boundary_coarse, 0.0, x)
            eu = european_price(M32, P1, CALL, 0.0, x)
            assert am >= eu - 1e-9
            assert am >= max(x - 0.15, 0.0) - 1e-4
            assert eu >= 0.0

    def test_decreasing_in_time(self, fig1_boundary_coarse):
        vals = [american_price(M32, P1, CALL, fig1_boundary_coarse, t, 0.2)
                for t in (0.0, 0.25, 0.5, 0.75, 0.95)]
        assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_deep_exercise_recovers_payoff(self):
        b = solve_boundary(M32, P1, CALL, SolverConfig(n_steps=100))
        x = 2.0 * b.value_at(0.0)
        gap = american_price(M32, P1, CALL, b, 0.0, x) - (x - 0.15)
        assert abs(gap) < 1e-3

    def test_boundary_identity(self, fig1_boundary_coarse):
        b = fig1_boundary_coarse
        t = 0.3
        bx = b.value_at(t)
        got = american_price(M32, P1, CALL, b, t, bx)
        assert got == pytest.approx(bx - 0.15, abs=2e-4)

    def test_mixture_dominance(self, fig7_boundary_coarse):
        for y in (0.6, 1.0, 2.0, 2.6):
            am = american_price(MIX7, P7, CALL, fig7_boundary_coarse, 0.0, y)
            eu = european_price(MIX7, P7, CALL, 0.0, y)
            intrinsic = max(f_eval(MIX7, y) - 0.15, 0.0)
            assert am >= eu - 1e-9
            assert am >= intrinsic - 2e-4


class TestBoundaryCoverage:
    # a boundary prices only its own contract, from its first grid time on
    @pytest.mark.parametrize("option,t,reason", [
        (CALL, -0.5, "lies before"),
        (dataclasses.replace(CALL, maturity=2.0), 0.0, "matures at 2"),
        (PUT, 0.0, "call boundary cannot price a put"),
        (CALL, 1.5, "beyond maturity"),
        (CALL, math.nan, "valuation time nan")],
        ids=["before-the-grid", "other-maturity", "other-kind",
             "beyond-maturity", "nan"])
    def test_uncovered_valuation_is_rejected(self, fig1_boundary_coarse,
                                             option, t, reason):
        b = fig1_boundary_coarse
        with pytest.raises(ValueError, match=reason):
            american_price(M32, P1, option, b, t, 0.2)
        with pytest.raises(ValueError, match=reason):
            smooth_fit_check(M32, P1, option, b, t)
        with pytest.raises(ValueError, match=reason):
            mc_american_policy(M32, P1, option, b, t, 0.2, 100, 10, 1)

    def test_policy_needs_a_path(self, fig1_boundary_coarse):
        with pytest.raises(ValueError, match="at least 1"):
            mc_american_policy(M32, P1, CALL, fig1_boundary_coarse, 0.0, 0.2,
                               0, 10, 1)


class TestSmoothFit:
    def test_reciprocal_call(self, fig1_boundary_coarse):
        gap = smooth_fit_check(M32, P1, CALL, fig1_boundary_coarse, 0.5)
        assert abs(gap) < 0.05

    def test_identity_put(self):
        contract = OptionSpec(0.25, 1.0, 0.05, "put")
        b = solve_boundary(M12, P2, contract, SolverConfig(n_steps=60))
        assert abs(smooth_fit_check(M12, P2, contract, b, 0.5)) < 0.05

    def test_mixture_both_sides(self, fig7_boundary_coarse):
        from vixpricer.models import f_deriv
        for which in ("lower", "upper"):
            gap = smooth_fit_check(MIX7, P7, CALL, fig7_boundary_coarse, 0.5,
                                   which)
            level = (fig7_boundary_coarse.value_at(0.5) if which == "lower"
                     else fig7_boundary_coarse.upper_at(0.5))
            assert abs(gap) <= 0.05 * abs(f_deriv(MIX7, level, 1))

    @pytest.mark.parametrize("which", ["upper", "lower", "bogus"])
    def test_single_curve_takes_only_single(self, fig1_boundary_coarse, which):
        with pytest.raises(ValueError, match="which='single'"):
            smooth_fit_check(M32, P1, CALL, fig1_boundary_coarse, 0.5, which)

    def test_requires_time_before_expiry(self, fig1_boundary_coarse):
        with pytest.raises(ValueError):
            smooth_fit_check(M32, P1, CALL, fig1_boundary_coarse, 1.0)

    @pytest.mark.parametrize("mix, p, absent", [
        (ModelSpec("mixture", terms=M32.terms), P1, "upper"),
        (ModelSpec("mixture", terms_a2=M12.terms), P2, "lower")])
    def test_one_sided_mixture_names_the_absent_side(self, mix, p, absent):
        b = solve_boundary(mix, p, CALL, SolverConfig(n_steps=12))
        present = "lower" if absent == "upper" else "upper"
        assert np.isfinite(smooth_fit_check(mix, p, CALL, b, 0.5, present))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"no {absent} boundary"):
                smooth_fit_check(mix, p, CALL, b, 0.5, absent)


def _stops(m, b, t, state):
    """Whether the boundary's stored factor stop pair stops ``state`` at ``t``."""
    lower, upper = b.cuts_at(t)
    y = factor_state(m, state)
    return bool(y <= lower or y >= upper)


@pytest.fixture(scope="module")
def m12_put_boundary():
    return solve_boundary(M12, P2, PUT25, SolverConfig(n_steps=20))


class TestExerciseQuery:
    def test_closed_region_at_boundary(self, fig1_boundary_coarse,
                                       m12_put_boundary, fig7_boundary_coarse):
        b = fig1_boundary_coarse
        t = float(b.times[10])
        assert _stops(M32, b, t, b.values[10])
        assert not _stops(M32, b, t, b.values[10] - 1e-9)
        b = m12_put_boundary
        t = float(b.times[10])
        assert _stops(M12, b, t, b.values[10])
        assert not _stops(M12, b, t, b.values[10] + 1e-9)
        b = fig7_boundary_coarse
        t = float(b.times[10])
        assert _stops(MIX7, b, t, b.values[10])
        assert not _stops(MIX7, b, t, b.values[10] + 1e-9)
        assert _stops(MIX7, b, t, b.upper[10])
        assert not _stops(MIX7, b, t, b.upper[10] - 1e-9)

    def test_below_strike_is_continuation(self, fig1_boundary_coarse,
                                          m12_put_boundary):
        assert not _stops(M32, fig1_boundary_coarse, 0.2, 0.10)
        assert not _stops(M12, m12_put_boundary, 0.2, 0.30)  # above a put's strike

    def test_put_orientation(self, m12_put_boundary):
        b = m12_put_boundary
        assert _stops(M12, b, 0.1, b.value_at(0.1) / 2)
        assert not _stops(M12, b, 0.1, 0.3)

    def test_mixture_middle_continues(self, fig7_boundary_coarse):
        b = fig7_boundary_coarse
        assert float(f_eval(MIX7, 1.0)) < CALL.strike
        assert not _stops(MIX7, b, 0.2, 1.0)
        assert _stops(MIX7, b, 0.2, b.value_at(0.2))
        assert _stops(MIX7, b, 0.2, b.upper_at(0.2))
        assert _stops(MIX7, b, 0.2, b.upper_at(0.2) + 0.1)


class TestStopPair:
    @pytest.mark.parametrize("m,p,option", [
        (M32, P1, CALL), (M32, P1, PUT), (M12, P2, CALL), (M1MIX, P1MIX, CALL),
        (MIX7, P7, CALL), (MIX_A2, P2, CALL)],
        ids=["fig1-call", "fig1-put", "fig2-call", "a1-two-term-call",
             "fig7-pair", "rising-side-mixture"])
    def test_cuts_are_the_stop_pair_of_the_curves(self, m, p, option):
        b = solve_boundary(m, p, option, SolverConfig(n_steps=30))
        assert b.cuts.shape == (2, len(b.times))
        want = (np.array([b.values, b.upper]) if b.is_pair
                else _stop_pair(m, option, b.values))
        np.testing.assert_array_equal(b.cuts, want)
        for i, t in enumerate(b.times):
            np.testing.assert_array_equal(b.cuts_at(t), want[:, i])
        # every family marks an absent side 0 below and inf above
        lower, upper = b.cuts
        active = [np.all((row > 0.0) & (row < np.inf)) for row in b.cuts]
        assert active[0] or np.all(lower == 0.0)
        assert active[1] or np.all(upper == np.inf)
        assert sum(active) == (2 if m is MIX7 else 1)

    def test_quotes_invert_only_the_state(self, monkeypatch):
        # on a two-term map every g_eval is a bracketed solve; pricing against
        # a solved boundary needs one, for the quoted state
        b = solve_boundary(M1MIX, P1MIX, CALL, SolverConfig(n_steps=12))
        calls = []

        def counted(m, x):
            calls.append(x)
            return g_eval(m, x)

        for name, module in list(sys.modules.items()):
            if name.startswith("vixpricer") and hasattr(module, "g_eval"):
                monkeypatch.setattr(module, "g_eval", counted)
        for t in (0.0, 0.3 * b.times[1], 0.5):
            calls.clear()
            american_price(M1MIX, P1MIX, CALL, b, t, 0.2)
            assert calls == [0.2]
        calls.clear()
        mc_american_policy(M1MIX, P1MIX, CALL, b, 0.0, 0.2, 100, 7, 3)
        assert calls == [0.2]


class TestBoundaryContainer:
    def test_interpolation(self, fig1_boundary_coarse):
        b = fig1_boundary_coarse
        mid = 0.5 * (b.times[3] + b.times[4])
        want = 0.5 * (b.values[3] + b.values[4])
        assert b.value_at(mid) == pytest.approx(want, rel=1e-14)

    def test_single_curve_has_no_upper(self, fig1_boundary_coarse):
        with pytest.raises(ValueError):
            fig1_boundary_coarse.upper_at(0.5)


class TestConvexityWitness:
    def test_finds_planted_violation(self):
        xs = np.linspace(0.0, 1.0, 11)
        vals = xs**2
        vals[5] += 0.1
        assert convexity_witness(xs, vals) == (xs[4], xs[5], xs[6])

    def test_convex_data_passes(self):
        xs = np.linspace(0.0, 1.0, 11)
        assert convexity_witness(xs, np.exp(xs)) is None
