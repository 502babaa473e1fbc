import warnings

import numpy as np
import pytest

from vixpricer.american import (SolverConfig, SolverError,
                                american_price, convexity_witness,
                                exercise_region_query, smooth_fit_check,
                                solve_boundary, terminal_levels)
from vixpricer.cir import CirParams
from vixpricer.european import OptionSpec, european_price
from vixpricer.models import ModelSpec, f_eval, x_star

M32 = ModelSpec("a1", terms=((1.0, 1.0),))
M12 = ModelSpec("a2", terms=((1.0, 1.0),))
MIX7 = ModelSpec("mixture", terms=((0.07, 1.0),), terms_a2=((0.07, 1.0),))
P1 = CirParams(2.94, 17.10, 2.05)
P2 = CirParams(3.0, 0.68, 1.0)
P7 = CirParams(1.0, 2.0, 1.0)
CALL = OptionSpec(0.15, 1.0, 0.05, "call")
PUT = OptionSpec(0.15, 1.0, 0.05, "put")


class TestTerminalLevels:
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
        (M32, P1, CALL, (0.3687186774570612, 0.3321820574301475)),
        (M32, P1, PUT, (0.10874940145164869, 0.11326419431328594)),
        (M12, P2, CALL, (0.5670467235604406, 0.4950302603566137)),
        (MIX7, P7, CALL, (0.277263965716632, 0.31747637096335435,
                          3.2167686541458305, 2.9618982565157825)),
    ])
    def test_pinned_values(self, m, p, option, want):
        # b(0) and b(T/2) at 30 steps, as first recorded; guards refactors
        # of the sweep against drift far below the discretization error
        b = solve_boundary(m, p, option, SolverConfig(n_steps=30))
        got = [b.values[0], b.values[15]]
        if b.is_pair:
            got += [b.upper[0], b.upper[15]]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    def test_increasing_only_mixture_is_the_a2_boundary(self):
        # with f(y) = y the one-sided mixture restates fig2's a2 call; its
        # lower curve is pinned at 0 and must add no zero-node mass
        mix = ModelSpec("mixture", terms_a2=((1.0, 1.0),))
        cfg = SolverConfig(n_steps=30)
        single = solve_boundary(M12, P2, CALL, cfg)
        pair = solve_boundary(mix, P2, CALL, cfg)
        assert np.all(pair.values == 0.0)
        np.testing.assert_allclose(pair.upper, single.values, rtol=0.0,
                                   atol=1e-12)
        for x in np.linspace(0.08, 0.35, 10):
            for t in (0.0, 0.4):
                assert american_price(mix, P2, CALL, pair, t, x) == \
                    pytest.approx(american_price(M12, P2, CALL, single, t, x),
                                  rel=0.0, abs=1e-12)


class TestAmericanPrice:
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


class TestExerciseQuery:
    def test_closed_region_at_boundary(self, fig1_boundary_coarse):
        b = fig1_boundary_coarse
        t = float(b.times[10])
        assert exercise_region_query(b, t, b.values[10]) == "exercise"
        assert exercise_region_query(b, t, b.values[10] - 1e-9) == "continue"

    def test_below_strike_is_continuation(self, fig1_boundary_coarse):
        assert exercise_region_query(fig1_boundary_coarse, 0.2, 0.10) == "continue"

    def test_put_orientation(self):
        contract = OptionSpec(0.25, 1.0, 0.05, "put")
        b = solve_boundary(M12, P2, contract, SolverConfig(n_steps=20))
        assert exercise_region_query(b, 0.1, b.value_at(0.1) / 2) == "exercise"
        assert exercise_region_query(b, 0.1, 0.3) == "continue"

    def test_mixture_middle_continues(self, fig7_boundary_coarse):
        b = fig7_boundary_coarse
        assert exercise_region_query(b, 0.2, 1.0) == "continue"
        assert exercise_region_query(b, 0.2, b.value_at(0.2)) == "exercise"
        assert exercise_region_query(b, 0.2, b.upper_at(0.2) + 0.1) == "exercise"

    def test_time_outside_grid(self, fig1_boundary_coarse):
        with pytest.raises(ValueError):
            exercise_region_query(fig1_boundary_coarse, 2.0, 0.2)


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
