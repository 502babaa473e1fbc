import dataclasses
import math

import numpy as np
import pytest

from vixpricer.cir import CirParams
from vixpricer.cli import bundled_config_names, load_config
from vixpricer.european import (OptionSpec, _benefit_integrand,
                                _payoff_integrand, eep_kernel)
from vixpricer.models import (AssumptionError, ModelSpec, _power_sum,
                              critical_levels, f_deriv, f_eval, g_eval,
                              minimum_location, mixture_inverse,
                              model_from_dict, payoff_levels,
                              validate_model_params, waiting_benefit, x_star)

M32 = ModelSpec("a1", terms=((1.0, 1.0),))
M12 = ModelSpec("a2", terms=((1.0, 1.0),))
MIX7 = ModelSpec("mixture", terms=((0.07, 1.0),), terms_a2=((0.07, 1.0),))
P1 = CirParams(alpha=2.94, beta=17.10, kappa=2.05)
P2 = CirParams(alpha=3.0, beta=0.68, kappa=1.0)
P7 = CirParams(alpha=1.0, beta=2.0, kappa=1.0)

# model instances of the six cataloged shapes, with their figure parameters
CATALOG = [
    (M32, P1),
    (ModelSpec("a1", terms=((1.0, 1.2),)), CirParams(3.64, 17.10, 2.05)),
    (ModelSpec("a1", terms=((0.5, 1.0), (0.5, 1.2))), CirParams(3.27, 17.10, 2.05)),
    (M12, P2),
    (ModelSpec("a2", terms=((1.0, 0.8),)), CirParams(3.7, 0.68, 1.0)),
    (ModelSpec("a2", terms=((0.5, 1.0), (0.5, 0.8))), CirParams(2.9, 0.68, 1.0)),
]


class TestMapEvaluation:
    def test_reciprocal_map_values(self):
        assert f_eval(M32, 2.0) == 0.5
        assert f_deriv(M32, 2.0, 1) == -0.25
        assert f_deriv(M32, 2.0, 2) == 0.25

    def test_identity_map(self):
        ys = np.linspace(0.2, 4.0, 9)
        np.testing.assert_array_equal(f_eval(M12, ys), ys)
        assert f_deriv(M12, 1.7, 2) == 0.0

    def test_mixture_values_at_minimum(self):
        assert f_eval(MIX7, 1.0) == pytest.approx(0.14)
        assert f_deriv(MIX7, 1.0, 1) == pytest.approx(0.0)
        assert minimum_location(MIX7) == pytest.approx(1.0, rel=1e-12)

    def test_rejects_nonpositive_levels(self):
        with pytest.raises(ValueError):
            f_eval(M32, 0.0)

    @pytest.mark.parametrize("m,_p", CATALOG)
    def test_derivatives_match_finite_differences(self, m, _p):
        ys = np.geomspace(0.05, 20.0, 100)
        for order in (1, 2):
            h = 1e-6 * ys
            upper = f_deriv(m, ys + h, order - 1)
            lower = f_deriv(m, ys - h, order - 1)
            fd = (upper - lower) / (2 * h)
            exact = f_deriv(m, ys, order)
            assert np.all(np.abs(fd - exact) <= 1e-6 * (1.0 + np.abs(exact)))

    @pytest.mark.parametrize("name", bundled_config_names())
    def test_float_path_is_the_array_path_bit_for_bit(self, name):
        # a float level takes plain floats and one np.power call, an array
        # the ufuncs of ndarray ** e; NumPy's vectorized power and
        # float.__pow__ differ in the last bit, so both paths must agree
        # exactly on every bundled term list
        cfg = load_config(name)
        m, ys = cfg.model, np.geomspace(1e-8, 1e8, 1601)
        sums = [(terms, 0.0) for terms in m._power_terms]
        for kind in ("call", "put"):
            option = dataclasses.replace(cfg.contract, kind=kind)
            sums += [_payoff_integrand(m, option),
                     _benefit_integrand(m, cfg.cir, option)]
        for terms, const in sums:
            np.testing.assert_array_equal(
                [_power_sum(terms, float(y), const) for y in ys],
                _power_sum(terms, ys, const), err_msg=str(terms))
        for order in range(5):
            np.testing.assert_array_equal(
                [f_deriv(m, float(y), order) for y in ys], f_deriv(m, ys, order))

    @pytest.mark.parametrize("m,_p", CATALOG)
    def test_shape_signs(self, m, _p):
        ys = np.geomspace(1e-3, 1e3, 200)
        d1, d2 = f_deriv(m, ys, 1), f_deriv(m, ys, 2)
        if m.family == "a1":
            assert np.all(d1 < 0) and np.all(d2 > 0)
        else:
            assert np.all(d1 > 0) and np.all(d2 <= 0)


class TestConstruction:
    def test_family_and_terms_validation(self):
        with pytest.raises(ValueError):
            ModelSpec("a3", terms=((1.0, 1.0),))
        with pytest.raises(ValueError):
            ModelSpec("a1")
        with pytest.raises(ValueError):
            ModelSpec("a1", terms=((1.0, -1.0),))
        with pytest.raises(ValueError):
            ModelSpec("a2", terms=((1.0, 1.5),))
        with pytest.raises(ValueError):
            ModelSpec("a1", terms=((-0.5, 1.0),))
        with pytest.raises(ValueError):
            ModelSpec("mixture")

    def test_one_sided_mixtures_are_allowed(self):
        lo_only = ModelSpec("mixture", terms=((1.0, 1.0),))
        assert minimum_location(lo_only) == math.inf
        hi_only = ModelSpec("mixture", terms_a2=((1.0, 1.0),))
        assert minimum_location(hi_only) == 0.0

    def test_mixture_single_minimum_enforced(self):
        m = ModelSpec("mixture", terms=((0.2, 0.7),), terms_a2=((0.1, 0.9),))
        assert 0.0 < minimum_location(m) < math.inf

    def test_minimum_far_below_one(self):
        # f = 1e-10 / y + y falls then rises, with its minimum at 1e-5
        m = ModelSpec("mixture", terms=((1e-10, 1.0),), terms_a2=((1.0, 1.0),))
        assert minimum_location(m) == pytest.approx(math.sqrt(1e-10), rel=1e-12)

    def test_json_documents(self):
        doc = {"class": "mixture", "terms": [{"weight": 0.07, "power": 1.0}],
               "terms_a2": [{"weight": 0.07, "power": 1.0}]}
        assert model_from_dict(doc) == MIX7
        assert model_from_dict(
            {"class": "a1", "terms": [{"weight": 1.0, "power": 1.0}]}) == M32

    def test_json_rejects_malformed(self):
        with pytest.raises(ValueError):
            model_from_dict({"terms": []})
        with pytest.raises(ValueError):
            model_from_dict({"class": "a1", "terms": [{"weight": 1.0}]})


class TestInverse:
    def test_reciprocal_inverse_exact(self):
        assert g_eval(M32, 4.0) == 0.25

    def test_single_power_roundtrip(self):
        m = ModelSpec("a1", terms=((1.0, 1.2),))
        assert f_eval(m, g_eval(m, 0.2)) == pytest.approx(0.2, rel=1e-12)

    def test_multi_term_roundtrip(self):
        m = ModelSpec("a1", terms=((0.5, 1.0), (0.5, 1.2)))
        for x in (0.05, 0.2, 1.3, 40.0):
            assert f_eval(m, g_eval(m, x)) == pytest.approx(x, rel=1e-12)
        m2 = ModelSpec("a2", terms=((0.5, 1.0), (0.5, 0.8)))
        for x in (0.05, 0.2, 1.3, 40.0):
            assert f_eval(m2, g_eval(m2, x)) == pytest.approx(x, rel=1e-12)

    def test_mixture_has_no_global_inverse(self):
        with pytest.raises(ValueError):
            g_eval(MIX7, 0.2)

    def test_mixture_branch_values(self):
        lo = mixture_inverse(MIX7, 0.15, "lower")
        hi = mixture_inverse(MIX7, 0.15, "upper")
        assert lo == pytest.approx(0.6867739423, rel=1e-9)
        assert hi == pytest.approx(1.4560832005, rel=1e-9)

    def test_mixture_roundtrips(self):
        for x in (0.141, 0.2, 0.9, 7.0):
            for br in ("lower", "upper"):
                y = mixture_inverse(MIX7, x, br)
                assert f_eval(MIX7, y) == pytest.approx(x, rel=1e-12)

    def test_tangency_returns_minimizer(self):
        y_min = minimum_location(MIX7)
        f_min = f_eval(MIX7, y_min)
        assert mixture_inverse(MIX7, f_min, "lower") == y_min
        assert mixture_inverse(MIX7, f_min, "upper") == y_min

    def test_mixture_reaches_far_levels(self):
        # 1e15 times the minimum lies past 1e14 / below 1e-14 in the factor
        x = 1e15 * f_eval(MIX7, minimum_location(MIX7))
        for br in ("lower", "upper"):
            y = mixture_inverse(MIX7, x, br)
            assert f_eval(MIX7, y) == pytest.approx(x, rel=1e-12)

    def test_below_minimum_rejected(self):
        with pytest.raises(ValueError):
            mixture_inverse(MIX7, 0.1, "lower")

    def test_each_abscissa_is_mapped_once(self, monkeypatch):
        # the bracket search and the solve pass evaluated points, and the
        # search starts from the minimum value already computed
        from vixpricer import models
        minimum_location(MIX7)
        points = []
        monkeypatch.setattr(models, "f_eval",
                            lambda m, y: points.append(float(y)) or f_eval(m, y))
        total = 0
        xs = np.linspace(0.16, 0.40, 25)
        for x in xs:
            for br in ("lower", "upper"):
                points.clear()
                mixture_inverse(MIX7, float(x), br)
                assert len(points) == len(set(points)), (x, br, points)
                total += len(points)
        assert total / (2 * len(xs)) <= 9.7

    @pytest.mark.parametrize("family,side,terms", [
        ("a1", "lower", ((1.0, 1.2),)), ("a2", "upper", ((1.0, 0.8),)),
    ])
    def test_one_sided_mixture_is_the_monotone_inverse(self, family, side, terms):
        mono = ModelSpec(family, terms=terms)
        mix = ModelSpec("mixture", **{"terms" if side == "lower" else "terms_a2": terms})
        for x in np.geomspace(1e-3, 1e2, 40):
            assert mixture_inverse(mix, float(x), side) == g_eval(mono, float(x))
        for x in (0.0, -0.1):
            with pytest.raises(ValueError):
                mixture_inverse(mix, x, side)

    def test_monotone_maps_have_one_side(self):
        assert minimum_location(M32) == math.inf
        assert minimum_location(M12) == 0.0
        assert payoff_levels(M32, 0.15) == (g_eval(M32, 0.15), math.inf, math.inf)
        assert payoff_levels(M12, 0.15) == (0.0, g_eval(M12, 0.15), 0.0)

    def test_strike_below_mixture_minimum_collapses_onto_the_minimizer(self):
        # fig7's map bottoms out at 0.14: a call struck at 0.12 is in the
        # money at every factor level
        y_min = minimum_location(MIX7)
        assert payoff_levels(MIX7, 0.12) == (y_min, y_min, y_min)


class TestWaitingBenefit:
    def test_reciprocal_closed_form_value(self):
        # x (alpha - r) - (beta - kappa^2) x^2 + r K at x = 0.1
        assert waiting_benefit(M32, P1, 0.05, 0.15, g_eval(M32, 0.1)) == \
            pytest.approx(0.167525)

    def test_identity_model_closed_form(self):
        xs = np.linspace(0.05, 1.5, 7)
        want = P2.beta - P2.alpha * xs - 0.05 * (xs - 0.15)
        got = np.array([waiting_benefit(M12, P2, 0.05, 0.15, g_eval(M12, x))
                        for x in xs])
        np.testing.assert_allclose(got, want, rtol=1e-12)
        root = (P2.beta + 0.05 * 0.15) / (P2.alpha + 0.05)
        assert waiting_benefit(M12, P2, 0.05, 0.15, g_eval(M12, root)) == \
            pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("m,p", CATALOG)
    def test_zero_at_critical_level(self, m, p):
        xs = x_star(m, p, 0.05, 0.15)
        assert abs(waiting_benefit(m, p, 0.05, 0.15, g_eval(m, xs))) < 1e-10

    def test_mixture_coordinate_is_the_factor(self):
        y = 0.9
        want = ((P7.beta - P7.alpha * y) * f_deriv(MIX7, y, 1)
                + 0.5 * P7.kappa**2 * y * f_deriv(MIX7, y, 2)
                - 0.05 * f_eval(MIX7, y) + 0.05 * 0.15)
        assert waiting_benefit(MIX7, P7, 0.05, 0.15, y) == \
            pytest.approx(want, rel=1e-12)

    def test_grouped_evaluation_finite_near_origin(self):
        vals = waiting_benefit(M32, P1, 0.05, 0.15, np.geomspace(1e-12, 1.0, 50))
        assert np.all(np.isfinite(vals))


class TestBigH:
    """Payoff-restricted benefit, the zero-time limit of the premium kernel."""

    CALL = OptionSpec(0.15, 1.0, 0.05, "call")
    PUT = OptionSpec(0.15, 1.0, 0.05, "put")

    def test_call_indicator(self):
        cuts = (g_eval(M32, 0.15), math.inf)  # an a1 call stops at low factors
        assert -eep_kernel(M32, P1, self.CALL, g_eval(M32, 0.10), 0.0, cuts) == 0.0
        y = g_eval(M32, 0.2)
        assert -eep_kernel(M32, P1, self.CALL, y, 0.0, cuts) == \
            waiting_benefit(M32, P1, 0.05, 0.15, y)

    def test_put_indicator_and_sign(self):
        cuts = (0.0, g_eval(M32, 0.15))  # an a1 put stops at high factors
        y = g_eval(M32, 0.10)
        assert -eep_kernel(M32, P1, self.PUT, y, 0.0, cuts) == \
            -waiting_benefit(M32, P1, 0.05, 0.15, y)
        assert -eep_kernel(M32, P1, self.PUT, g_eval(M32, 0.2), 0.0, cuts) == 0.0

    def test_mixture_dead_zone(self):
        k_lo, k_hi, _ = payoff_levels(MIX7, 0.15)

        def big_h(y):
            return -eep_kernel(MIX7, P7, self.CALL, y, 0.0, (k_lo, k_hi))
        assert big_h(1.0) == 0.0
        assert big_h(0.5) != 0.0
        assert big_h(2.5) != 0.0


class TestCriticalLevels:
    def test_reciprocal_quadratic_root(self):
        drift = P1.alpha - 0.05
        curv = P1.beta - P1.kappa**2
        want = (drift + math.sqrt(drift**2 + 4 * curv * 0.05 * 0.15)) / (2 * curv)
        assert x_star(M32, P1, 0.05, 0.15) == pytest.approx(want, rel=1e-10)
        assert want == pytest.approx(0.226638, abs=1e-4)

    def test_identity_linear_root(self):
        want = (P2.beta + 0.05 * 0.15) / (P2.alpha + 0.05)
        assert x_star(M12, P2, 0.05, 0.15) == pytest.approx(want, rel=1e-12)
        assert want == pytest.approx(0.225410, abs=1e-6)

    @pytest.mark.parametrize("m,p", CATALOG)
    def test_single_sign_change_catalog(self, m, p):
        levels = critical_levels(m, p, 0.05, 0.15)
        assert levels.x_star is not None and levels.x_star > 0.0

    def test_parameter_condition_enforced(self):
        # reciprocal map needs beta > kappa^2
        weak = CirParams(alpha=2.94, beta=4.0, kappa=2.05)
        with pytest.raises(AssumptionError):
            validate_model_params(M32, weak)
        with pytest.raises(AssumptionError):
            critical_levels(M32, weak, 0.05, 0.15)

    def test_parameter_condition_on_the_rising_side(self):
        # a rising power p needs beta + kappa^2 (p - 1) / 2 > 0
        root = ModelSpec("a2", terms=((1.0, 0.5),))
        weak = CirParams(alpha=1.0, beta=0.2, kappa=1.0, allow_non_feller=True)
        with pytest.raises(AssumptionError, match="increasing power 0.5"):
            validate_model_params(root, weak)
        validate_model_params(root, CirParams(alpha=1.0, beta=0.3, kappa=1.0,
                                              allow_non_feller=True))

    def test_mixture_levels_fig7(self):
        levels = critical_levels(MIX7, P7, 0.05, 0.15)
        disc = math.sqrt(0.15**2 - 4 * 0.07 * 0.07)
        assert levels.k_lower == pytest.approx((0.15 - disc) / 0.14, rel=1e-10)
        assert levels.k_upper == pytest.approx((0.15 + disc) / 0.14, rel=1e-10)
        assert levels.y_min == pytest.approx(1.0, rel=1e-12)
        # benefit sign-change points bracket the strike crossings
        assert 0.0 < levels.y_lower < levels.k_lower
        assert levels.y_upper > levels.k_upper
        for y in (levels.y_lower, levels.y_upper):
            assert abs(waiting_benefit(MIX7, P7, 0.05, 0.15, y)) < 1e-10

    def test_strike_below_mixture_minimum_rejected(self):
        with pytest.raises(ValueError, match="does not exceed the map minimum"):
            critical_levels(MIX7, P7, 0.05, 0.12)

    def test_nonpositive_strike_rejected(self):
        with pytest.raises(ValueError):
            critical_levels(M32, P1, 0.05, 0.0)
