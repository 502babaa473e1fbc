import numpy as np
import pytest
from scipy import integrate

from vixpricer.numerics import (ConvergenceError, adaptive_gauss_kronrod,
                                bracket_downcrossing, newton_bisect,
                                panel_nodes)


def test_bracket_downcrossing_both_directions():
    fn = lambda x: 5.0 - x
    lo, hi = bracket_downcrossing(fn, 1.0)
    assert fn(lo) > 0.0 >= fn(hi)
    lo, hi = bracket_downcrossing(fn, 100.0)
    assert fn(lo) > 0.0 >= fn(hi)


def test_bracket_failure():
    with pytest.raises(ConvergenceError):
        bracket_downcrossing(lambda x: 1.0, 1.0, hi_limit=1e3)


@pytest.mark.parametrize("root", [0.3, 1.0, 17.5])
def test_newton_bisect_with_and_without_derivative(root):
    fn = lambda x: root**3 - x**3
    dfn = lambda x: -3.0 * x**2
    got = newton_bisect(fn, root / 10, root * 10, dfn=dfn)
    assert got == pytest.approx(root, rel=1e-12)
    got = newton_bisect(fn, root / 10, root * 10)
    assert got == pytest.approx(root, rel=1e-11)


def test_newton_bisect_bisects_when_newton_creeps():
    # steep and convex below the root: Newton steps from the right stay in
    # the bracket but shrink it by a few percent each
    root = 0.05
    fn = lambda x: np.exp(-1.0 / (x * x)) - np.exp(-1.0 / (root * root))
    dfn = lambda x: 2.0 / x**3 * np.exp(-1.0 / (x * x))
    got = newton_bisect(fn, 1e-3, 10.0, dfn=dfn, rel_tol=1e-14)
    assert got == pytest.approx(root, rel=1e-13)


def test_newton_bisect_requires_bracket():
    with pytest.raises(ValueError):
        newton_bisect(lambda x: 1.0 + x * 0, 0.0, 1.0)


def test_kronrod_rule_is_high_degree():
    # the 15-point rule integrates polynomials up to degree 22 exactly
    for deg in (7, 13, 21, 22):
        val, err = adaptive_gauss_kronrod(lambda x: x**deg, 0.0, 1.0)
        assert val == pytest.approx(1.0 / (deg + 1), rel=1e-13)


def test_adaptive_matches_scipy_quad():
    fn = lambda x: np.exp(-x) * np.sin(7.0 * x) / (1.0 + x**2)
    want, _ = integrate.quad(lambda x: float(fn(np.array([x]))[0]), 0.0, 12.0,
                             limit=200)
    got, err = adaptive_gauss_kronrod(fn, 0.0, 12.0, rel_tol=1e-11)
    assert got == pytest.approx(want, abs=1e-10)


def test_adaptive_handles_breakpoint_kinks():
    kink = 0.4
    fn = lambda x: np.abs(x - kink)
    exact = 0.5 * kink**2 + 0.5 * (1.0 - kink) ** 2
    left, _ = adaptive_gauss_kronrod(fn, 0.0, kink)
    right, _ = adaptive_gauss_kronrod(fn, kink, 1.0)
    assert left + right == pytest.approx(exact, rel=1e-12)


def test_adaptive_peaked_integrand():
    # narrow Gaussian inside a wide interval
    fn = lambda x: np.exp(-0.5 * ((x - 3.0) / 1e-3) ** 2)
    got, _ = adaptive_gauss_kronrod(fn, 0.0, 10.0, rel_tol=1e-10,
                                    max_subdivisions=2000)
    want = 1e-3 * np.sqrt(2.0 * np.pi)
    assert got == pytest.approx(want, rel=1e-8)


def test_adaptive_empty_interval():
    assert adaptive_gauss_kronrod(lambda x: x, 1.0, 1.0) == (0.0, 0.0)


def test_panel_rule_accuracy_and_empty_intervals():
    nodes, weights = panel_nodes(np.array([0.0]), np.array([2.0]), 8, 12)
    got = float(np.dot(np.cos(nodes[0]), weights[0]))
    assert got == pytest.approx(np.sin(2.0), rel=1e-13)
    nodes, weights = panel_nodes(np.array([1.0, 2.0]), np.array([2.0, 1.5]),
                                 4, 6)
    assert weights[1].sum() == 0.0
    assert weights[0].sum() == pytest.approx(1.0)
