import math

import numpy as np
import pytest
from scipy import integrate

from vixpricer import numerics
from vixpricer.numerics import (ConvergenceError, adaptive_gauss_kronrod,
                                bracket_downcrossing, newton_bisect,
                                panel_nodes)


def test_bracket_downcrossing_both_directions():
    fn = lambda x: 5.0 - x
    (lo, _), (hi, _) = bracket_downcrossing(fn, (1.0, fn(1.0)))
    assert fn(lo) > 0.0 >= fn(hi)
    (lo, _), (hi, _) = bracket_downcrossing(fn, (100.0, fn(100.0)))
    assert fn(lo) > 0.0 >= fn(hi)


def test_bracket_failure():
    # the upward search gives up past 1e300, about 1,000 doublings from 1
    with pytest.raises(ConvergenceError):
        bracket_downcrossing(lambda x: 1.0, (1.0, 1.0))


def test_bracket_step_limit():
    # max_steps bounds the new points in either direction
    for f0 in (1.0, -1.0):
        points = []
        with pytest.raises(ConvergenceError):
            bracket_downcrossing(lambda x: points.append(x) or f0, (1.0, f0), 1.5,
                                 max_steps=3)
        assert len(points) == 3
    fn = lambda x: 2.0 - x
    lo, hi = bracket_downcrossing(fn, (1.0, fn(1.0)), 1.5, max_steps=2)
    assert (lo[0], hi[0]) == (1.5, 2.25)


@pytest.mark.parametrize("root", [0.3, 1.0, 17.5])
def test_newton_bisect_with_and_without_derivative(root):
    # no slope is given: the steps are false position
    fn = lambda x: root**3 - x**3
    ends = [(x, fn(x)) for x in (root / 10, root * 10)]
    got = newton_bisect(fn, *ends)
    assert got == pytest.approx(root, rel=1e-11)


def test_newton_bisect_bisects_when_newton_creeps():
    # steep and convex below the root: steps on the slope from the right
    # would stay in the bracket but shrink it by a few percent each
    root = 0.05
    fn = lambda x: np.exp(-1.0 / (x * x)) - np.exp(-1.0 / (root * root))
    got = newton_bisect(fn, (1e-3, fn(1e-3)), (10.0, fn(10.0)), rel_tol=1e-14)
    assert got == pytest.approx(root, rel=1e-13)


@pytest.mark.parametrize("fn,root", [
    (lambda x: math.exp(x) - 2.0, math.log(2.0)),
    (lambda x: 2.0 - math.exp(-x), -math.log(2.0)),
], ids=["convex", "concave"])
def test_false_position_moves_both_ends(fn, root):
    # bisection takes 47 calls here; plain false position would keep the
    # end on the objective's far side for ever
    points = []
    traced = lambda x: points.append(x) or fn(x)
    got = newton_bisect(traced, (-10.0, traced(-10.0)), (10.0, traced(10.0)),
                        rel_tol=0.0, abs_tol=1e-12)
    assert abs(got - root) <= 1e-12
    steps = points[2:]  # after the bracket ends
    assert min(steps) < root < max(steps)
    assert len(points) <= 12


def test_newton_bisect_requires_bracket():
    with pytest.raises(ValueError):
        newton_bisect(lambda x: 1.0 + x * 0, (0.0, 1.0), (1.0, 1.0))


def test_given_points_are_not_evaluated_again():
    points = []
    fn = lambda x: points.append(x) or 5.0 - x
    for x0 in (1.0, 100.0):
        start = (x0, 5.0 - x0)
        points.clear()
        lo, hi = bracket_downcrossing(fn, start)
        assert x0 not in points
        assert len(points) == len(set(points))
        assert lo[1] == 5.0 - lo[0] and hi[1] == 5.0 - hi[0]
        points.clear()
        newton_bisect(fn, lo, hi, rel_tol=0.0, abs_tol=1e-12)
        assert lo[0] not in points and hi[0] not in points
        assert len(points) == len(set(points))


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


def test_adaptive_pass_size_is_capped():
    # a fast oscillation at an unreachable tolerance splits nearly every
    # interval on every pass; the pass that would evaluate too many intervals
    # raises before its integrand call instead of doubling towards memory
    # exhaustion
    cap = numerics._MAX_PASS_INTERVALS
    sizes = []

    def fn(x):
        assert x.size <= 15 * cap, f"one call with {x.size} abscissae"
        sizes.append(x.size)
        return np.sin(1e6 * x)

    with pytest.raises(ConvergenceError,
                       match=rf"would evaluate \d+ intervals, more than {cap}"):
        adaptive_gauss_kronrod(fn, 0.0, 1.0, rel_tol=1e-14, abs_tol=0.0)
    assert 15 * cap // 2 < max(sizes) <= 15 * cap


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
