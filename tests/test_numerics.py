import math

import numpy as np
import pytest
from scipy import integrate

from vixpricer import numerics
from vixpricer.cir import transition_law
from vixpricer.cli import load_config
from vixpricer.european import (OptionSpec, _euro_regions, _payoff_integrand,
                                factor_state)
from vixpricer.models import _power_sum
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


@pytest.mark.parametrize("a, b", [(1.0, math.inf), (-math.inf, 0.0)])
def test_adaptive_rejects_an_infinite_interval(a, b):
    with pytest.raises(ValueError, match="not finite"):
        adaptive_gauss_kronrod(lambda x: np.exp(-np.abs(x)), a, b)


def test_panel_rule_accuracy_and_empty_intervals():
    nodes, weights = panel_nodes(np.array([0.0]), np.array([2.0]), 8, 12)
    got = float(np.dot(np.cos(nodes[0]), weights[0]))
    assert got == pytest.approx(np.sin(2.0), rel=1e-13)
    nodes, weights = panel_nodes(np.array([1.0, 2.0]), np.array([2.0, 1.5]),
                                 4, 6)
    assert weights[1].sum() == 0.0
    assert weights[0].sum() == pytest.approx(1.0)


def _recorded_passes(monkeypatch):
    """List that gets each ``_gk_batch`` pass's pieces ``(lo, hi)``."""
    passes = []
    batch = numerics._gk_batch
    monkeypatch.setattr(numerics, "_gk_batch",
                        lambda fn, lo, hi, *blocks: passes.append((lo, hi))
                        or batch(fn, lo, hi, *blocks))
    return passes


def test_wide_seed_resolves_a_branch_point_at_zero(monkeypatch):
    # equal seed pieces bisect towards 0 for 30 passes; log-spaced ones,
    # one per half decade, converge in 2
    passes = _recorded_passes(monkeypatch)
    got, _ = adaptive_gauss_kronrod(lambda x: x ** -0.64, 1e-10, 1.0)
    want = (1.0 - 1e-10 ** 0.36) / 0.36
    assert len(passes) <= 3 and passes[0][0].size == 20
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("maturity", [0.1, 0.5, 2.0])
@pytest.mark.parametrize("strike", [0.12, 0.2, 0.3])
def test_wide_seed_on_a_fig2_put_region(monkeypatch, maturity, strike):
    # fig2's density behaves like y^0.36 near 0; the put region runs from
    # the box edge, about 1e-9, to the strike cut and took 17-19 passes on
    # equal seed pieces. The reference is the exact moment series there.
    cfg = load_config("fig2")
    m, option = cfg.model, OptionSpec(strike, maturity, 0.05, "put")
    law = transition_law(cfg.cir, maturity, factor_state(m, 0.2))
    lo = law.ppf(cfg.quadrature.tail_mass_cut)
    (start, end), = _euro_regions(m, option)
    assert start == 0.0 and end > 20.0 * lo
    terms, const = _payoff_integrand(m, option)
    passes = _recorded_passes(monkeypatch)
    got, _ = adaptive_gauss_kronrod(
        lambda y: _power_sum(terms, y, const) * np.exp(law.log_pdf(y)), lo, end)
    coefs, powers = np.array(terms + ((const, 0.0),)).T
    want = float(law.power_moments(powers, (lo, end))[0] @ coefs)
    assert len(passes) <= 3
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("a, b", [(0.0, 12.0), (1.0, 20.0), (-3.0, 5.0), (2.0, 2.5)])
def test_narrow_intervals_keep_equal_seed_pieces(monkeypatch, a, b):
    # b <= 20 a or a <= 0: the seed is the 8 equal pieces it always was, and
    # the passes after it are unchanged, so the result is too
    passes = _recorded_passes(monkeypatch)
    fn = lambda x: np.exp(-0.1 * x) * np.sin(7.0 * x) / (1.0 + x ** 2)
    adaptive_gauss_kronrod(fn, a, b, rel_tol=1e-11)
    edges = np.linspace(a, b, 9)
    np.testing.assert_array_equal(passes[0][0], edges[:-1])
    np.testing.assert_array_equal(passes[0][1], edges[1:])


@pytest.mark.parametrize("b, wide", [(20.0, False), (20.000001, True), (1e6, True)])
def test_wide_threshold_is_shared_with_the_fixed_rule(monkeypatch, b, wide):
    # panel_nodes lays out log-spaced panels on exactly the intervals that
    # adaptive_gauss_kronrod seeds with log-spaced pieces, at least 8 of them
    passes = _recorded_passes(monkeypatch)
    adaptive_gauss_kronrod(lambda x: 1.0 / x, 1.0, b)
    lo, hi = passes[0]
    edges = np.geomspace(1.0, b, max(8, math.ceil(2.0 * math.log10(b))) + 1) if wide \
        else np.linspace(1.0, b, 9)
    np.testing.assert_allclose(np.append(lo, hi[-1]), edges, rtol=1e-13)
    assert (lo[0], hi[-1]) == (1.0, b)
    nodes, _ = panel_nodes(np.array([1.0]), np.array([b]), 4, 6)
    assert (nodes[0, 5] < 0.9 * np.linspace(1.0, b, 5)[1]) == wide


def _rows(x, shifts):
    """One row per shift: a branch point at 0, a peak at the shift, a wave."""
    x = np.asarray(x)
    return np.array([x ** (0.1 * s - 0.6) + np.exp(-0.5 * ((x - s) / 2e-3) ** 2)
                     + np.sin(3.0 * s * x) for s in shifts])


def _random_ends(rng, rows, cols):
    """Interval ends: wide log-seeded ones from near 0, narrow ones, ones
    around a row's peak (many passes) and empty ones (b <= a)."""
    a = np.empty((rows, cols))
    b = np.empty((rows, cols))
    for j in range(rows):
        for i in range(cols):
            kind = rng.integers(4)
            if kind == 0:
                a[j, i] = 10.0 ** rng.uniform(-12, -3)
                b[j, i] = rng.uniform(0.1, 6.0)
            elif kind == 1:
                a[j, i] = rng.uniform(0.1, 3.0)
                b[j, i] = a[j, i] + rng.uniform(0.01, 2.0)
            elif kind == 2:
                a[j, i] = j + 1.0 - rng.uniform(0.01, 1.0)
                b[j, i] = j + 1.0 + rng.uniform(0.01, 1.0)
            else:
                a[j, i] = rng.uniform(0.5, 2.0)
                b[j, i] = a[j, i] - rng.uniform(0.0, 1.0) * (i % 2)
    return a, b


@pytest.mark.parametrize("seed", range(6))
def test_batch_matches_separate_calls_bit_for_bit(seed):
    # every row's integrand over its intervals in one run: each value and
    # error estimate is the one the interval gets alone
    rng = np.random.default_rng(seed)
    rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    shifts = [float(s) for s in range(1, rows + 1)]
    a, b = _random_ends(rng, rows, cols)
    vals, errs = adaptive_gauss_kronrod(lambda x: _rows(x, shifts), a, b, rel_tol=1e-11)
    assert vals.shape == errs.shape == (rows, cols)
    for j, s in enumerate(shifts):
        for i in range(cols):
            alone = adaptive_gauss_kronrod(lambda x: _rows(x, [s])[0], a[j, i], b[j, i],
                                           rel_tol=1e-11)
            assert (vals[j, i], errs[j, i]) == alone, (j, i)
            if not b[j, i] > a[j, i]:
                assert alone == (0.0, 0.0)


def test_one_dimensional_ends_share_one_integrand():
    # a 1-D a: fn returns x's shape, and every interval integrates it
    fn = lambda x: np.exp(-0.1 * x) * np.sin(7.0 * x) / (1.0 + x ** 2)
    a, b = np.array([0.0, 1e-9, 3.0]), np.array([1.0, 5.0, 2.0])
    vals, errs = adaptive_gauss_kronrod(fn, a, b, rel_tol=1e-11)
    for i in range(3):
        assert (vals[i], errs[i]) == adaptive_gauss_kronrod(fn, a[i], b[i], rel_tol=1e-11)


def test_one_integrand_call_per_pass():
    # the batch calls fn as often as its slowest interval needs passes, not
    # as often as all of them together
    def counting(shifts, calls):
        def fn(x):
            calls.append(x.size)
            return _rows(x, shifts)
        return fn

    shifts = [1.0, 2.0, 3.0]
    a = np.array([[1e-10, 0.5], [1.9, 4.0], [0.2, 2.0]])
    b = np.array([[1.0, 0.9], [2.1, 3.0], [0.3, 5.0]])
    alone = []
    for j, s in enumerate(shifts):
        for i in range(2):
            calls = []
            adaptive_gauss_kronrod(lambda x: counting([s], calls)(x)[0], a[j, i], b[j, i])
            alone.append(len(calls))
    calls = []
    adaptive_gauss_kronrod(counting(shifts, calls), a, b)
    assert len(calls) == max(alone) < sum(alone)
    assert all(size % 15 == 0 for size in calls)


def test_a_failing_interval_raises_as_alone():
    # a fast oscillation at an unreachable tolerance fails on its pass cap;
    # the batch raises that interval's own error once the intervals before
    # it have converged, whatever fails after it
    fn = lambda x: np.array([np.exp(-x), np.sin(1e6 * x), np.sin(2e6 * x)])
    a, b = np.array([[0.0], [0.25], [0.0]]), np.array([[1.0], [0.75], [1.0]])
    with pytest.raises(ConvergenceError) as alone:
        adaptive_gauss_kronrod(lambda x: fn(x)[1], 0.25, 0.75, rel_tol=1e-14, abs_tol=0.0)
    assert "on [0.25, 0.75])" in str(alone.value)
    with pytest.raises(ConvergenceError) as batch:
        adaptive_gauss_kronrod(fn, a, b, rel_tol=1e-14, abs_tol=0.0)
    assert str(batch.value) == str(alone.value)


def test_an_earlier_interval_that_fails_later_raises_first():
    # a NaN integrand splits one piece a pass and runs out of passes after
    # the oscillation hits its pass cap: the error is interval 0's, as a
    # sequential loop over the intervals would raise
    fn = lambda x: np.array([np.full_like(x, np.nan), np.sin(1e6 * x)])
    a, b = np.array([[0.0], [0.0]]), np.array([[1.0], [1.0]])
    with pytest.raises(ConvergenceError, match="within 20 subdivisions") as alone:
        adaptive_gauss_kronrod(lambda x: fn(x)[0], 0.0, 1.0, rel_tol=1e-14,
                               abs_tol=0.0, max_subdivisions=20)
    with pytest.raises(ConvergenceError, match="would evaluate"):
        adaptive_gauss_kronrod(lambda x: fn(x)[1], 0.0, 1.0, rel_tol=1e-14,
                               abs_tol=0.0, max_subdivisions=20)
    with pytest.raises(ConvergenceError) as batch:
        adaptive_gauss_kronrod(fn, a, b, rel_tol=1e-14, abs_tol=0.0, max_subdivisions=20)
    assert str(batch.value) == str(alone.value)


def test_scalar_call_is_unchanged():
    # (fn, a, b) with floats: fn sees 1-D abscissae, returns their shape,
    # and the result is a pair of floats
    seen = []

    def fn(x):
        seen.append(x.shape)
        return np.exp(-x) * np.cos(3.0 * x)

    got = adaptive_gauss_kronrod(fn, 0.0, 2.0, rel_tol=1e-12)
    assert type(got) is tuple and all(type(v) is float for v in got)
    assert all(len(shape) == 1 and shape[0] % 15 == 0 for shape in seen)
    want = (math.exp(-2.0) * (3.0 * math.sin(6.0) - math.cos(6.0)) + 1.0) / 10.0
    assert got[0] == pytest.approx(want, rel=1e-12)
    vals, errs = adaptive_gauss_kronrod(fn, np.array([0.0]), np.array([2.0]), rel_tol=1e-12)
    assert (vals[0], errs[0]) == got
