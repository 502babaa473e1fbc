"""The benchmark's workloads: set-up, the operations of one round, their checks.

Every workload runs every kind of operation, so that every end-to-end
metric is measured on every workload, but each one puts most of its time
into one layer:

* ``boundary`` re-solves the bundled boundaries every round (fig1 call,
  fig2 call, a put on the fig1 parameters, the fig7 mixture pair) and
  quotes a few prices and Monte Carlo spot checks against them;
* ``quotes`` quotes American, European, futures and skew grids against
  boundaries solved during set-up, plus coarse 8-step re-solves;
* ``mc_oracle`` runs the exact-simulation oracle (policy and terminal
  draws) against set-up boundaries and the analytic values it verifies.

The seed only draws the inputs (states, strikes, Monte Carlo seeds of the
terminal draws; the policy estimates have fixed inputs, see ``mc_policy``);
every round repeats the same operations on them, so every later call of an
operation must reproduce its first output bit for bit.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import vixpricer as vp
from vixpricer.cli import load_config

import checks

# Boundaries are solved at 100 steps, a count the ROADMAP's benchmark item
# names; at the bundled configs' 200 one boundary round would take about
# 47 s (fig7 alone 24 s). At 100 steps a solve keeps close to the balance of
# layers it has at 200 (fig1: kernel_row 89 % of the self time against 91 %,
# euro_fast 7 % against 5 %), which 50 steps does not (81 % and 13 %); see
# README.md and scaling.py.
SOLVE_STEPS = 100
# the per-round re-solves of quotes and mc_oracle, there only so that the
# solve metrics are measured on every workload; short and called three times
# a round, so that each metric rests on many calls
COARSE_STEPS = 8
COARSE_REPEAT = 3
# One boundary round takes longer than a run's 12 s, so a run makes exactly
# one; within it each solve is called twice and every other operation eight
# times, spread over the gaps between solves (see ``schedule``), and the
# mean of each operation's calls is reported.
BOUNDARY_SOLVE_REPEAT = 2
BOUNDARY_QUOTE_REPEAT = 8
SMALL_STEPS = 20      # cap on every solve in the reduced-size smoke run
# base of the fixed Monte Carlo seeds of the policy estimates
POLICY_SEED = 1_000_003
# fig5 is non-Feller and truncated at tail mass 1e-5; its futures raise
# DivergentIntegralError by design past a few months (0.23 y passes,
# 0.45 y raises), so its horizons stay at or below 0.2 y
FIG5_HORIZONS = (0.02, 0.05, 0.08, 0.12, 0.16, 0.2)


@dataclass
class Op:
    """One timed call into the package.

    ``run(ctx)`` performs the call; ``ctx`` maps keys to solved boundaries.
    ``check(out, ctx, outputs)`` returns a list of problems with the output,
    where ``outputs`` maps every label of the round to its output. ``ops``
    is how many operations the call counts for (one per skew point),
    ``work`` the units of its rate metric (quotes, points or paths),
    ``repeat`` how many times a round calls it and ``needs`` the key of the
    boundary it solves or quotes against, if any.
    """

    group: str
    label: str
    run: Callable
    check: Callable
    ops: int = 1
    work: int = 1
    repeat: int = 1
    needs: str | None = None


@dataclass
class Workload:
    setup_solves: list   # (key, solve(ctx), check) run during set-up
    ops: list
    calls: list          # the ops in the order a round calls them


def payoff(option, x):
    return max(x - option.strike, 0.0) if option.kind == "call" else max(option.strike - x, 0.0)


class _Builder:
    def __init__(self, seed, small):
        self.rng = np.random.default_rng(seed)
        self.small = small
        self.cfgs = {}
        self.setup = []
        self.ops = []
        self.repeat = 1

    def cfg(self, name):
        if name not in self.cfgs:
            self.cfgs[name] = load_config(name)
        return self.cfgs[name]

    def jitter(self, value, rel):
        return value * (1.0 + self.rng.uniform(-rel, rel))

    def mc_seed(self):
        return int(self.rng.integers(0, 2 ** 31))

    def paths(self, n):
        return max(1000, n // 50) if self.small else n

    def add(self, group, label, run, check, ops=1, work=1, needs=None):
        self.ops.append(Op(group, f"{label} #{len(self.ops)}", run, check, ops, work,
                           self.repeat, needs))

    # -- operations -----------------------------------------------------------

    def solve(self, key, name, option, n_steps, in_setup=False):
        cfg = self.cfg(name)
        m, p, quad = cfg.model, cfg.cir, cfg.quadrature
        solver = vp.SolverConfig(n_steps=min(n_steps, SMALL_STEPS) if self.small else n_steps)

        def run(ctx):
            ctx[key] = vp.solve_boundary(m, p, option, solver, quad)
            return ctx[key]

        def check(out, ctx, outputs):
            return checks.boundary_problems(m, p, option, out)

        if in_setup:
            self.setup.append((key, run, check))
        else:
            group = "solve_mixture" if m.is_mixture else "solve_single"
            self.add(group, f"solve {key} n={solver.n_steps}", run, check, needs=key)

    def american(self, key, name, option, t, where, on_boundary=False):
        """Quote at the state ``where(boundary, t)`` on boundary ``ctx[key]``."""
        cfg = self.cfg(name)
        m, p, quad = cfg.model, cfg.cir, cfg.quadrature

        def run(ctx):
            return vp.american_price(m, p, option, ctx[key], t, where(ctx[key], t), quad)

        def check(out, ctx, outputs):
            state = where(ctx[key], t)
            x = checks.vix_map(m, state) if m.is_mixture else state
            intrinsic = payoff(option, x)
            grid = ctx[key].times
            tol = checks.DISCRETIZATION_TOL * max(option.strike, x) * (grid[1] - grid[0])
            problems = []
            if on_boundary and abs(out - intrinsic) > tol:
                problems.append(f"value matching: {out} vs payoff {intrinsic}")
            euro = vp.european_price(m, p, option, t, state, quad)
            if out < max(euro, intrinsic) - tol:
                problems.append(f"{out} below max(European {euro}, intrinsic {intrinsic})")
            return problems

        self.add("american", f"american {key} t={t} {'boundary' if on_boundary else 'inside'}",
                 run, check, needs=key)

    def european(self, name, option, t, state_of, reprice, call_label=None, needs=None):
        """European quote; a put given its call's label is checked for parity."""
        cfg = self.cfg(name)
        m, p, quad = cfg.model, cfg.cir, cfg.quadrature

        def run(ctx):
            return vp.european_price(m, p, option, t, state_of(ctx), quad)

        def check(out, ctx, outputs):
            state = state_of(ctx)
            problems = []
            if reprice and not p.allow_non_feller:
                ref = checks.european_by_quad(m, p, option, t, state)
                if not checks.close(out, ref, checks.REPRICE_REL, checks.REPRICE_ABS):
                    problems.append(f"{out} vs ncx2 quadrature {ref}")
            if call_label is not None:
                tau = option.maturity - t
                fut = vp.futures_price(m, p, tau, state, quad)
                lhs = outputs[call_label] - out
                rhs = math.exp(-option.rate * tau) * (fut - option.strike)
                if not checks.close(lhs, rhs, checks.IDENTITY_REL, checks.IDENTITY_ABS * fut):
                    problems.append(f"parity: C-P={lhs} vs e^-rT (F-K)={rhs}")
            return problems

        self.add("european", f"european {name} {option.kind} K={option.strike:.6g} "
                 f"T={option.maturity:.6g} t={t}", run, check, needs=needs)
        return self.ops[-1].label

    def european_pair(self, name, strike, maturity, t, state_of, reprice):
        rate = self.cfg(name).contract.rate
        call = self.european(name, vp.OptionSpec(strike, maturity, rate, "call"), t,
                             state_of, reprice)
        self.european(name, vp.OptionSpec(strike, maturity, rate, "put"), t,
                      state_of, reprice, call_label=call)

    def futures(self, name, horizon, state, taylor):
        cfg = self.cfg(name)
        m, p, quad = cfg.model, cfg.cir, cfg.quadrature

        def run(ctx):
            return vp.futures_price(m, p, horizon, state, quad)

        def check(out, ctx, outputs):
            problems = []
            mean = checks.futures_mean(m, p, horizon, state)
            if mean is not None and not checks.close(out, mean, checks.IDENTITY_REL,
                                                     checks.IDENTITY_ABS):
                problems.append(f"{out} vs closed-form mean {mean}")
            if taylor:
                gap = abs(vp.futures_taylor(m, p, horizon, state) - out) / out
                if gap > checks.TAYLOR_GAP:
                    problems.append(f"Taylor gap {gap:.3%}")
            return problems

        self.add("futures", f"futures {name} T={horizon}", run, check)

    def skew(self, name, maturity, state, grid):
        cfg = self.cfg(name)
        m, p, quad, rate = cfg.model, cfg.cir, cfg.quadrature, cfg.contract.rate

        def run(ctx):
            return vp.skew_curve(m, p, maturity, rate, state, grid, quad)

        def check(out, ctx, outputs):
            fut = vp.futures_price(m, p, maturity, state, quad)
            problems = []
            for point in out:
                strike = fut * math.exp(point.moneyness)
                option = vp.OptionSpec(strike, maturity, rate, "call")
                price = vp.european_price(m, p, option, 0.0, state, quad)
                if not math.isfinite(point.implied_vol):
                    problems.append(f"no implied vol at moneyness {point.moneyness}")
                    continue
                back = checks.black_call(fut, strike, maturity, rate, point.implied_vol)
                if not checks.close(back, price, checks.IDENTITY_REL, checks.IDENTITY_ABS):
                    problems.append(f"Black round trip {back} vs price {price}")
            return problems

        self.add("skew", f"skew {name} T={maturity:.6g}", run, check,
                 ops=len(grid), work=len(grid))

    def mc_policy(self, key, name, option, level, n, dates):
        """Policy Monte Carlo from ``level`` times the config's state.

        Its state and Monte Carlo seed do not depend on the workload seed:
        the check's grid-bias allowance, ``policy_bias_indicator``, is too
        noisy to bound the bias on every seed, and an operation whose check
        passes on some seeds and not on others cannot be counted fairly.
        With fixed inputs the check gives the same verdict on every run.
        """
        cfg = self.cfg(name)
        m, p, quad = cfg.model, cfg.cir, cfg.quadrature
        n = self.paths(n)
        state = level * cfg.initial_state()
        seed = POLICY_SEED + len(self.ops)

        def run(ctx):
            return vp.mc_american_policy(m, p, option, ctx[key], 0.0, state, n, dates, seed)

        def check(out, ctx, outputs):
            price = vp.american_price(m, p, option, ctx[key], 0.0, state, quad)
            bias = vp.policy_bias_indicator(m, p, option, ctx[key], 0.0, state, n,
                                            dates, seed)
            if abs(price - out.mean) > checks.MC_Z * out.std_error + bias:
                return [f"policy MC {out.mean} +- {out.std_error} (bias {bias}) "
                        f"vs premium formula {price}"]
            return []

        self.add("mc_policy", f"mc_policy {key}", run, check, work=n, needs=key)

    def mc_terminal(self, name, option=None, horizon=None, state=None, n=1_000_000):
        """``mc_european`` when an option is given, else ``mc_futures``."""
        cfg = self.cfg(name)
        m, p, quad = cfg.model, cfg.cir, cfg.quadrature
        n = self.paths(n)
        seed = self.mc_seed()
        if option is not None:
            def run(ctx):
                return vp.mc_european(m, p, option, 0.0, state, n, seed)

            def analytic():
                return vp.european_price(m, p, option, 0.0, state, quad)
        else:
            def run(ctx):
                return vp.mc_futures(m, p, horizon, state, n, seed)

            def analytic():
                return vp.futures_price(m, p, horizon, state, quad)

        def check(out, ctx, outputs):
            ref = analytic()
            if abs(ref - out.mean) > checks.MC_Z * out.std_error:
                return [f"MC {out.mean} +- {out.std_error} vs analytic {ref}"]
            return []

        self.add("mc_terminal", f"mc_terminal {name} {'euro' if option else 'futures'}",
                 run, check, work=n)


# ---------------------------------------------------------------------------
# where quotes sit relative to a boundary
# ---------------------------------------------------------------------------

def _on_boundary(upper=False):
    return lambda b, t: float(b.upper_at(t) if upper else b.value_at(t))


def _inside(frac):
    """Continuation-region state: ``frac`` in (0, 1) of the way in."""
    def where(b, t):
        if b.is_pair:
            lo, hi = b.value_at(t), b.upper_at(t)
            return float(lo ** (1.0 - frac) * hi ** frac)
        level = float(b.value_at(t))
        return level * (1.0 - 0.5 * frac) if b.kind == "call" else level * (1.0 + frac)
    return where


def _boundary_quotes(bld, key, name, option, times, n_inside):
    fracs = bld.rng.uniform(0.15, 0.85, n_inside)
    for t in times:
        bld.american(key, name, option, t, _on_boundary(), on_boundary=True)
        if bld.cfg(name).model.is_mixture:
            bld.american(key, name, option, t, _on_boundary(upper=True), on_boundary=True)
        for frac in fracs:
            bld.american(key, name, option, t, _inside(frac))
    return fracs


def _contract(bld, name, kind="call"):
    return dataclasses.replace(bld.cfg(name).contract, kind=kind)


def _state(bld, name):
    return bld.jitter(bld.cfg(name).initial_state(), 0.03)


_STRIKES = {"fig1": 0.2, "fig2": 0.2, "fig4": 5.0, "fig7": 0.19}
# log-moneyness grids of the skews
_WIDE = (-0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3)
_SKEW_GRIDS = {"fig5": (-0.2, -0.1, 0.0, 0.1, 0.2, 0.3, 0.4),
               "fig7": (0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3)}
_STATES = {"fig4": 5.0}


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

def _boundary_workload(bld):
    cases = [(f"{name}_{kind}", name, _contract(bld, name, kind))
             for name, kind in (("fig1", "call"), ("fig2", "call"), ("fig1", "put"), ("fig7", "call"))]
    bld.repeat = BOUNDARY_SOLVE_REPEAT
    for key, name, option in cases:
        bld.solve(key, name, option, SOLVE_STEPS)
    bld.repeat = BOUNDARY_QUOTE_REPEAT
    for key, name, option in cases:
        fracs = _boundary_quotes(bld, key, name, option, (0.0, 0.5), 3)
        for t in (0.0, 0.5):
            for frac in fracs:
                where = _inside(frac)
                bld.european(name, option, t, lambda ctx, k=key, w=where, tt=t: w(ctx[k], tt),
                             reprice=True, needs=key)
    for name in ("fig1", "fig2", "fig7"):
        state = _state(bld, name)
        for horizon in (0.1, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0):
            bld.futures(name, horizon, state, taylor=name != "fig7")
        for maturity in (0.5, 1.0):
            bld.skew(name, maturity, state, _SKEW_GRIDS.get(name, _WIDE))
    for key, name, option in cases[::3]:
        bld.mc_policy(key, name, option, 1.0, 20_000, 50)
    for name in ("fig1", "fig2"):
        bld.mc_terminal(name, option=_contract(bld, name), state=_state(bld, name), n=400_000)
    for name in ("fig1", "fig7"):
        bld.mc_terminal(name, horizon=1.0, state=_state(bld, name), n=400_000)


def _coarse_solves(bld, names):
    bld.repeat = COARSE_REPEAT
    for name in names:
        bld.solve(f"{name}_coarse", name, _contract(bld, name), COARSE_STEPS)
    bld.repeat = 1


def _quotes_workload(bld):
    for name in ("fig3", "fig4", "fig7"):
        bld.solve(f"{name}_call", name, _contract(bld, name), SOLVE_STEPS, in_setup=True)
    _coarse_solves(bld, ("fig3", "fig2", "fig7"))
    for name in ("fig3", "fig4", "fig7"):
        _boundary_quotes(bld, f"{name}_call", name, _contract(bld, name),
                         (0.0, 0.25, 0.5, 0.75), 4)
    count = 0
    for name, base in _STRIKES.items():
        state = bld.jitter(_STATES.get(name, bld.cfg(name).initial_state()), 0.03)
        for mult in (0.8, 0.9, 1.0, 1.1, 1.25):
            strike = bld.jitter(base * mult, 0.02)
            for maturity in (0.1, 0.25, 0.5, 1.0):
                bld.european_pair(name, strike, maturity, 0.0, lambda ctx, s=state: s,
                                  reprice=count % 4 == 0)
                count += 1
    for name in ("fig1", "fig2", "fig4", "fig7"):
        state = bld.jitter(_STATES.get(name, bld.cfg(name).initial_state()), 0.03)
        for horizon in (0.1, 0.25, 0.5, 1.0, 1.5, 2.0):
            bld.futures(name, horizon, state, taylor=name != "fig7")
    state5 = _state(bld, "fig5")
    for horizon in FIG5_HORIZONS:
        bld.futures("fig5", horizon, state5, taylor=True)
    for name in ("fig1", "fig2", "fig7"):
        bld.skew(name, 0.5, _state(bld, name), _SKEW_GRIDS.get(name, _WIDE))
    bld.skew("fig5", 1.0 / 6.0, state5, _SKEW_GRIDS["fig5"])
    for name in ("fig3", "fig4", "fig7"):
        bld.mc_policy(f"{name}_call", name, _contract(bld, name), 1.0, 20_000, 50)
    for name in ("fig1", "fig2"):
        bld.mc_terminal(name, option=_contract(bld, name), state=_state(bld, name))
        bld.mc_terminal(name, horizon=1.0, state=_state(bld, name))


def _mc_oracle_workload(bld):
    for name in ("fig1", "fig7"):
        bld.solve(f"{name}_call", name, _contract(bld, name), SOLVE_STEPS, in_setup=True)
    _coarse_solves(bld, ("fig1", "fig2", "fig7"))
    for name in ("fig1", "fig7"):
        key, option = f"{name}_call", _contract(bld, name)
        states = sorted(bld.jitter(bld.cfg(name).initial_state(), 0.25) for _ in range(10))
        for state in states:
            bld.american(key, name, option, 0.0, lambda b, t, s=state: s)
        for level in (0.9, 1.1):
            bld.mc_policy(key, name, option, level, 50_000, 100)
    for name in ("fig1", "fig2", "fig7"):
        state = _state(bld, name)
        option = _contract(bld, name)
        bld.mc_terminal(name, option=option, state=state)
        for mult in (0.85, 0.9, 1.0, 1.1, 1.15, 1.25):
            bld.european_pair(name, option.strike * mult, option.maturity, 0.0,
                              lambda ctx, s=state: s, reprice=mult == 1.0)
        for horizon in (0.1, 0.25, 0.5, 0.75, 1.0, 1.5):
            bld.futures(name, horizon, state, taylor=name != "fig7")
        if name != "fig2":
            bld.mc_terminal(name, horizon=1.0, state=state)
    for name in ("fig1", "fig2", "fig7"):
        state = _state(bld, name)
        for maturity in (0.5, 1.0):
            bld.skew(name, maturity, state, _SKEW_GRIDS.get(name, _WIDE))


_BUILDERS = {"boundary": _boundary_workload, "quotes": _quotes_workload,
             "mc_oracle": _mc_oracle_workload}


def build(name, seed, small=False):
    """Load the configs and lay out the workload's operations for ``seed``."""
    bld = _Builder(seed, small)
    _BUILDERS[name](bld)
    return Workload(setup_solves=bld.setup, ops=bld.ops, calls=schedule(bld.ops))


def schedule(ops):
    """The order of a round's calls: solves in passes, the rest between them.

    The machine's speed changes from one part of a second to the next, so
    the calls of every group are spread over as much of the round as they
    can be, and its metric averages over many of these changes instead of
    landing in one. Each pass calls every solve once. The other calls go
    into the gaps after solves: a group's calls, pass by pass, are spread
    evenly over the gaps, each call within the gaps after the first solve of
    the boundary it needs; within a gap the groups take turns.
    """
    solves = [op for op in ops if op.group.startswith("solve")]
    passes = max(op.repeat for op in solves)
    slots = [op for k in range(passes) for op in solves if k < op.repeat]
    gaps = [[] for _ in slots]
    groups = {}
    for op in ops:
        if op not in solves:
            groups.setdefault(op.group, []).append(op)
    for group in groups.values():
        calls = [op for k in range(max(op.repeat for op in group))
                 for op in group if k < op.repeat]
        for c, op in enumerate(calls):
            # set-up boundaries and unkeyed operations may go into any gap
            first = next((j for j, slot in enumerate(slots)
                          if op.needs is not None and slot.needs == op.needs), 0)
            eligible = range(first, len(slots))
            gaps[eligible[int((c + 0.5) * len(eligible) / len(calls))]].append(op)
    return [call for slot, gap in zip(slots, gaps) for call in (slot, *_interleave(gap))]


def _interleave(calls):
    by_group = {}
    for op in calls:
        by_group.setdefault(op.group, []).append(op)
    placed = [((j + 0.5) / len(group), op)
              for group in by_group.values() for j, op in enumerate(group)]
    return [op for _, op in sorted(placed, key=lambda item: item[0])]


def same_output(a, b):
    """Bit-for-bit equality of two outputs of the same operation."""
    if isinstance(a, vp.Boundary):
        return (np.array_equal(a.values, b.values)
                and (a.upper is None) == (b.upper is None)
                and (a.upper is None or np.array_equal(a.upper, b.upper)))
    if isinstance(a, list):
        return len(a) == len(b) and all(
            x.moneyness == y.moneyness and (x.implied_vol == y.implied_vol
                                            or math.isnan(x.implied_vol) and math.isnan(y.implied_vol))
            for x, y in zip(a, b))
    return a == b


def warm_up():
    """First calls into every layer on a small problem.

    SciPy's first calls and the package's rule and strike caches are paid
    here, during set-up, instead of in the first timed round.
    """
    cfg = load_config("fig1")
    m, p, option, quad = cfg.model, cfg.cir, cfg.contract, cfg.quadrature
    state = cfg.initial_state()
    boundary = vp.solve_boundary(m, p, option, vp.SolverConfig(n_steps=COARSE_STEPS), quad)
    vp.american_price(m, p, option, boundary, 0.0, state, quad)
    vp.skew_curve(m, p, 0.5, option.rate, state, (0.0,), quad)
    vp.mc_american_policy(m, p, option, boundary, 0.0, state, 1000, 10, 0)
    vp.mc_european(m, p, option, 0.0, state, 1000, 0)
