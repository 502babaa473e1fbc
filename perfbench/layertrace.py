"""Per-layer tracing of vixpricer, done from outside the package.

``Tracer.install`` wraps public functions of the package's modules and the
transition-law methods of ``ChiSquareLaw``. A module that imported a
function by name holds its own reference, so every alias of a wrapped
function in every loaded ``vixpricer`` module is rebound too; otherwise
calls between modules would bypass the wrapper and their counts would read
zero. ``uninstall`` puts the originals back.

Each wrapped call is a span. A span's self time is its duration minus the
durations of the spans it directly contains, so the self times of nested
layers add up to the traced wall time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

import numpy as np

FUNCTIONS = (
    ("vixpricer.american", "solve_boundary"),
    ("vixpricer.american", "american_price"),
    ("vixpricer.european", "kernel_row"),
    ("vixpricer.european", "euro_fast"),
    ("vixpricer.european", "european_price"),
    ("vixpricer.european", "futures_price"),
    ("vixpricer.numerics", "panel_nodes"),
    ("vixpricer.numerics", "adaptive_gauss_kronrod"),
    ("vixpricer.numerics", "newton_bisect"),
    ("vixpricer.cir", "transition_law"),
    ("vixpricer.models", "waiting_benefit"),
    ("vixpricer.models", "mixture_inverse"),
    ("vixpricer.models", "critical_levels"),
    ("vixpricer.models", "g_eval"),
    ("vixpricer.black", "implied_vol"),
    ("vixpricer.black", "black_call"),
    ("vixpricer.mc", "mc_american_policy"),
    ("vixpricer.mc", "mc_european"),
    ("vixpricer.mc", "mc_futures"),
)
LAW_METHODS = ("log_pdf", "cdf", "sf", "ppf", "mass_bounds", "sample")


def _span_name(module, attr):
    return f"{module.rsplit('.', 1)[-1]}.{attr}"


class Tracer:
    """Call counts, inclusive and self times per wrapped function."""

    def __init__(self):
        self._stack = []      # [name, start, child time] per open span
        self._open = Counter()
        self._undo = []
        self.reset()

    def reset(self):
        self.calls = Counter()
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.extra = Counter()

    # -- extra counters taken at the call boundary ----------------------------

    def _before(self, name, args, kwargs):
        if name == "european.kernel_row":
            u = args[4] if len(args) > 4 else kwargs["u"]
            self.extra["kernel_row.horizons"] += int(np.size(u))
            if self._open["american.solve_boundary"]:
                self.extra["kernel_row.in_solve"] += 1
        elif name == "american.solve_boundary":
            cfg = args[3] if len(args) > 3 else kwargs["cfg"]
            self.extra["solve.steps"] += cfg.n_steps
        elif name == "numerics.adaptive_gauss_kronrod":
            fn = args[0]

            def counted(x):
                self.extra["adaptive_gauss_kronrod.nodes"] += int(np.size(x))
                return fn(x)
            args = (counted,) + tuple(args[1:])
        return args

    def _after(self, name, result):
        if name == "numerics.panel_nodes":
            self.extra["panel_nodes.nodes"] += int(result[0].size)

    def _wrap(self, name, fn):
        stack, opened = self._stack, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            args = self._before(name, args, kwargs)
            self.calls[name] += 1
            opened[name] += 1
            frame = [name, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - frame[1]
                stack.pop()
                opened[name] -= 1
                self.inclusive[name] += duration
                self.self_time[name] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
            self._after(name, result)
            return result
        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self):
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "vixpricer" or key.startswith("vixpricer.")]
        for module_name, attr in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(_span_name(module_name, attr), original)
            for mod in modules:
                for alias, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, alias, wrapper)
                        self._undo.append((mod, alias, original))
        law = sys.modules["vixpricer.cir"].ChiSquareLaw
        for attr in LAW_METHODS:
            original = law.__dict__[attr]
            setattr(law, attr, self._wrap(f"cir.ChiSquareLaw.{attr}", original))
            self._undo.append((law, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


# every function whose calls a workload must show, since each workload runs
# every kind of operation
REQUIRED_CALLS = tuple(_span_name(m, a) for m, a in FUNCTIONS) + tuple(
    f"cir.ChiSquareLaw.{a}" for a in LAW_METHODS)


def layer_metrics(t):
    """The per-layer metrics of one traced round, by BENCHMARK.json name."""
    c, s, x = t.calls, t.self_time, t.extra
    return {
        "american.solve_boundary.self_s": s["american.solve_boundary"],
        "american.inner_updates_per_step":
            x["kernel_row.in_solve"] / x["solve.steps"] if x["solve.steps"] else 0.0,
        "american.american_price.self_s": s["american.american_price"],
        "european.kernel_row.calls": c["european.kernel_row"],
        "european.kernel_row.self_s": s["european.kernel_row"],
        "european.kernel_row.horizons": x["kernel_row.horizons"],
        "european.euro_fast.calls": c["european.euro_fast"],
        "european.euro_fast.self_s": s["european.euro_fast"],
        "numerics.panel_nodes.nodes": x["panel_nodes.nodes"],
        "numerics.panel_nodes.self_s": s["numerics.panel_nodes"],
        "european.european_price.self_s": s["european.european_price"],
        "european.futures_price.self_s": s["european.futures_price"],
        "numerics.adaptive_gauss_kronrod.calls": c["numerics.adaptive_gauss_kronrod"],
        "numerics.adaptive_gauss_kronrod.nodes": x["adaptive_gauss_kronrod.nodes"],
        "numerics.adaptive_gauss_kronrod.self_s": s["numerics.adaptive_gauss_kronrod"],
        "cir.ChiSquareLaw.mass_bounds.total_s": t.inclusive["cir.ChiSquareLaw.mass_bounds"],
        "cir.ChiSquareLaw.ppf.calls": c["cir.ChiSquareLaw.ppf"],
        "cir.ChiSquareLaw.series_evals": c["cir.ChiSquareLaw.cdf"] + c["cir.ChiSquareLaw.sf"],
        "numerics.newton_bisect.self_s": s["numerics.newton_bisect"],
        "cir.ChiSquareLaw.log_pdf.calls": c["cir.ChiSquareLaw.log_pdf"],
        "cir.ChiSquareLaw.log_pdf.self_s": s["cir.ChiSquareLaw.log_pdf"],
        "cir.transition_law.calls": c["cir.transition_law"],
        "models.waiting_benefit.calls": c["models.waiting_benefit"],
        "models.waiting_benefit.self_s": s["models.waiting_benefit"],
        "models.mixture_inverse.calls": c["models.mixture_inverse"],
        "models.mixture_inverse.self_s": s["models.mixture_inverse"],
        "models.critical_levels.self_s": s["models.critical_levels"],
        "models.g_eval.calls": c["models.g_eval"],
        "black.implied_vol.calls": c["black.implied_vol"],
        "black.implied_vol.self_s": s["black.implied_vol"],
        "black.black_call.calls_per_implied_vol":
            c["black.black_call"] / c["black.implied_vol"] if c["black.implied_vol"] else 0.0,
        "mc.mc_american_policy.self_s": s["mc.mc_american_policy"],
        "mc.mc_european.self_s": s["mc.mc_european"],
        "mc.mc_futures.self_s": s["mc.mc_futures"],
        "cir.ChiSquareLaw.sample.self_s": s["cir.ChiSquareLaw.sample"],
    }
