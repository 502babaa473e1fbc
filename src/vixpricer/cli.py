"""Command-line front end: price, boundary, skew and verification runs.

Configuration is a JSON document bundling the model, factor parameters,
contract, initial state and numerical settings::

    {
      "model":    {"class": "a1" | "a2" | "mixture",
                   "terms": [{"weight": w, "power": p}, ...],
                   "terms_a2": [...]},
      "cir":      {"alpha": a, "beta": b, "kappa": k,
                   "allow_non_feller": false},
      "contract": {"strike": K, "maturity": T, "rate": r, "kind": "call"},
      "state":    {"x0": level} or {"y0": factor},
      "solver":   {"n_steps": 200, ...},
      "quadrature": {"rel_tol": 1e-9, ...}
    }

``--config`` accepts either a path or the name of a bundled figure preset
(fig1, fig1_nu12, fig1_mix, fig2, fig3, fig4, fig5, fig7). fig5 has no
exercise boundary: its beta = 0.1 does not exceed kappa^2 (p + 1) / 2 =
0.429 for the falling power p = 0.75 (``validate_model_params``), so
``boundary``, ``price`` and ``mc-check --target american`` exit 3 on it,
while ``futures``, ``skew`` and the European and futures checks run.

Exit codes: 0 success, 2 configuration error, 3 solver failure,
4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .american import (Boundary, SolverConfig, SolverError, american_price,
                       convexity_witness, solve_boundary)
from .black import skew_curve
from .cir import CirParams
from .european import (OptionSpec, QuadratureConfig, DivergentIntegralError,
                       european_price, futures_price, futures_taylor, vix_level)
from .mc import (mc_american_policy, mc_european, mc_futures,
                 policy_bias_indicator)
from .models import (AssumptionError, ModelSpec, f_eval, g_eval,
                     mixture_inverse, model_from_dict)
from .numerics import ConvergenceError

__all__ = ["main", "load_config", "bundled_config_names", "RunConfig",
           "cmd_futures", "cmd_boundary", "cmd_price", "cmd_skew",
           "cmd_mc_check"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4


@dataclass
class RunConfig:
    model: ModelSpec
    cir: CirParams
    contract: OptionSpec
    state: dict
    solver: SolverConfig
    quadrature: QuadratureConfig

    def initial_factor(self, branch: str | None = None) -> float:
        """Resolve the configured state to a factor level.

        An explicit ``branch`` inverts the configured VIX level on that side
        of a mixture map; otherwise a configured factor level wins and a VIX
        level falls back to the lower branch. A config without a state
        raises ``ValueError``.
        """
        if "x0" in self.state and (branch is not None or "y0" not in self.state):
            x0 = float(self.state["x0"])
            if self.model.is_mixture:
                return mixture_inverse(self.model, x0, branch or "lower")
            return g_eval(self.model, x0)
        if "y0" not in self.state:
            raise ValueError("this command needs a state: x0 or y0")
        return float(self.state["y0"])

    def initial_state(self, branch: str | None = None) -> float:
        """State in the coordinate the pricing functions expect."""
        if self.model.is_mixture:
            return self.initial_factor(branch)
        if "x0" in self.state:
            return float(self.state["x0"])
        return float(f_eval(self.model, self.initial_factor()))


def bundled_config_names():
    root = resources.files("vixpricer").joinpath("configs")
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def load_config(name_or_path: str) -> RunConfig:
    root = resources.files("vixpricer").joinpath("configs")
    bundled = root.joinpath(f"{name_or_path}.json")
    if bundled.is_file():
        doc = json.loads(bundled.read_text())
    else:
        try:
            with open(name_or_path) as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ValueError(f"cannot read config {name_or_path!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValueError(f"config {name_or_path!r} is not valid JSON: {exc}") from exc
    try:
        model = model_from_dict(doc["model"])
        cir_doc = dict(doc["cir"])
        cir = CirParams(alpha=cir_doc["alpha"], beta=cir_doc["beta"],
                        kappa=cir_doc["kappa"],
                        allow_non_feller=bool(cir_doc.get("allow_non_feller", False)))
        c = doc["contract"]
        contract = OptionSpec(strike=c["strike"], maturity=c["maturity"],
                              rate=c["rate"], kind=c.get("kind", "call"))
        state = dict(doc.get("state", {}))
        solver = SolverConfig(**doc.get("solver", {}))
        quadrature = QuadratureConfig(**doc.get("quadrature", {}))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"invalid configuration: {exc}") from exc
    if state and not ("x0" in state or "y0" in state):
        raise ValueError("state must provide x0 or y0")
    return RunConfig(model=model, cir=cir, contract=contract, state=state,
                     solver=solver, quadrature=quadrature)


# ---------------------------------------------------------------------------
# commands (pure: return header, rows, metadata)
# ---------------------------------------------------------------------------

def cmd_futures(cfg: RunConfig, t_grid, branch: str | None = None):
    """Futures term structure: the exact series level (column ``F_quadrature``),
    the moment expansion and their gap."""
    rows = []
    if cfg.model.is_mixture and "x0" in cfg.state:
        branches = [branch] if branch else ["lower", "upper"]
        header = ["branch", "T", "F_quadrature", "F_taylor", "rel_gap"]
        for br in branches:
            y0 = cfg.initial_factor(br)
            for horizon in t_grid:
                rows.append([br] + _futures_row(cfg, horizon, y0))
    else:
        header = ["T", "F_quadrature", "F_taylor", "rel_gap"]
        state = cfg.initial_state(branch)
        for horizon in t_grid:
            rows.append(_futures_row(cfg, horizon, state))
    return header, rows, {}


def _futures_row(cfg, horizon, state):
    fut = futures_price(cfg.model, cfg.cir, horizon, state, cfg.quadrature)
    tay = futures_taylor(cfg.model, cfg.cir, horizon, state) if horizon > 0.0 else fut
    gap = abs(fut - tay) / abs(fut) if fut != 0.0 else 0.0
    return [float(horizon), fut, tay, gap]


def cmd_boundary(cfg: RunConfig) -> Boundary:
    return solve_boundary(cfg.model, cfg.cir, cfg.contract, cfg.solver,
                          cfg.quadrature)


def _inner_solve_summary(boundary: Boundary):
    """Mean ``update`` calls per solved side-step and the largest final
    error estimate (VIX units) of a solve's value-matching steps."""
    updates = np.array(boundary.diagnostics["inner_updates"])
    return {"inner_updates_per_step":
                float(updates.sum() / np.count_nonzero(updates)),
            "max_inner_error": float(np.max(boundary.diagnostics["inner_error"]))}


def cmd_price(cfg: RunConfig, t: float, state_grid,
              boundary: Boundary | None = None):
    """Price table per state: european, american, intrinsic.

    Metadata carries the first non-convexity witness triple found on the
    American values (``None`` when the sampled curve is convex).
    """
    if not np.all(np.diff(state_grid) > 0.0):
        raise ValueError("state grid must be strictly increasing")
    if boundary is None:
        boundary = cmd_boundary(cfg)
    m, p, option = cfg.model, cfg.cir, cfg.contract
    header = ["state", "european", "american", "intrinsic"]
    rows = [[float(s),
             european_price(m, p, option, t, s, cfg.quadrature),
             american_price(m, p, option, boundary, t, s, cfg.quadrature),
             float(option.payoff_vix(vix_level(m, s)))] for s in state_grid]
    witness = convexity_witness([r[0] for r in rows], [r[2] for r in rows])
    meta = {"nonconvexity_witness": list(witness) if witness else None}
    return header, rows, meta


def cmd_skew(cfg: RunConfig, maturity: float | None, moneyness_grid,
             branch: str | None = None):
    T = maturity if maturity is not None else cfg.contract.maturity
    points = skew_curve(cfg.model, cfg.cir, T, cfg.contract.rate,
                        cfg.initial_state(branch), moneyness_grid,
                        cfg.quadrature)
    rows = [[pt.moneyness, pt.implied_vol] for pt in points]
    return ["moneyness", "implied_vol"], rows, {}


def cmd_mc_check(cfg: RunConfig, target: str, n: int, seed: int,
                 horizon: float | None = None, mc_steps: int = 250,
                 branch: str | None = None):
    """Cross-check one analytic value against its Monte Carlo estimate."""
    m, p, option = cfg.model, cfg.cir, cfg.contract
    state = cfg.initial_state(branch)
    report = {"target": target, "n_paths": n, "seed": seed}
    if target == "european":
        analytic = european_price(m, p, option, 0.0, state, cfg.quadrature)
        est = mc_european(m, p, option, 0.0, state, n, seed)
    elif target == "futures":
        T = option.maturity if horizon is None else horizon
        analytic = futures_price(m, p, T, state, cfg.quadrature)
        est = mc_futures(m, p, T, state, n, seed)
        report["horizon"] = T
    elif target == "american":
        boundary = cmd_boundary(cfg)
        analytic = american_price(m, p, option, boundary, 0.0, state,
                                  cfg.quadrature)
        est = mc_american_policy(m, p, option, boundary, 0.0, state, n,
                                 mc_steps, seed)
        report["bias_indicator"] = policy_bias_indicator(
            m, p, option, boundary, 0.0, state, n, mc_steps, seed)
        report["mc_time_steps"] = mc_steps
    else:
        raise ValueError(f"unknown mc-check target {target!r}")
    report.update(analytic=analytic, mc_mean=est.mean,
                  std_error=est.std_error, z=est.z_score(analytic))
    return report


# ---------------------------------------------------------------------------
# argument parsing and output
# ---------------------------------------------------------------------------

def _float_list(text):
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _json_text(payload):
    """Strict JSON text of ``payload``, a non-finite float written as null."""
    def finite(value):
        if isinstance(value, float):
            return value if math.isfinite(value) else None
        if isinstance(value, dict):
            return {k: finite(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [finite(v) for v in value]
        return value
    return json.dumps(finite(payload), indent=2, allow_nan=False) + "\n"


def _write_table(header, rows, meta, out, fmt):
    if fmt == "json":
        text = _json_text({"columns": header, "rows": rows, "metadata": meta})
    else:
        lines = []
        for key, value in sorted(meta.items()):
            if value is None:
                rendered = "none"
            elif isinstance(value, (list, tuple)):
                rendered = ",".join(f"{v:.12g}" for v in value)
            else:
                rendered = f"{value:.12g}" if isinstance(value, float) else str(value)
            lines.append(f"# {key} = {rendered}")
        lines.append(",".join(header))
        for row in rows:
            lines.append(",".join(
                f"{v:.12g}" if isinstance(v, float) else str(v) for v in row))
        text = "\n".join(lines) + "\n"
    _emit(text, out)


def _emit(text, out):
    """Write ``text`` to the file ``out``, or to stdout when it is None."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="vixpricer",
        description="VIX option and futures pricing under square-root factor models")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, table=True, branch=True):
        sp.add_argument("--config", required=True,
                        help="config path or bundled name (e.g. fig1)")
        sp.add_argument("--out", default=None, help="output file (default stdout)")
        if table:
            sp.add_argument("--format", default="csv", choices=("csv", "json"))
        if branch:
            sp.add_argument("--branch", default=None, choices=("lower", "upper"),
                            help="factor branch when the state is a VIX level (mixture)")

    sp = sub.add_parser("futures", help="futures term structure table")
    common(sp)
    sp.add_argument("--t-grid", type=_float_list, required=True)

    sp = sub.add_parser("boundary", help="solve and export the exercise boundary")
    common(sp, branch=False)

    sp = sub.add_parser("price", help="european/american price table")
    common(sp, branch=False)
    sp.add_argument("--t", type=float, default=0.0)
    sp.add_argument("--state-grid", type=_float_list, required=True)

    sp = sub.add_parser("skew", help="implied-volatility curve")
    common(sp)
    sp.add_argument("--maturity", type=float, default=None)
    sp.add_argument("--moneyness-grid", type=_float_list,
                    default=[round(-0.3 + 0.05 * i, 10) for i in range(13)])

    sp = sub.add_parser("mc-check", help="Monte Carlo verification report (JSON)")
    common(sp, table=False)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--target", required=True,
                    choices=("european", "futures", "american"))
    sp.add_argument("--n", type=int, default=100_000)
    sp.add_argument("--horizon", type=float, default=None,
                    help="futures horizon override (defaults to the contract maturity)")
    sp.add_argument("--mc-steps", type=int, default=250)
    return parser


def _fail(exit_code, message):
    sys.stderr.write(json.dumps({"error": message, "exit_code": exit_code}) + "\n")
    return exit_code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ValueError as exc:
        return _fail(EXIT_CONFIG, str(exc))

    try:
        if args.command == "mc-check":
            report = cmd_mc_check(cfg, args.target, args.n, args.seed,
                                  horizon=args.horizon, mc_steps=args.mc_steps,
                                  branch=args.branch)
            _emit(_json_text(report), args.out)
            if not math.isfinite(report["z"]) or abs(report["z"]) > 4.0:
                return EXIT_VERIFY
            return EXIT_OK
        if args.command == "futures":
            header, rows, meta = cmd_futures(cfg, args.t_grid, args.branch)
        elif args.command == "boundary":
            boundary = cmd_boundary(cfg)
            if boundary.is_pair:
                header = ["t", "b_lower", "b_upper"]
                curves = (boundary.values, boundary.upper)
            else:
                header, curves = ["t", "b"], (boundary.values,)
            rows = [[float(v) for v in r] for r in zip(boundary.times, *curves)]
            meta = _inner_solve_summary(boundary)
        elif args.command == "price":
            header, rows, meta = cmd_price(cfg, args.t, args.state_grid)
        else:
            header, rows, meta = cmd_skew(cfg, args.maturity,
                                          args.moneyness_grid, args.branch)
        _write_table(header, rows, meta, args.out, args.format)
    except (SolverError, ConvergenceError, AssumptionError,
            DivergentIntegralError) as exc:
        return _fail(EXIT_SOLVER, str(exc))
    except ValueError as exc:
        return _fail(EXIT_CONFIG, str(exc))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
