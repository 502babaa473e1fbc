import json
import math

import numpy as np
import pytest

from vixpricer.american import SolverConfig
from vixpricer.cli import (EXIT_CONFIG, EXIT_OK, EXIT_SOLVER, EXIT_VERIFY,
                           bundled_config_names, cmd_boundary, cmd_futures,
                           cmd_mc_check, cmd_price, cmd_skew, load_config,
                           main)


FIG1_DOC = {"model": {"class": "a1", "terms": [{"weight": 1.0, "power": 1.0}]},
            "cir": {"alpha": 2.94, "beta": 17.10, "kappa": 2.05},
            "contract": {"strike": 0.15, "maturity": 1.0, "rate": 0.05},
            "state": {"x0": 0.2}}


def test_bundled_catalog():
    names = bundled_config_names()
    for expected in ("fig1", "fig1_nu12", "fig1_mix", "fig2", "fig3", "fig4",
                     "fig5", "fig7"):
        assert expected in names


class TestCaptionParameters:
    def test_fig1(self):
        cfg = load_config("fig1")
        assert (cfg.cir.alpha, cfg.cir.beta, cfg.cir.kappa) == (2.94, 17.10, 2.05)
        assert (cfg.contract.strike, cfg.contract.maturity,
                cfg.contract.rate) == (0.15, 1.0, 0.05)
        assert cfg.model.family == "a1" and cfg.model.terms == ((1.0, 1.0),)

    def test_fig1_variants_use_adjusted_speeds(self):
        assert load_config("fig1_nu12").cir.alpha == 3.64
        assert load_config("fig1_nu12").model.terms == ((1.0, 1.2),)
        assert load_config("fig1_mix").cir.alpha == 3.27
        assert load_config("fig1_mix").model.terms == ((0.5, 1.0), (0.5, 1.2))

    def test_fig2(self):
        cfg = load_config("fig2")
        assert (cfg.cir.alpha, cfg.cir.beta, cfg.cir.kappa) == (3.0, 0.68, 1.0)
        assert cfg.model.family == "a2"
        # the caption's kappa keeps the factor strictly positive
        assert cfg.cir.beta >= 0.5 * cfg.cir.kappa**2

    def test_fig4_is_the_identity_model_with_fig1_coefficients(self):
        cfg = load_config("fig4")
        assert cfg.model.family == "a2"
        assert (cfg.cir.alpha, cfg.cir.beta, cfg.cir.kappa) == (2.94, 17.10, 2.05)

    def test_fig5(self):
        cfg = load_config("fig5")
        assert cfg.model.terms == ((0.1, 0.75),)
        assert cfg.model.terms_a2 == ((0.02, 1.0),)
        assert (cfg.cir.alpha, cfg.cir.beta, cfg.cir.kappa) == (0.2, 0.1, 0.7)
        assert cfg.contract.rate == 0.01
        assert cfg.contract.maturity == pytest.approx(2.0 / 12.0)
        assert cfg.state == {"x0": 0.137, "y0": 0.776}
        # the caption's factor level reproduces its VIX level
        from vixpricer.models import f_eval
        assert f_eval(cfg.model, 0.776) == pytest.approx(0.137, abs=6e-4)

    def test_fig7(self):
        cfg = load_config("fig7")
        assert (cfg.cir.alpha, cfg.cir.beta, cfg.cir.kappa) == (1.0, 2.0, 1.0)
        assert cfg.model.terms == ((0.07, 1.0),)
        assert cfg.model.terms_a2 == ((0.07, 1.0),)
        assert (cfg.contract.strike, cfg.contract.rate) == (0.15, 0.05)


class TestConfigLoading:
    def test_load_from_path(self, tmp_path):
        doc = {"model": {"class": "a1", "terms": [{"weight": 1.0, "power": 1.0}]},
               "cir": {"alpha": 2.94, "beta": 17.10, "kappa": 2.05},
               "contract": {"strike": 0.15, "maturity": 1.0, "rate": 0.05},
               "state": {"x0": 0.2}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        cfg = load_config(str(path))
        assert cfg.contract.kind == "call"
        assert cfg.initial_state() == 0.2

    def test_missing_file(self):
        with pytest.raises(ValueError):
            load_config("/nonexistent/path.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError):
            load_config(str(path))

    def test_invalid_parameters(self, tmp_path):
        doc = {"model": {"class": "a1", "terms": [{"weight": 1.0, "power": 1.0}]},
               "cir": {"alpha": 1.0, "beta": 0.1, "kappa": 1.0},
               "contract": {"strike": 0.15, "maturity": 1.0, "rate": 0.05}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="Feller"):
            load_config(str(path))

    def test_mixture_state_resolution(self):
        cfg = load_config("fig5")
        assert cfg.initial_factor("lower") == pytest.approx(0.776, abs=2e-2)
        lower = cfg.initial_factor("lower")
        upper = cfg.initial_factor("upper")
        assert lower < upper


class TestCommands:
    def test_futures_zero_horizon_returns_spot(self):
        cfg = load_config("fig1")
        header, rows, _ = cmd_futures(cfg, [0.0])
        assert header == ["T", "F_quadrature", "F_taylor", "rel_gap"]
        assert rows[0][1] == pytest.approx(0.2)
        assert rows[0][3] == 0.0

    def test_futures_mixture_emits_both_branches(self):
        cfg = load_config("fig5")
        header, rows, _ = cmd_futures(cfg, [0.0, 1.0 / 12.0])
        assert header[0] == "branch"
        starts = {r[0]: r[2] for r in rows if r[1] == 0.0}
        assert starts["lower"] == pytest.approx(0.137)
        assert starts["upper"] == pytest.approx(0.137)
        assert len(rows) == 4

    def test_futures_single_branch_flag(self):
        cfg = load_config("fig5")
        _, rows, _ = cmd_futures(cfg, [0.0], branch="lower")
        assert len(rows) == 1 and rows[0][0] == "lower"

    def test_boundary_and_price_commands(self):
        cfg = load_config("fig1")
        cfg.solver = SolverConfig(n_steps=24)
        boundary = cmd_boundary(cfg)
        assert np.all(np.diff(boundary.values) <= 1e-12)
        header, rows, meta = cmd_price(cfg, 0.0, [0.1, 0.2, 0.3],
                                       boundary=boundary)
        assert header == ["state", "european", "american", "intrinsic"]
        for _, eu, am, intrinsic in rows:
            assert am >= max(eu, intrinsic) - 1e-6
        assert "nonconvexity_witness" in meta

    def test_skew_command(self):
        cfg = load_config("fig1")
        header, rows, _ = cmd_skew(cfg, 0.5, [-0.1, 0.0, 0.1])
        assert header == ["moneyness", "implied_vol"]
        assert all(v > 0 for _, v in rows)

    def test_mc_check_futures_zero_horizon(self):
        cfg = load_config("fig1")
        report = cmd_mc_check(cfg, "futures", 1000, 1, horizon=0.0)
        assert report["z"] == 0.0
        assert report["analytic"] == report["mc_mean"]

    def test_mc_check_european(self):
        cfg = load_config("fig1")
        report = cmd_mc_check(cfg, "european", 200_000, 5)
        assert abs(report["z"]) < 4.0
        assert report["std_error"] > 0.0

    def test_mc_check_american_reports_bias(self):
        cfg = load_config("fig1")
        cfg.solver = SolverConfig(n_steps=24)
        report = cmd_mc_check(cfg, "american", 20_000, 5, mc_steps=50)
        assert report["bias_indicator"] >= 0.0
        assert report["mc_time_steps"] == 50
        assert abs(report["z"]) < 6.0


class TestMainEntry:
    def test_futures_csv_deterministic(self, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["futures", "--config", "fig1", "--t-grid", "0.25,0.5",
                "--out"]
        assert main(args + [str(out1)]) == EXIT_OK
        assert main(args + [str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()[0]
        assert header == "T,F_quadrature,F_taylor,rel_gap"

    def test_futures_json_format(self, capsys):
        assert main(["futures", "--config", "fig1", "--t-grid", "0.5",
                     "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["columns"][0] == "T"
        assert len(payload["rows"]) == 1

    def test_fig5_futures_regularized_then_divergent(self, capsys):
        # fig5's level diverges at the origin: its tail-mass box makes it
        # finite out to 0.2 y on both branches, and the origin probe refuses
        # it at 0.45 y on the lower one
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        assert main(["futures", "--config", "fig5", "--t-grid", "0.02,0.1,0.2",
                     "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert [row[0] for row in payload["rows"]] == ["lower"] * 3 + ["upper"] * 3
        assert all(row[2] > 0.0 for row in payload["rows"])
        assert main(["futures", "--config", "fig5", "--t-grid", "0.45"]) == EXIT_SOLVER
        assert "divergent" in json.loads(capsys.readouterr().err)["error"]

    def test_json_output_is_strict(self, capsys):
        # an implied vol that does not exist is written as null, not NaN
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        assert main(["skew", "--config", "fig7", "--maturity", "0.2",
                     "--moneyness-grid=3,6", "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert payload["rows"][0][1] > 0.0
        assert payload["rows"][1] == [6.0, None]

    def test_boundary_csv_output(self, tmp_path):
        doc = {"model": {"class": "a1", "terms": [{"weight": 1.0, "power": 1.0}]},
               "cir": {"alpha": 2.94, "beta": 17.10, "kappa": 2.05},
               "contract": {"strike": 0.15, "maturity": 1.0, "rate": 0.05},
               "state": {"x0": 0.2},
               "solver": {"n_steps": 16}}
        path = tmp_path / "quick.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "bdry.csv"
        assert main(["boundary", "--config", str(path), "--out", str(out)]) == EXIT_OK
        lines = [l for l in out.read_text().strip().splitlines()
                 if not l.startswith("#")]  # metadata lines
        assert lines[0] == "t,b"
        vals = [float(l.split(",")[1]) for l in lines[1:]]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_boundary_csv_round_shape(self, tmp_path, monkeypatch,
                                      fig1_boundary_coarse):
        import vixpricer.cli as cli
        monkeypatch.setattr(cli, "cmd_boundary", lambda cfg: fig1_boundary_coarse)
        path = tmp_path / "b.csv"
        assert main(["boundary", "--config", "fig1", "--out", str(path)]) == EXIT_OK
        lines = [l for l in path.read_text().strip().splitlines()
                 if not l.startswith("#")]  # metadata lines
        assert lines[0] == "t,b"
        assert len(lines) == len(fig1_boundary_coarse.times) + 1
        t0, b0 = lines[1].split(",")
        assert float(t0) == 0.0
        assert float(b0) == pytest.approx(fig1_boundary_coarse.values[0],
                                          rel=1e-11)

    def test_boundary_pair_csv_header(self, tmp_path, monkeypatch,
                                      fig7_boundary_coarse):
        import vixpricer.cli as cli
        monkeypatch.setattr(cli, "cmd_boundary", lambda cfg: fig7_boundary_coarse)
        path = tmp_path / "pair.csv"
        assert main(["boundary", "--config", "fig7", "--out", str(path)]) == EXIT_OK
        lines = path.read_text().splitlines()
        assert lines[2] == "t,b_lower,b_upper"
        # the inner solve's summary heads the table as metadata lines
        updates = np.array(fig7_boundary_coarse.diagnostics["inner_updates"])
        per_step = updates.sum() / np.count_nonzero(updates)
        max_error = max(map(max, fig7_boundary_coarse.diagnostics["inner_error"]))
        assert lines[:2] == [f"# inner_updates_per_step = {per_step:.12g}",
                             f"# max_inner_error = {max_error:.12g}"]

    def test_boundary_json_out(self, tmp_path, monkeypatch, fig7_boundary_coarse):
        import vixpricer.cli as cli
        monkeypatch.setattr(cli, "cmd_boundary", lambda cfg: fig7_boundary_coarse)
        path = tmp_path / "pair.json"
        assert main(["boundary", "--config", "fig7", "--format", "json",
                     "--out", str(path)]) == EXIT_OK
        payload = json.loads(path.read_text())
        assert payload["columns"] == ["t", "b_lower", "b_upper"]
        assert len(payload["rows"]) == len(fig7_boundary_coarse.times)
        assert payload["rows"][0] == [0.0, fig7_boundary_coarse.values[0],
                                      fig7_boundary_coarse.upper[0]]
        meta = payload["metadata"]
        assert sorted(meta) == ["inner_updates_per_step", "max_inner_error"]
        assert 1.0 <= meta["inner_updates_per_step"] <= 5.0
        assert 0.0 <= meta["max_inner_error"] <= SolverConfig().inner_tol

    @pytest.mark.parametrize("argv", [
        ["boundary", "--config", "fig1", "--seed", "3"],
        ["boundary", "--config", "fig7", "--branch", "lower"],
        ["price", "--config", "fig7", "--state-grid", "1.0", "--branch", "upper"],
        ["futures", "--config", "fig1", "--t-grid", "0.5", "--seed", "3"],
        ["mc-check", "--config", "fig1", "--target", "european", "--format", "csv"],
    ])
    def test_unread_options_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_bad_config_exit_code(self, capsys):
        assert main(["boundary", "--config", "/no/such/file.json"]) == EXIT_CONFIG

    def test_assumption_violation_exit_code(self, tmp_path):
        # reciprocal map with beta <= kappa^2: no valid benefit sign change
        doc = {"model": {"class": "a1", "terms": [{"weight": 1.0, "power": 1.0}]},
               "cir": {"alpha": 2.94, "beta": 4.0, "kappa": 2.05},
               "contract": {"strike": 0.15, "maturity": 1.0, "rate": 0.05},
               "state": {"x0": 0.2}}
        path = tmp_path / "weak.json"
        path.write_text(json.dumps(doc))
        assert main(["boundary", "--config", str(path)]) == EXIT_SOLVER

    def test_fig5_has_no_boundary(self, capsys):
        # beta = 0.1 <= kappa^2 (p + 1) / 2 for the falling power 0.75
        assert main(["boundary", "--config", "fig5"]) == EXIT_SOLVER
        assert "decreasing power 0.75" in capsys.readouterr().err

    @pytest.mark.parametrize("section,name,value", [
        ("quadrature", "abs_tol", 1e-12),
        ("quadrature", "max_subdivisions", 200),
        ("solver", "max_inner_iters", 100),
    ])
    def test_removed_settings_are_rejected(self, tmp_path, section, name, value):
        doc = json.loads(json.dumps(FIG1_DOC))
        doc[section] = {name: value}
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc))
        assert main(["boundary", "--config", str(path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("section,name,value", [
        ("quadrature", "tail_mass_cut", 0.6),
        ("contract", "rate", math.nan),
        ("contract", "maturity", math.inf),
        ("solver", "inner_tol", math.inf),
    ])
    def test_out_of_domain_settings_are_rejected(self, tmp_path, capsys,
                                                 section, name, value):
        doc = json.loads(json.dumps(FIG1_DOC))
        doc.setdefault(section, {})[name] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))  # NaN and Infinity tokens
        argv = ["futures", "--config", str(path), "--t-grid", "0.5"]
        assert main(argv) == EXIT_CONFIG
        assert name in json.loads(capsys.readouterr().err)["error"]

    def test_non_integer_step_count_is_a_config_error(self, tmp_path, capsys):
        doc = json.loads(json.dumps(FIG1_DOC))
        doc["solver"] = {"n_steps": 12.5}
        path = tmp_path / "half_step.json"
        path.write_text(json.dumps(doc))
        assert main(["boundary", "--config", str(path)]) == EXIT_CONFIG
        error = json.loads(capsys.readouterr().err)
        assert error["exit_code"] == EXIT_CONFIG
        assert "n_steps must be an integer" in error["error"]

    @pytest.mark.parametrize("argv", [
        ["futures", "--t-grid", "0.5"],
        ["skew", "--moneyness-grid", "0"],
        ["mc-check", "--target", "european", "--n", "10"],
    ], ids=["futures", "skew", "mc-check"])
    def test_stateless_config_is_a_config_error(self, tmp_path, capsys, argv):
        doc = {k: v for k, v in FIG1_DOC.items() if k != "state"}
        path = tmp_path / "stateless.json"
        path.write_text(json.dumps(doc))
        assert main(argv[:1] + ["--config", str(path)] + argv[1:]) == EXIT_CONFIG
        error = json.loads(capsys.readouterr().err)["error"]
        assert "x0" in error and "y0" in error

    def test_stateless_config_prices_a_state_grid(self, tmp_path, capsys):
        # boundary and price take no state from the config
        doc = {k: v for k, v in FIG1_DOC.items() if k != "state"}
        doc["solver"] = {"n_steps": 8}
        path = tmp_path / "stateless.json"
        path.write_text(json.dumps(doc))
        assert main(["boundary", "--config", str(path)]) == EXIT_OK
        assert main(["price", "--config", str(path), "--state-grid", "0.2"]) == EXIT_OK

    def test_mc_check_writes_an_infinite_z_as_null(self, monkeypatch, capsys):
        import vixpricer.cli as cli
        report = {"target": "european", "z": float("inf"), "analytic": 1.0,
                  "mc_mean": 1.0, "std_error": 0.0, "n_paths": 10, "seed": 0}
        monkeypatch.setattr(cli, "cmd_mc_check", lambda *a, **k: report)
        assert main(["mc-check", "--config", "fig1", "--target", "european",
                     "--n", "10"]) == EXIT_VERIFY
        payload = json.loads(capsys.readouterr().out,
                             parse_constant=lambda token: pytest.fail(token))
        assert payload["z"] is None and payload["analytic"] == 1.0

    def test_mc_check_verification_exit(self, monkeypatch):
        import vixpricer.cli as cli
        report = {"target": "european", "z": 5.3, "analytic": 1.0,
                  "mc_mean": 0.9, "std_error": 0.01, "n_paths": 10, "seed": 0}
        monkeypatch.setattr(cli, "cmd_mc_check",
                            lambda *a, **k: report)
        assert main(["mc-check", "--config", "fig1", "--target", "european",
                     "--n", "10"]) == EXIT_VERIFY

    def test_price_csv_metadata_comment(self, tmp_path):
        doc = {"model": {"class": "a2", "terms": [{"weight": 1.0, "power": 1.0}]},
               "cir": {"alpha": 3.0, "beta": 0.68, "kappa": 1.0},
               "contract": {"strike": 0.15, "maturity": 1.0, "rate": 0.05},
               "state": {"x0": 0.2},
               "solver": {"n_steps": 16}}
        path = tmp_path / "quick.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "price.csv"
        assert main(["price", "--config", str(path), "--state-grid",
                     "0.1,0.2,0.3", "--out", str(out)]) == EXIT_OK
        first = out.read_text().splitlines()[0]
        assert first.startswith("# nonconvexity_witness")

    @pytest.mark.parametrize("grid", ["0.2,0.3,0.2", "0.2,0.2,0.3"])
    def test_price_rejects_a_state_grid_that_does_not_increase(
            self, tmp_path, capsys, grid):
        # the convexity witness reads chords between neighbouring states
        doc = dict(FIG1_DOC, solver={"n_steps": 12})
        path = tmp_path / "fig1_12.json"
        path.write_text(json.dumps(doc))
        assert main(["price", "--config", str(path), "--state-grid", grid]) == EXIT_CONFIG
        assert "strictly increasing" in json.loads(capsys.readouterr().err)["error"]
