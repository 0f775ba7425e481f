"""Config validation, expression safety, round-trips, and CLI behavior."""

import json
import math
from pathlib import Path

import pytest

from pdmpkit.cli import main, run
from pdmpkit.config import (
    build_model,
    dump_config,
    load_config,
    population_spec,
    validate_config,
)
from pdmpkit.errors import ConfigError, InvalidParam
from pdmpkit.exprs import compile_expr, rate_from_config


class TestExpressions:
    def test_basic_arithmetic(self):
        f = compile_expr("1 + 2*x")
        assert f(3.0) == 7.0

    def test_functions_and_constants(self):
        f = compile_expr("exp(-x) + pi")
        assert f(0.0) == pytest.approx(1.0 + math.pi)

    def test_multi_variable(self):
        f = compile_expr("x0 * exp(t)", variables=("t", "x0"))
        assert f(1.0, 2.0) == pytest.approx(2.0 * math.e)

    @pytest.mark.parametrize("bad", [
        "__import__('os').system('true')",
        "x.__class__",
        "lambda y: y",
        "open('f')",
        "x +",
        "y + 1",
        "[1,2]",
        "x if x else 0",
    ])
    def test_rejects_unsafe_or_malformed(self, bad):
        with pytest.raises(ConfigError):
            compile_expr(bad)

    def test_rate_from_config(self):
        assert rate_from_config(2.5, "q0") == 2.5
        fn = rate_from_config("1 + x", "q0")
        assert fn(1.0) == 2.0
        with pytest.raises(ConfigError):
            rate_from_config(True, "q0")
        with pytest.raises(ConfigError):
            rate_from_config([1, 2], "q0")


class TestConfigValidation:
    def base(self):
        return {
            "command": "simulate",
            "seed": 1,
            "model": {"name": "telegraph", "lam": 1.0, "c": 1.0},
            "simulate": {"x0": [0.0, 1.0], "regime0": 0, "horizon": 5.0},
        }

    def test_valid_passes(self):
        validate_config(self.base())

    def test_unknown_top_key(self):
        cfg = self.base()
        cfg["bogus"] = 1
        with pytest.raises(ConfigError, match="bogus"):
            validate_config(cfg)

    def test_unknown_model_key_with_path(self):
        cfg = self.base()
        cfg["model"]["extra"] = 1
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        assert err.value.key == "model[telegraph].extra"

    def test_unknown_section_key(self):
        cfg = self.base()
        cfg["simulate"]["whatever"] = 1
        with pytest.raises(ConfigError, match="whatever"):
            validate_config(cfg)

    def test_missing_required(self):
        cfg = self.base()
        del cfg["simulate"]["horizon"]
        with pytest.raises(ConfigError, match="horizon"):
            validate_config(cfg)

    def test_unknown_command_and_model(self):
        with pytest.raises(ConfigError):
            validate_config({"command": "dance"})
        cfg = self.base()
        cfg["model"]["name"] = "weather"
        with pytest.raises(ConfigError):
            validate_config(cfg)

    def test_seed_must_be_integer(self):
        cfg = self.base()
        cfg["seed"] = "abc"
        with pytest.raises(ConfigError, match="seed"):
            validate_config(cfg)

    def test_classify_model_restriction(self):
        cfg = {"command": "classify", "model": {"name": "telegraph",
                                                "lam": 1.0, "c": 1.0}}
        with pytest.raises(ConfigError):
            validate_config(cfg)

    @pytest.mark.parametrize("name, extra, bad, key", [
        ("cell_cycle_1p", {}, {"grid": {"n": 16, "x_min": 2.0, "x_max": 8.0}},
         "evolve.grid.x_min"),
        ("cell_cycle_2p", {"t_B": 0.5}, {"grid": {"n": 16, "x_min": 2.0, "x_max": 8.0}},
         "evolve.grid.x_min"),
        # only the two-phase model has an age grid to size
        ("cell_cycle_1p", {}, {"n_y": 8}, "evolve.n_y"),
    ])
    def test_cell_cycle_evolve_rejects_x_min(self, name, extra, bad, key):
        cfg = {"command": "evolve",
               "model": {"name": name, "g": "x", "phi": "x", **extra},
               "evolve": {"grid": {"n": 16, "x_max": 8.0}, "dt": 0.03125, "t_end": 0.5}}
        validate_config(cfg)
        with pytest.raises(ConfigError, match=key.rsplit(".", 1)[-1]) as err:
            validate_config({**cfg, "evolve": {**cfg["evolve"], **bad}})
        assert err.value.key == key

    @pytest.mark.parametrize("model, regime, ok", [
        ({"name": "gene_expression", "P": 1.0, "mu": 1.0, "q0": 1.0, "q1": 1.0}, 1, True),
        ({"name": "gene_expression", "P": 1.0, "mu": 1.0, "q0": 1.0, "q1": 1.0}, 5, False),
        ({"name": "telegraph", "lam": 1.0, "c": 1.0}, -1, False),
        ({"name": "telegraph", "lam": 1.0, "c": 1.0}, 1.0, False),
        ({"name": "cell_cycle_1p", "g": "x", "phi": "x"}, 0, True),
        ({"name": "cell_cycle_1p", "g": "x", "phi": "x"}, 1, False),
        ({"name": "cell_cycle_2p", "g": "x", "phi": "x", "t_B": 0.5}, 1, False),
    ])
    def test_evolve_f0_regime_range(self, model, regime, ok):
        # an out-of-range regime used to evolve an all-zero density silently
        cfg = {"command": "evolve", "model": model,
               "evolve": {"grid": {"n": 16, "x_max": 8.0}, "dt": 0.03125, "t_end": 0.5,
                          "f0": {"kind": "gaussian", "center": 1.0, "regime": regime}}}
        if ok:
            validate_config(cfg)
            return
        with pytest.raises(ConfigError, match="regime") as err:
            validate_config(cfg)
        assert err.value.key == "evolve.f0.regime"

    @pytest.mark.parametrize("key, value", [("center", 0.9), ("width", 0.01), ("regime", 1)])
    def test_uniform_f0_rejects_unused_keys(self, key, value):
        # a uniform f0 reads none of these; they used to be accepted and ignored
        cfg = {"command": "evolve",
               "model": {"name": "gene_expression", "P": 1.0, "mu": 1.0, "q0": 1.0, "q1": 1.0},
               "evolve": {"grid": {"n": 16, "x_max": 1.0}, "dt": 0.02, "t_end": 0.1,
                          "f0": {"kind": "uniform"}}}
        validate_config(cfg)
        bad = {**cfg, "evolve": {**cfg["evolve"], "f0": {"kind": "uniform", key: value}}}
        with pytest.raises(ConfigError, match=key) as err:
            validate_config(bad)
        assert err.value.key == f"evolve.f0.{key}"

    @pytest.mark.parametrize("regime, ok", [
        (0, True), (1, True), (-1, False), (2, False), (5, False), (True, False),
    ])
    def test_compare_regime_range(self, regime, ok, tmp_path):
        # -1 used to run regime 1 and 5 raised a bare IndexError
        cfg = {"command": "compare",
               "compare": {"mode": "dwell_ks", "regime": regime, "n": 20,
                           "model_params": {"P": 1.0, "mu": 1.0, "q0": 1.0, "q1": 1.0}}}
        if ok:
            validate_config(cfg)
            return
        with pytest.raises(ConfigError, match="regime") as err:
            run("compare", cfg, tmp_path)
        assert err.value.key == "compare.regime"
        assert not any(tmp_path.iterdir())

    def test_compare_mode_keys(self):
        cfg = {"command": "compare",
               "compare": {"mode": "dwell_ks", "n": 10, "bad_key": 1}}
        with pytest.raises(ConfigError, match="bad_key"):
            validate_config(cfg)
        with pytest.raises(ConfigError, match="mode"):
            validate_config({"command": "compare", "compare": {"mode": "nope"}})


class TestRoundTrip:
    def test_shipped_configs_round_trip(self, config_dir, tmp_path):
        for path in sorted(config_dir.glob("*.yaml")):
            cfg = load_config(path)
            out = tmp_path / path.name
            dump_config(cfg, out)
            assert load_config(out) == cfg

    def test_shipped_configs_validate(self, config_dir):
        for path in sorted(config_dir.glob("*.yaml")):
            validate_config(load_config(path))

    def test_parameter_values_bit_exact(self, tmp_path):
        cfg = {"command": "classify", "seed": 2**63 - 1,
               "model": {"name": "birth_switch", "b0": 0.1 + 0.2, "b1": 2.0,
                         "c": 1.0 / 3.0, "mu": 1.0, "q0": "1 + x", "q1": 1.0}}
        path = tmp_path / "c.yaml"
        dump_config(cfg, path)
        back = load_config(path)
        assert back["model"]["b0"] == 0.1 + 0.2
        assert back["model"]["c"] == 1.0 / 3.0
        assert back["seed"] == 2**63 - 1
        assert back == cfg


class TestBuildModel:
    @pytest.mark.parametrize("model_cfg", [
        {"name": "grasshopper", "lam": 1.0, "jump": {"kind": "two_point", "value": 1.0}},
        {"name": "telegraph", "lam": 1.0, "c": 2.0},
        {"name": "cell_cycle_1p", "g": "x", "phi": "x",
         "g_closed_form": "x0 * exp(t)"},
        {"name": "rubinow", "g": "1 + 0.5*x", "m": 1.0},
        {"name": "cell_cycle_2p", "g": "x", "phi": "x", "t_B": 0.5,
         "g_closed_form": "x0 * exp(t)"},
        {"name": "gene_expression", "P": 1.0, "mu": 1.0, "q0": "1 + x", "q1": 1.0},
        {"name": "stein", "alpha": 1.0, "a_E": 0.6, "a_I": 0.5, "lambda_E": 2.0,
         "lambda_I": 1.0, "theta": 1.0, "t_R": 0.2},
        {"name": "allee", "lam": 1.0, "K": 10.0, "A": 2.0, "B": 1.0,
         "q01": 1.0, "q10": 1.0},
        {"name": "birth_switch", "b0": 0.5, "b1": 2.0, "c": 1.0, "mu": 1.0,
         "q0": 1.0, "q1": 1.0},
    ])
    def test_catalog_constructs(self, model_cfg):
        model = build_model(model_cfg)
        assert model.name == model_cfg["name"]

    def test_population_spec(self):
        spec = population_spec({"name": "population", "g": None, "b": "x",
                                "d": 0.5, "initial": [1.0, 2.0]})
        assert spec["g"] is None and spec["b"](2.0) == 2.0
        assert spec["initial"] == [1.0, 2.0]

    def test_invalid_params_propagate(self):
        with pytest.raises(InvalidParam):
            build_model({"name": "telegraph", "lam": -1.0, "c": 1.0})


class TestCli:
    def test_classify_command(self, config_dir, tmp_path, capsys):
        code = main(["--config", str(config_dir / "demo_classify_stable.yaml"),
                     "--out", str(tmp_path)])
        assert code == 0
        status = json.loads(capsys.readouterr().out)
        assert status["status"] == "ok"
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["verdict"] == "Stable"
        assert report["r0"] == -1.0
        assert report["schema_version"] == 1

    def test_evolve_command(self, config_dir, tmp_path):
        code = main(["--config", str(config_dir / "demo_gene_evolve.yaml"),
                     "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["converged"] is True
        assert abs(summary["mass_drift"]) < 1e-10
        header = (tmp_path / "density.csv").read_text().splitlines()[0]
        assert header == "t,regime,cell_center,value"

    def test_stationary_command(self, config_dir, tmp_path):
        code = main(["--config", str(config_dir / "demo_gene_stationary.yaml"),
                     "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "fstar.csv").exists()
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["verdict"] == "Stable"

    def test_compare_command(self, config_dir, tmp_path):
        cfg = load_config(config_dir / "accept01_gene_dwell_ks.yaml")
        cfg["compare"]["n"] = 5000  # trimmed for speed; the full run is in acceptance
        path = tmp_path / "cfg.yaml"
        dump_config(cfg, path)
        code = main(["--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 0
        report = json.loads((tmp_path / "o" / "fit_report.json").read_text())
        assert report["all_pass"] is True
        assert report["schema_version"] == 1

    def test_population_command(self, config_dir, tmp_path):
        code = main(["--config", str(config_dir / "demo_population.yaml"),
                     "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "events.csv").read_text().splitlines()
        assert lines[0] == "t,kind,parent_size,n_after"
        assert len(lines) > 1

    def test_simulate_reruns_byte_identical(self, config_dir, tmp_path):
        cfg = load_config(config_dir / "accept09_reproducibility.yaml")
        cfg["simulate"]["n_paths"] = 2
        cfg["simulate"]["horizon"] = 10.0
        cfg["simulate"]["snapshot_times"] = [5.0, 10.0]
        path = tmp_path / "cfg.yaml"
        dump_config(cfg, path)
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["--config", str(path), "--out", str(out)]) == 0
            outs.append((out / "trajectories.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_seed_override_changes_output(self, config_dir, tmp_path):
        cfg_path = config_dir / "accept09_reproducibility.yaml"
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["--config", str(cfg_path), "--out", str(a), "--seed", "1"]) == 0
        assert main(["--config", str(cfg_path), "--out", str(b), "--seed", "2"]) == 0
        assert (a / "trajectories.csv").read_bytes() != (b / "trajectories.csv").read_bytes()

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("command: simulate\nmodel: {name: telegraph, lam: 1.0, "
                       "c: 1.0, oops: 1}\nsimulate: {x0: [0, 1], regime0: 0, "
                       "horizon: 1.0}\n")
        code = main(["--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().out)
        assert err["kind"] == "ConfigError"
        assert "oops" in err["key"]

    def test_yaml_syntax_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("command: classify\nmodel: {name: birth_switch, b0: 0.5\n")
        code = main(["--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().out)
        assert err["kind"] == "ConfigError"
        assert "not valid YAML" in err["message"]

    def test_model_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("command: classify\nmodel: {name: birth_switch, b0: 2.0,"
                       " b1: 3.0, c: 1.0, mu: 1.0, q0: 1.0, q1: 1.0}\n")
        code = main(["--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 3
        err = json.loads(capsys.readouterr().out)
        assert err["kind"] == "ModelError"
        assert "b0 < mu" in err["message"]

    def test_nonfinite_rate_exit_code(self, tmp_path, capsys):
        # 1e308 * 10 overflows to inf, and inf * x - inf * x is NaN
        bad = tmp_path / "nan.yaml"
        bad.write_text('command: evolve\nmodel: {name: cell_cycle_1p, g: "x",'
                       ' phi: "1e308*10*x - 1e308*10*x"}\n'
                       "evolve: {grid: {n: 16, x_max: 8.0}, dt: 0.01, t_end: 0.1}\n")
        with pytest.warns(RuntimeWarning):
            code = main(["--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 3
        err = json.loads(capsys.readouterr().out)
        assert err["kind"] == "ModelError"
        assert "finite" in err["message"]
        assert not (tmp_path / "o" / "density.csv").exists()

    def test_command_conflict_rejected(self, config_dir, tmp_path, capsys):
        code = main(["simulate",
                     "--config", str(config_dir / "demo_classify_stable.yaml"),
                     "--out", str(tmp_path)])
        assert code == 2

    def test_run_api(self, config_dir, tmp_path):
        cfg = load_config(config_dir / "demo_classify_stable.yaml")
        status = run("classify", cfg, tmp_path)
        assert status["status"] == "ok"
        assert Path(status["artifacts"][0]).exists()
