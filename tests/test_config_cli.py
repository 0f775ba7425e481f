"""Config validation, expression safety, round-trips, and CLI behavior."""

import ast
import importlib.util
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdmpkit.cli import main, run
from pdmpkit.config import (
    build_model,
    dump_config,
    load_config,
    model_view,
    population_spec,
    validate_config,
)
from pdmpkit import config, exprs
from pdmpkit.errors import ConfigError, InvalidParam
from pdmpkit.exprs import compile_expr, rate_from_config

TESTS = Path(__file__).resolve().parent
EXPR_KEYS = {"g", "phi", "q0", "q1", "q01", "q10", "b", "d", "g_closed_form"}
CLOSED_FORM = ("t", "x0")
# the expression shapes of the perfbench routes, with typical jittered numbers
ROUTE_SHAPES = (("q0", "1.03 + 0.97 * x"), ("g", "1.07 * x"),
                ("g_closed_form", "x0 * exp(1.07 * t)"), ("phi", "0.93 * x"))


def _eval_reference(src, variables):
    """The evaluation route before compiled functions: ``eval`` in a merged namespace."""
    code = compile(ast.parse(src, mode="eval"), filename="<expr>", mode="eval")
    namespace = {**exprs._FUNCS, **exprs._CONSTS}

    def fn(*args):
        local = dict(zip(variables, args))
        return float(eval(code, {"__builtins__": {}}, {**namespace, **local}))
    return fn


def _expression_strings(node, key=None):
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _expression_strings(v, k)
    elif isinstance(node, (list, tuple)):
        for v in node:
            yield from _expression_strings(v, key)
    elif isinstance(node, str) and key in EXPR_KEYS:
        yield key, node


def _all_expressions():
    spec = importlib.util.spec_from_file_location("golden_cases", TESTS / "test_golden.py")
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    sources = [load_config(p) for p in sorted(golden.CONFIG_DIR.glob("*.yaml"))]
    sources += [golden.EVOLVE, golden.SIMULATE, golden.ANALYSIS]
    found = {pair for src in sources for pair in _expression_strings(src)}
    found |= set(ROUTE_SHAPES)
    return sorted({(src, CLOSED_FORM if key == "g_closed_form" else ("x",))
                   for key, src in found})


def _inputs(n_vars, n=10_000):
    rng = np.random.default_rng(9)
    cols = []
    for _ in range(n_vars):
        col = list(rng.uniform(0.0, 4.0, n // 2))              # Python floats
        col += list(np.float64(v) for v in rng.uniform(0.0, 4.0, n // 4))
        col += [int(k) for k in rng.integers(0, 9, n - len(col))]   # integer-valued results
        cols.append(col)
    return list(zip(*cols))


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

    @pytest.mark.parametrize("src,variables", [
        pytest.param(src, variables, id=f"{src} ({', '.join(variables)})")
        for src, variables in _all_expressions()])
    def test_compiled_matches_eval_bit_for_bit(self, src, variables):
        fn, ref = compile_expr(src, variables), _eval_reference(src, variables)
        assert fn.source == src
        inputs = _inputs(len(variables))
        got = [fn(*args) for args in inputs]
        assert all(type(v) is float for v in got)
        assert [v.hex() for v in got] == [ref(*args).hex() for args in inputs]

    def test_expression_set_covers_configs_goldens_and_routes(self):
        found = dict(_all_expressions())
        assert {"x", "1 + x", "0.5 * x", "x0 * exp(t)"} <= set(found)
        assert {src for _, src in ROUTE_SHAPES} <= set(found)
        assert found["x0 * exp(t)"] == CLOSED_FORM and found["x"] == ("x",)

    @pytest.mark.parametrize("bad", ["_float(x)", "__builtins__", "_body", "_fail(x, x)",
                                     "_RAISES", "float(x)", "exc"])
    def test_rejects_the_compiled_function_internals(self, bad):
        with pytest.raises(ConfigError):
            compile_expr(bad)

    @pytest.mark.parametrize("src,args,match", [
        ("log(x - 0.5)", (0.3,), r"'log\(x - 0.5\)' failed at x=0.3: math domain error"),
        ("1 / x", (0,), "failed at x=0: division by zero"),
        ("exp(x)", (1000.0,), "math range error"),
        ("x ** 0.5 + sqrt(x - 1)", (0.5,), "failed at x=0.5"),
    ])
    def test_evaluation_errors_are_typed(self, src, args, match):
        with pytest.raises(InvalidParam, match=match):
            compile_expr(src)(*args)

    def test_two_variable_error_names_both(self):
        fn = compile_expr("x0 * log(t)", variables=CLOSED_FORM)
        with pytest.raises(InvalidParam, match=r"failed at t=-1.0, x0=2.0"):
            fn(-1.0, 2.0)

    def test_array_arguments_still_raise_type_error(self):
        # a compiled expression takes scalars only; arrays of times fail typed
        fn = compile_expr("x0 * exp(t)", variables=CLOSED_FORM)
        with pytest.raises(TypeError):
            fn(np.array([0.1, 0.2]), 1.0)
        with pytest.raises(TypeError):
            compile_expr("2 * x")(np.array([1.0, 2.0]))

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

    @pytest.mark.parametrize("budget", [-1, True, 2.5, "3"])
    def test_jump_budget_must_be_nonnegative_int(self, budget):
        cfg = self.base()
        cfg["simulate"]["jump_budget"] = budget
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        assert err.value.key == "simulate.jump_budget"
        cfg["simulate"]["jump_budget"] = 0
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

    @pytest.mark.parametrize("mode", ["gene_stationarity", "stability_alternative"])
    @pytest.mark.parametrize("delta", [0, 0.0, -0.5, float("inf"), float("nan"), True, "1"])
    def test_compare_delta_must_be_positive_and_finite(self, mode, delta, tmp_path):
        # delta 0 used to leave the occupation ticks at one time, sampling forever
        cfg = {"command": "compare", "compare": {"mode": mode, "delta": delta}}
        with pytest.raises(ConfigError, match="delta") as err:
            validate_config(cfg)
        assert err.value.key == "compare.delta"
        cfg_path = tmp_path / "c.yaml"
        dump_config(cfg, cfg_path)
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()
        validate_config({"command": "compare", "compare": {"mode": mode, "delta": 0.25}})

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

    def test_build_model_and_model_view_read_one_record(self):
        cfg = {"name": "cell_cycle_2p", "g": "x", "phi": "0.9 * x", "t_B": 0.5,
               "g_closed_form": "x0 * exp(t)"}
        model, view = build_model(cfg), model_view(cfg)
        assert model.regimes[1].clocks[0].kind.duration == view.t_B == 0.5
        state = model.regimes[0].flow.tuple_closed(0.7, (1.3, 0.0))
        assert state[0] == view.g_closed_form(0.7, 1.3) == 1.3 * math.exp(0.7)

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

    def test_snapshot_at_a_jump_time_same_in_both_modes(self, tmp_path):
        # phase B entered at t = 0 divides at exactly t_B = 0.5, the snapshot
        # time; both modes read the right-continuous path's post-jump state
        cfg = {"model": {"name": "cell_cycle_2p", "g": "x", "phi": 1.0, "t_B": 0.5,
                         "g_closed_form": "x0 * exp(t)"},
               "simulate": {"x0": [1.0, 0.0], "regime0": 1, "horizon": 1.0,
                            "snapshot_times": [0.5]}}
        snaps = []
        for record in (True, False):
            cfg["simulate"]["record_trajectories"] = record
            out = tmp_path / str(record)
            run("simulate", cfg, out, seed=5)
            snaps.append((out / "snapshots.csv").read_bytes())
        assert snaps[0] == snaps[1]
        assert snaps[0].splitlines()[1].startswith(b"0,0.5")
        assert snaps[0].splitlines()[1].split(b",")[2] == b"0"

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

    def test_path_failure_exits_alike_in_both_modes(self, tmp_path, capsys):
        # a telegraph at rate 5 makes far more than 3 jumps by t = 100
        records = []
        for record in ("true", "false"):
            cfg = tmp_path / f"{record}.yaml"
            cfg.write_text("command: simulate\nmodel: {name: telegraph, lam: 5.0, c: 1.0}\n"
                           "simulate: {x0: [0, 1], regime0: 0, horizon: 100.0, jump_budget: 3,"
                           f" record_trajectories: {record}}}\n")
            code = main(["--config", str(cfg), "--out", str(tmp_path / record)])
            records.append((code, json.loads(capsys.readouterr().out)["kind"]))
        assert records == [(1, "JumpBudgetExceeded")] * 2

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

    def test_expression_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "log.yaml"
        bad.write_text('command: simulate\nmodel: {name: gene_expression, P: 1, mu: 1,'
                       ' q0: "log(x - 0.5)", q1: 1}\n'
                       "simulate: {x0: [0.3], regime0: 0, horizon: 5.0}\n")
        code = main(["--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 3
        err = json.loads(capsys.readouterr().out)
        assert err["kind"] == "ModelError"
        assert "'log(x - 0.5)' failed at x=" in err["message"]

    def test_exp_neg_R_overflow_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "near_critical.yaml"
        bad.write_text("command: classify\nmodel: {name: birth_switch, b0: 0.5,"
                       " b1: 1.01, c: 1, mu: 1, q0: 1, q1: 1}\n")
        code = main(["--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 1
        err = json.loads(capsys.readouterr().out)
        assert err["kind"] == "DivergentIntegral"
        assert "double range" in err["message"]

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


def _main(tmp_path, cfg: dict) -> int:
    """Exit code of ``main`` on ``cfg`` written as a YAML file in ``tmp_path``."""
    path = Path(tmp_path) / "cfg.yaml"
    path.parent.mkdir(parents=True, exist_ok=True)
    dump_config(cfg, path)
    return main(["--config", str(path), "--out", str(Path(tmp_path) / "out")])


class TestSimulateInputs:
    """Bad values in the simulate section fail typed, alike in both modes."""

    @staticmethod
    def config(record, **simulate):
        return {"command": "simulate", "seed": 3,
                "model": {"name": "gene_expression", "P": 1.0, "mu": 1.0, "q0": 1.0, "q1": 1.0},
                "simulate": {"x0": [0.5], "regime0": 0, "horizon": 5.0, "n_paths": 2,
                             "snapshot_times": [1.0], "record_trajectories": record,
                             **simulate}}

    @pytest.mark.parametrize("record", [True, False])
    @pytest.mark.parametrize("key, value", [
        ("horizon", math.nan), ("horizon", math.inf), ("horizon", 0.0), ("horizon", "5"),
        ("horizon", None), ("x0", "0.5"), ("x0", ["a"]), ("x0", []), ("x0", [math.nan]),
        ("x0", [True]), ("regime0", "0"), ("regime0", 0.5), ("regime0", True),
        ("n_paths", "2"), ("n_paths", 0), ("n_paths", 1.5), ("snapshot_times", ["1"]),
        ("snapshot_times", 1.0), ("snapshot_times", [math.nan]),
        ("record_trajectories", "no"),
    ])
    def test_bad_value_is_a_config_error(self, record, key, value, tmp_path, capsys):
        # a NaN horizon used to run clean in recorded mode and write NaN into
        # summary.json; non-numbers raised a bare ValueError out of main
        assert _main(tmp_path, self.config(record, **{key: value})) == 2
        err = json.loads(capsys.readouterr().out)
        assert (err["kind"], err["key"]) == ("ConfigError", f"simulate.{key}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("record", [True, False])
    @pytest.mark.parametrize("regime0", [-1, 2, 5])
    def test_regime_outside_the_model_is_a_model_error(self, record, regime0, tmp_path, capsys):
        # -1 used to run the last regime and write -1 into the outputs; 5 raised IndexError
        assert _main(tmp_path, self.config(record, regime0=regime0)) == 3
        err = json.loads(capsys.readouterr().out)
        assert err["kind"] == "ModelError" and "regime" in err["message"]
        # the output directory this run made is gone again, not left empty
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("held", [False, True])
    def test_failed_run_leaves_an_existing_directory(self, held, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        if held:
            (out / "keep.txt").write_text("x")
        assert _main(tmp_path, self.config(True, regime0=5)) == 3
        assert out.is_dir() and [p.name for p in out.iterdir()] == (["keep.txt"] if held else [])


class TestModelParams:
    """compare and hormander read model parameters with the config parsers."""

    GENE = {"P": 1.0, "mu": 1.0, "q0": 1.0, "q1": 1.0}
    BIRTH_SWITCH = {"b0": 0.5, "b1": 2.0, "c": 1.0, "mu": 1.0, "q0": 1.0, "q1": 1.0}

    def cases(self):
        """(config, where) for each model parameter mapping a config can hold."""
        yield {"command": "compare", "compare": {"mode": "dwell_ks", "n": 20,
                                                 "model_params": dict(self.GENE)}}, \
            ("compare", "model_params")
        yield {"command": "compare", "compare": {"mode": "gene_stationarity",
                                                 "model_params": dict(self.GENE)}}, \
            ("compare", "model_params")
        yield {"command": "compare", "compare": {"mode": "hormander_suite",
                                                 "model_params": dict(self.GENE)}}, \
            ("compare", "model_params")
        for key in ("stable", "sweeping"):
            yield {"command": "compare", "compare": {
                "mode": "stability_alternative", "stable": dict(self.BIRTH_SWITCH),
                "sweeping": dict(self.BIRTH_SWITCH)}}, ("compare", key)
        yield {"command": "hormander", "hormander": {"model_params": dict(self.GENE)}}, \
            ("hormander", "model_params")

    @pytest.mark.parametrize("fault", ["misspelt", "missing", "not_a_number"])
    def test_bad_entry_is_a_config_error(self, fault, tmp_path, capsys):
        # each used to raise a bare TypeError out of main
        for k, (cfg, (section, key)) in enumerate(self.cases()):
            params = cfg[section][key]
            first = sorted(params)[0]
            if fault == "misspelt":
                params["bogus"] = params.pop(first)
                expect = "bogus"
            elif fault == "missing":
                del params[first]
                expect = first
            else:
                params[first] = "1.0"
                expect = first
            if fault != "not_a_number":
                with pytest.raises(ConfigError) as err:
                    validate_config(cfg)
                assert err.value.key == f"{section}.{key}.{expect}"
            assert _main(tmp_path / str(k), cfg) == 2
            out = json.loads(capsys.readouterr().out)
            assert (out["kind"], out["key"]) == ("ConfigError", f"{section}.{key}.{expect}")

    def test_missing_mapping_is_a_config_error(self, tmp_path, capsys):
        cfg = {"command": "compare", "compare": {"mode": "dwell_ks", "n": 20}}
        assert _main(tmp_path, cfg) == 2
        out = json.loads(capsys.readouterr().out)
        assert (out["kind"], out["key"]) == ("ConfigError", "compare.model_params")

    def test_rate_that_is_no_number_or_string_is_keyed(self, tmp_path, capsys):
        # such a rate used to print "key": null
        model = {"command": "classify", "model": {"name": "birth_switch", **self.BIRTH_SWITCH}}
        for k, (cfg, where) in enumerate([*self.cases(), (model, ("model",))]):
            params = cfg
            for part in where:
                params = params[part]
            params["q0"] = [1]
            assert _main(tmp_path / str(k), cfg) == 2
            out = json.loads(capsys.readouterr().out)
            assert (out["kind"], out["key"]) == ("ConfigError", ".".join(where) + ".q0")


def _shipped(stem: str) -> dict:
    return load_config(TESTS.parent / "configs" / f"{stem}.yaml")


def _set(cfg: dict, path: str, value) -> dict:
    """``cfg`` with the leaf at the dotted ``path`` set to ``value``, or deleted for _MISSING."""
    *parents, leaf = path.split(".")
    node = cfg
    for part in parents:
        node = node[part]
    if value is _MISSING:
        node.pop(leaf, None)
    else:
        node[leaf] = value
    return cfg


class TestSchema:
    """Every leaf is typed by the schema: a bad one exits 2 with its key path."""

    @pytest.mark.parametrize("stem, path, value", [
        # each used to escape main as a bare ValueError or TypeError
        ("demo_gene_evolve", "evolve.dt", "abc"),
        ("demo_gene_evolve", "evolve.t_end", "abc"),
        ("demo_gene_evolve", "evolve.grid.n", "abc"),
        ("demo_population", "population.horizon", "abc"),
        ("demo_population", "model.max_cells", "abc"),
        ("demo_population", "model.initial", "abc"),
        ("demo_population", "model.initial", 3),
        ("demo_gene_stationary", "stationary.grid_n", "abc"),
        ("accept08_hormander", "hormander.points", "abc"),
        ("accept01_gene_dwell_ks", "compare.n", "abc"),
        ("accept01_gene_dwell_ks", "compare.alpha", "abc"),
        ("accept01_gene_dwell_ks", "compare.x0", "abc"),
        ("accept06_upwind_convergence", "compare.ns", "abc"),
        ("accept06_upwind_convergence", "compare.ns", ["a", 512]),
        ("accept07_population_moments", "compare.n_runs", "abc"),
        # each used to be accepted: t_end -1 ran clean, n 2.5 exited 3, and
        # seed true ran as seed 1
        ("demo_gene_evolve", "evolve.t_end", -1),
        ("demo_gene_evolve", "evolve.grid.n", 2.5),
        ("accept09_reproducibility", "seed", True),
        ("accept01_gene_dwell_ks", "compare.seed", True),
        # a float where an integer is required used to be truncated by int()
        ("demo_gene_evolve", "evolve.grid.n", 256.0),
        ("accept06_upwind_convergence", "compare.ns", [256.0, 512]),
    ])
    def test_bad_leaf_exits_2_with_its_key(self, stem, path, value, tmp_path, capsys):
        assert _main(tmp_path, _set(_shipped(stem), path, value)) == 2
        out = json.loads(capsys.readouterr().out)
        assert (out["kind"], out["key"]) == ("ConfigError", path)
        assert not (tmp_path / "out").exists()

    def test_returns_a_new_config_with_defaults_converted(self):
        cfg = _shipped("demo_gene_evolve")
        cfg["evolve"]["t_end"] = 50
        out = validate_config(cfg)
        assert out is not cfg and cfg["evolve"]["t_end"] == 50 and "f0" not in cfg["evolve"]
        assert type(out["evolve"]["t_end"]) is float and out["evolve"]["t_end"] == 50.0
        assert out["evolve"]["f0"] == {"kind": "uniform", "center": 0.5, "width": 0.1,
                                       "regime": 0}
        assert out["evolve"]["grid"] == {"n": 256, "x_max": 1.0, "x_min": 0.0}
        assert out["seed"] == 1 and out["output_dir"] == "out"


# leaves that a simulate section must not hold; _MISSING deletes the key
_MISSING = object()
_BAD_LEAVES = st.sampled_from(["0.5", "abc", math.nan, math.inf, -math.inf, -1, True, False,
                               None, [], [1.0, "x"], [[0.5]], {"a": 1}, _MISSING])
_SIMULATE_KEYS = ("x0", "regime0", "horizon", "n_paths", "snapshot_times",
                  "record_trajectories", "jump_budget")


def _schema_sites(table: dict, raw: dict, path: str = ""):
    """(path, kind, default) of each key of the schema ``table``, and of each key
    inside the nested sections that the config section ``raw`` holds."""
    for key, (kind, default) in table.items():
        at = f"{path}.{key}" if path else key
        yield at, kind, default
        value = raw.get(key)
        if isinstance(value, dict) and isinstance(kind, dict):
            yield from _schema_sites(kind, value, at)
        elif isinstance(value, dict) and kind[0] == "pick":
            _, choice, tables = kind
            yield f"{at}.{choice}", set(tables), ...
            yield from _schema_sites(tables[value[choice]], value, at)


_SITES = [(stem, site) for stem, cfg in ((p.stem, load_config(p)) for p in
                                         sorted((TESTS.parent / "configs").glob("*.yaml")))
          for site in _schema_sites({**config._TOP, **config._SECTIONS[cfg["command"]]}, cfg)]
# the bad values that a kind admits: -1 is a number and an integer, and every
# string is a rate (compiled only where the model is built)
_ADMITTED = {"num": [-1], "rate": [-1, "0.5", "abc"], "point": [-1], "regime": [-1],
             "str": ["0.5", "abc"], "bool": [True, False], "nums": [[]]}


def _admits(kind, default, value) -> bool:
    if value is _MISSING:
        return default is not ...
    if value is None:
        return default is None
    return isinstance(kind, str) and any(type(v) is type(value) and v == value
                                         for v in _ADMITTED.get(kind, []))


@settings(max_examples=150, deadline=None)
@given(site=st.sampled_from(_SITES), value=_BAD_LEAVES)
def test_fuzzed_leaf_of_any_shipped_config_fails_validation_with_its_key(site, value):
    # validation only: a leaf of the wrong kind must never reach a run
    stem, (path, kind, default) = site
    cfg = _set(_shipped(stem), path, value)
    try:
        validate_config(cfg)
    except ConfigError as exc:
        assert exc.key == path or str(exc.key).startswith((f"{path}.", f"{path}[")), \
            (stem, path, value, exc.key)
    else:
        assert _admits(kind, default, value), f"{stem}: {path} = {value!r} was accepted"


@settings(max_examples=40, deadline=None)
@given(record=st.booleans(), key=st.sampled_from(_SIMULATE_KEYS + ("extra",)),
       value=_BAD_LEAVES)
def test_fuzzed_simulate_leaf_exits_with_a_documented_code(record, key, value):
    cfg = load_config(TESTS.parent / "configs" / "accept09_reproducibility.yaml")
    cfg["simulate"]["record_trajectories"] = record
    if value is _MISSING:
        cfg["simulate"].pop(key, None)
    else:
        cfg["simulate"][key] = value
    with tempfile.TemporaryDirectory() as tmp:
        code = _main(tmp, cfg)
        assert code in (0, 1, 2, 3, 4)
        if code == 0:
            summary = json.loads((Path(tmp) / "out" / "summary.json").read_text())
            assert math.isfinite(summary["horizon"])
