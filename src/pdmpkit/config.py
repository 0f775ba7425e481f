"""Experiment config files: YAML load/dump, strict validation, model building.

Configs are plain YAML with nested sections.  Validation is strict: unknown
keys are rejected with their full path, and the chosen model's numeric
constraints are checked (by constructing it) before anything runs.
"""

from __future__ import annotations

from typing import Callable, Union

from .errors import ConfigError
from .exprs import compile_expr, rate_from_config
from .models import (
    AlleeParams,
    BirthSwitchParams,
    GeneExpressionParams,
    GrowthDivision,
    SteinParams,
    SwitchingFields,
    TwoPhaseCellCycleParams,
    make_allee,
    make_birth_switch,
    make_cell_cycle_one_phase,
    make_gene_expression,
    make_grasshopper,
    make_rubinow,
    make_stein,
    make_telegraph,
    make_two_phase_cell_cycle,
    telegraph_fields,
)
from .process import PdmpModel

COMMANDS = ("simulate", "stationary", "classify", "evolve", "compare",
            "hormander", "population")

_TOP_KEYS = {"command", "model", "seed", "output_dir", "simulate", "evolve",
             "compare", "hormander", "population", "stationary"}

_MODEL_KEYS = {
    "grasshopper": ({"name", "lam", "jump"}, {"dim"}),
    "telegraph": ({"name", "lam", "c"}, set()),
    "cell_cycle_1p": ({"name", "g", "phi"}, {"g_closed_form"}),
    "rubinow": ({"name", "g", "m"}, {"g_closed_form"}),
    "cell_cycle_2p": ({"name", "g", "phi", "t_B"}, {"g_closed_form"}),
    "gene_expression": ({"name", "P", "mu", "q0", "q1"}, set()),
    "stein": ({"name", "alpha", "a_E", "a_I", "lambda_E", "lambda_I",
               "theta", "t_R"}, set()),
    "allee": ({"name", "lam", "K", "A", "B", "q01", "q10"}, set()),
    "birth_switch": ({"name", "b0", "b1", "c", "mu", "q0", "q1"}, set()),
    "population": ({"name", "b", "d", "initial"}, {"g", "max_cells"}),
}

_SECTION_KEYS = {
    "simulate": ({"x0", "regime0", "horizon"},
                 {"n_paths", "snapshot_times", "record_trajectories",
                  "jump_budget"}),
    "evolve": ({"t_end", "dt", "grid"}, {"n_y", "f0", "steady"}),
    "stationary": (set(), {"grid_n"}),
    "population": ({"horizon"}, {"snapshot_times"}),
    "hormander": (set(), {"model_params", "points", "invariance_cases", "seed"}),
}

_COMPARE_KEYS = {
    "dwell_ks": {"mode", "model_params", "regime", "x0", "n", "alpha", "seed"},
    "gene_stationarity": {"mode", "model_params", "horizon", "delta", "mc_bins",
                          "pde_bins", "tol", "t_max", "mc_threshold",
                          "pde_threshold", "seed"},
    "stability_alternative": {"mode", "stable", "sweeping", "seed",
                              "stable_horizon", "delta", "mc_bins",
                              "l1_threshold", "sweep_time", "sweep_snapshots",
                              "sweep_paths", "eps", "sweep_mass_threshold",
                              "regime_freq_tol"},
    "recursion_ks": {"mode", "t_B", "x0", "n", "seed", "ks_threshold"},
    "mass_audit": {"mode", "n"},
    "convergence": {"mode", "ns", "t_end", "x_max", "ratio_window"},
    "population_moments": {"mode", "seed", "n_runs", "yule_t", "yule_b",
                           "ext_b", "ext_d", "ext_horizon",
                           "extinction_threshold"},
    "hormander_suite": {"mode", "model_params", "points", "invariance_cases",
                        "seed"},
}

_F0_KEYS = {"kind", "center", "width", "regime"}
_STEADY_KEYS = {"tol", "t_max"}
_JUMP_KEYS = {"kind", "value", "sigma"}


def load_config(path) -> dict:
    import yaml

    with open(path) as fh:
        try:
            cfg = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"config file is not valid YAML: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config file must contain a mapping at top level")
    return cfg


def dump_config(cfg: dict, path) -> None:
    import yaml

    with open(path, "w") as fh:
        yaml.safe_dump(cfg, fh, sort_keys=False)


def _check_keys(section: dict, required: set, optional: set, where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a mapping", key=where)
    for key in section:
        if key not in required and key not in optional:
            raise ConfigError(f"unknown key {key!r} in {where}", key=f"{where}.{key}")
    for key in required:
        if key not in section:
            raise ConfigError(f"missing key {key!r} in {where}", key=f"{where}.{key}")


def _check_regime(section: dict, n_regimes: int, key: str, model: str) -> None:
    regime = section.get("regime", 0)
    if type(regime) is not int or not 0 <= regime < n_regimes:
        raise ConfigError(f"{key} must be an integer in [0, {n_regimes}) for {model}",
                          key=key)


def validate_config(cfg: dict) -> dict:
    """Reject unknown keys anywhere and enforce per-command required sections."""
    _check_keys(cfg, {"command"}, _TOP_KEYS - {"command"}, "config")
    command = cfg["command"]
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}", key="command")

    if command in ("simulate", "stationary", "classify", "evolve", "population"):
        if "model" not in cfg:
            raise ConfigError(f"command {command!r} needs a model section", key="model")
        model = cfg["model"]
        if not isinstance(model, dict) or "name" not in model:
            raise ConfigError("model section needs a 'name'", key="model.name")
        name = model["name"]
        if name not in _MODEL_KEYS:
            raise ConfigError(f"unknown model {name!r}", key="model.name")
        req, opt = _MODEL_KEYS[name]
        _check_keys(model, req, opt, f"model[{name}]")
        if name == "grasshopper":
            _check_keys(model["jump"], {"kind"}, _JUMP_KEYS - {"kind"}, "model.jump")
        if command == "population" and name != "population":
            raise ConfigError("the population command needs model.name=population",
                              key="model.name")
        if command in ("stationary", "classify") and name not in (
                "gene_expression", "birth_switch"):
            raise ConfigError(
                f"{command} supports gene_expression and birth_switch, not {name!r}",
                key="model.name")

    if command in _SECTION_KEYS:
        if command not in cfg and _SECTION_KEYS[command][0]:
            raise ConfigError(f"command {command!r} needs a {command!r} section",
                              key=command)
        if command in cfg:
            req, opt = _SECTION_KEYS[command]
            _check_keys(cfg[command], req, opt, command)
    if command == "evolve":
        _check_keys(cfg["evolve"]["grid"], {"n", "x_max"}, {"x_min"}, "evolve.grid")
        name = cfg["model"]["name"]
        cell_cycle = name in ("cell_cycle_1p", "cell_cycle_2p")
        if "x_min" in cfg["evolve"]["grid"] and cell_cycle:
            raise ConfigError(f"evolve.grid.x_min is not allowed for {name}: its dyadic "
                              "grid starts at 0", key="evolve.grid.x_min")
        if "n_y" in cfg["evolve"] and name != "cell_cycle_2p":
            raise ConfigError(f"evolve.n_y is not allowed for {name}: only cell_cycle_2p "
                              "has a phase-B age grid", key="evolve.n_y")
        if "f0" in cfg["evolve"]:
            f0 = cfg["evolve"]["f0"]
            _check_keys(f0, {"kind"}, _F0_KEYS - {"kind"}, "evolve.f0")
            unused = sorted(f0.keys() - {"kind"})
            if f0["kind"] == "uniform" and unused:
                raise ConfigError(f"evolve.f0.{unused[0]} is not used by a uniform f0",
                                  key=f"evolve.f0.{unused[0]}")
            _check_regime(f0, 1 if cell_cycle else 2, "evolve.f0.regime", name)
        if "steady" in cfg["evolve"]:
            _check_keys(cfg["evolve"]["steady"], set(), _STEADY_KEYS, "evolve.steady")
    if command == "compare":
        if "compare" not in cfg:
            raise ConfigError("compare command needs a compare section", key="compare")
        section = cfg["compare"]
        mode = section.get("mode")
        if mode not in _COMPARE_KEYS:
            raise ConfigError(f"unknown compare mode {mode!r}", key="compare.mode")
        _check_keys(section, {"mode"}, _COMPARE_KEYS[mode] - {"mode"}, f"compare[{mode}]")
        if mode == "dwell_ks":
            _check_regime(section, 2, "compare.regime", "gene_expression")
    if "seed" in cfg and not isinstance(cfg["seed"], int):
        raise ConfigError("seed must be a 64-bit integer", key="seed")
    return cfg


def _num(model: dict, key: str) -> float:
    v = model[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"model.{key} must be a number", key=f"model.{key}")
    return float(v)


def _jump_sampler(spec: dict) -> Callable:
    kind = spec.get("kind")
    if kind == "two_point":
        v = float(spec.get("value", 1.0))
        return lambda rng: v if rng.uniform() < 0.5 else -v
    if kind == "normal":
        s = float(spec.get("sigma", 1.0))
        return lambda rng: rng.normal(0.0, s)
    if kind == "constant":
        v = float(spec.get("value", 0.0))
        return lambda rng: v
    raise ConfigError(f"unknown jump kind {kind!r}", key="model.jump.kind")


def _closed_form_expr(model: dict):
    if "g_closed_form" not in model:
        return None
    fn = compile_expr(model["g_closed_form"], variables=("t", "x0"))
    return lambda t, x0: fn(t, x0)


def build_model(model: dict) -> PdmpModel:
    """Instantiate a catalog model from its config record (validates params)."""
    name = model["name"]
    if name == "grasshopper":
        return make_grasshopper(_num(model, "lam"), _jump_sampler(model["jump"]),
                                dim=int(model.get("dim", 1)))
    if name == "telegraph":
        return make_telegraph(_num(model, "lam"), _num(model, "c"))
    if name == "cell_cycle_1p":
        return make_cell_cycle_one_phase(
            rate_from_config(model["g"], "g"),
            rate_from_config(model["phi"], "phi"),
            g_closed_form=_closed_form_expr(model))
    if name == "rubinow":
        return make_rubinow(rate_from_config(model["g"], "g"), _num(model, "m"),
                            g_closed_form=_closed_form_expr(model))
    if name == "cell_cycle_2p":
        return make_two_phase_cell_cycle(TwoPhaseCellCycleParams(
            g=rate_from_config(model["g"], "g"),
            phi=rate_from_config(model["phi"], "phi"),
            t_B=_num(model, "t_B"),
            g_closed_form=_closed_form_expr(model)))
    if name == "gene_expression":
        return make_gene_expression(gene_params(model))
    if name == "stein":
        return make_stein(SteinParams(
            alpha=_num(model, "alpha"), a_E=_num(model, "a_E"),
            a_I=_num(model, "a_I"), lambda_E=_num(model, "lambda_E"),
            lambda_I=_num(model, "lambda_I"), theta=_num(model, "theta"),
            t_R=_num(model, "t_R")))
    if name == "allee":
        return make_allee(allee_params(model))
    if name == "birth_switch":
        return make_birth_switch(birth_switch_params(model))
    raise ConfigError(f"model {name!r} cannot be simulated directly", key="model.name")


def gene_params(model: dict) -> GeneExpressionParams:
    return GeneExpressionParams(
        P=_num(model, "P"), mu=_num(model, "mu"),
        q0=rate_from_config(model["q0"], "q0"),
        q1=rate_from_config(model["q1"], "q1"))


def birth_switch_params(model: dict) -> BirthSwitchParams:
    return BirthSwitchParams(
        b0=_num(model, "b0"), b1=_num(model, "b1"), c=_num(model, "c"),
        mu=_num(model, "mu"), q0=rate_from_config(model["q0"], "q0"),
        q1=rate_from_config(model["q1"], "q1"))


def allee_params(model: dict) -> AlleeParams:
    return AlleeParams(
        lam=_num(model, "lam"), K=_num(model, "K"), A=_num(model, "A"),
        B=_num(model, "B"), q01=rate_from_config(model["q01"], "q01"),
        q10=rate_from_config(model["q10"], "q10"))


def _growth_division(model: dict) -> GrowthDivision:
    return GrowthDivision(g=rate_from_config(model["g"], "g"),
                          phi=rate_from_config(model["phi"], "phi"),
                          t_B=_num(model, "t_B") if "t_B" in model else None)


# model name -> its 1-D view, built without constructing the event model
_VIEWS = {
    "gene_expression": lambda m: gene_params(m).fields(),
    "birth_switch": lambda m: birth_switch_params(m).fields(),
    "allee": lambda m: allee_params(m).fields(),
    "telegraph": lambda m: telegraph_fields(_num(m, "lam"), _num(m, "c")),
    "cell_cycle_1p": _growth_division,
    "cell_cycle_2p": _growth_division,
}


def model_view(model: dict) -> Union[SwitchingFields, GrowthDivision]:
    """The switching or growth-division view of a catalog model (validates params)."""
    view = _VIEWS.get(model["name"])
    if view is None:
        raise ConfigError(f"model {model['name']!r} has no 1-D view", key="model.name")
    return view(model)


def population_spec(model: dict) -> dict:
    g = model.get("g")
    g_fn = None if g in (None, "none") else rate_from_config(g, "g")
    return {
        "g": g_fn,
        "b": rate_from_config(model["b"], "b"),
        "d": rate_from_config(model["d"], "d"),
        "initial": [float(v) for v in model["initial"]],
        "max_cells": int(model.get("max_cells", 1_000_000)),
    }
