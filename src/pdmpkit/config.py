"""Experiment config files: YAML load/dump, the config schema, model building.

Configs are plain YAML with nested sections.  One schema below gives every
key its kind and its default; :func:`validate_config` walks it before
anything runs, rejecting unknown, missing and mistyped keys with their full
path, and the model builders walk the model part of it themselves.
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
    make_allee,
    make_birth_switch,
    make_cell_cycle,
    make_gene_expression,
    make_grasshopper,
    make_rubinow,
    make_stein,
    make_telegraph,
    telegraph_fields,
)
from .process import PdmpModel

# The schema.  A section is a table {key: (kind, default)}, with ``...`` for a
# required key; an absent key takes its default, converted as a given value
# is, and a None default also admits an explicit null.  A kind is a name of
# _WHAT, which says what it admits, or ("int", k) for an integer >= k, or
# ("nums", n) or ("ints", n) for a list of exactly n; numbers become floats,
# and a "rate" string is compiled where the model is built.  A set admits one
# of its strings, a dict is a nested section, and ("pick", key, {choice:
# section}) a section whose ``key`` picks its table.
_WHAT = {"num": "a finite number", "pos": "a finite number > 0", "int": "an integer",
         "regime": "an integer (its range set by the model)", "bool": "true or false",
         "str": "a string", "rate": "a finite number or an expression string",
         "point": "a finite number or a nonempty list of them",
         "nums": "a list of finite numbers", "ints": "a list of integers"}
_FLOAT_MAX = 1.7976931348623157e308    # the largest finite float

_GENE = {"P": ("num", ...), "mu": ("num", ...), "q0": ("rate", ...), "q1": ("rate", ...)}
_BIRTH_SWITCH = {"b0": ("num", ...), "b1": ("num", ...), "c": ("num", ...),
                 "mu": ("num", ...), "q0": ("rate", ...), "q1": ("rate", ...)}
_GENE_SET = {"P": 1.0, "mu": 1.0, "q0": 1.0, "q1": 1.0}

_MODEL_TABLES = {
    "grasshopper": {"lam": ("num", ...),
                    "jump": (("pick", "kind", {"two_point": {"value": ("num", 1.0)},
                                               "normal": {"sigma": ("pos", 1.0)},
                                               "constant": {"value": ("num", 0.0)}}), ...),
                    "dim": (("int", 1), 1)},
    "telegraph": {"lam": ("num", ...), "c": ("num", ...)},
    "cell_cycle_1p": {"g": ("rate", ...), "phi": ("rate", ...),
                      "g_closed_form": ("str", None)},
    "rubinow": {"g": ("rate", ...), "m": ("num", ...), "g_closed_form": ("str", None)},
    "cell_cycle_2p": {"g": ("rate", ...), "phi": ("rate", ...), "t_B": ("num", ...),
                      "g_closed_form": ("str", None)},
    "gene_expression": _GENE,
    "stein": {"alpha": ("num", ...), "a_E": ("num", ...), "a_I": ("num", ...),
              "lambda_E": ("num", ...), "lambda_I": ("num", ...), "theta": ("num", ...),
              "t_R": ("num", ...)},
    "allee": {"lam": ("num", ...), "K": ("num", ...), "A": ("num", ...), "B": ("num", ...),
              "q01": ("rate", ...), "q10": ("rate", ...)},
    "birth_switch": _BIRTH_SWITCH,
    "population": {"b": ("rate", ...), "d": ("rate", ...), "initial": ("nums", ...),
                   "g": ("rate", None), "max_cells": (("int", 1), 1_000_000)},
}
_MODELS = ("pick", "name", _MODEL_TABLES)

_HORMANDER = {"model_params": (_GENE, _GENE_SET), "points": ("nums", [0.1, 0.5, 0.9]),
              "invariance_cases": (("int", 0), 100), "seed": (("int", 0), 4242)}

_COMPARE = ("pick", "mode", {
    "dwell_ks": {"model_params": (_GENE, ...), "regime": ("regime", 0), "x0": ("point", 1.0),
                 "n": (("int", 1), 100_000), "alpha": ("pos", 0.01),
                 "seed": (("int", 0), 2024)},
    "gene_stationarity": {"model_params": (_GENE, _GENE_SET), "horizon": ("pos", 1e6),
                          "delta": ("pos", 1.0), "mc_bins": (("int", 1), 64),
                          "pde_bins": (("int", 1), 512), "tol": ("pos", 1e-8),
                          "t_max": ("pos", 80.0), "mc_threshold": ("num", 0.03),
                          "pde_threshold": ("num", 0.05), "seed": (("int", 0), 99)},
    "stability_alternative": {
        "stable": (_BIRTH_SWITCH, {"b0": 0.5, "b1": 2.0, "c": 1.0, "mu": 1.0, "q0": 1.0,
                                   "q1": 1.0}),
        "sweeping": (_BIRTH_SWITCH, {"b0": 0.2, "b1": 1.5, "c": 1.0, "mu": 1.0, "q0": 1.0,
                                     "q1": 1.0}),
        "seed": (("int", 0), 512), "stable_horizon": ("pos", 2e5), "delta": ("pos", 0.5),
        "mc_bins": (("int", 1), 64), "l1_threshold": ("num", 0.05),
        "sweep_time": ("pos", 200.0), "sweep_snapshots": ("nums", []),
        "sweep_paths": (("int", 1), 6000), "eps": ("pos", 0.05),
        "sweep_mass_threshold": ("num", 0.95), "regime_freq_tol": ("num", 0.02)},
    "recursion_ks": {"t_B": ("pos", 0.5), "x0": ("pos", 1.0), "n": (("int", 1), 100_000),
                     "seed": (("int", 0), 7071), "ks_threshold": ("num", 0.01)},
    "mass_audit": {"n": (("int", 1), 128)},
    "convergence": {"ns": (("ints", 2), [256, 512]), "t_end": ("pos", 0.5),
                    "x_max": ("pos", 2.0), "ratio_window": (("nums", 2), [1.5, 3.0])},
    "population_moments": {"seed": (("int", 0), 31337), "n_runs": (("int", 2), 10_000),
                           "yule_t": ("pos", 3.0), "yule_b": ("pos", 1.0),
                           "ext_b": ("pos", 1.0), "ext_d": ("num", 2.0),
                           "ext_horizon": ("pos", 50.0),
                           "extinction_threshold": ("num", 0.99)},
    "hormander_suite": _HORMANDER,
})

_TOP = {"command": ("str", ...), "seed": (("int", 0), 12345), "output_dir": ("str", "out")}

# the sections each command reads; a config may hold the others, unread
_SECTIONS = {
    "simulate": {"model": (_MODELS, ...), "simulate": ({
        "x0": ("point", ...), "regime0": ("regime", ...), "horizon": ("pos", ...),
        "n_paths": (("int", 1), 1), "snapshot_times": ("nums", []),
        "record_trajectories": ("bool", True), "jump_budget": (("int", 0), 10_000_000)}, ...)},
    "stationary": {"model": (_MODELS, ...), "stationary": ({"grid_n": (("int", 1), 256)}, {})},
    "classify": {"model": (_MODELS, ...)},
    "evolve": {"model": (_MODELS, ...), "evolve": ({
        "t_end": ("pos", ...), "dt": ("pos", ...),
        "grid": ({"n": (("int", 1), ...), "x_max": ("num", ...), "x_min": ("num", 0.0)}, ...),
        "n_y": (("int", 1), 32),
        "f0": ({"kind": ({"uniform", "gaussian"}, ...), "center": ("num", None),
                "width": ("pos", None), "regime": ("regime", 0)}, {"kind": "uniform"}),
        "steady": ({"tol": ("pos", 1e-8), "t_max": ("pos", None)}, None)}, ...)},
    "compare": {"compare": (_COMPARE, ...)},
    "hormander": {"hormander": (_HORMANDER, {})},
    "population": {"model": (_MODELS, ...), "population": ({
        "horizon": ("pos", ...), "snapshot_times": ("nums", [])}, ...)},
}

# the commands that take only some models (simulate and evolve take those
# build_model and model_view can build)
_COMMAND_MODELS = {"stationary": ("gene_expression", "birth_switch"),
                   "classify": ("gene_expression", "birth_switch"),
                   "population": ("population",)}

_SECTION_KEYS = ("model", "simulate", "stationary", "evolve", "compare", "hormander",
                 "population")



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


def _as(name: str, arg, v):
    """``v`` converted to the kind ``name`` with argument ``arg``, or None when it
    is not of that kind."""
    if isinstance(v, (int, float)) and v.__class__ is not bool:
        if name in ("int", "regime"):
            return int(v) if isinstance(v, int) and (arg is None or v >= arg) else None
        ok = name in ("num", "pos", "rate", "point") and abs(v) <= _FLOAT_MAX
        return float(v) if ok and (name != "pos" or v > 0) else None
    if isinstance(v, str):
        return v if name == "str" or name == "rate" and v.strip() else None
    if isinstance(v, (list, tuple)):
        if (name not in ("nums", "ints", "point") or arg is not None and len(v) != arg
                or name == "point" and not v):
            return None
        items = [_as("regime" if name == "ints" else "num", None, x) for x in v]
        return None if None in items else items
    return v if name == "bool" and v.__class__ is bool else None


def _leaf(kind, value, at: str):
    """``value`` checked against ``kind`` and converted; ``at`` is its key path."""
    cls = kind.__class__
    if cls is dict:
        return _walk(kind, value, at)
    if cls is set:
        if isinstance(value, str) and value in kind:
            return value
        raise ConfigError(f"{at} must be one of {sorted(kind)}, not {value!r}", key=at)
    if cls is tuple and kind[0] == "pick":
        _, key, tables = kind
        if not isinstance(value, dict):
            raise ConfigError(f"{at} must be a mapping", key=at)
        choice = value.get(key)
        if not (isinstance(choice, str) and choice in tables):
            raise ConfigError(f"{at}.{key} must be one of {sorted(tables)}, not {choice!r}",
                              key=f"{at}.{key}")
        rest = {k: v for k, v in value.items() if k != key}
        return {key: choice, **_walk(tables[choice], rest, at, f"{at}[{choice}]")}
    name, arg = (kind, None) if cls is str else kind
    out = _as(name, arg, value)
    if out is None:
        bound = f" >= {arg}" if name == "int" else f" of length {arg}" if arg else ""
        raise ConfigError(f"{at} must be {_WHAT[name]}{bound}, not {value!r}", key=at)
    return out


def _walk(table: dict, section, path: str, label: str = "") -> dict:
    """``section`` checked against ``table`` and converted, its absent keys set to
    their defaults; ``label`` (the path by default) names it for unknown keys."""
    label = label or path
    if not isinstance(section, dict):
        raise ConfigError(f"{label} must be a mapping", key=label)
    for key in section:
        if key not in table:
            raise ConfigError(f"unknown key {key!r} in {label}", key=f"{label}.{key}")
    out = {}
    for key, (kind, default) in table.items():
        at = f"{path}.{key}" if path else key
        value = section.get(key, default)
        if value is ...:
            raise ConfigError(f"missing key {key!r} in {label}", key=at)
        out[key] = None if value is None and default is None else _leaf(kind, value, at)
    return out


def validate_config(cfg: dict) -> dict:
    """A new config with every key of the command's sections checked and converted
    by the schema and every absent one defaulted, after the rules that tie
    keys together; the sections the command does not read pass through."""
    command = cfg.get("command") if isinstance(cfg, dict) else None
    if not (isinstance(command, str) and command in _SECTIONS):
        raise ConfigError(f"unknown command {command!r}", key="command")
    table = {**_TOP, **_SECTIONS[command]}
    out = _walk(table, {k: v for k, v in cfg.items() if k in table or k not in _SECTION_KEYS},
                "", "config")

    if command in _COMMAND_MODELS:
        name = out["model"]["name"]
        if name not in _COMMAND_MODELS[command]:
            raise ConfigError(f"{command} takes the models {list(_COMMAND_MODELS[command])}, "
                              f"not {name!r}", key="model.name")
    if command == "evolve":
        raw, section = cfg["evolve"], out["evolve"]
        name, grid, f0 = out["model"]["name"], section["grid"], section["f0"]
        cell_cycle = name in ("cell_cycle_1p", "cell_cycle_2p")
        if "x_min" in raw["grid"] and cell_cycle:
            raise ConfigError(f"evolve.grid.x_min is not allowed for {name}: its dyadic "
                              "grid starts at 0", key="evolve.grid.x_min")
        if "n_y" in raw and name != "cell_cycle_2p":
            raise ConfigError(f"evolve.n_y is not allowed for {name}: only cell_cycle_2p "
                              "has a phase-B age grid", key="evolve.n_y")
        unused = sorted(raw.get("f0", {}).keys() - {"kind"})
        if f0["kind"] == "uniform" and unused:
            raise ConfigError(f"evolve.f0.{unused[0]} is not used by a uniform f0",
                              key=f"evolve.f0.{unused[0]}")
        n_regimes = 1 if cell_cycle else 2
        if not 0 <= f0["regime"] < n_regimes:
            raise ConfigError(f"evolve.f0.regime must be in [0, {n_regimes}) for {name}",
                              key="evolve.f0.regime")
        if f0["center"] is None:
            f0["center"] = 0.5 * (grid["x_min"] + grid["x_max"])
        if f0["width"] is None:
            f0["width"] = 0.1 * (grid["x_max"] - grid["x_min"])
        if section["steady"] is not None and section["steady"]["t_max"] is None:
            section["steady"]["t_max"] = section["t_end"]
    if command == "compare" and out["compare"]["mode"] == "dwell_ks":
        if not 0 <= out["compare"]["regime"] < 2:
            raise ConfigError("compare.regime must be in [0, 2) for gene_expression",
                              key="compare.regime")
    return {**cfg, **out}


def _jump_sampler(spec: dict) -> Callable:
    kind = spec["kind"]
    if kind == "normal":
        s = spec["sigma"]
        return lambda rng: rng.normal(0.0, s)
    v = spec["value"]
    if kind == "two_point":
        return lambda rng: v if rng.uniform() < 0.5 else -v
    return lambda rng: v


def _closed_form_expr(model: dict):
    if model["g_closed_form"] is None:
        return None
    return compile_expr(model["g_closed_form"], variables=("t", "x0"))


def build_model(model: dict) -> PdmpModel:
    """Instantiate a catalog model from its config record (validates params)."""
    model = _leaf(_MODELS, model, "model")
    name = model["name"]
    if name == "grasshopper":
        return make_grasshopper(model["lam"], _jump_sampler(model["jump"]), dim=model["dim"])
    if name == "telegraph":
        return make_telegraph(model["lam"], model["c"])
    if name in ("cell_cycle_1p", "cell_cycle_2p"):
        return make_cell_cycle(_growth_division(model))
    if name == "rubinow":
        return make_rubinow(rate_from_config(model["g"], "g"), model["m"],
                            g_closed_form=_closed_form_expr(model))
    if name == "gene_expression":
        return make_gene_expression(gene_params(model))
    if name == "stein":
        return make_stein(_params(SteinParams, model, _MODEL_TABLES["stein"]))
    if name == "allee":
        return make_allee(allee_params(model))
    if name == "birth_switch":
        return make_birth_switch(birth_switch_params(model))
    raise ConfigError(f"model {name!r} cannot be simulated directly", key="model.name")


def _params(cls, model: dict, table: dict):
    """``cls`` made from the keys of ``table`` in a checked ``model`` mapping, its
    rates compiled."""
    return cls(**{k: rate_from_config(model[k], k) if kind == "rate" else model[k]
                  for k, (kind, _) in table.items()})


def gene_params(model: dict) -> GeneExpressionParams:
    """The gene-expression parameters of a checked config mapping."""
    return _params(GeneExpressionParams, model, _GENE)


def birth_switch_params(model: dict) -> BirthSwitchParams:
    """The birth-switch parameters of a checked config mapping."""
    return _params(BirthSwitchParams, model, _BIRTH_SWITCH)


def allee_params(model: dict) -> AlleeParams:
    return _params(AlleeParams, model, _MODEL_TABLES["allee"])


def _growth_division(model: dict) -> GrowthDivision:
    return GrowthDivision(g=rate_from_config(model["g"], "g"),
                          phi=rate_from_config(model["phi"], "phi"),
                          t_B=model.get("t_B"), g_closed_form=_closed_form_expr(model))


# model name -> its 1-D view, built without constructing the event model
_VIEWS = {
    "gene_expression": lambda m: gene_params(m).fields(),
    "birth_switch": lambda m: birth_switch_params(m).fields(),
    "allee": lambda m: allee_params(m).fields(),
    "telegraph": lambda m: telegraph_fields(m["lam"], m["c"]),
    "cell_cycle_1p": _growth_division,
    "cell_cycle_2p": _growth_division,
}


def model_view(model: dict) -> Union[SwitchingFields, GrowthDivision]:
    """The switching or growth-division view of a catalog model (validates params)."""
    model = _leaf(_MODELS, model, "model")
    view = _VIEWS.get(model["name"])
    if view is None:
        raise ConfigError(f"model {model['name']!r} has no 1-D view", key="model.name")
    return view(model)


def population_spec(model: dict) -> dict:
    model = _leaf(_MODELS, model, "model")
    g = model["g"]
    return {
        "g": None if g in (None, "none") else rate_from_config(g, "g"),
        "b": rate_from_config(model["b"], "b"),
        "d": rate_from_config(model["d"], "d"),
        "initial": model["initial"],
        "max_cells": model["max_cells"],
    }
