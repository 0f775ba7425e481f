"""Batch driver: parse an experiment config, run one command, write artifacts.

Commands: simulate, stationary, classify, evolve, compare, hormander,
population.  Every run is reproducible from (config, seed): reruns produce
byte-identical CSV output.  Failures print a machine-readable error record and
exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import experiments
from .config import (
    build_model,
    load_config,
    model_view,
    population_spec,
    validate_config,
)
from .csvout import write_csv
from .errors import ConfigError, InvalidParam, PdmpError
from .models import SwitchingFields, simulate_population
from .process import (
    path_rng,
    simulate_ensemble,
    simulate_trajectory,
    snapshots_to_csv,
    trajectories_to_csv,
    trajectory_snapshots_to_csv,
)
from .stationary import classify, classify_density, stationary_density
from .transport import (
    CellCycleSolver,
    Grid1D,
    SwitchingSolver,
    TwoPhaseSolver,
    density_from,
    density_to_csv,
    steady_state,
    two_phase_density,
)


def _write_json(obj, path: Path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_simulate(cfg: dict, out: Path) -> list:
    model, seed = build_model(cfg["model"]), cfg["seed"]
    section = cfg["simulate"]
    x0 = np.atleast_1d(np.asarray(section["x0"], dtype=float))
    regime0, horizon, n_paths = section["regime0"], section["horizon"], section["n_paths"]
    snaps, budget = section["snapshot_times"], section["jump_budget"]
    artifacts = []

    if section["record_trajectories"]:
        trajectories = [
            simulate_trajectory(model, x0, regime0, horizon, path_rng(seed, i),
                                jump_budget=budget)
            for i in range(n_paths)
        ]
        traj_path = out / "trajectories.csv"
        trajectories_to_csv(trajectories, traj_path)
        artifacts.append(str(traj_path))
        if snaps:
            snap_path = out / "snapshots.csv"
            trajectory_snapshots_to_csv(trajectories, snaps, snap_path)
            artifacts.append(str(snap_path))
        n_jumps = sum(len(t.jumps) for t in trajectories)
    else:
        ens = simulate_ensemble(model, lambda rng: (x0, regime0), horizon, n_paths,
                                seed, snapshot_times=snaps, jump_budget=budget)
        if ens.errors:
            raise ens.errors[0][1]
        snap_path = out / "snapshots.csv"
        snapshots_to_csv(ens, snap_path)
        artifacts.append(str(snap_path))
        n_jumps = -1

    summary = {"schema_version": 1, "model": cfg["model"]["name"], "seed": seed,
               "n_paths": n_paths, "horizon": horizon, "n_jumps": n_jumps}
    path = out / "summary.json"
    _write_json(summary, path)
    artifacts.append(str(path))
    return artifacts


def cmd_stationary(cfg: dict, out: Path) -> list:
    dens = stationary_density(model_view(cfg["model"]))
    report = classify_density(dens)
    artifacts = []
    if dens.is_integrable:
        grid = Grid1D(0.0, dens.fields.a, cfg["stationary"]["grid_n"])
        path = out / "fstar.csv"
        write_csv(path, ["cell_center", "regime", "density"], "%.17g,%s,%.17g",
                  ((x, r, f(x)) for r, f in enumerate((dens.f0, dens.f1))
                   for x in grid.centers))
        artifacts.append(str(path))
    path = out / "report.json"
    _write_json(report.to_dict(), path)
    artifacts.append(str(path))
    return artifacts


def cmd_classify(cfg: dict, out: Path) -> list:
    report = classify(model_view(cfg["model"]))
    path = out / "report.json"
    _write_json(report.to_dict(), path)
    return [str(path)]


def _initial_density(grid: Grid1D, n_regimes: int, f0: dict):
    if f0["kind"] == "uniform":
        c = 1.0 / (n_regimes * (grid.x_max - grid.x_min))
        return [lambda x: c for _ in range(n_regimes)]
    bump = np.exp(-((grid.centers - f0["center"]) / f0["width"]) ** 2)
    bump /= bump.sum() * grid.h
    zero = np.zeros(grid.n)
    return [bump if r == f0["regime"] else zero.copy() for r in range(n_regimes)]


def cmd_evolve(cfg: dict, out: Path) -> list:
    section = cfg["evolve"]
    gcfg, dt, f0 = section["grid"], section["dt"], section["f0"]
    view = model_view(cfg["model"])

    # one solver per kind of view: switching transport, division, two phases
    if isinstance(view, SwitchingFields):
        grid = Grid1D(gcfg["x_min"], gcfg["x_max"], gcfg["n"])
        solver = SwitchingSolver(grid, view.g0, view.g1, view.q0, view.q1, dt)
        density = density_from(grid, _initial_density(grid, 2, f0))
    else:
        grid = Grid1D(0.0, gcfg["x_max"], gcfg["n"], dyadic_aligned=True)
        (f_a0,) = _initial_density(grid, 1, f0)
        if view.t_B is None:
            solver = CellCycleSolver(grid, view.g, view.phi_fn, dt)
            density = density_from(grid, [f_a0])
        else:
            n_y = section["n_y"]
            solver = TwoPhaseSolver(grid, n_y, view.t_B, view.g, view.phi_fn, dt)
            density = two_phase_density(grid, n_y, view.t_B, f_a0)

    converged = None
    steady = section["steady"]
    if steady is not None:
        density, converged = steady_state(solver, density, tol=steady["tol"],
                                          t_max=steady["t_max"])
    else:
        solver.advance(density, section["t_end"])

    path = out / "density.csv"
    density_to_csv(density, path)
    summary = {
        "schema_version": 1,
        "model": cfg["model"]["name"],
        "t_final": density.time,
        "mass": density.mass(),
        "outflow": density.outflow,
        "mass_drift": density.mass_drift(),
        "converged": converged,
    }
    spath = out / "summary.json"
    _write_json(summary, spath)
    return [str(path), str(spath)]


def cmd_compare(cfg: dict, out: Path) -> list:
    report = experiments.run_compare(cfg["compare"])
    path = out / "fit_report.json"
    _write_json(report, path)
    return [str(path)]


def cmd_hormander(cfg: dict, out: Path) -> list:
    report = experiments.hormander_suite(cfg["hormander"])
    path = out / "report.json"
    _write_json(report, path)
    return [str(path)]


def cmd_population(cfg: dict, out: Path) -> list:
    spec, section, seed = population_spec(cfg["model"]), cfg["population"], cfg["seed"]
    result = simulate_population(
        spec["g"], spec["b"], spec["d"], spec["initial"], section["horizon"],
        path_rng(seed, 0), snapshot_times=section["snapshot_times"],
        max_cells=spec["max_cells"])
    events_path = out / "events.csv"
    write_csv(events_path, ["t", "kind", "parent_size", "n_after"], "%.17g,%s,%.17g,%s",
              ((ev.t, ev.kind, ev.parent_size, ev.n_after) for ev in result.events))
    snap_path = out / "population_snapshots.csv"
    write_csv(snap_path, ["t_snap", "cell_index", "size"], "%.17g,%s,%.17g",
              ((t, i, x) for t, sizes in zip(result.snapshot_times, result.snapshots)
               for i, x in enumerate(sizes)))
    summary = {
        "schema_version": 1,
        "n_events": len(result.events),
        "extinction_time": result.extinction_time,
        "final_size": int(result.final_sizes.size),
        "max_hazard_drift": result.max_hazard_drift,
        "seed": seed,
    }
    spath = out / "summary.json"
    _write_json(summary, spath)
    return [str(events_path), str(snap_path), str(spath)]


# validate_config admits only these commands
COMMANDS = {"simulate": cmd_simulate, "stationary": cmd_stationary,
            "classify": cmd_classify, "evolve": cmd_evolve, "compare": cmd_compare,
            "hormander": cmd_hormander, "population": cmd_population}


def run(command: str, cfg: dict, out_dir, seed=None) -> dict:
    """Dispatch one validated command; returns the status record.  ``out_dir`` and
    ``seed``, when not None, replace the config's ``output_dir`` and ``seed``."""
    cfg = validate_config({**cfg, "command": command,
                           **({} if seed is None else {"seed": seed})})
    out = Path(cfg["output_dir"] if out_dir is None else out_dir)
    made = not out.exists()
    out.mkdir(parents=True, exist_ok=True)
    try:
        return {"status": "ok", "command": command, "artifacts": COMMANDS[command](cfg, out)}
    except BaseException:   # a directory this run made and left empty goes again
        if made and not any(out.iterdir()):
            out.rmdir()
        raise


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pdmpkit",
        description="PDMP simulation, forward-equation solvers, and "
                    "long-time classification, driven by YAML configs.")
    parser.add_argument("command", nargs="?", default=None,
                        help="one of: simulate, stationary, classify, evolve, "
                             "compare, hormander, population "
                             "(defaults to the config's command)")
    parser.add_argument("--config", required=True, help="path to the YAML config")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed (64-bit integer)")
    parser.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        command = args.command or cfg.get("command")
        if command is None:
            raise ConfigError("no command given on the CLI or in the config",
                              key="command")
        if args.command and "command" in cfg and args.command != cfg["command"]:
            raise ConfigError(
                f"CLI command {args.command!r} conflicts with config "
                f"command {cfg['command']!r}", key="command")
        status = run(command, cfg, args.out, seed=args.seed)
        print(json.dumps(status, sort_keys=True))
        return 0
    except ConfigError as exc:
        print(json.dumps({"status": "error", "kind": "ConfigError",
                          "message": str(exc), "key": exc.key}, sort_keys=True))
        return 2
    except InvalidParam as exc:
        print(json.dumps({"status": "error", "kind": "ModelError",
                          "message": str(exc)}, sort_keys=True))
        return 3
    except OSError as exc:
        print(json.dumps({"status": "error", "kind": "IoError",
                          "message": str(exc)}, sort_keys=True))
        return 4
    except PdmpError as exc:
        print(json.dumps({"status": "error", "kind": type(exc).__name__,
                          "message": str(exc)}, sort_keys=True))
        return 1


if __name__ == "__main__":
    sys.exit(main())
