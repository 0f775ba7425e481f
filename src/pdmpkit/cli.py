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


def cmd_simulate(cfg: dict, out: Path, seed: int) -> list:
    model = build_model(cfg["model"])
    section = cfg["simulate"]
    x0 = np.atleast_1d(np.asarray(section["x0"], dtype=float))
    regime0 = int(section["regime0"])
    horizon = float(section["horizon"])
    n_paths = int(section.get("n_paths", 1))
    snaps = [float(t) for t in section.get("snapshot_times", [])]
    record = bool(section.get("record_trajectories", True))
    budget = int(section.get("jump_budget", 10_000_000))
    artifacts = []

    if record:
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
        n = int(cfg.get("stationary", {}).get("grid_n", 256))
        grid = Grid1D(0.0, dens.fields.a, n)
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


def _initial_density(grid: Grid1D, n_regimes: int, f0_cfg: dict):
    kind = (f0_cfg or {"kind": "uniform"}).get("kind", "uniform")
    span = grid.x_max - grid.x_min
    if kind == "uniform":
        return [lambda x, _c=1.0 / (n_regimes * span): _c for _ in range(n_regimes)]
    if kind == "gaussian":
        center = float(f0_cfg.get("center", 0.5 * (grid.x_min + grid.x_max)))
        width = float(f0_cfg.get("width", 0.1 * span))
        regime = int(f0_cfg.get("regime", 0))
        bump = np.exp(-((grid.centers - center) / width) ** 2)
        bump /= bump.sum() * grid.h
        zero = np.zeros(grid.n)
        return [bump if r == regime else zero.copy() for r in range(n_regimes)]
    raise ConfigError(f"unknown f0 kind {kind!r}", key="evolve.f0.kind")


def cmd_evolve(cfg: dict, out: Path) -> list:
    section = cfg["evolve"]
    gcfg = section["grid"]
    dt = float(section["dt"])
    t_end = float(section["t_end"])
    f0 = section.get("f0")
    view = model_view(cfg["model"])

    # one solver per kind of view: switching transport, division, two phases
    if isinstance(view, SwitchingFields):
        grid = Grid1D(float(gcfg.get("x_min", 0.0)), float(gcfg["x_max"]), int(gcfg["n"]))
        solver = SwitchingSolver(grid, view.g0, view.g1, view.q0, view.q1, dt)
        density = density_from(grid, _initial_density(grid, 2, f0))
    else:
        grid = Grid1D(0.0, float(gcfg["x_max"]), int(gcfg["n"]), dyadic_aligned=True)
        (f_a0,) = _initial_density(grid, 1, f0)
        if view.t_B is None:
            solver = CellCycleSolver(grid, view.g, view.phi_fn, dt)
            density = density_from(grid, [f_a0])
        else:
            n_y = int(section.get("n_y", 32))
            solver = TwoPhaseSolver(grid, n_y, view.t_B, view.g, view.phi_fn, dt)
            density = two_phase_density(grid, n_y, view.t_B, f_a0)

    converged = None
    if "steady" in section:
        st = section["steady"]
        density, converged = steady_state(solver, density,
                                          tol=float(st.get("tol", 1e-8)),
                                          t_max=float(st.get("t_max", t_end)))
    else:
        solver.advance(density, t_end)

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
    report = experiments.hormander_suite(cfg.get("hormander", {}))
    path = out / "report.json"
    _write_json(report, path)
    return [str(path)]


def cmd_population(cfg: dict, out: Path, seed: int) -> list:
    spec = population_spec(cfg["model"])
    section = cfg["population"]
    snaps = [float(t) for t in section.get("snapshot_times", [])]
    result = simulate_population(
        spec["g"], spec["b"], spec["d"], spec["initial"],
        float(section["horizon"]), path_rng(seed, 0),
        snapshot_times=snaps, max_cells=spec["max_cells"])
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


def run(command: str, cfg: dict, out_dir, seed=None) -> dict:
    """Dispatch one validated command; returns the status record."""
    cfg = dict(cfg)
    cfg["command"] = command
    validate_config(cfg)
    seed = int(cfg.get("seed", 12345) if seed is None else seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if command == "simulate":
        artifacts = cmd_simulate(cfg, out, seed)
    elif command == "stationary":
        artifacts = cmd_stationary(cfg, out)
    elif command == "classify":
        artifacts = cmd_classify(cfg, out)
    elif command == "evolve":
        artifacts = cmd_evolve(cfg, out)
    elif command == "compare":
        artifacts = cmd_compare(cfg, out)
    elif command == "hormander":
        artifacts = cmd_hormander(cfg, out)
    elif command == "population":
        artifacts = cmd_population(cfg, out, seed)
    else:  # pragma: no cover - validate_config already rejects
        raise ConfigError(f"unknown command {command!r}", key="command")
    return {"status": "ok", "command": command, "artifacts": artifacts}


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
        out_dir = args.out or cfg.get("output_dir", "out")
        status = run(command, cfg, out_dir, seed=args.seed)
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
