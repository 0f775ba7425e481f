"""The benchmark's three workloads: task lists generated from a seed.

A task is one call into a public entry point of pdmpkit: ``cli.run`` with a
generated config, or a library call where the CLI does not expose the
operation.  ``build(workload, seed)`` is the benchmark's set-up: it generates
every config, validates it and constructs every model and solver that the
library tasks use, so that a timed task is the call alone.

The same seed gives the same tasks.  Another seed gives other parameter
values and random streams with the same task mix and the same sizes, so the
cost of a run stays comparable across seeds.  Parameters are drawn from
strata (a fixed level plus a small jitter) for the same reason.

Every task carries a check of its output against a reference that does not
share its code path.  Checks that need many tasks' outputs at once (a KS test
over dwell times, a regime-mix frequency) are pooled per workload.  Tasks call
pdmpkit through module attributes at call time, so the traced mode sees them.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from pdmpkit import cli, config, flows, mcstats, process, stationary, transport


@dataclass
class Task:
    name: str
    call: Callable[[Path], dict]        # one call; returns CLI status or named arrays
    params: dict = field(default_factory=dict)
    check: Optional[Callable[["Task", dict], list]] = None   # -> problems found
    pool: Optional[str] = None          # key of a pooled check over many tasks
    work: Optional[Callable[["Task", dict], float]] = None   # throughput units done


@dataclass
class Workload:
    name: str
    tasks: list
    work_metric: str                    # the printed name of the throughput
    work_unit: str                      # and its unit
    # key -> check(list of (task, out)) -> [(problem, positions of the items
    # it concerns, or None for all of them)]
    pools: dict


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _seed(rng) -> int:
    return int(rng.integers(1, 2**31))


def _jitter(rng, level: float, rel: float = 0.05) -> float:
    return round(level * (1.0 + rel * rng.uniform(-1.0, 1.0)), 6)


def _artifact(out: dict, filename: str) -> Path:
    for a in out["artifacts"]:
        if Path(a).name == filename:
            return Path(a)
    raise KeyError(f"no artifact {filename}")


def _csv_rows(path: Path) -> list:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[1:]


def _json(out: dict, filename: str) -> dict:
    with open(_artifact(out, filename)) as fh:
        return json.load(fh)


def _cli_task(name: str, command: str, cfg: dict, seed: Optional[int] = None,
              extra: Optional[dict] = None, **kw) -> Task:
    """A ``cli.run`` task; its config is validated here, during set-up.
    ``extra`` adds parameters the checks need to the task's record of its config."""
    config.validate_config({**cfg, "command": command})
    return Task(name, lambda out: cli.run(command, cfg, out, seed=seed),
                params={**cfg, **(extra or {})}, **kw)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _jump_route(flow, hazard) -> str:
    """The branch flows.sample_jump_time takes for this hazard (method auto)."""
    if hazard.const_rate is not None:
        return "const"
    if hazard.upper_bound is not None:
        return "thinning"
    return "cheb" if flow.closed_form is not None else "ode"


def _ks_uniform(us: np.ndarray, alpha: float = 1e-6) -> list:
    """KS distance of probability-integral-transform values from U(0, 1),
    accepted inside the DKW band at level ``alpha``."""
    ks = mcstats.ks_statistic(us, lambda x: x)
    band = mcstats.dkw_epsilon(us.size, alpha)
    return [] if ks < band else [f"KS {ks:.4f} outside the DKW band {band:.4f} (n={us.size})"]


# ---------------------------------------------------------------------------
# ensemble_stream
# ---------------------------------------------------------------------------

# sizes in simulated path time (paths x horizon) on geometric ladders, so that
# the latency quantiles fall among tasks of neighbouring sizes, not into gaps
TELEGRAPH_PATH_TIME = (96.0, 6144.0)
TELEGRAPH_HORIZONS = (6.0, 12.0, 24.0, 48.0)
TELEGRAPH_TASKS = 64
SWEEP_PATH_TIME = (600.0, 4800.0)
SWEEP_HORIZONS = (100.0, 150.0, 200.0)
SWEEP_TASKS = 36
SWEEP_SET = {"b0": 0.2, "b1": 1.5, "c": 1.0, "mu": 1.0}
SWEEP_EPS = 0.05
GENE_HORIZON = 30_000.0
GENE_BINS = 32


def _telegraph_moments(lam: float, c: float, t: float):
    """Mean and variance of x(t) for the telegraph process from (0, -c)."""
    k = 2.0 * lam
    m1 = -math.expm1(-k * t) / k
    return -c * m1, c * c * (2.0 / k * (t - m1) - m1 * m1)


def _ensemble_arrays(ens) -> dict:
    if ens.errors:
        raise RuntimeError(f"ensemble paths failed: {ens.errors[:3]}")
    return {"snapshot_states": ens.snapshot_states, "snapshot_regimes": ens.snapshot_regimes,
            "final_states": ens.final_states, "final_regimes": ens.final_regimes}


def _ensemble_task(name, model_cfg, x0, horizon, n_paths, snaps, seed, pool, check):
    model = config.build_model(config.validate_config(
        {"command": "simulate", "model": model_cfg,
         "simulate": {"x0": list(x0), "regime0": 0, "horizon": horizon}})["model"])
    start = np.asarray(x0, dtype=float)

    def init(rng):
        return start, 0

    def call(out):
        return _ensemble_arrays(process.simulate_ensemble(
            model, init, horizon, n_paths, seed, snapshot_times=snaps))

    return Task(name, call, params={"model": model_cfg, "horizon": horizon, "n_paths": n_paths,
                                    "snaps": snaps, "x0": list(x0)},
                check=check, pool=pool, work=lambda task, out: n_paths * horizon)


def _check_telegraph_ensemble(task, out):
    c = task.params["model"]["c"]
    states = np.concatenate([out["snapshot_states"], out["final_states"][None]])
    problems = []
    if not np.all(np.abs(states[..., 1]) == c):
        problems.append("telegraph speed is not +-c")
    if not np.all(out["snapshot_regimes"] == 0):
        problems.append("telegraph left regime 0")
    return problems


def _pool_telegraph(items):
    """Per snapshot level, the standardized mean errors of all ensembles
    (exact mean and variance) must sum to an N(0, 1)-sized total."""
    problems = []
    for j in range(3):
        zs = []
        for task, out in items:
            lam, c = task.params["model"]["lam"], task.params["model"]["c"]
            t = task.params["snaps"][j]
            mean, var = _telegraph_moments(lam, c, t)
            xs = out["snapshot_states"][j, :, 0]
            zs.append((xs.mean() - mean) / math.sqrt(var / xs.size))
        total = float(np.sum(zs)) / math.sqrt(len(zs))
        if not abs(total) <= 6.0:
            problems.append((f"telegraph means at snapshot {j}: pooled z = {total:.2f}", None))
    return problems


def _check_sweep_ensemble(task, out):
    a = (SWEEP_SET["b1"] - SWEEP_SET["mu"]) / SWEEP_SET["c"]
    xs = np.concatenate([out["snapshot_states"].ravel(), out["final_states"].ravel()])
    if not (np.all(np.isfinite(xs)) and np.all(xs >= 0.0) and np.all(xs <= a * (1 + 1e-12))):
        return ["birth_switch state left [0, a]"]
    return []


def _pool_sweep(items):
    """Sweeping: mass below eps at the horizon, and the regime mix of the
    near-zero paths against classify's p0."""
    model = items[0][0].params["model"]
    report = stationary.classify(stationary.birth_switch_system(config.birth_switch_params(model)))
    xs = np.concatenate([out["final_states"][:, 0] for _, out in items])
    regs = np.concatenate([out["final_regimes"] for _, out in items])
    small = xs <= SWEEP_EPS
    problems = []
    if report.verdict != "Sweeping":
        problems.append(f"sweeping set classified {report.verdict}")
    if small.mean() < 0.95:
        problems.append(f"mass below eps at the horizon is {small.mean():.3f} < 0.95")
    n = int(small.sum())
    freq0 = float(np.mean(regs[small] == 0)) if n else math.nan
    tol = 6.0 * math.sqrt(report.p0 * report.p1 / max(n, 1))
    if not abs(freq0 - report.p0) <= tol:
        problems.append(f"regime-0 share near zero {freq0:.3f} vs p0 {report.p0:.3f} "
                        f"(tol {tol:.3f})")
    return [(p, None) for p in problems]


def _gene_task(rng) -> Task:
    q0 = _jitter(rng, 1.0, 0.2)
    q1 = round(1.0 / (2.0 - 1.0 / q0), 6)   # fixed mean switching rate across seeds
    model_cfg = {"name": "gene_expression", "P": 1.0, "mu": 1.0, "q0": q0, "q1": q1}
    model = config.build_model(model_cfg)
    grid = transport.Grid1D(0.0, 1.0, GENE_BINS)
    seed = _seed(rng)

    def call(out):
        xs, regs = mcstats.occupation_samples(model, [0.5], 0, GENE_HORIZON,
                                              process.path_rng(seed, 0), delta=1.0)
        hist = mcstats.empirical_density(xs, grid, regimes=regs, n_regimes=2)
        return {"samples": xs, "regimes": regs, "density": hist.density}

    def check(task, out):
        dens = stationary.stationary_density(
            stationary.gene_switching_system(config.gene_params(model_cfg)))
        ref = np.array([[dens.f0(x) for x in grid.centers], [dens.f1(x) for x in grid.centers]])
        l1 = float(np.abs(out["density"] - ref).sum()) * grid.h
        return [] if l1 < 0.12 else [f"gene occupation L1 {l1:.4f} >= 0.12"]

    return Task("gene_occupation", call, params={"model": model_cfg}, check=check,
                work=lambda task, out: GENE_HORIZON)


def _ladder(lo: float, hi: float, n: int) -> np.ndarray:
    return lo * (hi / lo) ** (np.arange(n) / (n - 1))


def ensemble_stream(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 1])
    tasks = []
    # the rates stay near 1: the seed moves the streams, c and x0, not the event counts
    for k, path_time in enumerate(_ladder(*TELEGRAPH_PATH_TIME, TELEGRAPH_TASKS)):
        horizon = TELEGRAPH_HORIZONS[k % len(TELEGRAPH_HORIZONS)]
        size = max(2, round(path_time / horizon))
        lam, c = _jitter(rng, 1.0, 0.02), round(rng.uniform(0.5, 2.0), 6)
        tasks.append(_ensemble_task(
            f"telegraph.n{size}.h{horizon:g}.{k}",
            {"name": "telegraph", "lam": lam, "c": c}, (0.0, -c), horizon, size,
            [horizon / 4, horizon / 2, horizon], _seed(rng), "telegraph",
            _check_telegraph_ensemble))
    for k, path_time in enumerate(_ladder(*SWEEP_PATH_TIME, SWEEP_TASKS)):
        horizon = SWEEP_HORIZONS[k % len(SWEEP_HORIZONS)]
        size = max(2, round(path_time / horizon))
        x0 = round(rng.uniform(0.1, 0.45), 6)
        tasks.append(_ensemble_task(
            f"birth_switch.n{size}.h{horizon:g}.{k}",
            {"name": "birth_switch", **SWEEP_SET, "q0": 1.0, "q1": 1.0}, (x0,),
            horizon, size, [horizon / 2, horizon], _seed(rng), "sweep",
            _check_sweep_ensemble))
    tasks.append(_gene_task(rng))
    return Workload("ensemble_stream", tasks, "sim_time_per_s", "time/s",
                    {"telegraph": _pool_telegraph, "sweep": _pool_sweep})


# ---------------------------------------------------------------------------
# paths_recorded
# ---------------------------------------------------------------------------

TASKS_PER_ROUTE = 10
SIZE_FACTORS = (0.7, 1.4)              # ends of each route's size ladder
PIT_CAP = {"const": 2000, "thinning": 250, "cheb": 250, "ode": 250}


def _simulate_cfg(model, x0, horizon, n_paths, n_snaps=3) -> dict:
    snaps = [round(horizon * (k + 1) / (n_snaps + 1), 6) for k in range(n_snaps)]
    return {"model": model,
            "simulate": {"x0": list(x0), "regime0": 0, "horizon": horizon, "n_paths": n_paths,
                         "snapshot_times": snaps, "record_trajectories": True}}


def _parse_paths(task, out) -> list:
    """Trajectories as per-path lists of (t, kind, regime_pre, regime_post, pre, post)."""
    if "_paths" not in out:
        dim = len(task.params["simulate"]["x0"])
        paths = [[] for _ in range(task.params["simulate"]["n_paths"])]
        for row in _csv_rows(_artifact(out, "trajectories.csv")):
            vals = [float(v) for v in row[5:]]
            paths[int(row[0])].append((float(row[1]), row[2], int(row[3]), int(row[4]),
                                       np.array(vals[:dim]), np.array(vals[dim:])))
        out["_paths"] = paths
    return out["_paths"]


def _dwells(task, out) -> list:
    """(regime, start state, dwell time, event row) for every recorded jump."""
    sim = task.params["simulate"]
    res = []
    for events in _parse_paths(task, out):
        t, x, reg = 0.0, np.asarray(sim["x0"], dtype=float), sim["regime0"]
        for ev in events:
            res.append((reg, x, ev[0] - t, ev))
            t, x, reg = ev[0], ev[5], ev[3]
    return res


def _check_recorded(task, out) -> list:
    """Checks every recorded run shares: counts, ordering, regime chaining."""
    sim = task.params["simulate"]
    problems = []
    paths = _parse_paths(task, out)
    n_rows = sum(len(p) for p in paths)
    if _json(out, "summary.json")["n_jumps"] != n_rows:
        problems.append("summary n_jumps differs from trajectories.csv")
    snaps = _csv_rows(_artifact(out, "snapshots.csv"))
    if len(snaps) != sim["n_paths"] * len(sim["snapshot_times"]):
        problems.append("snapshots.csv has the wrong number of rows")
    if not all(math.isfinite(float(v)) for row in snaps for v in row[3:]):
        problems.append("non-finite snapshot state")
    for reg, x, dwell, ev in _dwells(task, out):
        if not (dwell >= 0.0 and ev[0] <= sim["horizon"]) or ev[2] != reg:
            problems.append(f"path events out of order at t={ev[0]}")
            break
        if not (np.all(np.isfinite(ev[4])) and np.all(np.isfinite(ev[5]))):
            problems.append("non-finite state in trajectories.csv")
            break
    return problems


def _recorded_task(name, model, x0, horizon, n_paths, seed, event_check=None,
                   extra=None) -> Task:
    cfg = _simulate_cfg(model, x0, horizon, n_paths)

    def check(task, out):
        problems = _check_recorded(task, out)
        if event_check is not None and not problems:
            problems += event_check(task, _dwells(task, out))
        return problems

    return _cli_task(name, "simulate", cfg, seed, extra, check=check, pool="pit",
                     work=lambda task, out: len(_csv_rows(_artifact(out, "trajectories.csv"))))


def _same_state(task, dwells):
    if all(np.array_equal(ev[4], ev[5]) for _, _, _, ev in dwells):
        return []
    return ["a switching jump changed the state"]


def _telegraph_flips(task, dwells):
    c = task.params["model"]["c"]
    ok = all(ev[5][0] == ev[4][0] and ev[5][1] == -ev[4][1] and abs(ev[4][1]) == c
             for _, _, _, ev in dwells)
    return [] if ok else ["telegraph flip is not (x, v) -> (x, -v) with |v| = c"]


def _halving(task, dwells):
    ok = all(np.array_equal(ev[5][:1], 0.5 * ev[4][:1]) for _, _, _, ev in dwells
             if ev[1] == "division")
    return [] if ok else ["division does not halve the size"]


def _rubinow_cycle(task, dwells):
    """Boundary hits: split exactly at 2m, back to m, after ln(2)/r."""
    m, r = task.params["model"]["m"], task.params["rate"]
    for _, _, dwell, ev in dwells:
        if not (_close(ev[4][0], 2.0 * m, 1e-7) and ev[5][0] == m
                and _close(dwell, math.log(2.0) / r, 1e-7)):
            return [f"rubinow cycle off at t={ev[0]}: pre={ev[4][0]!r} dwell={dwell!r}"]
    return []


def _fixed_delay(kind_in, kind_out, duration_key):
    def check(task, dwells):
        duration = task.params["model"][duration_key]
        for reg, x, dwell, ev in dwells:
            if ev[1] == kind_out and not _close(dwell, duration, 1e-9):
                return [f"{kind_out} came {dwell!r} after {kind_in}, not {duration!r}"]
        return []
    return check


def _two_phase_division(task, dwells):
    problems = _fixed_delay("phase_b_entry", "division", "t_B")(task, dwells)
    r, t_b = task.params["rate"], task.params["model"]["t_B"]
    for reg, x, dwell, ev in dwells:
        if ev[1] == "division" and not (_close(ev[4][0], x[0] * math.exp(r * t_b), 1e-9)
                                        and ev[5][0] == 0.5 * ev[4][0]):
            problems.append(f"two-phase division size off at t={ev[0]}")
            break
    return problems


def _population_task(name, model, horizon, seed) -> Task:
    snaps = [round(horizon * (k + 1) / 3, 6) for k in range(3)]
    cfg = {"model": model, "population": {"horizon": horizon, "snapshot_times": snaps}}

    def check(task, out):
        rows = _csv_rows(_artifact(out, "events.csv"))
        n, t_prev, sizes_at = len(model["initial"]), 0.0, []
        problems = []
        for row in rows:
            t, kind, n_after = float(row[0]), row[1], int(row[3])
            n += 1 if kind == "division" else -1
            if n_after != n or not t_prev <= t <= horizon:
                problems.append(f"population event log inconsistent at t={t}")
                break
            sizes_at.append((t, n))
            t_prev = t
        summary = _json(out, "summary.json")
        if summary["n_events"] != len(rows) or not summary["max_hazard_drift"] <= 1e-6:
            problems.append("population summary disagrees with its event log")
        snap_rows = _csv_rows(_artifact(out, "population_snapshots.csv"))
        for ts in snaps:
            want = len(model["initial"])
            for t, n_after in sizes_at:
                if t <= ts:
                    want = n_after
            got = [float(r[2]) for r in snap_rows if float(r[0]) == ts]
            if len(got) != want or not all(v > 0 for v in got):
                problems.append(f"population snapshot at t={ts} has {len(got)} cells, want {want}")
        return problems

    return _cli_task(name, "population", cfg, seed, check=check,
                     work=lambda task, out: len(_csv_rows(_artifact(out, "events.csv"))))


def _pool_pit(items) -> list:
    """Dwell times of every state-dependent route, and the constant route,
    against the integrated hazard from the same start (flows.cumulative_hazard):
    1 - exp(-Lambda(dwell)) must be uniform.  Regimes left by a clock are
    checked exactly by the per-task checks instead."""
    by_route = {r: [] for r in PIT_CAP}
    sources = {r: set() for r in PIT_CAP}
    for pos, (task, out) in enumerate(items):
        model = config.build_model(task.params["model"])
        for reg, x, dwell, ev in _dwells(task, out):
            regime = model.regimes[reg]
            if regime.clocks or len(regime.hazards) != 1:
                continue
            hz = regime.hazards[0].hazard
            route = _jump_route(regime.flow, hz)
            by_route[route].append((regime.flow, hz, x, dwell))
            sources[route].add(pos)
    problems = []
    for route, dwells in by_route.items():
        if not dwells:
            problems.append((f"no recorded dwell times on the {route} route", None))
            continue
        keep = np.unique(np.linspace(0, len(dwells) - 1, min(len(dwells), PIT_CAP[route]))
                         .astype(int))
        us = np.array([
            -math.expm1(-float(flows.cumulative_hazard(f, hz, x, [dwell]).values[-1]))
            for f, hz, x, dwell in (dwells[i] for i in keep)])
        problems += [(f"{route}: {p}", sorted(sources[route])) for p in _ks_uniform(us)]
    return problems


def _route_tasks(rng) -> list:
    tasks = []

    def add(route, n, make):
        for k, factor in enumerate(_ladder(*SIZE_FACTORS, n)):
            tasks.append(make(f"{route}.{k}", float(factor)))

    def telegraph(name, f):
        lam, c = _jitter(rng, 1.0, 0.2), round(rng.uniform(0.5, 2.0), 6)
        return _recorded_task(name, {"name": "telegraph", "lam": lam, "c": c}, (0.0, -c),
                              round(250.0 * f / lam, 6), 4, _seed(rng), _telegraph_flips)

    def thinning(name, f):
        model = {"name": "gene_expression", "P": 1.0, "mu": 1.0,
                 "q0": f"{_jitter(rng, 1.0, 0.1)} + {_jitter(rng, 1.0, 0.1)} * x",
                 "q1": _jitter(rng, 1.0, 0.1)}
        return _recorded_task(name, model, (0.5,), round(170.0 * f, 6), 2, _seed(rng),
                              _same_state)

    def growth(r):
        return f"{r} * x", f"x0 * exp({r} * t)"

    def cheb(name, f):
        r = _jitter(rng, 1.0, 0.1)
        g, closed = growth(r)
        model = {"name": "cell_cycle_1p", "g": g, "phi": f"{_jitter(rng, 1.0, 0.1)} * x",
                 "g_closed_form": closed}
        return _recorded_task(name, model, (1.0,), round(30.0 * f / r, 6), 2, _seed(rng),
                              _halving)

    def ode(name, f):
        r = _jitter(rng, 1.0, 0.1)
        model = {"name": "cell_cycle_1p", "g": growth(r)[0],
                 "phi": f"{_jitter(rng, 1.0, 0.1)} * x"}
        return _recorded_task(name, model, (1.0,), round(5.0 * f / r, 6), 1, _seed(rng),
                              _halving)

    def rubinow(closed_form):
        def make(name, f):
            r, m = _jitter(rng, 1.0, 0.1), _jitter(rng, 1.0, 0.2)
            g, closed = growth(r)
            model = {"name": "rubinow", "g": g, "m": m}
            horizon = (35.0 if closed_form else 6.0) * f / r
            if closed_form:
                model["g_closed_form"] = closed
            return _recorded_task(name, model, (m,), round(horizon, 6),
                                  4 if closed_form else 1, _seed(rng), _rubinow_cycle,
                                  extra={"rate": r})
        return make

    def two_phase(name, f):
        phi, t_b = _jitter(rng, 1.0, 0.1), _jitter(rng, 0.5, 0.2)
        r = round(math.log(2.0) / (1.0 / phi + t_b) * (1.0 + 0.02 * rng.uniform(-1, 1)), 6)
        g, closed = growth(r)
        model = {"name": "cell_cycle_2p", "g": g, "phi": phi, "t_B": t_b,
                 "g_closed_form": closed}
        return _recorded_task(name, model, (1.0, 0.0), round(280.0 * f, 6), 2, _seed(rng),
                              _two_phase_division, extra={"rate": r})

    def stein(name, f):
        model = {"name": "stein", "alpha": _jitter(rng, 1.0, 0.2), "a_E": 0.3, "a_I": 0.2,
                 "lambda_E": _jitter(rng, 3.0, 0.1), "lambda_I": 1.0, "theta": 1.0,
                 "t_R": _jitter(rng, 0.2, 0.2)}
        return _recorded_task(name, model, (0.0, 0.0), round(120.0 * f, 6), 2, _seed(rng),
                              _fixed_delay("fire", "refractory_end", "t_R"))

    def allee(name, f):
        model = {"name": "allee", "lam": 1.0, "K": 10.0, "A": 2.0, "B": 1.0,
                 "q01": _jitter(rng, 1.0, 0.1), "q10": _jitter(rng, 1.0, 0.1)}
        return _recorded_task(name, model, (round(rng.uniform(2.0, 8.0), 6),),
                              round(25.0 * f, 6), 1, _seed(rng), _same_state)

    def population(name, f):
        model = {"name": "population", "g": f"{_jitter(rng, 0.5, 0.1)} * x",
                 "b": f"{_jitter(rng, 1.0, 0.1)} * x", "d": _jitter(rng, 0.1, 0.2),
                 "initial": [1.0, 1.2]}
        return _population_task(name, model, round(2.6 + 0.4 * f, 6), _seed(rng))

    add("telegraph", TASKS_PER_ROUTE, telegraph)
    add("thinning", TASKS_PER_ROUTE, thinning)
    add("cheb", TASKS_PER_ROUTE, cheb)
    add("ode", TASKS_PER_ROUTE, ode)
    add("boundary_closed", TASKS_PER_ROUTE, rubinow(True))
    add("boundary_ode", TASKS_PER_ROUTE, rubinow(False))
    add("fixed_delay_2p", TASKS_PER_ROUTE, two_phase)
    add("fixed_delay_stein", TASKS_PER_ROUTE, stein)
    add("rk45_allee", TASKS_PER_ROUTE, allee)
    add("population", TASKS_PER_ROUTE, population)
    return tasks


def paths_recorded(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 2])
    return Workload("paths_recorded", _route_tasks(rng), "jumps_per_s", "jumps/s",
                    {"pit": _pool_pit})


# ---------------------------------------------------------------------------
# forward_analysis
# ---------------------------------------------------------------------------

SMALL_GRIDS = (192, 256, 384, 512)     # numpy call overhead dominates a step
SMALL_STEPS = 60
MID_GRID, MID_STEPS, MID_TASKS = 4096, 40, 20
# large grids: per-step arrays of 4 MiB, beyond a 2 MiB per-core L2
BIG_SWITCHING = 2**18                  # values (2, n): 4 MiB
BIG_CELL_CYCLE = 2**19                 # values (1, n): 4 MiB
BIG_TWO_PHASE = (2048, 256)            # f_b (n, n_y): 4 MiB
BIG_STEPS = 20
STEADY_GRIDS = (128, 192)
MASS_TOL = 1e-10
BS_STABLE = {"name": "birth_switch", "b0": 0.5, "b1": 2.0, "c": 1.0, "mu": 1.0,
             "q0": 1.0, "q1": 1.0}


def _evolve_check(cells: int, t_end: Optional[float]):
    def check(task, out):
        summary = _json(out, "summary.json")
        problems = []
        scale = max(1.0, summary["mass"] + summary["outflow"])
        if not abs(summary["mass_drift"]) <= MASS_TOL * scale:
            problems.append(f"mass drift {summary['mass_drift']:.3e}")
        if t_end is not None and not _close(summary["t_final"], t_end, 1e-9):
            problems.append(f"t_final {summary['t_final']} != {t_end}")
        vals = [float(r[3]) for r in _csv_rows(_artifact(out, "density.csv"))]
        if len(vals) != cells or not all(v >= 0.0 and math.isfinite(v) for v in vals):
            problems.append("density.csv has wrong size or negative/non-finite values")
        return problems
    return check


def _evolve_work(cells: int, dt: float):
    def work(task, out):
        return cells * round(_json(out, "summary.json")["t_final"] / dt)
    return work


def _evolve_task(name, model, grid, dt, steps, f0, n_y=None, steady=None) -> Task:
    """``steps`` fixed steps, or with ``steady`` (and steps None) up to its t_max."""
    t_end = steady["t_max"] if steady is not None else round(steps * dt, 15)
    section = {"grid": grid, "dt": dt, "t_end": t_end, "f0": f0}
    if n_y is not None:
        section["n_y"] = n_y
    if steady is not None:
        section["steady"] = steady
    n = grid["n"]
    cells = n * 2       # density.csv rows: two regimes, or f_a and the phase-B marginal
    if model["name"] == "cell_cycle_1p":
        cells = n
    solver_cells = n * (n_y + 1) if n_y is not None else cells
    return _cli_task(name, "evolve", {"model": model, "evolve": section},
                     check=_evolve_check(cells, None if steady is not None else t_end),
                     work=_evolve_work(solver_cells, dt))


def _gaussian(rng, lo, hi) -> dict:
    span = hi - lo
    return {"kind": "gaussian", "center": round(lo + span * rng.uniform(0.3, 0.7), 6),
            "width": round(span * rng.uniform(0.05, 0.15), 6), "regime": int(rng.integers(2))}


def _small_evolve_tasks(rng) -> list:
    tasks = []
    for n in SMALL_GRIDS:
        for rep in range(4):
            q0 = _jitter(rng, 1.0, 0.2)
            gene = {"name": "gene_expression", "P": 1.0, "mu": 1.0, "q0": q0, "q1": 1.0}
            tasks.append(_evolve_task(f"evolve.gene.n{n}.{rep}", gene, {"n": n, "x_max": 1.0},
                                      0.8 / n, SMALL_STEPS, _gaussian(rng, 0.0, 1.0)))
            tasks.append(_evolve_task(f"evolve.birth_switch.n{n}.{rep}", BS_STABLE,
                                      {"n": n, "x_max": 1.0}, 0.8 / (1.5 * n), SMALL_STEPS,
                                      _gaussian(rng, 0.0, 1.0)))
            allee = {"name": "allee", "lam": 1.0, "K": 10.0, "A": 2.0, "B": 1.0,
                     "q01": _jitter(rng, 1.0, 0.1), "q10": _jitter(rng, 1.0, 0.1)}
            tasks.append(_evolve_task(f"evolve.allee.n{n}.{rep}", allee, {"n": n, "x_max": 12.0},
                                      0.8 * 12.0 / (5.0 * n), SMALL_STEPS,
                                      _gaussian(rng, 0.0, 12.0)))
            c = _jitter(rng, 1.0, 0.2)
            tel = {"name": "telegraph", "lam": _jitter(rng, 1.0, 0.2), "c": c}
            tasks.append(_evolve_task(f"evolve.telegraph.n{n}.{rep}", tel,
                                      {"n": n, "x_min": -5.0, "x_max": 5.0},
                                      round(0.8 * 10.0 / (c * n), 12), SMALL_STEPS,
                                      _gaussian(rng, -2.0, 2.0)))
            cc = {"name": "cell_cycle_1p", "g": "x", "phi": f"{_jitter(rng, 1.0, 0.2)} * x"}
            tasks.append(_evolve_task(f"evolve.cell_cycle_1p.n{n}.{rep}", cc,
                                      {"n": n, "x_max": 8.0}, 0.8 * 8.0 / (8.0 * n),
                                      SMALL_STEPS, {**_gaussian(rng, 0.5, 2.0), "regime": 0}))
            n_x, n_y, t_b = n // 4, 32, 0.5
            dy = t_b / n_y
            k = math.ceil(dy / (0.8 * 8.0 / (8.0 * n_x)))
            cc2 = {"name": "cell_cycle_2p", "g": "x", "phi": f"{_jitter(rng, 1.0, 0.2)} * x",
                   "t_B": t_b}
            tasks.append(_evolve_task(f"evolve.cell_cycle_2p.n{n_x}x{n_y}.{rep}", cc2,
                                      {"n": n_x, "x_max": 8.0}, dy / k, SMALL_STEPS,
                                      {**_gaussian(rng, 0.5, 2.0), "regime": 0}, n_y=n_y))
    return tasks


def _steady_tasks(rng) -> list:
    q0 = _jitter(rng, 1.0, 0.2)
    gene = {"name": "gene_expression", "P": 1.0, "mu": 1.0, "q0": q0,
            "q1": round(1.0 / (2.0 - 1.0 / q0), 6)}

    reference = []      # the analytic pair, computed at the first check

    def check_against_pair(n):
        base = _evolve_check(2 * n, None)

        def check(task, out):
            problems = base(task, out)
            if _json(out, "summary.json")["converged"] is not True:
                problems.append("steady state did not converge")
            if not reference:
                reference.append(stationary.stationary_density(
                    stationary.gene_switching_system(config.gene_params(gene))))
            dens = reference[0]
            rows = _csv_rows(_artifact(out, "density.csv"))
            l1 = sum(abs(float(v) - (dens.f0 if int(r) == 0 else dens.f1)(float(x)))
                     for _, r, x, v in rows) / n
            if not l1 < 0.03:
                problems.append(f"steady state L1 {l1:.4f} vs the analytic pair >= 0.03")
            return problems
        return check

    tasks = []
    for n in STEADY_GRIDS:
        task = _evolve_task(f"evolve.gene_steady.n{n}", gene, {"n": n, "x_max": 1.0}, 0.8 / n,
                            None, {"kind": "uniform"}, steady={"tol": 1e-6, "t_max": 40.0})
        task.check = check_against_pair(n)
        tasks.append(task)
    return tasks


def _library_solver_task(name, solver, density, steps) -> Task:
    """A grid solver built during set-up; each call advances a fresh copy."""
    duration = steps * solver.dt
    two_phase = hasattr(density, "f_b")
    cells = density.f_a.size + density.f_b.size if two_phase else density.values.size
    m0 = density.mass()

    def call(out):
        d = density.copy()
        solver.advance(d, duration)
        arrays = ({"f_a": d.f_a, "f_b": d.f_b, "staging": d.staging} if two_phase
                  else {"values": d.values})
        return {**arrays, "time": np.array(d.time), "outflow": np.array(d.outflow)}

    def mass_of(out):
        if two_phase:
            h, dy = density.x_grid.h, density.dy
            return float(out["f_a"].sum() * h + out["f_b"].sum() * h * dy
                         + out["staging"].sum() * h)
        return float(out["values"].sum()) * density.grid.h

    def check(task, out):
        problems = []
        if not all(float(v.min()) >= 0.0 for k, v in out.items() if k not in ("time", "outflow")):
            problems.append("negative density")
        if not _close(float(out["time"]), duration, 1e-9):
            problems.append("solver time differs from steps * dt")
        drift = mass_of(out) + float(out["outflow"]) - m0
        if not abs(drift) <= MASS_TOL * max(1.0, m0):
            problems.append(f"mass drift {drift:.3e}")
        return problems

    return Task(name, call, check=check,
                work=lambda task, out: cells * round(float(out["time"]) / solver.dt))


def _big_tasks(rng) -> list:
    tasks = []
    n = BIG_SWITCHING
    grid = transport.Grid1D(0.0, 1.0, n)
    q = _jitter(rng, 1.0, 0.2)
    solver = transport.SwitchingSolver(grid, lambda x: -x, lambda x: 1.0 - x,
                                       lambda x, _q=q: _q, lambda x: 1.0, 0.8 / n)
    bump = np.exp(-((grid.centers - rng.uniform(0.3, 0.7)) / 0.1) ** 2)
    density = transport.density_from(grid, [bump, bump[::-1].copy()])
    tasks.append(_library_solver_task(f"solver.switching.n{n}", solver, density, BIG_STEPS))

    n = BIG_CELL_CYCLE
    grid = transport.Grid1D(0.0, 8.0, n, dyadic_aligned=True)
    k = _jitter(rng, 1.0, 0.2)
    solver = transport.CellCycleSolver(grid, lambda x: x, lambda x, _k=k: _k * x,
                                       0.8 * grid.h / 8.0)
    density = transport.density_from(
        grid, [np.exp(-((grid.centers - rng.uniform(0.8, 1.2)) / 0.3) ** 2)])
    tasks.append(_library_solver_task(f"solver.cell_cycle.n{n}", solver, density, BIG_STEPS))

    n, n_y = BIG_TWO_PHASE
    grid = transport.Grid1D(0.0, 8.0, n, dyadic_aligned=True)
    t_b = 0.5
    dy = t_b / n_y
    k_sub = math.ceil(dy / (0.8 * grid.h / 8.0))
    solver = transport.TwoPhaseSolver(grid, n_y, t_b, lambda x: x, lambda x, _k=k: _k * x,
                                      dy / k_sub)
    density = transport.two_phase_density(
        grid, n_y, t_b, np.exp(-((grid.centers - rng.uniform(0.8, 1.2)) / 0.3) ** 2))
    # whole y-shift cycles, so every call starts the solver at the same sub-step
    steps = k_sub * math.ceil(BIG_STEPS / k_sub)
    tasks.append(_library_solver_task(f"solver.two_phase.n{n}x{n_y}", solver, density, steps))
    return tasks


def _birth_switch_r0(model: dict) -> float:
    return (model["q0"] / (model["b0"] - model["mu"])
            + model["q1"] / (model["b1"] - model["mu"]))


def _sweep_point(rng, r0_level: float) -> dict:
    """A birth_switch point with r0 near ``r0_level`` (q0 = q1 = c = mu = 1)."""
    b0 = _jitter(rng, 0.4, 0.1)
    r0 = r0_level * (1.0 + 0.05 * rng.uniform(-1.0, 1.0))
    b1 = round(1.0 + 1.0 / (r0 + 1.0 / (1.0 - b0)), 6)
    return {"name": "birth_switch", "b0": b0, "b1": b1, "c": 1.0, "mu": 1.0,
            "q0": 1.0, "q1": 1.0}


def _check_report(task, out):
    model = task.params["model"]
    report = _json(out, "report.json")
    r0 = _birth_switch_r0(model)
    want = "Stable" if r0 < 0 else "Sweeping"
    problems = []
    if report["verdict"] != want:
        problems.append(f"verdict {report['verdict']} but sign(r0) says {want}")
    if not _close(report["r0"], r0, 1e-9):
        problems.append(f"r0 {report['r0']} != {r0}")
    q0, q1 = model["q0"], model["q1"]
    if not (_close(report["p0"], q1 / (q0 + q1), 1e-12)
            and _close(report["p1"], q0 / (q0 + q1), 1e-12)):
        problems.append("p0/p1 differ from the switching rates")
    return problems


def _check_fstar(task, out):
    """The written invariant pair against the closed-form antiderivative of
    r = q0/g0 + q1/g1 for logistic fields, up to normalization."""
    problems = _check_report(task, out)
    m = task.params["model"]
    rho = (m["b0"] - m["mu"], m["b1"] - m["mu"])
    q = (m["q0"], m["q1"])
    rows = _csv_rows(_artifact(out, "fstar.csv"))
    for regime in (0, 1):
        xs = np.array([float(r[0]) for r in rows if int(r[1]) == regime])
        fs = np.array([float(r[2]) for r in rows if int(r[1]) == regime])
        g = (rho[regime] - m["c"] * xs) * xs
        log_ref = -sum(qi / ri * np.log(xs / np.abs(ri - m["c"] * xs))
                       for qi, ri in zip(q, rho)) - np.log(np.abs(g))
        diff = np.log(fs) - log_ref
        if not np.all(np.isfinite(diff)) or np.ptp(diff) > 1e-6:
            problems.append(f"fstar regime {regime} is off the closed-form shape")
    return problems


def _analysis_tasks(rng) -> list:
    tasks = []
    for level in (-0.7, 0.7):
        model = _sweep_point(rng, level)
        tasks.append(_cli_task(f"classify.r0{level:+g}.{len(tasks)}", "classify",
                               {"model": model}, check=_check_report))
    model = _sweep_point(rng, -0.7)
    tasks.append(_cli_task("stationary.stable", "stationary",
                           {"model": model, "stationary": {"grid_n": 256}}, check=_check_fstar))

    def all_pass(task, out):
        name = "fit_report.json" if task.params.get("compare") else "report.json"
        report = _json(out, name)
        problems = [] if report["all_pass"] else [f"{task.name}: all_pass is false"]
        for case in report.get("cases", []):
            if not abs(case["mass_drift"]) <= MASS_TOL:
                problems.append(f"{case['kind']}: mass drift {case['mass_drift']:.3e}")
        return problems

    tasks.append(_cli_task("hormander", "hormander", {"hormander": {
        "model_params": {"P": 1.0, "mu": 1.0, "q0": _jitter(rng, 1.0, 0.2), "q1": 1.0},
        "points": [round(v, 6) for v in np.sort(rng.uniform(0.05, 0.95, 3))],
        "invariance_cases": 60, "seed": _seed(rng)}}, check=all_pass))
    tasks.append(_cli_task("compare.mass_audit", "compare",
                           {"compare": {"mode": "mass_audit", "n": 128}}, check=all_pass))
    for n in (128, 256):
        tasks.append(_cli_task(f"compare.convergence.n{n}", "compare", {"compare": {
            "mode": "convergence", "ns": [n, 2 * n], "t_end": 0.5, "x_max": 2.0,
            "ratio_window": [1.5, 3.0]}}, check=all_pass))
    return tasks


def _mid_tasks(rng) -> list:
    """A block of equal-sized switching solves, more than a tenth of the task
    list, so that task_p90_s falls inside it rather than between task kinds."""
    n = MID_GRID
    tasks = []
    for rep in range(MID_TASKS // 2):
        gene = {"name": "gene_expression", "P": 1.0, "mu": 1.0,
                "q0": _jitter(rng, 1.0, 0.2), "q1": 1.0}
        tasks.append(_evolve_task(f"evolve.gene.n{n}.{rep}", gene, {"n": n, "x_max": 1.0},
                                  0.8 / n, MID_STEPS, _gaussian(rng, 0.0, 1.0)))
        tasks.append(_evolve_task(f"evolve.birth_switch.n{n}.{rep}", BS_STABLE,
                                  {"n": n, "x_max": 1.0}, 0.8 / (1.5 * n), MID_STEPS,
                                  _gaussian(rng, 0.0, 1.0)))
    return tasks


def forward_analysis(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 3])
    tasks = (_small_evolve_tasks(rng) + _mid_tasks(rng) + _steady_tasks(rng)
             + _big_tasks(rng) + _analysis_tasks(rng))
    return Workload("forward_analysis", tasks, "cell_steps_per_s", "cells*steps/s", {})


WORKLOADS = {
    "ensemble_stream": ensemble_stream,
    "paths_recorded": paths_recorded,
    "forward_analysis": forward_analysis,
}


def build(name: str, seed: int) -> Workload:
    """Set-up for one workload: every config generated and validated, every
    model and solver of the library tasks constructed."""
    return WORKLOADS[name](seed)
