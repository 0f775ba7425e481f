"""Span tracer for the benchmark's traced mode.

The tracer wraps public functions at pdmpkit's module boundaries from the
outside: it replaces a module attribute (or a class method) by a wrapper that
records one span per call.  A span is (name, start, end, parent span, task id,
failed flag); spans are kept in compact in-memory arrays and written out when
the run ends.  Nothing under ``src/`` is changed.

A function imported by name into another module has one binding per module,
so each boundary is patched at every module that calls it; one wrapper object
serves all bindings, and the span is named after the layer that owns the
function, not the caller.
"""

from __future__ import annotations

import functools
import os
import resource
from array import array
from collections import defaultdict
from time import perf_counter_ns

import numpy as np


class Tracer:
    """In-memory span store plus named counters, filled by installed wrappers."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.task = array("i")
        self.failed = array("b")
        self.counters = defaultdict(float)
        self.task_id = -1
        self.enabled = False
        self._stack: list = []
        self._patches: list = []

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def wrap(self, fn, name, route=None, relabel=None, before=None, after=None):
        """Return a wrapper recording one span per call of ``fn``.

        ``route(*args, **kwargs)`` names a sub-span from the arguments before
        the call; ``relabel(result)`` from the result after it.  ``before``
        and ``after`` update counters; their cost stays outside the span.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            label = name if route is None else f"{name}.{route(*args, **kwargs)}"
            ctx = before(*args, **kwargs) if before is not None else None
            idx = len(tracer.start)
            tracer.name_id.append(tracer._id(label))
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.task.append(tracer.task_id)
            tracer.failed.append(0)
            tracer.end.append(0)
            tracer._stack.append(idx)
            tracer.start.append(perf_counter_ns())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.end[idx] = perf_counter_ns()
                tracer.failed[idx] = 1
                tracer._stack.pop()
                raise
            tracer.end[idx] = perf_counter_ns()
            tracer._stack.pop()
            if relabel is not None:
                tracer.name_id[idx] = tracer._id(f"{label}.{relabel(out)}")
            if after is not None:
                after(tracer.counters, out, ctx, *args, **kwargs)
            return out

        return wrapper

    def patch(self, owners, attr: str, wrapper) -> None:
        """Bind ``wrapper`` as ``attr`` on every owner (module or class)."""
        for owner in owners:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "task": np.frombuffer(self.task, dtype=np.int32).copy(),
            "failed": np.frombuffer(self.failed, dtype=np.int8).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it covered by its child spans.

    Children may overlap each other in time (as with work in threads); the
    covered part is the length of the union of the children's intervals,
    clipped to the parent's own interval.
    """
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = (end - start).astype(float)
    kids = np.flatnonzero(parent >= 0)
    if kids.size == 0:
        return dur
    p = parent[kids]
    order = np.lexsort((start[kids], p))
    kids, p = kids[order], p[order]
    s, e = start[kids], end[kids]
    ps, pe = start[p], end[p]
    new_group = np.ones(p.size, dtype=bool)
    new_group[1:] = p[1:] != p[:-1]
    # running maximum of child ends within each parent's group: shifting each
    # group above all earlier ones lets one global accumulate do it
    t0 = int(start.min())
    width = int(end.max()) - t0 + 1
    shift = (np.cumsum(new_group) - 1) * width
    run = np.maximum.accumulate(e - t0 + shift) - shift + t0
    prev_end = np.empty_like(run)
    prev_end[1:] = run[:-1]
    prev_end[new_group] = ps[new_group]
    lo = np.maximum(np.maximum(s, prev_end), ps)
    hi = np.minimum(e, pe)
    covered = np.bincount(p, weights=np.clip(hi - lo, 0, None).astype(float),
                          minlength=start.size)
    return dur - covered


# ---------------------------------------------------------------------------
# the boundaries the benchmark traces
# ---------------------------------------------------------------------------


def _jump_route(flow, hz, *args, **kwargs) -> str:
    # the branch order of flows.sample_jump_time with method="auto"
    if hz.const_rate is not None:
        return "const"
    if hz.upper_bound is not None:
        return "thinning"
    return "cheb" if flow.closed_form is not None else "ode"


def _flow_kind(flow, *args, **kwargs) -> str:
    return "closed" if flow.closed_form is not None else "rk45"


def _boundary_kind(flow, *args, **kwargs) -> str:
    return "closed" if flow.closed_form is not None else "ode"


def _solver_cells(solver) -> int:
    """Cells one step of a grid solver updates."""
    if hasattr(solver, "n_y"):                       # TwoPhaseSolver: f_a and f_b
        return solver.x_grid.n * (solver.n_y + 1)
    regimes = 2 if hasattr(solver, "q0_c") else 1    # SwitchingSolver
    return solver.grid.n * regimes


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def install(tracer: Tracer, pk) -> None:
    """Patch every traced boundary of the pdmpkit modules in ``pk``."""
    cli, config, exprs, process = pk.cli, pk.config, pk.exprs, pk.process
    flows, models, mcstats, transport = pk.flows, pk.models, pk.mcstats, pk.transport
    stationary, experiments = pk.stationary, pk.experiments
    W = tracer.wrap

    def count(key, value_of):
        def after(counters, out, ctx, *args, **kwargs):
            counters[key] += value_of(out, *args, **kwargs)
        return after

    tracer.patch([cli], "run", W(cli.run, "cli.run"))
    tracer.patch([config, cli], "validate_config",
                 W(config.validate_config, "config.validate_config"))
    tracer.patch([config, cli], "build_model", W(config.build_model, "config.build_model"))

    compile_expr = exprs.compile_expr

    @functools.wraps(compile_expr)
    def traced_compile(*args, **kwargs):
        return W(compile_expr(*args, **kwargs), "exprs.eval")
    tracer.patch([exprs, config], "compile_expr", traced_compile)

    tracer.patch([process, experiments], "next_event",
                 W(process.next_event, "process.next_event"))
    tracer.patch([process, cli, experiments], "path_rng",
                 W(process.path_rng, "process.path_rng"))

    def ensemble_after(counters, out, cpu0, *args, **kwargs):
        counters["process.simulate_ensemble.cpu_s"] += _cpu_seconds() - cpu0
    tracer.patch([process, cli, experiments], "simulate_ensemble",
                 W(process.simulate_ensemble, "process.simulate_ensemble",
                   before=lambda *a, **k: _cpu_seconds(), after=ensemble_after))
    tracer.patch([process.Trajectory], "state_at",
                 W(process.Trajectory.state_at, "process.Trajectory.state_at"))
    tracer.patch([process, cli], "trajectories_to_csv",
                 W(process.trajectories_to_csv, "process.trajectories_to_csv",
                   after=count("process.trajectories_to_csv.bytes",
                               lambda out, trajs, path: os.path.getsize(path))))

    tracer.patch([flows, process, experiments], "sample_jump_time",
                 W(flows.sample_jump_time, "flows.sample_jump_time", route=_jump_route))
    tracer.patch([flows, process, mcstats, experiments], "flow_evolve",
                 W(flows.flow_evolve, "flows.flow_evolve", route=_flow_kind))
    tracer.patch([flows, process], "boundary_hit_time",
                 W(flows.boundary_hit_time, "flows.boundary_hit_time", route=_boundary_kind))
    for mod in (flows, models):
        name = mod.__name__.split(".")[-1]
        tracer.patch([mod], "solve_ivp",
                     W(mod.solve_ivp, f"{name}.solve_ivp",
                       after=count(f"{name}.solve_ivp.nfev", lambda out, *a, **k: out.nfev)))

    tracer.patch([models, cli, experiments], "simulate_population",
                 W(models.simulate_population, "models.simulate_population",
                   after=count("models.simulate_population.events",
                               lambda out, *a, **k: len(out.events))))
    tracer.patch([mcstats, experiments], "occupation_samples",
                 W(mcstats.occupation_samples, "mcstats.occupation_samples",
                   after=count("mcstats.occupation_samples.samples",
                               lambda out, *a, **k: out[0].size)))

    for cls in (transport.SwitchingSolver, transport.CellCycleSolver,
                transport.TwoPhaseSolver, transport.LiouvilleSolver):
        key = f"transport.{cls.__name__}.step"
        tracer.patch([cls], "step",
                     W(cls.step, key,
                       after=count(f"{key}.cells",
                                   lambda out, solver, *a, **k: _solver_cells(solver))))
    tracer.patch([transport, cli, experiments], "steady_state",
                 W(transport.steady_state, "transport.steady_state"))

    tracer.patch([stationary, cli, experiments], "classify",
                 W(stationary.classify, "stationary.classify",
                   relabel=lambda report: report.verdict))
    tracer.patch([stationary, cli, experiments], "stationary_density",
                 W(stationary.stationary_density, "stationary.stationary_density"))
    tracer.patch([stationary], "quad", W(stationary.quad, "stationary.quad"))
    tracer.patch([stationary, experiments], "hormander_check",
                 W(stationary.hormander_check, "stationary.hormander_check"))
    tracer.patch([experiments], "run_compare",
                 W(experiments.run_compare, "experiments.run_compare"))


LAYERS = ("cli", "config", "exprs", "process", "flows", "models", "mcstats",
          "transport", "stationary", "experiments")


def layer_metrics(tracer: Tracer, traced_walls: list, untraced_walls: list) -> dict:
    """Per-layer figures from the spans and counters of the traced passes.

    Counts and self-time totals are per pass (divided by the number of traced
    passes); per-call costs are totals over calls.
    """
    arr = tracer.arrays()
    names = tracer.names
    n_pass = max(len(traced_walls), 1)
    wall = float(sum(traced_walls))
    start, end, parent = arr["start_ns"], arr["end_ns"], arr["parent"]
    ids = arr["name_id"]
    dur = (end - start).astype(float)
    own = self_times(start, end, parent) if ids.size else dur
    k = len(names)
    # spans of the traced set-up carry task -1: they count only towards the
    # per-call costs of config, whose calls happen mostly there
    in_task = arr["task"] >= 0
    calls = np.bincount(ids[in_task], minlength=k)
    total = np.bincount(ids[in_task], weights=dur[in_task], minlength=k)
    selft = np.bincount(ids[in_task], weights=own[in_task], minlength=k)
    setup_calls = np.bincount(ids, minlength=k)
    setup_total = np.bincount(ids, weights=dur, minlength=k)
    index = {n: i for i, n in enumerate(names)}
    c = tracer.counters

    def n_calls(name):
        i = index.get(name)
        return int(calls[i]) if i is not None else 0

    def tot_s(name):
        i = index.get(name)
        return float(total[i]) * 1e-9 if i is not None else 0.0

    def self_s(name):
        i = index.get(name)
        return float(selft[i]) * 1e-9 if i is not None else 0.0

    def per(x, n, scale):
        return x * scale / n if n else 0.0

    m = {}

    def calls_and_cost(name, self_time=False):
        n = n_calls(name)
        m[f"{name}.calls"] = n / n_pass
        if self_time:
            m[f"{name}.self_us_per_call"] = per(self_s(name), n, 1e6)
        else:
            m[f"{name}.us_per_call"] = per(tot_s(name), n, 1e6)

    calls_and_cost("process.next_event", self_time=True)
    m["process.path_rng.us_per_call"] = per(tot_s("process.path_rng"),
                                            n_calls("process.path_rng"), 1e6)
    ens_wall = tot_s("process.simulate_ensemble")
    m["process.simulate_ensemble.cpu_per_wall"] = (
        c["process.simulate_ensemble.cpu_s"] / ens_wall if ens_wall else 0.0)
    calls_and_cost("process.Trajectory.state_at")
    m["process.trajectories_to_csv.self_s"] = self_s("process.trajectories_to_csv") / n_pass
    m["process.trajectories_to_csv.bytes"] = c["process.trajectories_to_csv.bytes"] / n_pass

    for route in ("const", "thinning", "cheb", "ode"):
        calls_and_cost(f"flows.sample_jump_time.{route}", self_time=True)
    thin = index.get("flows.sample_jump_time.thinning")
    if thin is not None:
        in_thin = (parent >= 0) & (ids[np.maximum(parent, 0)] == thin)
        evolve_ids = [index[n] for n in ("flows.flow_evolve.closed", "flows.flow_evolve.rk45")
                      if n in index]
        proposals = int(np.sum(in_thin & np.isin(ids, evolve_ids)))
        accepted = int(np.sum((ids == thin) & (arr["failed"] == 0)))
        m["flows.thinning.accept_ratio"] = accepted / proposals if proposals else 0.0
    else:
        m["flows.thinning.accept_ratio"] = 0.0
    for kind in ("closed", "rk45"):
        calls_and_cost(f"flows.flow_evolve.{kind}")
    for kind in ("closed", "ode"):
        calls_and_cost(f"flows.boundary_hit_time.{kind}")
    for mod in ("flows", "models"):
        m[f"{mod}.solve_ivp.calls"] = n_calls(f"{mod}.solve_ivp") / n_pass
        m[f"{mod}.solve_ivp.nfev"] = c[f"{mod}.solve_ivp.nfev"] / n_pass

    events = c["models.simulate_population.events"]
    m["models.simulate_population.events"] = events / n_pass
    m["models.simulate_population.us_per_event"] = per(
        tot_s("models.simulate_population"), events, 1e6)
    calls_and_cost("exprs.eval")
    samples = c["mcstats.occupation_samples.samples"]
    m["mcstats.occupation_samples.samples"] = samples / n_pass
    m["mcstats.occupation_samples.self_us_per_sample"] = per(
        self_s("mcstats.occupation_samples"), samples, 1e6)

    for cls in ("SwitchingSolver", "CellCycleSolver", "TwoPhaseSolver", "LiouvilleSolver"):
        key = f"transport.{cls}.step"
        m[f"{key}.calls"] = n_calls(key) / n_pass
        m[f"{key}.ns_per_cell_step"] = per(tot_s(key), c[f"{key}.cells"], 1e9)
    m["transport.steady_state.self_s"] = self_s("transport.steady_state") / n_pass

    for verdict in ("Stable", "Sweeping"):
        name = f"stationary.classify.{verdict}"
        m[f"{name}.ms_per_call"] = per(tot_s(name), n_calls(name), 1e3)
    for name in ("stationary.stationary_density", "stationary.hormander_check"):
        m[f"{name}.ms_per_call"] = per(tot_s(name), n_calls(name), 1e3)
    m["stationary.quad.calls"] = n_calls("stationary.quad") / n_pass
    for name, scale, unit in (("config.validate_config", 1e6, "us"),
                              ("config.build_model", 1e3, "ms")):
        i = index.get(name)
        m[f"{name}.{unit}_per_call"] = (
            per(float(setup_total[i]) * 1e-9, int(setup_calls[i]), scale) if i is not None else 0.0)
    m["cli.run.self_s"] = self_s("cli.run") / n_pass
    m["experiments.run_compare.self_s"] = self_s("experiments.run_compare") / n_pass

    top = (parent < 0) & in_task
    m["trace.coverage"] = float(dur[top].sum()) * 1e-9 / wall if wall else 0.0
    m["trace.overhead_s"] = float(np.median(traced_walls) - np.median(untraced_walls))
    layer_of = np.array([n.split(".")[0] for n in names]) if names else np.array([])
    for layer in LAYERS:
        mask = layer_of == layer
        share = float(selft[mask].sum()) * 1e-9 / wall if wall and mask.any() else 0.0
        m[f"layer.{layer}.self_share"] = share
    return m
