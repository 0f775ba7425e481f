"""Named experiments connecting simulation, analysis, and solvers.

Each function takes a plain config dict (the ``compare:`` section of an
experiment file), runs one reproducible experiment, and returns a JSON-able
report with explicit pass flags.  The acceptance suite and the command-line
``compare`` command share these implementations.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, InvalidParam
from .flows import Flow, QTransform, cumulative_hazard, flow_evolve, sample_jump_time
from .mcstats import (
    dkw_epsilon,
    empirical_density,
    ks_statistic,
    l1_distance,
    occupation_samples,
    sweeping_mass,
    two_sample_ks,
)
from .models import (
    BirthSwitchParams,
    GeneExpressionParams,
    TwoPhaseCellCycleParams,
    make_birth_switch,
    make_gene_expression,
    make_two_phase_cell_cycle,
    simulate_population,
)
from .process import next_event, path_rng, simulate_ensemble
from .stationary import (
    birth_switch_system,
    classify,
    gene_switching_system,
    hormander_check,
    stationary_density,
)
from .transport import (
    CellCycleSolver,
    Grid1D,
    SwitchingSolver,
    TwoPhaseSolver,
    density_from,
    evolve_liouville,
    steady_state,
    two_phase_density,
)


def _compiled_params(d: dict) -> dict:
    """Compile string-valued rates from config files; numbers pass through."""
    from .exprs import rate_from_config

    return {k: rate_from_config(v, k) if isinstance(v, str) else v
            for k, v in d.items()}


def dwell_time_ks(cfg: dict) -> dict:
    """Dwell-time law of one gene-expression regime versus its integrated hazard.

    Samples of the regime's holding time are tested (KS at the configured
    level) against F(t) = 1 - exp(-Lambda(t)) with Lambda computed by the
    hazard-integral quadrature from the same starting point.
    """
    p = GeneExpressionParams(**_compiled_params(cfg["model_params"]))
    model = make_gene_expression(p)
    regime = model.regimes[int(cfg.get("regime", 0))]
    x0 = np.atleast_1d(np.asarray(cfg.get("x0", 1.0), dtype=float))
    n = int(cfg.get("n", 100_000))
    alpha = float(cfg.get("alpha", 0.01))
    rng = path_rng(int(cfg.get("seed", 2024)), 0)

    hz = regime.hazards[0].hazard
    draws = np.array([sample_jump_time(regime.flow, hz, x0, rng) for _ in range(n)])
    ks = ks_statistic(draws, lambda ts: cumulative_hazard(regime.flow, hz, x0, ts).cdf())
    band = dkw_epsilon(n, alpha)
    return {
        "schema_version": 1,
        "n_samples": n,
        "ks_statistic": ks,
        "ks_band": band,
        "alpha": alpha,
        "passes": {"ks": bool(ks < band)},
        "all_pass": bool(ks < band),
    }


def _gene_analytic_fstar(p: GeneExpressionParams):
    dens = stationary_density(gene_switching_system(p))
    if not dens.is_integrable:
        raise InvalidParam("gene-expression stationary density is not integrable")
    return dens


def gene_stationarity(cfg: dict) -> dict:
    """Occupation measure and grid steady state against the closed-form invariant pair.

    One long path supplies an occupation histogram (fixed-step sampling after
    a half-horizon burn-in); the switching solver is run to its steady state;
    both are compared in L1 against the analytic normalized pair.
    """
    p = GeneExpressionParams(**_compiled_params(cfg["model_params"]))
    model = make_gene_expression(p)
    dens = _gene_analytic_fstar(p)
    a = p.x_max
    seed = int(cfg.get("seed", 99))

    horizon = float(cfg.get("horizon", 1e6))
    delta = float(cfg.get("delta", 1.0))
    xs, regs = occupation_samples(model, [0.5 * a], 0, horizon, path_rng(seed, 0),
                                  delta=delta)
    mc_grid = Grid1D(0.0, a, int(cfg.get("mc_bins", 64)))
    hist = empirical_density(xs, mc_grid, regimes=regs, n_regimes=2)
    l1_mc = l1_distance(hist, [dens.f0, dens.f1])

    n_pde = int(cfg.get("pde_bins", 512))
    grid = Grid1D(0.0, a, n_pde)
    f = p.fields()
    speed = max(abs(f.g0(a)), abs(f.g1(0.0)), p.mu * a, p.P)
    dt = 0.45 * grid.h / speed
    solver = SwitchingSolver(grid, f.g0, f.g1, f.q0, f.q1, dt)
    density = density_from(grid, [lambda x: 0.5 / a, lambda x: 0.5 / a])
    density, converged = steady_state(solver, density, tol=float(cfg.get("tol", 1e-8)),
                                      t_max=float(cfg.get("t_max", 80.0)))
    l1_pde = l1_distance(density, [dens.f0, dens.f1])

    thr_mc = float(cfg.get("mc_threshold", 0.03))
    thr_pde = float(cfg.get("pde_threshold", 0.05))
    passes = {"mc_l1": bool(l1_mc < thr_mc), "pde_l1": bool(l1_pde < thr_pde),
              "pde_converged": bool(converged)}
    return {
        "schema_version": 1,
        "n_occupation_samples": int(xs.size),
        "l1_mc_vs_analytic": l1_mc,
        "l1_pde_vs_analytic": l1_pde,
        "pde_converged": bool(converged),
        "pde_mass_drift": density.mass_drift(),
        "thresholds": {"mc_l1": thr_mc, "pde_l1": thr_pde},
        "passes": passes,
        "all_pass": all(passes.values()),
    }


def stability_alternative(cfg: dict) -> dict:
    """The stability/sweeping alternative on two birth-switch parameter sets.

    The stable set must classify Stable and its occupation histogram must
    L1-match the normalized stationary pair; the sweeping set must classify
    Sweeping, concentrate its ensemble below eps, and show the predicted
    regime mix among the near-zero paths.
    """
    seed = int(cfg.get("seed", 512))
    out: dict = {"schema_version": 1}
    passes: dict = {}

    ps = BirthSwitchParams(**_compiled_params(cfg["stable"]))
    rep_s = classify(birth_switch_system(ps))
    out["stable_report"] = rep_s.to_dict()
    passes["stable_verdict"] = rep_s.verdict == "Stable"

    model_s = make_birth_switch(ps)
    dens = stationary_density(birth_switch_system(ps))
    horizon = float(cfg.get("stable_horizon", 2e5))
    xs, regs = occupation_samples(model_s, [0.5 * ps.attractor_end], 0, horizon,
                                  path_rng(seed, 0), delta=float(cfg.get("delta", 0.5)))
    grid = Grid1D(0.0, ps.attractor_end, int(cfg.get("mc_bins", 64)))
    hist = empirical_density(xs, grid, regimes=regs, n_regimes=2)
    l1 = l1_distance(hist, [dens.f0, dens.f1])
    thr_l1 = float(cfg.get("l1_threshold", 0.05))
    out["stable_l1"] = l1
    out["stable_out_of_range"] = hist.out_of_range
    passes["stable_l1"] = l1 < thr_l1

    pw = BirthSwitchParams(**_compiled_params(cfg["sweeping"]))
    rep_w = classify(birth_switch_system(pw))
    out["sweeping_report"] = rep_w.to_dict()
    passes["sweeping_verdict"] = rep_w.verdict == "Sweeping"

    model_w = make_birth_switch(pw)
    t_final = float(cfg.get("sweep_time", 200.0))
    times = sorted(set(list(cfg.get("sweep_snapshots", [])) + [t_final]))
    n_paths = int(cfg.get("sweep_paths", 6000))
    x_start = 0.6 * pw.attractor_end

    def init(rng):
        return np.array([x_start]), 0

    ens = simulate_ensemble(model_w, init, t_final, n_paths, seed + 1,
                            snapshot_times=times)
    if ens.errors:
        raise InvalidParam(f"sweeping ensemble had path errors: {ens.errors[:3]}")
    eps = float(cfg.get("eps", 0.05))
    sweep = sweeping_mass(ens.snapshot_times, ens.snapshot_states,
                          ens.snapshot_regimes, eps)
    i_final = sweep.times.index(t_final)
    mass = float(sweep.mass_total[i_final])
    freq = sweep.regime_freq_small[i_final]
    thr_mass = float(cfg.get("sweep_mass_threshold", 0.95))
    freq_tol = float(cfg.get("regime_freq_tol", 0.02))
    out["sweeping_mass"] = sweep.to_dict()
    out["sweeping_mass_final"] = mass
    out["regime_freq_final"] = [float(v) for v in freq]
    out["regime_freq_target"] = [rep_w.p0, rep_w.p1]
    passes["sweep_mass"] = mass > thr_mass
    passes["regime_freq"] = bool(
        abs(freq[0] - rep_w.p0) < freq_tol and abs(freq[1] - rep_w.p1) < freq_tol
    )

    out["thresholds"] = {"l1": thr_l1, "sweep_mass": thr_mass,
                         "regime_freq_tol": freq_tol}
    out["passes"] = passes
    out["all_pass"] = all(passes.values())
    return out


def two_phase_recursion(cfg: dict) -> dict:
    """Post-division sizes: full two-phase simulation versus the size recursion.

    One generation is run from a fixed mother size through the engine (random
    phase-A dwell, fixed phase-B duration, halving); independently the same
    law is sampled through the cumulative growth transform with fresh unit
    exponentials.  The two samples must agree in Kolmogorov-Smirnov distance.
    """
    t_B = float(cfg.get("t_B", 0.5))
    x0 = float(cfg.get("x0", 1.0))
    n = int(cfg.get("n", 100_000))
    seed = int(cfg.get("seed", 7071))
    g = lambda x: x
    phi = lambda x: x
    g_cf = lambda t, x: x * np.exp(t)
    params = TwoPhaseCellCycleParams(g=g, phi=phi, t_B=t_B, g_closed_form=g_cf)
    model = make_two_phase_cell_cycle(params)

    rng = path_rng(seed, 0)
    full = np.empty(n)
    start = np.array([x0, 0.0])
    for i in range(n):
        ev1 = next_event(model, start, 0, rng, t_max=math.inf)
        ev2 = next_event(model, ev1.state_post, 1, rng, t_max=math.inf,
                         elapsed_in_regime=0.0)
        if ev1.kind != "phase_b_entry" or ev2.kind != "division":
            raise InvalidParam("unexpected event order in the two-phase generation")
        full[i] = ev2.state_post[0]

    q_fn, q_inv = QTransform(g, phi).tabulated(x_max=60.0)
    growth_flow = Flow(dim=1, rhs=lambda x: x.copy(),
                       closed_form=lambda t, x: np.array([g_cf(t, x[0])]))
    rng2 = path_rng(seed, 1)
    xis = rng2.exponential(size=n)
    entry = q_inv(q_fn(x0) + xis)
    if np.any(~np.isfinite(entry)):
        raise InvalidParam("recursion sampling left the tabulated range")
    recursion = np.array([
        0.5 * flow_evolve(growth_flow, [z], t_B)[0] for z in entry
    ])

    ks = two_sample_ks(full, recursion)
    thr = float(cfg.get("ks_threshold", 0.01))
    return {
        "schema_version": 1,
        "n_samples": n,
        "ks_statistic": ks,
        "threshold": thr,
        "passes": {"ks": bool(ks < thr)},
        "all_pass": bool(ks < thr),
    }


def mass_audit(cfg: dict) -> dict:
    """Run the solver suite and report the mass identity for every case.

    Every step already enforces nonnegativity and the identity
    mass + tracked outflow = initial mass (to 1e-10); this experiment simply
    executes representative runs of all four solvers and reports the drifts.
    """
    cases = []
    ok = True

    grid = Grid1D(0.0, 2.0, int(cfg.get("n", 128)))
    f0 = lambda x: math.exp(-((x - 1.0) / 0.2) ** 2)
    d1 = evolve_liouville(grid, lambda x: -x, f0, t_end=2.0,
                          dt=0.4 * grid.h / 2.0)
    cases.append({"kind": "liouville_inward", "mass_drift": d1.mass_drift(),
                  "outflow": d1.outflow})

    d2 = evolve_liouville(grid, lambda x: 1.0, f0, t_end=2.0, dt=0.8 * grid.h)
    cases.append({"kind": "liouville_outflow", "mass_drift": d2.mass_drift(),
                  "outflow": d2.outflow})

    sw_grid = Grid1D(0.0, 1.0, int(cfg.get("n", 128)))
    solver = SwitchingSolver(sw_grid, lambda x: -x, lambda x: 1.0 - x,
                             lambda x: 1.0, lambda x: 1.0, dt=0.4 * sw_grid.h)
    dens = density_from(sw_grid, [lambda x: 0.5, lambda x: 0.5])
    solver.advance(dens, 5.0)
    cases.append({"kind": "switching", "mass_drift": dens.mass_drift(),
                  "outflow": dens.outflow})

    cc_grid = Grid1D(0.0, 8.0, int(cfg.get("n", 128)), dyadic_aligned=True)
    cc = CellCycleSolver(cc_grid, lambda x: x, lambda x: x, dt=0.05 * cc_grid.h)
    dens_cc = density_from(cc_grid, [lambda x: math.exp(-((x - 1.0) / 0.3) ** 2)])
    cc.advance(dens_cc, 5.0)
    cases.append({"kind": "cell_cycle", "mass_drift": dens_cc.mass_drift(),
                  "outflow": dens_cc.outflow})

    tp_grid = Grid1D(0.0, 8.0, 64, dyadic_aligned=True)
    n_y = 40
    dt = 0.5 / n_y
    tp = TwoPhaseSolver(tp_grid, n_y, 0.5, lambda x: x, lambda x: x, dt=dt)
    dens_tp = two_phase_density(tp_grid, n_y, 0.5,
                                lambda x: math.exp(-((x - 1.0) / 0.3) ** 2))
    tp.advance(dens_tp, 3.0)
    cases.append({"kind": "two_phase", "mass_drift": dens_tp.mass_drift(),
                  "outflow": dens_tp.outflow})

    tol = 1e-10
    for case in cases:
        case["ok"] = bool(abs(case["mass_drift"]) <= tol * 10.0)
        ok = ok and case["ok"]
    return {"schema_version": 1, "cases": cases, "tolerance": tol,
            "passes": {"mass": ok}, "all_pass": ok}


def upwind_convergence(cfg: dict) -> dict:
    """First-order convergence of the transport solver against an exact push-forward.

    For the contracting field g(x) = -x the evolved density is known in closed
    form; the L1 error ratio between two grids must sit in the first-order
    window [1.5, 3].
    """
    ns = [int(v) for v in cfg.get("ns", (256, 512))]
    t_end = float(cfg.get("t_end", 0.5))
    x_max = float(cfg.get("x_max", 2.0))
    center, width = 1.0, 0.15

    def f0(x):
        return math.exp(-((x - center) / width) ** 2)

    def exact(x):
        return math.exp(t_end) * f0(x * math.exp(t_end))

    errors = []
    for n in ns:
        grid = Grid1D(0.0, x_max, n)
        dt = 0.45 * grid.h / x_max
        density = evolve_liouville(grid, lambda x: -x, f0, t_end, dt)
        errors.append(l1_distance(density, exact))
    ratio = errors[0] / errors[1]
    lo, hi = (float(v) for v in cfg.get("ratio_window", (1.5, 3.0)))
    ok = lo <= ratio <= hi
    return {
        "schema_version": 1,
        "grids": ns,
        "l1_errors": errors,
        "ratio": ratio,
        "ratio_window": [lo, hi],
        "passes": {"ratio": bool(ok)},
        "all_pass": bool(ok),
    }


def population_moments(cfg: dict) -> dict:
    """Pure-birth mean growth and supercritical-death extinction frequency.

    With no deaths the mean population at t must match e^(b t) within three
    standard errors (a classical pure-birth law); with d/b = 2 the lineage
    must be extinct by the horizon in almost every run.
    """
    seed = int(cfg.get("seed", 31337))
    n_runs = int(cfg.get("n_runs", 10_000))
    t_yule = float(cfg.get("yule_t", 3.0))
    b_yule = float(cfg.get("yule_b", 1.0))

    counts = np.empty(n_runs)
    for i in range(n_runs):
        res = simulate_population(None, b_yule, 0.0, [1.0], t_yule,
                                  path_rng(seed, i), snapshot_times=[t_yule])
        counts[i] = len(res.snapshots[0])
    target = math.exp(b_yule * t_yule)
    mean = float(counts.mean())
    stderr = float(counts.std(ddof=1) / math.sqrt(n_runs))
    z = abs(mean - target) / stderr

    b_ext = float(cfg.get("ext_b", 1.0))
    d_ext = float(cfg.get("ext_d", 2.0))
    horizon = float(cfg.get("ext_horizon", 50.0))
    extinct = 0
    for i in range(n_runs):
        res = simulate_population(None, b_ext, d_ext, [1.0], horizon,
                                  path_rng(seed + 1, i))
        extinct += res.extinction_time is not None
    freq = extinct / n_runs
    thr_freq = float(cfg.get("extinction_threshold", 0.99))

    passes = {"yule_mean": bool(z <= 3.0), "extinction": bool(freq > thr_freq)}
    return {
        "schema_version": 1,
        "n_runs": n_runs,
        "yule_mean": mean,
        "yule_target": target,
        "yule_stderr": stderr,
        "yule_z": z,
        "extinction_frequency": freq,
        "extinction_threshold": thr_freq,
        "passes": passes,
        "all_pass": all(passes.values()),
    }


def _random_poly_field(rng: np.random.Generator, d: int):
    """Random quadratic vector field with an analytic Jacobian."""
    const = rng.normal(size=d)
    lin = rng.normal(size=(d, d))
    quad = rng.normal(size=(d, d)) * 0.5

    def fn(x):
        return const + lin @ x + quad @ (x * x)

    def jac(x):
        return lin + quad * (2.0 * x)[None, :]

    return fn, jac


def hormander_suite(cfg: dict) -> dict:
    """Span checks for the gene fields plus the degenerate and invariance cases.

    The gene pair differs by the constant production rate, so it spans the
    line everywhere; duplicated fields span nothing; and the computed rank is
    invariant under reordering the fields and rescaling them all by a common
    positive constant (checked on randomized polynomial fields).
    """
    p = GeneExpressionParams(**_compiled_params(cfg.get("model_params",
                                       {"P": 1.0, "mu": 1.0, "q0": 1.0, "q1": 1.0})))
    f = p.fields()
    off, on = f.flow(0), f.flow(1)
    points = [float(v) for v in cfg.get("points", (0.1, 0.5, 0.9))]
    gene_ok = all(hormander_check([off, on], [x]).holds for x in points)
    dup_fails = not hormander_check([off, off], [0.5]).holds

    n_cases = int(cfg.get("invariance_cases", 100))
    seed = int(cfg.get("seed", 4242))
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(n_cases):
        d = int(rng.integers(1, 4))
        k = int(rng.integers(2, 4))
        fields = [_random_poly_field(rng, d) for _ in range(k)]
        fns = [f for f, _ in fields]
        jacs = [jc for _, jc in fields]
        x = rng.normal(size=d)
        base = hormander_check(fns, x, depth=2, jacobians=jacs).rank
        perm = rng.permutation(k)
        scale = float(rng.uniform(0.1, 10.0))
        fns2 = [(lambda y, _f=fns[i]: scale * np.asarray(_f(y))) for i in perm]
        jacs2 = [(lambda y, _j=jacs[i]: scale * np.asarray(_j(y))) for i in perm]
        alt = hormander_check(fns2, x, depth=2, jacobians=jacs2).rank
        failures += int(alt != base)

    passes = {"gene_span": bool(gene_ok), "duplicated_fails": bool(dup_fails),
              "invariance": failures == 0}
    return {
        "schema_version": 1,
        "gene_points": points,
        "gene_span_holds": bool(gene_ok),
        "duplicated_fields_fail": bool(dup_fails),
        "invariance_cases": n_cases,
        "invariance_failures": failures,
        "passes": passes,
        "all_pass": all(passes.values()),
    }


COMPARE_MODES: dict = {
    "dwell_ks": dwell_time_ks,
    "gene_stationarity": gene_stationarity,
    "stability_alternative": stability_alternative,
    "recursion_ks": two_phase_recursion,
    "mass_audit": mass_audit,
    "convergence": upwind_convergence,
    "population_moments": population_moments,
    "hormander_suite": hormander_suite,
}


def run_compare(cfg: dict) -> dict:
    mode = cfg.get("mode")
    if mode not in COMPARE_MODES:
        raise ConfigError(f"unknown compare mode {mode!r}; "
                          f"known: {sorted(COMPARE_MODES)}", key="compare.mode")
    return COMPARE_MODES[mode](cfg)
