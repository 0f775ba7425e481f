"""Named experiments connecting simulation, analysis, and solvers.

Each function takes the ``compare:`` section of an experiment file as
:func:`~pdmpkit.config.validate_config` returns it, runs one reproducible
experiment, and returns a JSON-able report with explicit pass flags.  The
acceptance suite and the command-line ``compare`` command share these
implementations.
"""

from __future__ import annotations

import math

import numpy as np

from .config import birth_switch_params, gene_params
from .errors import InvalidParam
from .flows import QTransform, cumulative_hazard, flow_evolve, sample_jump_time
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
    GeneExpressionParams,
    GrowthDivision,
    make_birth_switch,
    make_cell_cycle,
    make_gene_expression,
    simulate_population,
)
from .process import next_event, path_rng, simulate_ensemble
from .stationary import classify, classify_density, hormander_check, stationary_density
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


def _report(passes: dict, **fields) -> dict:
    """An experiment report: its fields, each pass flag as a bool, and ``all_pass``."""
    passes = {k: bool(v) for k, v in passes.items()}
    return {"schema_version": 1, **fields, "passes": passes,
            "all_pass": all(passes.values())}


def dwell_time_ks(cfg: dict) -> dict:
    """Dwell-time law of one gene-expression regime versus its integrated hazard.

    Samples of the regime's holding time are tested (KS at the configured
    level) against F(t) = 1 - exp(-Lambda(t)) with Lambda computed by the
    hazard-integral quadrature from the same starting point.
    """
    model = make_gene_expression(gene_params(cfg["model_params"]))
    regime = model.regimes[cfg["regime"]]
    x0 = np.atleast_1d(np.asarray(cfg["x0"], dtype=float))
    n, alpha = cfg["n"], cfg["alpha"]
    rng = path_rng(cfg["seed"], 0)

    hz = regime.hazards[0].hazard
    draws = np.array([sample_jump_time(regime.flow, hz, x0, rng) for _ in range(n)])
    ks = ks_statistic(draws, lambda ts: cumulative_hazard(regime.flow, hz, x0, ts).cdf())
    band = dkw_epsilon(n, alpha)
    return _report({"ks": ks < band}, n_samples=n, ks_statistic=ks, ks_band=band,
                   alpha=alpha)


def _gene_analytic_fstar(p: GeneExpressionParams):
    dens = stationary_density(p.fields())
    if not dens.is_integrable:
        raise InvalidParam("gene-expression stationary density is not integrable")
    return dens


def gene_stationarity(cfg: dict) -> dict:
    """Occupation measure and grid steady state against the closed-form invariant pair.

    One long path supplies an occupation histogram (fixed-step sampling after
    a half-horizon burn-in); the switching solver is run to its steady state;
    both are compared in L1 against the analytic normalized pair.
    """
    p = gene_params(cfg["model_params"])
    model = make_gene_expression(p)
    dens = _gene_analytic_fstar(p)
    a = p.x_max

    xs, regs = occupation_samples(model, [0.5 * a], 0, cfg["horizon"],
                                  path_rng(cfg["seed"], 0), delta=cfg["delta"])
    mc_grid = Grid1D(0.0, a, cfg["mc_bins"])
    hist = empirical_density(xs, mc_grid, regimes=regs, n_regimes=2)
    l1_mc = l1_distance(hist, [dens.f0, dens.f1])

    grid = Grid1D(0.0, a, cfg["pde_bins"])
    f = p.fields()
    speed = max(abs(f.g0(a)), abs(f.g1(0.0)), p.mu * a, p.P)
    dt = 0.45 * grid.h / speed
    solver = SwitchingSolver(grid, f.g0, f.g1, f.q0, f.q1, dt)
    density = density_from(grid, [lambda x: 0.5 / a, lambda x: 0.5 / a])
    density, converged = steady_state(solver, density, tol=cfg["tol"], t_max=cfg["t_max"])
    l1_pde = l1_distance(density, [dens.f0, dens.f1])

    thr_mc, thr_pde = cfg["mc_threshold"], cfg["pde_threshold"]
    passes = {"mc_l1": l1_mc < thr_mc, "pde_l1": l1_pde < thr_pde,
              "pde_converged": converged}
    return _report(passes, n_occupation_samples=int(xs.size), l1_mc_vs_analytic=l1_mc,
                   l1_pde_vs_analytic=l1_pde, pde_converged=bool(converged),
                   pde_mass_drift=density.mass_drift(),
                   thresholds={"mc_l1": thr_mc, "pde_l1": thr_pde})


def stability_alternative(cfg: dict) -> dict:
    """The stability/sweeping alternative on two birth-switch parameter sets.

    The stable set must classify Stable and its occupation histogram must
    L1-match the normalized stationary pair; the sweeping set must classify
    Sweeping, concentrate its ensemble below eps, and show the predicted
    regime mix among the near-zero paths.
    """
    ps, pw = birth_switch_params(cfg["stable"]), birth_switch_params(cfg["sweeping"])
    seed = cfg["seed"]
    out: dict = {}
    passes: dict = {}

    dens = stationary_density(ps.fields())
    rep_s = classify_density(dens)
    out["stable_report"] = rep_s.to_dict()
    passes["stable_verdict"] = rep_s.verdict == "Stable"

    model_s = make_birth_switch(ps)
    xs, regs = occupation_samples(model_s, [0.5 * ps.attractor_end], 0,
                                  cfg["stable_horizon"], path_rng(seed, 0), delta=cfg["delta"])
    grid = Grid1D(0.0, ps.attractor_end, cfg["mc_bins"])
    hist = empirical_density(xs, grid, regimes=regs, n_regimes=2)
    l1 = l1_distance(hist, [dens.f0, dens.f1])
    thr_l1 = cfg["l1_threshold"]
    out["stable_l1"] = l1
    out["stable_out_of_range"] = hist.out_of_range
    passes["stable_l1"] = l1 < thr_l1

    rep_w = classify(pw.fields())
    out["sweeping_report"] = rep_w.to_dict()
    passes["sweeping_verdict"] = rep_w.verdict == "Sweeping"

    model_w = make_birth_switch(pw)
    t_final = cfg["sweep_time"]
    times = sorted(set(cfg["sweep_snapshots"] + [t_final]))
    x_start = 0.6 * pw.attractor_end

    def init(rng):
        return np.array([x_start]), 0

    ens = simulate_ensemble(model_w, init, t_final, cfg["sweep_paths"], seed + 1,
                            snapshot_times=times)
    if ens.errors:
        raise ens.errors[0][1]
    sweep = sweeping_mass(ens.snapshot_times, ens.snapshot_states,
                          ens.snapshot_regimes, cfg["eps"])
    i_final = sweep.times.index(t_final)
    mass = float(sweep.mass_total[i_final])
    freq = sweep.regime_freq_small[i_final]
    thr_mass, freq_tol = cfg["sweep_mass_threshold"], cfg["regime_freq_tol"]
    out["sweeping_mass"] = sweep.to_dict()
    out["sweeping_mass_final"] = mass
    out["regime_freq_final"] = [float(v) for v in freq]
    out["regime_freq_target"] = [rep_w.p0, rep_w.p1]
    passes["sweep_mass"] = mass > thr_mass
    passes["regime_freq"] = (
        abs(freq[0] - rep_w.p0) < freq_tol and abs(freq[1] - rep_w.p1) < freq_tol
    )

    out["thresholds"] = {"l1": thr_l1, "sweep_mass": thr_mass,
                         "regime_freq_tol": freq_tol}
    return _report(passes, **out)


def two_phase_recursion(cfg: dict) -> dict:
    """Post-division sizes: full two-phase simulation versus the size recursion.

    One generation is run from a fixed mother size through the engine (random
    phase-A dwell, fixed phase-B duration, halving); independently the same
    law is sampled through the cumulative growth transform with fresh unit
    exponentials.  The two samples must agree in Kolmogorov-Smirnov distance.
    """
    t_B, x0, n, seed = cfg["t_B"], cfg["x0"], cfg["n"], cfg["seed"]
    params = GrowthDivision(g=lambda x: x, phi=lambda x: x, t_B=t_B,
                            g_closed_form=lambda t, x: x * np.exp(t))
    model = make_cell_cycle(params)

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

    q_fn, q_inv = QTransform(params.g, params.phi_fn).tabulated(x_max=60.0)
    growth_flow = params.flow()
    rng2 = path_rng(seed, 1)
    xis = rng2.exponential(size=n)
    entry = q_inv(q_fn(x0) + xis)
    if np.any(~np.isfinite(entry)):
        raise InvalidParam("recursion sampling left the tabulated range")
    recursion = np.array([
        0.5 * flow_evolve(growth_flow, [z], t_B)[0] for z in entry
    ])

    ks = two_sample_ks(full, recursion)
    thr = cfg["ks_threshold"]
    return _report({"ks": ks < thr}, n_samples=n, ks_statistic=ks, threshold=thr)


def mass_audit(cfg: dict) -> dict:
    """Run the solver suite and report the mass identity for every case.

    Every step already enforces nonnegativity and the identity
    mass + tracked outflow = initial mass (to 1e-10); this experiment simply
    executes representative runs of all four solvers and reports the drifts.
    """
    cases = []
    ok = True

    n = cfg["n"]
    grid = Grid1D(0.0, 2.0, n)
    f0 = lambda x: math.exp(-((x - 1.0) / 0.2) ** 2)
    d1 = evolve_liouville(grid, lambda x: -x, f0, t_end=2.0,
                          dt=0.4 * grid.h / 2.0)
    cases.append({"kind": "liouville_inward", "mass_drift": d1.mass_drift(),
                  "outflow": d1.outflow})

    d2 = evolve_liouville(grid, lambda x: 1.0, f0, t_end=2.0, dt=0.8 * grid.h)
    cases.append({"kind": "liouville_outflow", "mass_drift": d2.mass_drift(),
                  "outflow": d2.outflow})

    sw_grid = Grid1D(0.0, 1.0, n)
    solver = SwitchingSolver(sw_grid, lambda x: -x, lambda x: 1.0 - x,
                             lambda x: 1.0, lambda x: 1.0, dt=0.4 * sw_grid.h)
    dens = density_from(sw_grid, [lambda x: 0.5, lambda x: 0.5])
    solver.advance(dens, 5.0)
    cases.append({"kind": "switching", "mass_drift": dens.mass_drift(),
                  "outflow": dens.outflow})

    cc_grid = Grid1D(0.0, 8.0, n, dyadic_aligned=True)
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
    return _report({"mass": ok}, cases=cases, tolerance=tol)


def upwind_convergence(cfg: dict) -> dict:
    """First-order convergence of the transport solver against an exact push-forward.

    For the contracting field g(x) = -x the evolved density is known in closed
    form; the L1 error ratio between two grids must sit in the first-order
    window [1.5, 3].
    """
    ns, t_end, x_max = cfg["ns"], cfg["t_end"], cfg["x_max"]
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
    lo, hi = cfg["ratio_window"]
    ok = lo <= ratio <= hi
    return _report({"ratio": ok}, grids=ns, l1_errors=errors, ratio=ratio,
                   ratio_window=[lo, hi])


def population_moments(cfg: dict) -> dict:
    """Pure-birth mean growth and supercritical-death extinction frequency.

    With no deaths the mean population at t must match e^(b t) within three
    standard errors (a classical pure-birth law); with d/b = 2 the lineage
    must be extinct by the horizon in almost every run.
    """
    seed, n_runs, t_yule, b_yule = cfg["seed"], cfg["n_runs"], cfg["yule_t"], cfg["yule_b"]

    counts = np.empty(n_runs)
    for i in range(n_runs):
        res = simulate_population(None, b_yule, 0.0, [1.0], t_yule,
                                  path_rng(seed, i), snapshot_times=[t_yule])
        counts[i] = len(res.snapshots[0])
    target = math.exp(b_yule * t_yule)
    mean = float(counts.mean())
    stderr = float(counts.std(ddof=1) / math.sqrt(n_runs))
    z = abs(mean - target) / stderr

    extinct = 0
    for i in range(n_runs):
        res = simulate_population(None, cfg["ext_b"], cfg["ext_d"], [1.0], cfg["ext_horizon"],
                                  path_rng(seed + 1, i))
        extinct += res.extinction_time is not None
    freq = extinct / n_runs
    thr_freq = cfg["extinction_threshold"]

    return _report({"yule_mean": z <= 3.0, "extinction": freq > thr_freq},
                   n_runs=n_runs, yule_mean=mean, yule_target=target, yule_stderr=stderr,
                   yule_z=z, extinction_frequency=freq, extinction_threshold=thr_freq)


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
    positive constant (checked on randomized polynomial fields).  ``cfg`` is the
    ``hormander:`` section or a ``hormander_suite`` compare section.
    """
    f = gene_params(cfg["model_params"]).fields()
    off, on = f.flow(0), f.flow(1)
    points = cfg["points"]
    gene_ok = all(hormander_check([off, on], [x]).holds for x in points)
    dup_fails = not hormander_check([off, off], [0.5]).holds

    n_cases = cfg["invariance_cases"]
    rng = np.random.default_rng(cfg["seed"])
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

    passes = {"gene_span": gene_ok, "duplicated_fails": dup_fails,
              "invariance": failures == 0}
    return _report(passes, gene_points=points, gene_span_holds=bool(gene_ok),
                   duplicated_fields_fail=bool(dup_fails), invariance_cases=n_cases,
                   invariance_failures=failures)


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
    """The report of the validated compare section ``cfg``'s mode."""
    return COMPARE_MODES[cfg["mode"]](cfg)
