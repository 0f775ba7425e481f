"""Concrete models against trivial identities and independent oracles."""

import math
from collections import Counter

import numpy as np
import pytest
from scipy.integrate import quad

import pdmpkit as pk
from pdmpkit import (
    AlleeParams,
    BirthSwitchParams,
    GeneExpressionParams,
    GrowthDivision,
    SteinParams,
)
from pdmpkit.errors import InvalidParam, PopulationBlowup
from pdmpkit.models import allee_interior_roots


class TestParamValidation:
    @pytest.mark.parametrize("bad", [
        dict(P=-1.0, mu=1.0, q0=1.0, q1=1.0),
        dict(P=1.0, mu=0.0, q0=1.0, q1=1.0),
        dict(P=1.0, mu=1.0, q0=0.0, q1=1.0),
        dict(P=1.0, mu=1.0, q0=lambda x: x - 0.5, q1=1.0),
    ])
    def test_gene_invalid(self, bad):
        with pytest.raises(InvalidParam):
            GeneExpressionParams(**bad)

    def test_invalid_param_names_constraint(self):
        with pytest.raises(InvalidParam, match="b0 < mu"):
            BirthSwitchParams(b0=2.0, b1=3.0, c=1.0, mu=1.0, q0=1.0, q1=1.0)
        with pytest.raises(InvalidParam, match="mu < b1"):
            BirthSwitchParams(b0=0.5, b1=0.9, c=1.0, mu=1.0, q0=1.0, q1=1.0)

    def test_allee_shape_constraint(self):
        with pytest.raises(InvalidParam, match="4"):
            AlleeParams(lam=1.0, K=10.0, A=5.0, B=1.0, q01=1.0, q10=1.0)
        with pytest.raises(InvalidParam, match="K"):
            AlleeParams(lam=1.0, K=0.5, A=1.5, B=1.0, q01=1.0, q10=1.0)

    def test_stein_invalid(self):
        with pytest.raises(InvalidParam):
            SteinParams(alpha=-1.0, a_E=0.5, a_I=0.5, lambda_E=1.0, lambda_I=1.0,
                        theta=1.0, t_R=0.1)
        with pytest.raises(InvalidParam):
            SteinParams(alpha=1.0, a_E=0.5, a_I=0.5, lambda_E=0.0, lambda_I=1.0,
                        theta=1.0, t_R=0.1)

    def test_cell_cycle_divergence_conditions(self):
        # int^inf 1/g finite for g = x^2: rejected
        with pytest.raises(InvalidParam, match="1/g"):
            pk.make_cell_cycle(GrowthDivision(lambda x: x * x, lambda x: x * x))
        with pytest.raises(InvalidParam, match="phi/g"):
            pk.make_cell_cycle(GrowthDivision(lambda x: x, lambda x: x / (1.0 + x ** 3)))

    def test_grasshopper_telegraph_invalid(self):
        with pytest.raises(InvalidParam):
            pk.make_grasshopper(0.0, lambda rng: 1.0)
        with pytest.raises(InvalidParam):
            pk.make_telegraph(1.0, -1.0)


class TestGrasshopper:
    def test_poisson_jump_count(self):
        model = pk.make_grasshopper(2.0, lambda rng: rng.normal())
        n = 20_000
        counts = np.empty(n)
        for i in range(n):
            traj = pk.simulate_trajectory(model, [0.0], 0, 10.0, pk.path_rng(40, i))
            counts[i] = len(traj.jumps)
        stderr = counts.std(ddof=1) / math.sqrt(n)
        assert abs(counts.mean() - 20.0) < 3.0 * stderr

    def test_symmetric_jumps_mean_zero(self):
        model = pk.make_grasshopper(1.0, lambda rng: 1.0 if rng.uniform() < 0.5 else -1.0)
        n = 20_000
        finals = np.empty(n)
        for i in range(n):
            traj = pk.simulate_trajectory(model, [0.0], 0, 10.0, pk.path_rng(41, i))
            finals[i] = traj.state_at(10.0)[0][0]
        stderr = finals.std(ddof=1) / math.sqrt(n)
        assert abs(finals.mean()) < 3.0 * stderr


class TestTelegraph:
    def test_variance_against_fine_step_oracle(self):
        # oracle: direct Poisson-event simulation on a dt = 1e-3 grid,
        # fully independent of the event-driven engine
        lam, c, t_end = 1.0, 1.0, 5.0
        n = 20_000
        model = pk.make_telegraph(lam, c)

        def init(rng):
            v = c if rng.uniform() < 0.5 else -c
            return np.array([0.0, v]), 0

        ens = pk.simulate_ensemble(model, init, t_end, n, seed=42)
        xs = ens.final_states[:, 0]

        rng = np.random.default_rng(4242)
        dt = 1e-3
        steps = int(round(t_end / dt))
        xo = np.zeros(n)
        v = np.where(rng.uniform(size=n) < 0.5, c, -c)
        for _ in range(steps):
            xo += v * dt
            flip = rng.uniform(size=n) < lam * dt
            v = np.where(flip, -v, v)

        var_a, var_b = xs.var(ddof=1), xo.var(ddof=1)
        se = math.sqrt(2.0 / (n - 1)) * math.sqrt(var_a ** 2 + var_b ** 2)
        assert abs(var_a - var_b) < 3.0 * se


class TestCellCycleRoutes:
    """make_cell_cycle keeps each jump-time route, in both phase layouts."""

    @staticmethod
    def build(phi, closed, t_B):
        gc = (lambda t, x: x * np.exp(t)) if closed else None
        model = pk.make_cell_cycle(GrowthDivision(lambda x: x, phi, t_B, gc))
        assert model.name == ("cell_cycle_1p" if t_B is None else "cell_cycle_2p")
        regime = model.regimes[0]
        return regime.flow, regime.hazards[0].hazard

    @pytest.mark.parametrize("t_B", [None, 0.5])
    def test_numeric_phi_keeps_the_constant_rate(self, t_B):
        _, hz = self.build(1.5, True, t_B)
        assert hz.const_rate == 1.5

    @pytest.mark.parametrize("t_B", [None, 0.5])
    def test_phi_function_with_closed_form_gets_rate_along(self, t_B):
        flow, hz = self.build(lambda x: 0.9 * x, True, t_B)
        assert hz.const_rate is None and hz.upper_bound is None
        assert flow.closed_form is not None
        # the rate along the flow, as the Chebyshev panels evaluate it at their nodes
        x0 = (1.2,) + (0.0,) * (flow.dim - 1)
        for t in (0.1, 0.6):
            assert hz.tuple_rate(flow.tuple_closed(t, x0)) == pytest.approx(
                0.9 * 1.2 * math.exp(t))

    @pytest.mark.parametrize("t_B", [None, 0.5])
    def test_without_closed_form_takes_the_ode_route(self, t_B):
        flow, hz = self.build(lambda x: 0.9 * x, False, t_B)
        assert hz.const_rate is None and hz.upper_bound is None
        assert flow.closed_form is None


class TestCellCycleOnePhase:
    def test_constant_hazard_interdivision_times(self):
        model = pk.make_cell_cycle(GrowthDivision(lambda x: x, 1.5,
                                                   g_closed_form=lambda t, x: x * np.exp(t)))
        rng = pk.path_rng(43, 0)
        n = 40_000
        taus = []
        for t_jump, reg, ev in pk.iter_events(model, [1.0], 0, rng, 1e9):
            taus.append(ev.dt)
            if len(taus) >= n:
                break
        ks = pk.ks_statistic(np.array(taus), lambda t: -np.expm1(-1.5 * t))
        assert ks < pk.dkw_epsilon(n, 0.01)

    def test_division_halves_size(self):
        model = pk.make_cell_cycle(GrowthDivision(lambda x: x, lambda x: x,
                                                   g_closed_form=lambda t, x: x * np.exp(t)))
        traj = pk.simulate_trajectory(model, [1.0], 0, 30.0, pk.path_rng(44, 0))
        for j in traj.jumps:
            assert j.state_post[0] == pytest.approx(0.5 * j.state_pre[0], abs=1e-14)

    def test_occupation_matches_master_equation_steady_state(self):
        # dual numerical routes: event-driven occupation measure vs the
        # division master equation solved on a dyadic grid
        model = pk.make_cell_cycle(GrowthDivision(lambda x: x, lambda x: x,
                                                   g_closed_form=lambda t, x: x * np.exp(t)))
        horizon = 1.0e6
        xs, _ = pk.occupation_samples(model, [1.0], 0, horizon, pk.path_rng(45, 0),
                                      delta=2.0)
        assert xs.size >= 200_000

        # note: this growth law is scale invariant (g(2x) = 2 g(x)), which
        # makes ln X - t mod ln 2 a conserved phase; the grid solution keeps a
        # small rotating component, so compare a fixed long-time profile (the
        # occupation measure averages the rotation out)
        grid = pk.Grid1D(0.0, 8.0, 1024, dyadic_aligned=True)
        solver = pk.CellCycleSolver(grid, lambda x: x, lambda x: x,
                                    dt=0.4 * grid.h / 8.0)
        density = pk.density_from(grid, [lambda x: math.exp(-((x - 1.0) / 0.3) ** 2)])
        density.values /= density.mass()
        density.initial_mass = density.mass()
        solver.advance(density, 40.0)

        from pdmpkit.transport import coarsen_density
        coarse = coarsen_density(density, 8)       # 128 comparison cells
        # the tracked boundary outflow is exactly the truncation loss; rescale
        # to a probability density before comparing with the histogram
        assert abs(density.mass() + density.outflow - 1.0) < 1e-9
        pde_profile = coarse.values / coarse.mass()
        hist = pk.empirical_density(xs, coarse.grid)
        out_frac = hist.out_of_range / hist.n_samples
        assert out_frac < 1e-3
        assert pk.l1_distance(hist, pde_profile) < 0.05


class TestRubinow:
    def test_unit_growth_cycle(self):
        model = pk.make_rubinow(1.0, 1.0)
        traj = pk.simulate_trajectory(model, [1.0], 0, 4.5, pk.path_rng(46, 0))
        assert [round(j.t, 9) for j in traj.jumps] == [1.0, 2.0, 3.0, 4.0]
        assert all(j.state_post[0] == 1.0 for j in traj.jumps)

    def test_cycle_duration_is_growth_integral(self):
        g = lambda x: 1.0 + 0.5 * x
        m = 0.8
        expected, _ = quad(lambda r: 1.0 / g(r), m, 2.0 * m)
        model = pk.make_rubinow(g, m)
        traj = pk.simulate_trajectory(model, [m], 0, 3.0 * expected, pk.path_rng(46, 1))
        durations = np.diff([0.0] + [j.t for j in traj.jumps])
        assert np.allclose(durations, expected, atol=1e-8)


class TestTwoPhase:
    def make_model(self, t_B=0.5):
        return pk.make_cell_cycle(GrowthDivision(g=lambda x: x, phi=lambda x: x, t_B=t_B,
                                                 g_closed_form=lambda t, x: x * np.exp(t)))

    def test_lifespan_law(self):
        # life span = t_B + a draw whose law is the integrated phase-entry
        # hazard from the mother size; in particular it has no mass below t_B
        model = self.make_model()
        rng = pk.path_rng(47, 0)
        x0 = 1.0
        n = 20_000
        spans = np.empty(n)
        for i in range(n):
            e1 = pk.next_event(model, np.array([x0, 0.0]), 0, rng, t_max=1e6)
            e2 = pk.next_event(model, e1.state_post, 1, rng, t_max=1e6)
            spans[i] = e1.dt + e2.dt
        assert spans.min() >= 0.5
        # Lambda(t) = x0 (e^t - 1) for the phase-A dwell
        cdf = lambda t: np.where(t < 0.5, 0.0, -np.expm1(-x0 * (np.exp(t - 0.5) - 1.0)))
        assert pk.ks_statistic(spans, cdf) < pk.dkw_epsilon(n, 0.01)

    def test_phase_b_residence_exact(self):
        model = self.make_model()
        traj = pk.simulate_trajectory(model, [1.0, 0.0], 0, 40.0, pk.path_rng(47, 1))
        entries = [j.t for j in traj.jumps if j.kind == "phase_b_entry"]
        divisions = [j.t for j in traj.jumps if j.kind == "division"]
        for s, t in zip(entries, divisions):
            assert t - s == pytest.approx(0.5, abs=1e-10)

    def test_y_tracks_time_in_phase_b(self):
        model = self.make_model()
        traj = pk.simulate_trajectory(model, [1.0, 0.0], 0, 20.0, pk.path_rng(47, 2))
        for j in traj.jumps:
            if j.kind == "division":
                assert j.state_pre[1] == pytest.approx(0.5, abs=1e-10)
            else:
                assert j.state_post[1] == 0.0


class TestGeneExpression:
    def test_constant_rate_dwell_is_exponential(self):
        p = GeneExpressionParams(P=1.0, mu=1.0, q0=2.0, q1=1.0)
        model = pk.make_gene_expression(p)
        regime = model.regimes[0]
        rng = pk.path_rng(48, 0)
        n = 50_000
        draws = np.array([
            pk.sample_jump_time(regime.flow, regime.hazards[0].hazard, [0.5], rng)
            for _ in range(n)
        ])
        assert pk.ks_statistic(draws, lambda t: -np.expm1(-2.0 * t)) < pk.dkw_epsilon(n, 0.01)

    def test_active_dwell_matches_integrated_hazard(self):
        p = GeneExpressionParams(P=1.0, mu=1.0, q0=1.0, q1=lambda x: 1.0 + x)
        model = pk.make_gene_expression(p)
        regime = model.regimes[1]
        x0 = 0.2
        rng = pk.path_rng(901, 0)
        n = 100_000
        draws = np.array([
            pk.sample_jump_time(regime.flow, regime.hazards[0].hazard, [x0], rng)
            for _ in range(n)
        ])
        # Lambda(t) = 2t - (1 - x0)(1 - e^{-t}) for q1 = 1 + x along the active flow
        cdf = lambda t: -np.expm1(-(2.0 * t - (1.0 - x0) * (1.0 - np.exp(-t))))
        assert pk.ks_statistic(draws, cdf) < pk.dkw_epsilon(n, 0.01)


class TestStein:
    def test_every_excitation_fires_when_jump_clears_threshold(self):
        p = SteinParams(alpha=1.0, a_E=1.2, a_I=0.5, lambda_E=2.0, lambda_I=0.0,
                        theta=1.0, t_R=0.2)
        model = pk.make_stein(p)
        traj = pk.simulate_trajectory(model, [0.0, 0.0], 0, 4000.0, pk.path_rng(49, 0))
        kinds = Counter(j.kind for j in traj.jumps)
        assert kinds["excite"] == 0 and kinds["inhibit"] == 0
        fires = np.array([j.t for j in traj.jumps if j.kind == "fire"])
        gaps = np.diff(fires)
        stderr = gaps.std(ddof=1) / math.sqrt(gaps.size)
        assert abs(gaps.mean() - (0.2 + 0.5)) < 3.0 * stderr

    def test_refractory_duration_exact(self):
        p = SteinParams(alpha=1.0, a_E=0.6, a_I=0.5, lambda_E=2.0, lambda_I=1.0,
                        theta=1.0, t_R=0.2)
        model = pk.make_stein(p)
        traj = pk.simulate_trajectory(model, [0.0, 0.0], 0, 300.0, pk.path_rng(49, 1))
        fires = [j.t for j in traj.jumps if j.kind == "fire"]
        ends = [j.t for j in traj.jumps if j.kind == "refractory_end"]
        assert len(fires) >= 10
        for f, e in zip(fires, ends):
            assert e - f == pytest.approx(0.2, abs=1e-10)

    def test_subthreshold_invariant(self):
        p = SteinParams(alpha=1.0, a_E=0.6, a_I=0.5, lambda_E=2.0, lambda_I=1.0,
                        theta=1.0, t_R=0.2)
        model = pk.make_stein(p)
        traj = pk.simulate_trajectory(model, [0.0, 0.0], 0, 500.0, pk.path_rng(49, 2))
        for j in traj.jumps:
            if j.regime_post == 0:
                assert j.state_post[0] < p.theta
            if j.kind == "fire":
                assert j.state_pre[0] >= p.theta - p.a_E

    @staticmethod
    def _firing_rate_oracle(p, horizon, n_paths, seed):
        """Direct simulation from explicit Poisson event lists (engine-free)."""
        rng = np.random.default_rng(seed)
        lam = p.lambda_E + p.lambda_I
        total = 0
        for _ in range(n_paths):
            v = 0.0
            t = 0.0
            fires = 0
            while True:
                gap = rng.exponential(1.0 / lam)
                t += gap
                if t >= horizon:
                    break
                v *= math.exp(-p.alpha * gap)
                if rng.uniform() * lam < p.lambda_E:
                    if v < p.theta - p.a_E:
                        v += p.a_E
                    else:
                        fires += 1
                        v = 0.0
                        t += p.t_R       # refractory: clock frozen at V = 0
                else:
                    v -= p.a_I
            total += fires
        return total / (horizon * n_paths)

    def test_firing_rate_matches_event_list_oracle(self):
        p = SteinParams(alpha=1.0, a_E=0.6, a_I=0.5, lambda_E=2.0, lambda_I=1.0,
                        theta=1.0, t_R=0.2)
        model = pk.make_stein(p)
        horizon, n_paths = 400.0, 60
        counts = np.empty(n_paths)
        for i in range(n_paths):
            traj = pk.simulate_trajectory(model, [0.0, 0.0], 0, horizon,
                                          pk.path_rng(50, i))
            counts[i] = sum(j.kind == "fire" for j in traj.jumps)
        rate = counts.mean() / horizon
        se_engine = counts.std(ddof=1) / math.sqrt(n_paths) / horizon

        oracle_runs = np.array([
            self._firing_rate_oracle(p, horizon, 1, seed=7000 + i)
            for i in range(n_paths)
        ])
        rate_o = oracle_runs.mean()
        se_oracle = oracle_runs.std(ddof=1) / math.sqrt(n_paths)
        se = math.hypot(se_engine, se_oracle)
        assert abs(rate - rate_o) < 3.0 * se


class TestAllee:
    def params(self):
        return AlleeParams(lam=1.0, K=10.0, A=2.0, B=1.0, q01=1.0, q10=1.0)

    def test_frozen_flows_limits(self):
        model = pk.make_allee(self.params())
        x1, x2 = allee_interior_roots(self.params())
        f0, f1 = model.regimes[0].flow, model.regimes[1].flow
        assert pk.flow_evolve(f0, [0.5], 80.0)[0] == pytest.approx(10.0, abs=1e-6)
        assert pk.flow_evolve(f1, [1.2 * x1], 120.0)[0] == pytest.approx(x2, abs=1e-6)
        assert pk.flow_evolve(f1, [0.8 * x1], 120.0)[0] == pytest.approx(0.0, abs=1e-6)

    def test_attractor_interval_invariant(self):
        model = pk.make_allee(self.params())
        x1, x2 = allee_interior_roots(self.params())
        K = 10.0
        # sign structure at the interval ends keeps [x2, K] invariant
        g0 = model.regimes[0].flow
        g1 = model.regimes[1].flow
        assert g0.tuple_rhs((x2,))[0] > 0 and g1.tuple_rhs((K,))[0] < 0
        traj = pk.simulate_trajectory(model, [0.5 * (x2 + K)], 0, 200.0,
                                      pk.path_rng(51, 0))
        for j in traj.jumps:
            assert x2 - 1e-9 <= j.state_pre[0] <= K + 1e-9


class TestBirthSwitch:
    def params(self):
        return BirthSwitchParams(b0=0.5, b1=2.0, c=1.0, mu=1.0, q0=1.0, q1=1.0)

    def test_sign_structure(self):
        model = pk.make_birth_switch(self.params())
        g0 = model.regimes[0].flow
        g1 = model.regimes[1].flow
        a = self.params().attractor_end
        for x in np.linspace(0.01, 3.0, 50):
            assert g0.tuple_rhs((x,))[0] < 0.0
        assert abs(g1.tuple_rhs((a,))[0]) < 1e-12
        for x in np.linspace(0.01, a - 0.01, 25):
            assert g1.tuple_rhs((x,))[0] > 0.0

    def test_attractor_interval_stays(self):
        model = pk.make_birth_switch(self.params())
        a = self.params().attractor_end
        traj = pk.simulate_trajectory(model, [0.4 * a], 0, 300.0, pk.path_rng(52, 0))
        for j in traj.jumps:
            assert 0.0 < j.state_pre[0] <= a + 1e-9

    def test_closed_form_matches_ode(self):
        model = pk.make_birth_switch(self.params())
        for reg in model.regimes:
            closed = reg.flow
            ode = pk.Flow(dim=1, rhs=closed.rhs)
            for x0 in (0.1, 0.6, 1.4):
                for t in (0.5, 2.0, 8.0):
                    assert pk.flow_evolve(closed, [x0], t)[0] == pytest.approx(
                        pk.flow_evolve(ode, [x0], t)[0], abs=1e-8)


class TestPopulation:
    def test_growth_only_is_monotone(self):
        res = pk.simulate_population(None, 1.0, 0.0, [1.0], 4.0, pk.path_rng(53, 0),
                                     snapshot_times=[1.0, 2.0, 3.0, 4.0])
        sizes = [len(s) for s in res.snapshots]
        assert sizes == sorted(sizes)
        assert all(ev.kind == "division" for ev in res.events)

    def test_subcritical_extinction_probability(self):
        # classical birth-death chain: extinction probability min(1, d/b); a
        # lineage that reaches 50 cells survives with probability 1 - 2^-50,
        # so the cell cap stands in for escape to infinity
        b, d = 2.0, 1.0
        n = 2000
        extinct = 0
        for i in range(n):
            try:
                res = pk.simulate_population(None, b, d, [1.0], 100.0,
                                             pk.path_rng(54, i), max_cells=50)
                extinct += res.extinction_time is not None
            except PopulationBlowup:
                pass
        freq = extinct / n
        target = d / b
        se = math.sqrt(target * (1 - target) / n)
        assert abs(freq - target) < 3.5 * se

    def test_hazard_bookkeeping_drift(self):
        res = pk.simulate_population(None, lambda x: x, lambda x: 0.3 * x,
                                     [1.0, 0.7, 2.2], 6.0, pk.path_rng(55, 0))
        assert res.max_hazard_drift <= 1e-9

    def test_blowup_cap(self):
        with pytest.raises(PopulationBlowup):
            pk.simulate_population(None, 5.0, 0.0, [1.0], 10.0, pk.path_rng(56, 0),
                                   max_cells=64)

    def test_frozen_sizes_evaluate_b_once_per_new_cell(self):
        calls = []
        b = lambda x: calls.append(x) or 1.0
        res = pk.simulate_population(None, b, 0.5, [1.0, 2.0, 3.0], 1.0, pk.path_rng(60, 0))
        n_div = sum(ev.kind == "division" for ev in res.events)
        assert n_div > 0
        # each initial cell once, then the one daughter size of each division
        assert len(calls) == 3 + n_div

    def test_growing_sizes_evaluate_b_once_per_cell_and_event(self):
        # every right-hand-side call of the product flow evaluates g and b
        # once per cell; the b calls beyond those are the event's weights pass
        counts = {"g": 0, "b": 0}

        def g(x):
            counts["g"] += 1
            return 0.1 * x

        def b(x):
            counts["b"] += 1
            return x

        res = pk.simulate_population(g, b, 0.2, [1.0, 1.5], 1.0, pk.path_rng(61, 0))
        assert res.events
        cells_at_events = sum(ev.n_after - 1 if ev.kind == "division" else ev.n_after + 1
                              for ev in res.events)
        assert counts["b"] - counts["g"] == cells_at_events

    def test_growing_sizes_ode_route(self):
        # sizes must follow x' = g(x) between events; with pure growth and no
        # events the snapshot is the exact flow map
        res = pk.simulate_population(lambda x: x, 0.0, 0.0, [1.0, 2.0], 1.0,
                                     pk.path_rng(57, 0), snapshot_times=[1.0])
        assert res.snapshots[0] == pytest.approx(
            [math.e, 2.0 * math.e], abs=1e-8)

    def test_ode_route_division_selects_by_rate(self):
        # b(x) = x: the larger cell divides more often
        res = pk.simulate_population(lambda x: 0.1 * x, lambda x: x, 0.0,
                                     [0.5, 5.0], 0.6, pk.path_rng(58, 0))
        parents = [ev.parent_size for ev in res.events]
        assert parents and np.mean([p > 1.0 for p in parents]) > 0.7

    def test_yule_mean_ode_route_short(self):
        n, t_end = 1200, 1.2
        counts = np.empty(n)
        for i in range(n):
            res = pk.simulate_population(lambda x: 0.0, 1.0, 0.0, [1.0], t_end,
                                         pk.path_rng(59, i), snapshot_times=[t_end])
            counts[i] = len(res.snapshots[0])
        stderr = counts.std(ddof=1) / math.sqrt(n)
        assert abs(counts.mean() - math.exp(t_end)) < 3.0 * stderr
