"""Engine behavior: competing causes, clocks, trajectories, ensembles, export."""

import csv
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import pdmpkit
from pdmpkit import (
    DeterministicClock,
    FixedDelay,
    Flow,
    Hazard,
    HazardChannel,
    JumpKernel,
    PdmpModel,
    Regime,
    dkw_epsilon,
    flow_evolve,
    iter_events,
    ks_statistic,
    make_gene_expression,
    make_grasshopper,
    make_telegraph,
    make_two_phase_cell_cycle,
    next_event,
    path_rng,
    simulate_ensemble,
    simulate_trajectory,
)
from pdmpkit import GeneExpressionParams, TwoPhaseCellCycleParams
from pdmpkit.errors import InvalidParam, JumpBudgetExceeded, NonFinite
from pdmpkit.process import snapshots_to_csv, trajectories_to_csv

TOL_FLOW = 1e-10


def frozen_flow(dim=1):
    return Flow(dim=dim, rhs=lambda x: np.zeros(dim),
                closed_form=lambda t, x: x.copy())


def two_hazard_model(lam1=1.0, lam2=3.0):
    k1 = JumpKernel(lambda x, r, rng: (x + 1.0, 0, "cause1"))
    k2 = JumpKernel(lambda x, r, rng: (x - 1.0, 0, "cause2"))
    regime = Regime(0, frozen_flow(), hazards=(
        HazardChannel(Hazard.constant(lam1), k1, "cause1"),
        HazardChannel(Hazard.constant(lam2), k2, "cause2"),
    ))
    return PdmpModel("two_causes", (regime,))


def ticking_model():
    """Two regimes that hand over to each other one time unit after entry."""
    regimes = tuple(
        Regime(i, frozen_flow(), clocks=(DeterministicClock(
            FixedDelay(1.0), JumpKernel(lambda x, r, rng: (x + 1.0, 1 - r))),))
        for i in (0, 1))
    return PdmpModel("ticker", regimes)


class TestNextEvent:
    def test_competing_hazards_superposition(self):
        # first-event time of independent causes is Exp(sum); the faster cause
        # is selected with probability lam2 / (lam1 + lam2)
        model = two_hazard_model(1.0, 3.0)
        rng = path_rng(11, 0)
        n = 100_000
        times = np.empty(n)
        cause2 = 0
        for i in range(n):
            ev = next_event(model, np.zeros(1), 0, rng, t_max=1e9)
            times[i] = ev.dt
            cause2 += ev.kind == "cause2"
        assert ks_statistic(times, lambda t: -np.expm1(-4.0 * t)) < dkw_epsilon(n, 0.01)
        freq = cause2 / n
        assert abs(freq - 0.75) < 0.01
        assert abs(freq - 0.75) < 3.0 * math.sqrt(0.75 * 0.25 / n)

    def test_two_phase_fixed_delay(self):
        params = TwoPhaseCellCycleParams(g=lambda x: x, phi=lambda x: x, t_B=0.5,
                                         g_closed_form=lambda t, x: x * np.exp(t))
        model = make_two_phase_cell_cycle(params)
        rng = path_rng(12, 0)
        ev = next_event(model, np.array([0.8, 0.0]), 1, rng, t_max=1e9)
        assert ev.dt == pytest.approx(0.5, abs=1e-12)
        assert ev.kind == "division"
        assert ev.state_post[0] == pytest.approx(0.5 * ev.state_pre[0], abs=1e-12)
        assert ev.regime_post == 0

    def test_fixed_delay_uses_elapsed_time(self):
        params = TwoPhaseCellCycleParams(g=lambda x: x, phi=lambda x: x, t_B=0.5,
                                         g_closed_form=lambda t, x: x * np.exp(t))
        model = make_two_phase_cell_cycle(params)
        ev = next_event(model, np.array([0.8, 0.3]), 1, path_rng(12, 1),
                        t_max=1e9, elapsed_in_regime=0.3)
        assert ev.dt == pytest.approx(0.2, abs=1e-12)

    def test_clock_tie_lowest_index_wins(self):
        k_a = JumpKernel(lambda x, r, rng: (x, 0, "first"))
        k_b = JumpKernel(lambda x, r, rng: (x, 0, "second"))
        regime = Regime(0, frozen_flow(), clocks=(
            DeterministicClock(FixedDelay(1.0), k_a, "first"),
            DeterministicClock(FixedDelay(1.0), k_b, "second"),
        ))
        model = PdmpModel("ties", (regime,))
        ev = next_event(model, np.zeros(1), 0, path_rng(13, 0), t_max=10.0)
        assert ev.kind == "first"

    def test_none_when_nothing_fires(self):
        model = two_hazard_model(1e-9, 1e-9)
        assert next_event(model, np.zeros(1), 0, path_rng(14, 0), t_max=1e-6) is None


class TestTrajectories:
    def test_telegraph_piecewise_linear_and_bounded(self):
        model = make_telegraph(1.0, 1.0)
        traj = simulate_trajectory(model, [0.0, 1.0], 0, 50.0, path_rng(15, 0))
        prev_t, prev_x, prev_v = 0.0, 0.0, 1.0
        for j in traj.jumps:
            # slope between jumps is exactly the pre-jump velocity
            assert j.state_pre[0] - prev_x == pytest.approx(prev_v * (j.t - prev_t),
                                                            abs=1e-10)
            assert abs(j.state_pre[0]) <= j.t + 1e-9
            assert j.state_post[1] == -j.state_pre[1]
            prev_t, prev_x, prev_v = j.t, j.state_post[0], j.state_post[1]
        x_end, _ = traj.state_at(50.0)
        assert abs(x_end[0]) <= 50.0 + 1e-9

    def test_grasshopper_constant_between_jumps(self):
        model = make_grasshopper(2.0, lambda rng: rng.normal())
        traj = simulate_trajectory(model, [0.5], 0, 20.0, path_rng(16, 0))
        # compound Poisson: state at t equals x0 plus the jump increments so far
        acc = 0.5
        for j in traj.jumps:
            assert j.state_pre[0] == pytest.approx(acc, abs=1e-12)
            acc = j.state_post[0]
        mid, _ = traj.state_at(0.5 * (traj.jumps[3].t + traj.jumps[4].t))
        assert mid[0] == pytest.approx(traj.jumps[3].state_post[0], abs=1e-12)

    def test_null_jumps_leave_state_fixed(self):
        model = make_grasshopper(1.0, lambda rng: 0.0)
        traj = simulate_trajectory(model, [0.7], 0, 30.0, path_rng(17, 0))
        assert all(j.state_post[0] == 0.7 for j in traj.jumps)

    def test_segment_consistency(self):
        model = make_telegraph(1.2, 0.7)
        traj = simulate_trajectory(model, [0.0, 0.7], 0, 40.0, path_rng(18, 0))
        for seg, jump in zip(traj.segments, traj.jumps):
            flow = model.regimes[seg.regime].flow
            replay = flow_evolve(flow, seg.state, jump.t - seg.t_start)
            assert np.max(np.abs(replay - jump.state_pre)) <= 10 * TOL_FLOW

    def test_gene_interval_invariance(self):
        p = GeneExpressionParams(P=1.0, mu=1.0, q0=1.0, q1=1.0)
        model = make_gene_expression(p)
        traj = simulate_trajectory(model, [1.4], 0, 200.0, path_rng(19, 0))
        inside = False
        for j in traj.jumps:
            if not inside and 0.0 <= j.state_post[0] <= p.x_max:
                inside = True
            elif inside:
                assert -1e-12 <= j.state_post[0] <= p.x_max + 1e-12

    def test_reproducibility_bit_identical(self):
        model = make_telegraph(1.0, 1.0)
        t1 = simulate_trajectory(model, [0.0, 1.0], 0, 30.0, path_rng(20, 0))
        t2 = simulate_trajectory(model, [0.0, 1.0], 0, 30.0, path_rng(20, 0))
        assert len(t1.jumps) == len(t2.jumps)
        for a, b in zip(t1.jumps, t2.jumps):
            assert a.t == b.t and a.kind == b.kind
            assert np.array_equal(a.state_pre, b.state_pre)
            assert np.array_equal(a.state_post, b.state_post)

    def test_jump_budget_exceeded(self):
        model = make_grasshopper(1000.0, lambda rng: 0.0)
        with pytest.raises(JumpBudgetExceeded):
            simulate_trajectory(model, [0.0], 0, 10.0, path_rng(21, 0),
                                jump_budget=100)

    def test_jump_budget_is_exact(self):
        # events at t = 1, 2, 3, 4 before the horizon: a budget of 4 suffices
        traj = simulate_trajectory(ticking_model(), [0.0], 0, 4.5, path_rng(21, 0),
                                   jump_budget=4)
        assert [j.t for j in traj.jumps] == [1.0, 2.0, 3.0, 4.0]
        assert traj.state_at(4.5)[0][0] == 4.0

    def test_jump_budget_stops_before_the_extra_event(self):
        seen = []
        with pytest.raises(JumpBudgetExceeded):
            for t_jump, _, _ in iter_events(ticking_model(), [0.0], 0, path_rng(21, 0),
                                            4.5, jump_budget=3):
                seen.append(t_jump)
        assert seen == [1.0, 2.0, 3.0]

    def test_strictly_increasing_jump_times(self):
        model = make_telegraph(3.0, 1.0)
        traj = simulate_trajectory(model, [0.0, 1.0], 0, 30.0, path_rng(22, 0))
        ts = [j.t for j in traj.jumps]
        assert all(a < b for a, b in zip(ts, ts[1:]))


class TestEnsemble:
    def test_single_path_matches_trajectory(self):
        model = make_telegraph(1.0, 1.0)

        def init(rng):
            return np.array([0.0, 1.0]), 0

        ens = simulate_ensemble(model, init, 25.0, 1, seed=77,
                                snapshot_times=[10.0, 25.0])
        traj = simulate_trajectory(model, [0.0, 1.0], 0, 25.0, path_rng(77, 0))
        state, reg = traj.state_at(10.0)
        assert np.array_equal(ens.snapshot_states[0, 0], state)
        assert np.array_equal(ens.final_states[0], traj.state_at(25.0)[0])

    def test_symmetric_telegraph_mean_zero(self):
        model = make_telegraph(1.0, 1.0)

        def init(rng):
            v = 1.0 if rng.uniform() < 0.5 else -1.0
            return np.array([0.0, v]), 0

        n = 100_000
        ens = simulate_ensemble(model, init, 5.0, n, seed=303)
        xs = ens.final_states[:, 0]
        stderr = xs.std(ddof=1) / math.sqrt(n)
        assert abs(xs.mean()) < 3.0 * stderr

    def test_path_errors_collected_not_raised(self):
        model = make_grasshopper(50.0, lambda rng: 0.0)

        def init(rng):
            return np.array([0.0]), 0

        ens = simulate_ensemble(model, init, 10.0, 4, seed=9, jump_budget=20)
        assert len(ens.errors) == 4
        assert np.all(np.isnan(ens.final_states))


class TestStateConversion:
    """Canonical 1-D float64 states skip numpy's conversion calls; every other
    form of state, kernel result or closed-form result is converted."""

    @staticmethod
    def drift_model(closed_form, kernel):
        flow = Flow(dim=1, rhs=lambda x: np.ones(1), closed_form=closed_form)
        return PdmpModel("drift", (Regime(0, flow, hazards=(
            HazardChannel(Hazard.constant(2.0), JumpKernel(kernel), "kick"),)),))

    @staticmethod
    def assert_same_event(ev, ref):
        assert (ev.dt, ev.kind, ev.regime_post) == (ref.dt, ref.kind, ref.regime_post)
        for got, want in ((ev.state_pre, ref.state_pre), (ev.state_post, ref.state_post)):
            assert got.dtype == np.float64 and got.shape == want.shape
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("x0", [[0.25, 1], np.array([0, 1]),
                                    np.array([0.25, 1.0], dtype=np.float32)],
                             ids=["list", "int_array", "float32"])
    def test_state_forms_give_the_same_events(self, x0):
        model = make_telegraph(1.0, 1.0)
        ref_x0 = np.asarray(x0, dtype=float)
        ev = next_event(model, x0, 0, path_rng(31, 0), t_max=50.0)
        ref = next_event(model, ref_x0, 0, path_rng(31, 0), t_max=50.0)
        self.assert_same_event(ev, ref)
        flow = model.regimes[0].flow
        assert np.array_equal(flow_evolve(flow, x0, 0.7), flow_evolve(flow, ref_x0, 0.7))
        got = [j.t for j in simulate_trajectory(model, x0, 0, 20.0, path_rng(32, 0)).jumps]
        assert got == [j.t for j in simulate_trajectory(model, ref_x0, 0, 20.0,
                                                        path_rng(32, 0)).jumps]

    @pytest.mark.parametrize("closed_form, kernel", [
        (lambda t, x: [x[0] + t], lambda x, r, rng: (x + 1.0, 0)),
        (lambda t, x: x + t, lambda x, r, rng: ([x[0] + 1.0], 0)),
        (lambda t, x: x + t, lambda x, r, rng: ((x[0] + 1.0,), 0)),
        (lambda t, x: x + t, lambda x, r, rng: (np.array(x[0] + 1.0), 0)),
        (lambda t, x: x + t, lambda x, r, rng: (x[0] + 1.0, 0)),
    ], ids=["closed_form_list", "kernel_list", "kernel_tuple", "kernel_0d", "kernel_scalar"])
    def test_result_forms_give_the_same_events(self, closed_form, kernel):
        ref_model = self.drift_model(lambda t, x: x + t, lambda x, r, rng: (x + 1.0, 0))
        model = self.drift_model(closed_form, kernel)
        for seed in range(3):
            ref = next_event(ref_model, np.array([0.5]), 0, path_rng(seed, 0), t_max=50.0)
            ev = next_event(model, np.array([0.5]), 0, path_rng(seed, 0), t_max=50.0)
            self.assert_same_event(ev, ref)

    @pytest.mark.parametrize("closed_form", [lambda t, x: np.array([np.nan]),
                                             lambda t, x: [math.nan]],
                             ids=["array", "list"])
    def test_non_finite_closed_form_raises(self, closed_form):
        model = self.drift_model(closed_form, lambda x, r, rng: (x + 1.0, 0))
        with pytest.raises(NonFinite, match="closed-form"):
            next_event(model, np.array([0.5]), 0, path_rng(33, 0), t_max=50.0)

    @pytest.mark.parametrize("kernel", [lambda x, r, rng: (x + np.inf, 0),
                                        lambda x, r, rng: ([math.inf], 0)],
                             ids=["array", "list"])
    def test_non_finite_kernel_raises(self, kernel):
        model = self.drift_model(lambda t, x: x + t, kernel)
        with pytest.raises(NonFinite, match="jump kernel"):
            next_event(model, np.array([0.5]), 0, path_rng(34, 0), t_max=50.0)


class TestExport:
    def test_trajectory_csv_columns(self, tmp_path):
        model = make_telegraph(1.0, 1.0)
        trajs = [simulate_trajectory(model, [0.0, 1.0], 0, 10.0, path_rng(30, i))
                 for i in range(2)]
        path = tmp_path / "traj.csv"
        trajectories_to_csv(trajs, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["path_id", "t", "event_kind", "regime_pre",
                           "regime_post", "pre_s0", "pre_s1", "post_s0", "post_s1"]
        assert len(rows) - 1 == sum(len(t.jumps) for t in trajs)

    def test_snapshot_csv_columns(self, tmp_path):
        model = make_telegraph(1.0, 1.0)
        ens = simulate_ensemble(model, lambda rng: (np.array([0.0, 1.0]), 0),
                                10.0, 3, seed=4, snapshot_times=[5.0, 10.0])
        path = tmp_path / "snaps.csv"
        snapshots_to_csv(ens, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["path_id", "t_snap", "regime", "s0", "s1"]
        assert len(rows) - 1 == 6


class TestValidation:
    def test_regime_needs_cause_or_absorbing(self):
        with pytest.raises(InvalidParam):
            Regime(0, frozen_flow())
        Regime(0, frozen_flow(), absorbing=True)

    def test_dense_regime_ids(self):
        r0 = Regime(0, frozen_flow(), absorbing=True)
        r2 = Regime(2, frozen_flow(), absorbing=True)
        with pytest.raises(InvalidParam):
            PdmpModel("bad", (r0, r2))

    def test_mixed_dimensions_rejected(self):
        r0 = Regime(0, frozen_flow(1), absorbing=True)
        r1 = Regime(1, frozen_flow(2), absorbing=True)
        with pytest.raises(InvalidParam):
            PdmpModel("bad", (r0, r1))

    def test_kernel_outside_domain_raises_under_optimize(self):
        # the domain check must hold under python -O, which strips asserts
        script = textwrap.dedent("""
            import numpy as np
            from pdmpkit import (Flow, Hazard, HazardChannel, JumpKernel, PdmpModel,
                                 Regime, next_event, path_rng)
            from pdmpkit.errors import InvalidParam

            flow = Flow(dim=1, rhs=lambda x: np.zeros(1), closed_form=lambda t, x: x.copy())
            leap = JumpKernel(lambda x, r, rng: (x + 2.0, 0))
            regime = Regime(0, flow, hazards=(HazardChannel(Hazard.constant(1.0), leap),),
                            domain=lambda x: x[0] < 1.0)
            try:
                next_event(PdmpModel("leaky", (regime,)), [0.0], 0, path_rng(1, 0), t_max=1e6)
            except InvalidParam as exc:
                print("InvalidParam:", exc)
        """)
        src = Path(pdmpkit.__file__).resolve().parent.parent
        done = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                              text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("InvalidParam: kernel left the domain of regime 0")
