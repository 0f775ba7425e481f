"""The Dormand-Prince 5(4) stepper behind every ODE route of the event engine.

Oracles: closed-form flows, scipy's DOP853 at rtol 1e-13, the Rubinow hit
time ln 2 / r and the cell-cycle inverse log1p(xi / x0).  The typed-failure
cases check that the stepper raises what the engine documents.
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from pdmpkit import (
    AlleeParams,
    Flow,
    GrowthDivision,
    Hazard,
    TupleFn,
    flow_evolve,
    make_allee,
    make_cell_cycle,
    make_rubinow,
    path_rng,
    sample_jump_time,
)
from pdmpkit.errors import HorizonExceeded, InvalidParam, NonFinite
from pdmpkit.flows import ATOL_FLOW, TOL_FLOW, _dopri, boundary_hit_time


def growth_flow(r, tuple_form=True):
    rhs = TupleFn(lambda s: (r * s[0],)) if tuple_form else (lambda x: r * x)
    return Flow(dim=1, rhs=rhs)


def allee_flows():
    model = make_allee(AlleeParams(lam=1.0, K=10.0, A=2.0, B=1.0, q01=1.0, q10=1.0))
    return [reg.flow for reg in model.regimes]


class TestStepper:
    @pytest.mark.parametrize("r", [0.9, -1.3])
    def test_exponential_against_closed_form(self, r):
        for x0 in (0.5, 1.0, 3.0):
            for t in (0.01, 0.7, 3.0):
                x = flow_evolve(growth_flow(r), [x0], t)[0]
                assert x == pytest.approx(x0 * math.exp(r * t), rel=1e-9)

    def test_allee_against_dop853(self):
        for flow in allee_flows():
            for x0 in (0.5, 4.0, 9.5):
                for t in (0.3, 2.0, 6.0):
                    ref = solve_ivp(lambda s, y: flow.tuple_rhs(y), (0.0, t), [x0], method="DOP853",
                                    rtol=1e-13, atol=1e-15).y[0, -1]
                    assert flow_evolve(flow, [x0], t)[0] == pytest.approx(ref, rel=1e-9)

    def test_steps_follow_scipy_rk45(self):
        # same initial step and controller: the same accepted step times
        for flow in [growth_flow(0.9), *allee_flows()]:
            steps = [step.t1 for step in _dopri(flow.rhs.fn, [4.0], 5.0, "test")]
            ref = solve_ivp(lambda s, y: flow.tuple_rhs(y), (0.0, 5.0), [4.0], method="RK45",
                            rtol=TOL_FLOW, atol=ATOL_FLOW)
            assert len(steps) == ref.t.size - 1
            assert np.allclose(steps, ref.t[1:], rtol=1e-6, atol=0.0)

    def test_interpolant_matches_step_ends(self):
        for step in _dopri(growth_flow(0.9).rhs.fn, [1.0], 2.0, "test"):
            assert step.at(step.t0) == step.y0
            assert step.at(step.t1)[0] == pytest.approx(step.y1[0], rel=1e-14)
            mid = 0.5 * (step.t0 + step.t1)
            assert step.at(mid)[0] == pytest.approx(math.exp(0.9 * mid), rel=1e-9)

    def test_array_rhs_takes_the_same_steps(self):
        # any rhs but a TupleFn goes through the array adapter, same solver
        for t in (0.4, 2.5):
            a = flow_evolve(growth_flow(0.9), [1.5], t)
            b = flow_evolve(growth_flow(0.9, tuple_form=False), [1.5], t)
            assert a.tolist() == b.tolist()


class TestOdeRoutes:
    def test_rubinow_hit_at_ln2_over_r(self):
        model = make_rubinow(lambda x: 0.9 * x, 1.0)
        reg = model.regimes[0]
        hit = boundary_hit_time(reg.flow, reg.clocks[0].kind.event_fn, [1.0], 5.0)
        assert hit == pytest.approx(math.log(2.0) / 0.9, abs=1e-9)
        assert boundary_hit_time(reg.flow, reg.clocks[0].kind.event_fn, [1.0], 0.5) is None

    def test_cell_cycle_ode_jump_times_on_fixed_draws(self):
        # g = phi = x: Lambda(t) = x0 (e^t - 1), so tau = log1p(xi / x0)
        model = make_cell_cycle(GrowthDivision(g=lambda x: x, phi=lambda x: x))
        reg = model.regimes[0]
        hz = reg.hazards[0].hazard
        assert reg.flow.closed_form is None and hz.upper_bound is None
        for x0 in (0.3, 1.0, 2.7):
            rng, replay = path_rng(131, 0), path_rng(131, 0)
            for _ in range(40):
                tau = sample_jump_time(reg.flow, hz, [x0], rng)
                assert abs(tau - math.log1p(replay.exponential() / x0)) < 1e-8


class TestTypedFailures:
    def test_non_finite_field_raises_nonfinite(self):
        for bad in (math.inf, math.nan):
            flow = Flow(dim=1, rhs=TupleFn(lambda s, _b=bad: (_b,)))
            with pytest.raises(NonFinite):
                flow_evolve(flow, [1.0], 1.0)
            with pytest.raises(NonFinite):
                sample_jump_time(flow, Hazard(rate=lambda x: 1.0 + x[0] ** 2), [1.0],
                                 path_rng(132, 0))

    def test_field_leaving_the_doubles_raises_nonfinite(self):
        # x' = x^2 from 1 blows up at t = 1
        flow = Flow(dim=1, rhs=TupleFn(lambda s: (s[0] * s[0],)))
        with pytest.raises(NonFinite):
            flow_evolve(flow, [1.0], 2.0)

    def test_zero_hazard_raises_horizon_across_chunks(self):
        hz = Hazard(rate=lambda x: 0.0 * x[0])
        with pytest.raises(HorizonExceeded) as err:
            sample_jump_time(growth_flow(-0.5), hz, [1.0], path_rng(133, 0), horizon=20.0)
        assert err.value.horizon == 20.0

    def test_negative_rate_raises_invalid_param(self):
        hz = Hazard(rate=lambda x: -x[0])
        with pytest.raises(InvalidParam):
            sample_jump_time(growth_flow(0.5), hz, [1.0], path_rng(134, 0))
