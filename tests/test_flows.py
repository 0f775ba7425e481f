"""Flow evolution, hazard integration, jump-time sampling, and the Q transform."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from pdmpkit import (
    CumulativeHazard,
    Flow,
    Hazard,
    QTransform,
    boundary_hit_time,
    cumulative_hazard,
    dkw_epsilon,
    flow_evolve,
    ks_statistic,
    path_rng,
    sample_jump_time,
    two_sample_ks,
)
from pdmpkit.errors import (
    DivergentIntegral,
    DomainExit,
    HorizonExceeded,
    InvalidParam,
    MissingBound,
)

TOL_FLOW = 1e-10

GENE_MU = 1.0
GENE_P = 1.0


def gene_inactive_flow(closed=True):
    cf = (lambda t, x: x * math.exp(-GENE_MU * t)) if closed else None
    return Flow(dim=1, rhs=lambda x: -GENE_MU * x, closed_form=cf)


def gene_active_flow(closed=True):
    a = GENE_P / GENE_MU
    cf = (lambda t, x: a + (x - a) * math.exp(-GENE_MU * t)) if closed else None
    return Flow(dim=1, rhs=lambda x: GENE_P - GENE_MU * x, closed_form=cf)


def logistic_flow():
    return Flow(dim=1, rhs=lambda x: x * (1.0 - x))


class TestFlowEvolve:
    def test_identity_at_t0(self):
        for flow in (gene_inactive_flow(), logistic_flow()):
            assert flow_evolve(flow, [0.37], 0.0)[0] == 0.37

    def test_gene_inactive_half_life(self):
        # decay by e^{-mu t} with mu=1 halves the level at t = ln 2
        x = flow_evolve(gene_inactive_flow(), [1.0], math.log(2.0))
        assert x[0] == pytest.approx(0.5, abs=1e-14)

    def test_logistic_known_value(self):
        # x(t) = x0 e^t / (1 - x0 + x0 e^t); x0=1/2, t=ln3 gives 3/4
        x = flow_evolve(logistic_flow(), [0.5], math.log(3.0))
        assert x[0] == pytest.approx(0.75, abs=1e-8)

    def test_numerical_matches_closed_form(self):
        for make in (gene_inactive_flow, gene_active_flow):
            closed, ode = make(True), make(False)
            for t in (0.3, 1.7, 4.0):
                a = flow_evolve(closed, [0.8], t)[0]
                b = flow_evolve(ode, [0.8], t)[0]
                assert abs(a - b) <= 10 * TOL_FLOW

    def test_negative_time_rejected(self):
        with pytest.raises(InvalidParam):
            flow_evolve(gene_inactive_flow(), [1.0], -0.1)

    def test_domain_exit(self):
        flow = Flow(dim=1, rhs=lambda x: np.ones(1), domain=lambda x: 1.0 - x[0])
        with pytest.raises(DomainExit) as err:
            flow_evolve(flow, [0.5], 1.0)
        assert err.value.exit_time == pytest.approx(0.5, abs=1e-8)
        assert err.value.state[0] == pytest.approx(1.0, abs=1e-8)

    @settings(max_examples=25, deadline=None)
    @given(x0=st.floats(0.05, 0.95), s=st.floats(0.0, 2.0), t=st.floats(0.0, 2.0))
    def test_semigroup_property(self, x0, s, t):
        flow = logistic_flow()
        mid = flow_evolve(flow, [x0], s)
        two_step = flow_evolve(flow, mid, t)
        one_step = flow_evolve(flow, [x0], s + t)
        assert abs(two_step[0] - one_step[0]) <= 10 * TOL_FLOW


class TestHazardIntegral:
    def test_constant_rate(self):
        flow = gene_inactive_flow()
        cum = cumulative_hazard(flow, Hazard.constant(2.0), [1.0], [3.0])
        assert cum.values[-1] == pytest.approx(6.0)

    def test_frozen_flow(self):
        frozen = Flow(dim=1, rhs=lambda x: np.zeros(1))
        hz = Hazard(rate=lambda x: float(x[0]))
        assert cumulative_hazard(frozen, hz, [2.0], [3.0]).values[-1] == pytest.approx(6.0, abs=1e-8)

    def test_exponential_growth(self):
        # rate(x)=x along x'=x from 1: integral of e^s over [0,1]
        expected, _ = quad(math.exp, 0.0, 1.0)
        flow = Flow(dim=1, rhs=lambda x: x.copy())
        hz = Hazard(rate=lambda x: float(x[0]))
        value = cumulative_hazard(flow, hz, [1.0], [1.0]).values[-1]
        assert value == pytest.approx(expected, abs=1e-8)
        assert value == pytest.approx(math.e - 1.0, abs=1e-8)

    def test_cumulative_monotone(self):
        flow = gene_inactive_flow()
        hz = Hazard(rate=lambda x: 1.0 + float(x[0]))
        cum = cumulative_hazard(flow, hz, [1.0], np.linspace(0.0, 5.0, 200))
        assert cum.values[0] == pytest.approx(0.0, abs=1e-12)
        assert np.all(np.diff(cum.values) >= -1e-12)

    def test_cumulative_matches_analytic(self):
        # Lambda(t) = t + x0 (1 - e^{-t}) for rate 1 + x along the decay flow
        x0 = 1.0
        ts = np.linspace(0.1, 4.0, 40)
        for closed in (True, False):
            flow = gene_inactive_flow(closed)
            hz = Hazard(rate=lambda x: 1.0 + float(x[0]))
            cum = cumulative_hazard(flow, hz, [x0], ts)
            exact = ts + x0 * (1.0 - np.exp(-ts))
            assert np.max(np.abs(cum.values - exact)) < 1e-9

    def test_invalid_cumulative_rejected(self):
        with pytest.raises(InvalidParam):
            CumulativeHazard(ts=np.array([0.0, 1.0]), values=np.array([0.5, 0.1]))


class TestSampleJumpTime:
    def test_constant_rate_ks(self):
        flow = gene_inactive_flow()
        hz = Hazard.constant(2.0)
        rng = path_rng(101, 0)
        n = 100_000
        draws = np.array([sample_jump_time(flow, hz, [1.0], rng) for _ in range(n)])
        ks = ks_statistic(draws, lambda t: -np.expm1(-2.0 * t))
        assert ks < dkw_epsilon(n, 0.01)

    def test_thinning_dkw_band(self):
        # rate 1 + x along the decay flow has the closed-form law
        # F(t) = 1 - exp(-(t + x0 (1 - e^{-t})))
        flow = gene_inactive_flow()
        hz = Hazard(rate=lambda x: 1.0 + float(x[0]), upper_bound=2.0)
        rng = path_rng(102, 0)
        n = 100_000
        draws = np.array([
            sample_jump_time(flow, hz, [1.0], rng, method="thinning")
            for _ in range(n)
        ])
        cdf = lambda t: -np.expm1(-(t + 1.0 - np.exp(-t)))
        assert ks_statistic(draws, cdf) < dkw_epsilon(n, 0.01)

    def test_thinning_vs_inverse_agreement(self):
        # gene active-state hazard: both samplers apply, laws must agree
        a = GENE_P / GENE_MU
        flow = gene_active_flow()
        rate = lambda x: 1.0 + float(x[0])
        rate_along = lambda ts, x0: 1.0 + a + (x0[0] - a) * np.exp(-GENE_MU * ts)
        hz_thin = Hazard(rate=rate, upper_bound=2.0)
        hz_inv = Hazard(rate=rate, rate_along=rate_along)
        n = 100_000
        rng = path_rng(103, 0)
        thin = np.array([sample_jump_time(flow, hz_thin, [0.2], rng, method="thinning")
                         for _ in range(n)])
        rng = path_rng(103, 1)
        inv = np.array([sample_jump_time(flow, hz_inv, [0.2], rng, method="inverse")
                        for _ in range(n)])
        assert two_sample_ks(thin, inv) < 0.01

    def test_inverse_ode_path(self):
        # no closed form: augmented-ODE route; modest-N distribution smoke check
        flow = gene_inactive_flow(closed=False)
        hz = Hazard(rate=lambda x: 1.0 + float(x[0]))
        rng = path_rng(104, 0)
        n = 1500
        draws = np.array([sample_jump_time(flow, hz, [1.0], rng) for _ in range(n)])
        cdf = lambda t: -np.expm1(-(t + 1.0 - np.exp(-t)))
        assert ks_statistic(draws, cdf) < dkw_epsilon(n, 0.01)

    def test_inverse_quadrature_exact_times(self):
        # rate x along exponential growth inverts analytically: tau = log(1 + xi/x0)
        flow = Flow(dim=1, rhs=lambda x: x.copy(),
                    closed_form=lambda t, x: x * math.exp(t))
        hz = Hazard(rate=lambda x: float(x[0]))
        rng = path_rng(105, 0)
        draws = [sample_jump_time(flow, hz, [1.0], rng) for _ in range(4000)]
        rng_replay = path_rng(105, 0)
        for tau in draws:
            xi = rng_replay.exponential()
            assert abs(tau - math.log1p(xi)) < 1e-9

    def test_zero_rate_trap_raises_horizon(self):
        flow = gene_inactive_flow()
        hz = Hazard.constant(0.0)
        with pytest.raises(HorizonExceeded):
            sample_jump_time(flow, hz, [1.0], path_rng(106, 0))
        # state-dependent rate stuck at zero on the trap x = 0
        hz2 = Hazard(rate=lambda x: float(x[0]))
        with pytest.raises(HorizonExceeded):
            sample_jump_time(Flow(dim=1, rhs=lambda x: x.copy(),
                                  closed_form=lambda t, x: x * math.exp(t)),
                             hz2, [0.0], path_rng(106, 1), horizon=100.0)

    def test_horizon_cap_reports_survival(self):
        flow = gene_inactive_flow()
        hz = Hazard.constant(1.0)
        rng = path_rng(107, 0)
        with pytest.raises(HorizonExceeded) as err:
            # force an enormous exponential level by shrinking the horizon
            sample_jump_time(flow, hz, [1.0], rng, horizon=1e-9)
        assert err.value.horizon == 1e-9

    def test_thinning_requires_bound(self):
        flow = gene_inactive_flow()
        hz = Hazard(rate=lambda x: 1.0)
        with pytest.raises(MissingBound):
            sample_jump_time(flow, hz, [1.0], path_rng(108, 0), method="thinning")

    def test_thinning_detects_violated_bound(self):
        flow = gene_active_flow()
        hz = Hazard(rate=lambda x: 5.0, upper_bound=1.0)
        with pytest.raises(InvalidParam):
            sample_jump_time(flow, hz, [0.5], path_rng(109, 0), method="thinning")

    def test_negative_rate_rejected(self):
        hz = Hazard(rate=lambda x: -1.0)
        with pytest.raises(InvalidParam):
            hz.rate_at(np.array([1.0]))
        with pytest.raises(InvalidParam):
            Hazard.constant(-2.0)


class TestBoundaryHit:
    def test_closed_form_linear_growth(self):
        flow = Flow(dim=1, rhs=lambda x: np.ones(1),
                    closed_form=lambda t, x: x + t)
        hit = boundary_hit_time(flow, lambda x: 2.0 - x[0], [1.0], 10.0)
        assert hit == pytest.approx(1.0, abs=1e-9)

    def test_ode_path(self):
        flow = Flow(dim=1, rhs=lambda x: np.ones(1))
        hit = boundary_hit_time(flow, lambda x: 2.0 - x[0], [1.25], 10.0)
        assert hit == pytest.approx(0.75, abs=1e-8)

    def test_no_hit_returns_none(self):
        flow = gene_inactive_flow()
        assert boundary_hit_time(flow, lambda x: x[0] - 5.0, [1.0], 3.0) is None


class TestQTransform:
    def test_constant_over_unit_growth(self):
        assert QTransform(lambda r: 1.0, lambda r: 3.0)(2.0) == pytest.approx(6.0)

    def test_identity_ratio(self):
        assert QTransform(lambda r: r, lambda r: r)(1.7) == pytest.approx(1.7)

    def test_linear_intensity(self):
        expected, _ = quad(lambda r: r, 0.0, 2.0)
        assert QTransform(lambda r: 1.0, lambda r: r)(2.0) == pytest.approx(expected)
        assert expected == pytest.approx(2.0)

    def test_inverse_round_trip(self):
        q = QTransform(lambda r: 0.5 + r, lambda r: r * r)
        for x in (0.3, 1.1, 2.4):
            assert q.inverse(q(x)) == pytest.approx(x, abs=1e-9)

    def test_divergent_near_zero(self):
        with pytest.raises(DivergentIntegral):
            QTransform(lambda r: r, lambda r: 1.0)(1.0)

    def test_tabulated_matches_quadrature(self):
        q = QTransform(lambda r: 1.0 + r, lambda r: r)
        q_fn, q_inv = q.tabulated(5.0)
        for x in (0.2, 1.0, 3.3):
            assert float(q_fn(x)) == pytest.approx(q(x), abs=1e-8)
            assert float(q_inv(q(x))) == pytest.approx(x, abs=1e-7)
