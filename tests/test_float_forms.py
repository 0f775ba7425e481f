"""Float forms against the array contract, and the closed-form boundary scan.

A hand-built model is written twice: once with callables of the array
contract (a float64 array in), which the engine runs behind its one adapter,
and once with their float forms (:class:`TupleFn`).  The
recorded paths must agree byte for byte.  The boundary scan's grid must equal
``np.linspace`` bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdmpkit import (
    BoundaryHit,
    DeterministicClock,
    FixedDelay,
    Flow,
    Hazard,
    HazardChannel,
    JumpKernel,
    PdmpModel,
    Regime,
    TupleFn,
    path_rng,
    simulate_trajectory,
)
from pdmpkit.flows import _scan_points


def damped_model(float_forms: bool) -> PdmpModel:
    """State (x, v, a): x' = v, v' = -v/2, a' = 1.  Regime 0 thins a rate
    1 + tanh(x)/2 whose kernel kicks v by a normal draw, and a clock resets x
    and the age a to 0 when x reaches 2; regime 1 has a constant rate and a
    fixed-delay wake-up that reads a."""
    rate = lambda s: 1.0 + 0.5 * math.tanh(s[0])     # noqa: E731
    event = lambda s: 2.0 - s[0]                     # noqa: E731
    domain = lambda s: s[0] < 2.5                    # noqa: E731
    if float_forms:
        def closed(t, s):
            e = math.exp(-0.5 * t)
            return s[0] + 2.0 * s[1] * (1.0 - e), s[1] * e, s[2] + t

        def kick(s, regime, rng):
            v = s[1] + rng.normal()
            return (s[0], v, s[2]), 0, "kick_up" if v > s[1] else "kick_down"

        closed, rate, kick, event, domain = map(TupleFn, (closed, rate, kick, event, domain))
        reset = TupleFn(lambda s, regime, rng: ((0.0, s[1], 0.0), 1))
        slow = TupleFn(lambda s, regime, rng: ((s[0], 0.5 * s[1], s[2]), 0))
    else:
        def closed(t, x):
            e = math.exp(-0.5 * t)
            return np.array([x[0] + 2.0 * x[1] * (1.0 - e), x[1] * e, x[2] + t])

        def kick(x, regime, rng):
            v = x[1] + rng.normal()
            return np.array([x[0], v, x[2]]), 0, "kick_up" if v > x[1] else "kick_down"

        def reset(x, regime, rng):
            return np.array([0.0, x[1], 0.0]), 1

        def slow(x, regime, rng):
            return np.array([x[0], 0.5 * x[1], x[2]]), 0

    flow = Flow(dim=3, rhs=lambda x: np.array([x[1], -0.5 * x[1], 1.0]), closed_form=closed)
    regime0 = Regime(0, flow, hazards=(HazardChannel(Hazard(rate=rate, upper_bound=1.5),
                                                     JumpKernel(kick), "kick"),),
                     clocks=(DeterministicClock(BoundaryHit(event), JumpKernel(reset),
                                                "reset"),),
                     domain=domain)
    regime1 = Regime(1, flow, hazards=(HazardChannel(Hazard.constant(2.0), JumpKernel(slow),
                                                     "slow"),),
                     clocks=(DeterministicClock(FixedDelay(0.3, 2), JumpKernel(slow), "wake"),))
    return PdmpModel("damped", (regime0, regime1))


def records(model, seed):
    traj = simulate_trajectory(model, [0.5, 1.0, 0.0], 0, 40.0, path_rng(seed, 0))
    return [(j.t, j.kind, j.regime_pre, j.regime_post, np.asarray(j.state_pre).tobytes(),
             np.asarray(j.state_post).tobytes()) for j in traj.jumps]


def test_array_and_float_forms_record_the_same_bytes():
    arrays, floats = damped_model(False), damped_model(True)
    kinds = set()
    for seed in range(6):
        got = records(floats, seed)
        assert got == records(arrays, seed)
        kinds |= {r[1] for r in got}
    assert kinds == {"kick_up", "kick_down", "reset", "slow", "wake"}


def test_float_forms_are_resolved_once_at_construction():
    model = damped_model(True)
    reg = model.regimes[0]
    assert reg.flow.tuple_closed is reg.flow.closed_form.fn
    assert reg.hazards[0].hazard.tuple_rate is reg.hazards[0].hazard.rate.fn
    assert reg.hazards[0].kernel.tuple_sampler is reg.hazards[0].kernel.sampler.fn
    assert reg.clocks[0].kind.tuple_event.fn is reg.clocks[0].kind.event_fn.fn
    assert reg.tuple_domain is reg.domain.fn


@settings(max_examples=300, deadline=None)
@given(st.floats(-1e300, 1e300, allow_subnormal=True),
       st.one_of(st.floats(0.0, 1e300, allow_subnormal=True),
                 st.integers(0, 2**12).map(lambda k: k * 5e-324)))
@example(0.0, 5e-324)
@example(0.0, 15 * 5e-324)
@example(-0.0, 2 ** -1060)
@example(1.0, 2.220446049250313e-16)
def test_scan_points_are_linspace_bit_for_bit(t_a, width):
    t_b = t_a + width
    got = _scan_points(t_a, t_b)
    want = np.linspace(t_a, t_b, 17)[1:]
    assert all(type(t) is float for t in got)
    assert np.array(got).tobytes() == want.tobytes()


@pytest.mark.parametrize("t_a, t_b", [(0.0, 1.0), (0.3, 0.7), (2.5, 4.5), (1e-300, 2e-300)])
def test_scan_points_end_at_t_b(t_a, t_b):
    assert _scan_points(t_a, t_b)[-1] == t_b and len(_scan_points(t_a, t_b)) == 16
