"""The event loop's plain-float case against its general case, byte for byte.

A model whose every regime has one constant-rate hazard, no clock, no domain,
a :class:`TupleFn` closed form and a :class:`TupleMap` has its events worked
inline on tuples of floats with block-drawn levels, for reads and for recorded
paths alike.  Each test runs the same path through ``_event`` as well: the
engine twin is the same model with its flows and jumps behind plain closures,
which do not opt in.  States, regimes, jumps and the classes of raised errors
must agree; only the generator's end state may differ.
"""

import dataclasses
import math

import numpy as np
import pytest

from pdmpkit import (
    BirthSwitchParams,
    Flow,
    GeneExpressionParams,
    GrowthDivision,
    Hazard,
    HazardChannel,
    JumpKernel,
    PdmpModel,
    Regime,
    SteinParams,
    TupleFn,
    TupleMap,
    iter_events,
    make_birth_switch,
    make_cell_cycle,
    make_gene_expression,
    make_grasshopper,
    make_stein,
    make_telegraph,
    occupation_samples,
    path_rng,
    simulate_ensemble,
    simulate_trajectory,
)
from pdmpkit import process
from pdmpkit.errors import InvalidParam, JumpBudgetExceeded, NonFinite, PdmpError
from pdmpkit.process import read_path

GENE = GeneExpressionParams(P=1.0, mu=1.0, q0=0.7, q1=1.3)
BIRTH_SWITCH = BirthSwitchParams(b0=0.2, b1=1.5, c=1.0, mu=1.0, q0=1.0, q1=1.0)

# (model, x0, regime0, horizon)
CASES = {
    "telegraph": (make_telegraph(1.1, 0.8), [0.3, -0.8], 0, 12.0),
    "gene_expression": (make_gene_expression(GENE), [0.5], 1, 15.0),
    "birth_switch": (make_birth_switch(BIRTH_SWITCH), [0.3], 0, 40.0),
}


def engine_twin(model: PdmpModel) -> PdmpModel:
    """The same model with its tuple flows and maps behind plain closures."""
    def plain(regime):
        closed = regime.flow.closed_form.fn
        flow = dataclasses.replace(regime.flow,
                                   closed_form=lambda t, x: np.array(closed(t, x.tolist())))

        def jump(x, reg, rng, _k):
            state, reg = _k(x.tolist(), reg)
            return np.array(state), reg

        hazards = tuple(
            dataclasses.replace(ch, kernel=JumpKernel(
                lambda x, reg, rng, _k=ch.kernel.sampler.fn: jump(x, reg, rng, _k)))
            for ch in regime.hazards)
        return dataclasses.replace(regime, flow=flow, hazards=hazards)

    twin = PdmpModel(model.name, tuple(plain(r) for r in model.regimes), model.params)
    assert all(r.float_step is None for r in twin.regimes) and twin.float_steps is None
    return twin


def reads(model, x0, regime0, horizon, times, seed=11, **kw):
    """Every read as (dtype, shape, bytes, regime), then the class of the error
    that ended the path, if one did."""
    out = []
    try:
        for x, reg in read_path(model, x0, regime0, path_rng(seed, 0), horizon, times, **kw):
            out.append((x.dtype.str, x.shape, x.tobytes(), reg))
    except PdmpError as exc:
        out.append(type(exc))
    return out


def both(model, *args, **kw):
    fast = reads(model, *args, **kw)
    assert fast == reads(engine_twin(model), *args, **kw)
    return fast


def jump_times(model, x0, regime0, horizon, seed=11):
    traj = simulate_trajectory(model, x0, regime0, horizon, path_rng(seed, 0))
    assert traj.jumps
    return [j.t for j in traj.jumps]


def recorded(model, x0, regime0, horizon, seed=11):
    """Every recorded jump with its states as float64 bytes."""
    traj = simulate_trajectory(model, x0, regime0, horizon, path_rng(seed, 0))
    return [(j.t, j.kind, j.regime_pre, j.regime_post,
             np.asarray(j.state_pre, dtype=float).tobytes(),
             np.asarray(j.state_post, dtype=float).tobytes()) for j in traj.jumps]


@pytest.mark.parametrize("name", list(CASES))
def test_catalog_models_opt_in(name):
    model = CASES[name][0]
    assert all(r.float_step is not None for r in model.regimes)
    assert model.float_steps == tuple(r.float_step for r in model.regimes)


@pytest.mark.parametrize("name", list(CASES))
def test_recorded_paths_match_the_engine(name):
    model, x0, regime0, horizon = CASES[name]
    twin = engine_twin(model)
    jumps = recorded(model, x0, regime0, horizon)
    assert len(jumps) > 4 and jumps == recorded(twin, x0, regime0, horizon)
    budget = len(jumps) // 2
    for m in (model, twin):
        with pytest.raises(JumpBudgetExceeded):
            simulate_trajectory(m, x0, regime0, horizon, path_rng(11, 0), jump_budget=budget)
        seen = []
        with pytest.raises(JumpBudgetExceeded):
            for t, _, _ in iter_events(m, x0, regime0, path_rng(11, 0), horizon, budget):
                seen.append(t)
        assert seen == [j[0] for j in jumps[:budget]]


def test_other_models_stay_on_the_engine():
    gene_fn = make_gene_expression(GeneExpressionParams(P=1.0, mu=1.0, q0=lambda x: 1.0 + x,
                                                        q1=1.0))
    stein = make_stein(SteinParams(alpha=1.0, a_E=0.3, a_I=0.2, lambda_E=2.0,
                                   lambda_I=1.0, theta=1.0, t_R=0.1))
    cycle = make_cell_cycle(GrowthDivision(g=lambda x: x, phi=1.0,
                                           g_closed_form=lambda t, x: x * math.exp(t)))
    hopper = make_grasshopper(1.0, lambda rng: rng.normal())
    for model in (gene_fn, stein, cycle, hopper):
        assert not all(r.float_step is not None for r in model.regimes), model.name


@pytest.mark.parametrize("name", list(CASES))
def test_ensembles_match_the_engine(name):
    model, x0, _, horizon = CASES[name]
    twin = engine_twin(model)

    def init(rng):
        return np.asarray(x0, dtype=float), int(rng.uniform() < 0.5) * (len(model.regimes) - 1)

    snaps = [0.0, horizon / 3, horizon / 2, horizon]
    a = simulate_ensemble(model, init, horizon, 40, seed=21, snapshot_times=snaps)
    b = simulate_ensemble(twin, init, horizon, 40, seed=21, snapshot_times=snaps)
    for key in ("snapshot_states", "snapshot_regimes", "final_states", "final_regimes"):
        assert getattr(a, key).tobytes() == getattr(b, key).tobytes(), key
    assert not a.errors and not b.errors


def test_partly_failing_ensemble_matches_the_engine():
    # regime 0 jumps at rate 1, regime 1 at rate 50 and overruns the budget
    # near t = 0.6; in regime 0 a path flagged k = 1 jumps to NaN once x > 2
    def jump(s, reg):
        x, k = s
        return ((math.nan if k == 1.0 and x > 2.0 else x + 1.0), k), reg

    flow = Flow(dim=2, rhs=lambda x: np.array([1.0, 0.0]),
                closed_form=TupleFn(lambda t, s: (s[0] + t, s[1])))
    model = PdmpModel("partial", tuple(
        Regime(r, flow, hazards=(HazardChannel(Hazard.constant(rate),
                                               JumpKernel(TupleMap(jump))),))
        for r, rate in enumerate((1.0, 50.0))))

    def init(rng):
        return np.array([0.0, float(rng.integers(2))]), int(rng.integers(2))

    snaps = [0.0, 0.25, 1.0, 2.0, 3.0]
    runs = [simulate_ensemble(m, init, 4.0, 60, seed=31, snapshot_times=snaps, jump_budget=30)
            for m in (model, engine_twin(model))]
    for key in ("snapshot_states", "snapshot_regimes", "final_states", "final_regimes"):
        a, b = (getattr(run, key) for run in runs)
        assert (a.tobytes(), a.dtype, a.shape) == (b.tobytes(), b.dtype, b.shape), key
        assert a.flags.c_contiguous and b.flags.c_contiguous, key
    fast, slow = runs
    assert [(i, type(e)) for i, e in fast.errors] == [(i, type(e)) for i, e in slow.errors]
    failed = [i for i, _ in fast.errors]
    assert failed == sorted(failed) and 0 < len(failed) < 60
    assert {type(e) for _, e in fast.errors} == {JumpBudgetExceeded, NonFinite}
    for i in range(60):
        regs = fast.snapshot_regimes[:, i].tolist()
        written = np.isfinite(fast.snapshot_states[:, i]).all(axis=1).tolist()
        assert written == [r != -1 for r in regs]
        if i in failed:
            # earlier reads stay written, the rest keep their fill values
            n = written.index(False) if False in written else len(written)
            assert n >= 1 and not any(written[n:])
            assert fast.final_regimes[i] == -1 and np.isnan(fast.final_states[i]).all()
        else:
            assert all(written) and fast.final_regimes[i] != -1


@pytest.mark.parametrize("name", list(CASES))
def test_reads_at_jump_times_and_horizon(name):
    model, x0, regime0, horizon = CASES[name]
    ts = jump_times(model, x0, regime0, horizon)
    times = sorted({0.0, *ts, horizon})
    out = both(model, x0, regime0, horizon, times)
    assert len(out) == len(times) and all(isinstance(o, tuple) for o in out)
    # right-continuous: the read at a jump time is the recorded post-jump state
    traj = simulate_trajectory(model, x0, regime0, horizon, path_rng(11, 0))
    for j in traj.jumps:
        (_, _, data, reg), = [o for t, o in zip(times, out) if t == j.t]
        assert data == np.asarray(j.state_post).tobytes() and reg == j.regime_post


@pytest.mark.parametrize("name", list(CASES))
def test_jump_budget_exceeded_at_the_same_event(name):
    model, x0, regime0, horizon = CASES[name]
    ts = jump_times(model, x0, regime0, horizon)
    budget = len(ts) // 2
    times = np.linspace(0.0, horizon, 64).tolist()
    out = both(model, x0, regime0, horizon, times, jump_budget=budget)
    assert out[-1] is JumpBudgetExceeded
    # the look-ahead raises while the read after the budget-th jump is made
    assert len(out) - 1 == sum(t < ts[budget - 1] for t in times)
    last = both(model, x0, regime0, horizon, times, jump_budget=len(ts))[-1]
    assert last is not JumpBudgetExceeded


def _hand_model(flow_fn, jump_fn, dim=1):
    flow = Flow(dim=dim, rhs=lambda x: np.ones(dim), closed_form=TupleFn(flow_fn))
    regime = Regime(0, flow, hazards=(HazardChannel(Hazard.constant(2.0),
                                                    JumpKernel(TupleMap(jump_fn)), "hop"),))
    model = PdmpModel("hand", (regime,))
    assert regime.float_step is not None
    return model


def test_non_finite_flow_raises_on_both_sides():
    # the flow leaves the double range once x passes 3
    model = _hand_model(lambda t, s: (s[0] + t if s[0] + t < 3.0 else math.inf,),
                        lambda s, reg: (s, 0))
    out = both(model, [0.0], 0, 10.0, np.linspace(0.0, 10.0, 41).tolist())
    assert out[-1] is NonFinite and len(out) > 1


def test_non_finite_jump_raises_on_both_sides():
    model = _hand_model(lambda t, s: (s[0] + t,),
                        lambda s, reg: ((s[0] + 1.0 if s[0] < 4.0 else math.nan,), reg))
    out = both(model, [0.0], 0, 10.0, np.linspace(0.0, 10.0, 41).tolist())
    assert out[-1] is NonFinite and len(out) > 1


def test_state_shape_checked_on_both_sides():
    model, _, _, horizon = CASES["telegraph"]
    assert both(model, [0.0], 0, horizon, [1.0]) == [InvalidParam]
    # a jump that returns the wrong length is caught before the next event
    grow = _hand_model(lambda t, s: (s[0] + t,), lambda s, reg: ((s[0], 1.0), 0))
    out = both(grow, [0.0], 0, 10.0, [0.0, 10.0])
    assert out[-1] is InvalidParam


def test_rate_zero_reads_the_flow_to_the_horizon():
    flow = Flow(dim=1, rhs=lambda x: -x, closed_form=TupleFn(
        lambda t, s: (s[0] * math.exp(-t),)))
    regime = Regime(0, flow, hazards=(HazardChannel(Hazard.constant(0.0), JumpKernel(
        TupleMap(lambda s, reg: (s, 0)))),))
    model = PdmpModel("still", (regime,))
    out = both(model, [2.0], 0, 5.0, [0.0, 1.0, 5.0])
    assert [np.frombuffer(o[2])[0] for o in out] == [2.0, 2.0 * math.exp(-1.0),
                                                    2.0 * math.exp(-5.0)]


def test_the_engine_is_not_used(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the engine ran")
    monkeypatch.setattr(process, "_event", fail)
    monkeypatch.setattr(process, "sample_jump_time", fail)
    model, x0, regime0, horizon = CASES["gene_expression"]
    assert len(reads(model, x0, regime0, horizon, [1.0, horizon])) == 2
    assert simulate_trajectory(model, x0, regime0, horizon, path_rng(11, 0)).jumps


def test_occupation_samples_match_the_engine():
    model = make_gene_expression(GENE)
    a = occupation_samples(model, [0.5], 0, 400.0, path_rng(8, 0), delta=0.5)
    b = occupation_samples(engine_twin(model), [0.5], 0, 400.0, path_rng(8, 0), delta=0.5)
    assert a[0].tobytes() == b[0].tobytes() and a[1].tobytes() == b[1].tobytes()
    assert a[0].size == 401


@pytest.mark.parametrize("delta", [0, 0.0, -1.0, math.inf, math.nan, True, "1"])
def test_occupation_delta_must_be_positive_and_finite(delta):
    model = make_gene_expression(GENE)
    with pytest.raises(InvalidParam, match="delta"):
        occupation_samples(model, [0.5], 0, 10.0, path_rng(8, 0), delta=delta)
