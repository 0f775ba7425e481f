"""Generic PDMP engine: regimes, competing hazards, deterministic clocks, trajectories.

Every jump cause (stochastic hazard or deterministic clock) proposes its own
event time from the current state; the earliest one wins and its kernel is
applied to the left limit of the state.  Ties are broken deterministically:
clocks beat hazards, lower channel index beats higher.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .csvout import F17, write_csv
from .errors import (
    HorizonExceeded,
    InvalidParam,
    JumpBudgetExceeded,
    NonFinite,
    PdmpError,
)
from .flows import (Flow, Hazard, TupleFlow, _as_state, all_finite, as_vector,
                    boundary_hit_time, flow_evolve, sample_jump_time)

Array = np.ndarray

DEFAULT_JUMP_BUDGET = 10_000_000
BLOCK = 64      # Exp(1) levels drawn per call by the plain-float path reader

KernelFn = Callable[[Array, int, np.random.Generator], tuple]


class TupleMap:
    """A jump that draws nothing, written on plain floats: ``fn(s, regime) ->
    (s', regime')`` with ``s`` a sequence of Python floats (a tuple or a list)
    and ``s'`` a tuple of them.  Used as a :class:`JumpKernel` sampler it takes
    ``(x, regime, rng)``, returns an array state and never hands ``rng`` to
    ``fn``."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[Sequence[float], int], tuple]):
        self.fn = fn

    def __call__(self, x: Array, regime: int, rng: np.random.Generator):
        state, reg = self.fn(x.tolist(), regime)
        return np.array(state), reg


@dataclass(frozen=True)
class JumpKernel:
    """Post-jump law: sampler(pre_state, regime, rng) -> (state, regime[, label]).

    Return the state as a 1-D float64 ndarray, or pay a conversion on every jump.
    A :class:`TupleMap` sampler is the tuple form of that contract for a jump
    that draws nothing: the same post-jump numbers, from the pre-jump floats
    and the regime alone.
    """

    sampler: KernelFn

    def apply(self, x: Array, regime: int, rng: np.random.Generator):
        out = self.sampler(x, regime, rng)
        if len(out) == 2:
            state, reg = out
            label = None
        else:
            state, reg, label = out
        state = as_vector(state)
        if not all_finite(state):
            raise NonFinite("jump kernel produced a non-finite state")
        return state, int(reg), label


@dataclass(frozen=True)
class FixedDelay:
    """Clock that fires a fixed duration after the regime was entered."""

    duration: float

    def __post_init__(self):
        if not self.duration > 0:
            raise InvalidParam("FixedDelay duration must be > 0")


@dataclass(frozen=True)
class BoundaryHit:
    """Clock that fires when ``event_fn(x)`` crosses zero along the flow."""

    event_fn: Callable[[Array], float]


@dataclass(frozen=True)
class DeterministicClock:
    kind: Union[FixedDelay, BoundaryHit]
    target: JumpKernel
    label: str = "clock"


@dataclass(frozen=True)
class HazardChannel:
    hazard: Hazard
    kernel: JumpKernel
    label: str = "jump"


@dataclass(frozen=True)
class Regime:
    """One dynamical mode: a flow plus the jump causes active in it."""

    index: int
    flow: Flow
    hazards: Tuple[HazardChannel, ...] = ()
    clocks: Tuple[DeterministicClock, ...] = ()
    absorbing: bool = False
    domain: Optional[Callable[[Array], bool]] = None
    # the regime's one jump cause when it has one hazard and no clock
    sole_hazard: Optional[HazardChannel] = field(init=False, default=None, repr=False,
                                                 compare=False)
    # (tuple flow fn, rate, jump map fn) when that hazard has a constant rate,
    # the regime no domain, the flow a TupleFlow and the kernel a TupleMap
    float_step: Optional[tuple] = field(init=False, default=None, repr=False,
                                        compare=False)

    def __post_init__(self):
        object.__setattr__(self, "hazards", tuple(
            h if isinstance(h, HazardChannel) else HazardChannel(*h) for h in self.hazards
        ))
        object.__setattr__(self, "clocks", tuple(self.clocks))
        if len(self.hazards) == 1 and not self.clocks:
            ch = self.hazards[0]
            object.__setattr__(self, "sole_hazard", ch)
            closed, jump = self.flow.closed_form, ch.kernel.sampler
            if (ch.hazard.const_rate is not None and self.domain is None
                    and isinstance(closed, TupleFlow) and isinstance(jump, TupleMap)):
                object.__setattr__(self, "float_step",
                                   (closed.fn, ch.hazard.const_rate, jump.fn))
        if not self.absorbing and not self.hazards and not self.clocks:
            raise InvalidParam(
                f"regime {self.index} has no hazards and no clocks; declare it absorbing"
            )


@dataclass(frozen=True)
class PdmpModel:
    """Immutable process description: regimes, shared dimension, parameters."""

    name: str
    regimes: Tuple[Regime, ...]
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "regimes", tuple(self.regimes))
        ids = [r.index for r in self.regimes]
        if ids != list(range(len(self.regimes))):
            raise InvalidParam("regime indices must be dense 0..k-1 in order")
        dims = {r.flow.dim for r in self.regimes}
        if len(dims) != 1:
            raise InvalidParam("all regimes must share the state dimension")

    @property
    def dim(self) -> int:
        return self.regimes[0].flow.dim


class EventResult(NamedTuple):
    """Outcome of one resolved event, relative to the segment start."""

    dt: float
    kind: str
    state_pre: Array
    state_post: Array
    regime_post: int


class Segment(NamedTuple):
    t_start: float
    regime: int
    state: Array


class JumpRecord(NamedTuple):
    t: float
    kind: str
    regime_pre: int
    regime_post: int
    state_pre: Array
    state_post: Array


@dataclass
class Trajectory:
    """One realized path: deterministic segments separated by recorded jumps."""

    model: PdmpModel
    segments: list
    jumps: list
    horizon: float

    def state_at(self, t: float) -> Tuple[Array, int]:
        """State and regime at time t, reconstructed by flowing within a segment."""
        if not 0.0 <= t <= self.horizon:
            raise InvalidParam(f"t={t} outside [0, horizon]")
        i = bisect_right(self.segments, t, key=attrgetter("t_start")) - 1
        seg = self.segments[i]
        flow = self.model.regimes[seg.regime].flow
        return flow_evolve(flow, seg.state, t - seg.t_start), seg.regime


def _earliest_cause(reg: Regime, x: Array, rng: np.random.Generator, t_max: float,
                    elapsed_in_regime: float):
    """(dt, rank, channel_index, kernel, label) of the earliest clock or hazard
    firing within ``t_max``, or None; clocks get rank 0 so they win ties."""
    best = None
    for ci, clock in enumerate(reg.clocks):
        if isinstance(clock.kind, FixedDelay):
            dt = clock.kind.duration - elapsed_in_regime
            if dt < 0.0:
                dt = 0.0
            if dt > t_max:
                continue
        else:
            hit = boundary_hit_time(reg.flow, clock.kind.event_fn, x, t_max)
            if hit is None:
                continue
            dt = hit
        cand = (dt, 0, ci, clock.target, clock.label)
        if best is None or cand[:3] < best[:3]:
            best = cand

    hz_cap = min(t_max, best[0]) if best is not None else t_max
    for hi, ch in enumerate(reg.hazards):
        try:
            dt = sample_jump_time(reg.flow, ch.hazard, x, rng, horizon=hz_cap)
        except HorizonExceeded:
            continue
        cand = (dt, 1, hi, ch.kernel, ch.label)
        if best is None or cand[:3] < best[:3]:
            best = cand
    return best


def next_event(model: PdmpModel, state, regime: int, rng: np.random.Generator, *,
               t_max: float, elapsed_in_regime: float = 0.0) -> Optional[EventResult]:
    """Resolve the earliest event among all hazards and clocks of the regime.

    Returns None when nothing fires before ``t_max`` (the caller truncates the
    segment there).  Fixed-delay clocks measure time since the regime was
    entered, hence ``elapsed_in_regime``.
    """
    if t_max <= 0:
        return None
    reg = model.regimes[regime]
    x = as_vector(state)

    ch = reg.sole_hazard
    if ch is not None:
        try:
            dt = sample_jump_time(reg.flow, ch.hazard, x, rng, horizon=t_max)
        except HorizonExceeded:
            return None
        kernel, label = ch.kernel, ch.label
    else:
        best = _earliest_cause(reg, x, rng, t_max, elapsed_in_regime)
        if best is None:
            return None
        dt, _, _, kernel, label = best
    x_pre = flow_evolve(reg.flow, x, dt)
    x_post, reg_post, kind = kernel.apply(x_pre, regime, rng)
    target = model.regimes[reg_post]
    if target.domain is not None and not target.domain(x_post):
        raise InvalidParam(f"kernel left the domain of regime {reg_post}: state {x_post!r}")
    return EventResult(dt, kind or label, x_pre, x_post, reg_post)


def iter_events(model: PdmpModel, x0, regime0: int, rng: np.random.Generator,
                horizon: float, jump_budget: int = DEFAULT_JUMP_BUDGET
                ) -> Iterator[Tuple[float, int, EventResult]]:
    """Stream (absolute time, pre-jump regime, event) without storing the path;
    one event more than ``jump_budget`` before the horizon raises instead."""
    if horizon <= 0:
        raise InvalidParam("horizon must be positive")
    if jump_budget < 0:
        raise InvalidParam("jump_budget must be >= 0")
    t = 0.0
    x = as_vector(x0)
    reg = int(regime0)
    entered = 0.0
    n = 0
    while t < horizon:
        ev = next_event(model, x, reg, rng, t_max=horizon - t,
                        elapsed_in_regime=t - entered)
        if ev is None:
            return
        if n == jump_budget:
            raise JumpBudgetExceeded(f"more than {jump_budget} jumps before horizon")
        t_jump = t + ev.dt
        yield t_jump, reg, ev
        n += 1
        if ev.regime_post != reg:
            entered = t_jump
        t = t_jump
        x = ev.state_post
        reg = ev.regime_post


def _float_events(model: PdmpModel, x: Array, reg: int, rng: np.random.Generator,
                  horizon: float, jump_budget: int) -> Iterator[tuple]:
    """:func:`iter_events` for a model whose every regime has a ``float_step``,
    yielding (absolute time, post-jump state, post-jump regime) with the state
    a sequence of floats.  The Exp(1) levels come ``BLOCK`` at a time from one
    ``rng.exponential`` call; every check fires where the engine's does."""
    if horizon <= 0:
        raise InvalidParam("horizon must be positive")
    if jump_budget < 0:
        raise InvalidParam("jump_budget must be >= 0")
    dim = model.dim
    steps = [r.float_step for r in model.regimes]
    flow, lam, jump = steps[reg]
    s = _as_state(x, dim).tolist()
    xis, k = (), BLOCK
    t = 0.0
    n = 0
    isfinite = math.isfinite
    while t < horizon:
        if len(s) != dim:
            _as_state(s, dim)
        if k == BLOCK:
            xis, k = rng.exponential(size=BLOCK).tolist(), 0
        xi = xis[k]
        k += 1
        if lam == 0.0:
            return
        tau = xi / lam
        if tau > horizon - t:
            return
        if tau != 0.0:
            s = flow(tau, s)
            if not all(map(isfinite, s)):
                raise NonFinite(f"closed-form flow produced non-finite state at t={tau:.6g}")
        s, reg = jump(s, reg)
        if not all(map(isfinite, s)):
            raise NonFinite("jump kernel produced a non-finite state")
        reg = int(reg)
        flow, lam, jump = steps[reg]
        if n == jump_budget:
            raise JumpBudgetExceeded(f"more than {jump_budget} jumps before horizon")
        t += tau
        yield t, s, reg
        n += 1


def _float_reader(model: PdmpModel):
    """:func:`flow_evolve` on a float-sequence state through the regimes'
    tuple flows, returning a 1-D float64 array."""
    dim = model.dim
    flows = [r.float_step[0] for r in model.regimes]

    def read(s, reg: int, dt: float) -> Array:
        if dt < 0:
            raise InvalidParam("flow_evolve needs t >= 0")
        if len(s) != dim:
            _as_state(s, dim)
        if dt != 0.0:
            s = flows[reg](dt, s)
            if not all(map(math.isfinite, s)):
                raise NonFinite(f"closed-form flow produced non-finite state at t={dt:.6g}")
        return np.array(s, dtype=float)
    return read


def read_path(model: PdmpModel, x0, regime0: int, rng: np.random.Generator,
              horizon: float, times, jump_budget: int = DEFAULT_JUMP_BUDGET
              ) -> Iterator[Tuple[Array, int]]:
    """Stream (state, regime) along one path at each of the nondecreasing
    ``times`` in [0, horizon], drawing events only as far as the reads need.
    Paths are right-continuous: a read at a jump time sees the post-jump state,
    as :meth:`Trajectory.state_at` does.

    When every regime has a ``float_step`` the path runs on plain floats with
    block-drawn levels: the same states and errors as the engine, in a
    different ``rng`` end state."""
    x = as_vector(x0)
    reg = int(regime0)
    t_seg = 0.0
    if all(r.float_step is not None for r in model.regimes):
        events = _float_events(model, x, reg, rng, horizon, jump_budget)
        read = _float_reader(model)
        x = x.tolist()
    else:
        events = ((t, ev.state_post, ev.regime_post)
                  for t, _, ev in iter_events(model, x, reg, rng, horizon, jump_budget))
        regimes = model.regimes

        def read(x, reg, dt):
            return flow_evolve(regimes[reg].flow, x, dt)
    nxt = next(events, None)
    for t in times:
        while nxt is not None and nxt[0] <= t:
            t_seg, x, reg = nxt
            nxt = next(events, None)
        yield read(x, reg, t - t_seg), reg


def simulate_trajectory(model: PdmpModel, x0, regime0: int, horizon: float,
                        rng: np.random.Generator,
                        jump_budget: int = DEFAULT_JUMP_BUDGET) -> Trajectory:
    """Run the process to the horizon, recording every segment and jump."""
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    segments = [Segment(0.0, int(regime0), x)]
    jumps = []
    for t_jump, reg_pre, ev in iter_events(model, x, regime0, rng, horizon, jump_budget):
        jumps.append(JumpRecord(t_jump, ev.kind, reg_pre, ev.regime_post,
                                ev.state_pre, ev.state_post))
        segments.append(Segment(t_jump, ev.regime_post, ev.state_post))
    return Trajectory(model=model, segments=segments, jumps=jumps, horizon=horizon)


def path_rng(seed: int, path_index: int) -> np.random.Generator:
    """Decorrelated counter-based stream for one path of an ensemble."""
    ss = np.random.SeedSequence(entropy=int(seed) & (2**64 - 1),
                                spawn_key=(int(path_index),))
    return np.random.Generator(np.random.Philox(seed=ss))


@dataclass
class EnsembleResult:
    """Final states plus requested time slices for a batch of independent paths."""

    snapshot_times: Tuple[float, ...]
    snapshot_states: Array          # (n_snaps, n_paths, dim)
    snapshot_regimes: Array         # (n_snaps, n_paths)
    final_states: Array             # (n_paths, dim)
    final_regimes: Array            # (n_paths,)
    horizon: float
    errors: list                    # [(path_index, PdmpError), ...]


def _run_path(model: PdmpModel, initial_sampler, horizon: float, snaps: Array,
              seed: int, i: int, out: EnsembleResult, jump_budget: int) -> None:
    rng = path_rng(seed, i)
    x0, r0 = initial_sampler(rng)
    try:
        reads = read_path(model, x0, r0, rng, horizon, [*snaps.tolist(), horizon], jump_budget)
        for k, (x, reg) in zip(range(snaps.size), reads):
            out.snapshot_states[k, i] = x
            out.snapshot_regimes[k, i] = reg
        out.final_states[i], out.final_regimes[i] = next(reads)
    except PdmpError as exc:  # collected, never aborts the ensemble
        out.errors.append((i, exc))


def simulate_ensemble(model: PdmpModel, initial_sampler, horizon: float, n_paths: int,
                      seed: int, snapshot_times: Sequence[float] = (),
                      jump_budget: int = DEFAULT_JUMP_BUDGET) -> EnsembleResult:
    """Independent paths on decorrelated streams derived from ``seed``.

    ``initial_sampler(rng) -> (state, regime)`` draws the initial condition
    from the same per-path stream, so the whole ensemble is reproducible from
    (seed, n_paths, model, snapshot_times) alone.
    """
    if n_paths < 1:
        raise InvalidParam("n_paths must be >= 1")
    snaps = np.asarray(sorted(snapshot_times), dtype=float)
    if snaps.size and (snaps[0] < 0 or snaps[-1] > horizon):
        raise InvalidParam("snapshot times must lie in [0, horizon]")
    dim = model.dim
    out = EnsembleResult(
        snapshot_times=tuple(snaps.tolist()),
        snapshot_states=np.full((snaps.size, n_paths, dim), np.nan),
        snapshot_regimes=np.full((snaps.size, n_paths), -1, dtype=np.int64),
        final_states=np.full((n_paths, dim), np.nan),
        final_regimes=np.full(n_paths, -1, dtype=np.int64),
        horizon=horizon,
        errors=[],
    )
    for i in range(n_paths):
        _run_path(model, initial_sampler, horizon, snaps, seed, i, out, jump_budget)
    return out


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


def trajectories_to_csv(trajectories: Sequence[Trajectory], path) -> None:
    """Jump log: (path_id, t, event_kind, regime_pre, regime_post, pre..., post...)."""
    if not trajectories:
        raise InvalidParam("need at least one trajectory")
    dim = trajectories[0].model.dim
    header = (["path_id", "t", "event_kind", "regime_pre", "regime_post"]
              + [f"pre_s{k}" for k in range(dim)] + [f"post_s{k}" for k in range(dim)])
    write_csv(path, header, (
        [pid, F17(j.t), j.kind, j.regime_pre, j.regime_post]
        + [F17(v) for v in j.state_pre.tolist()] + [F17(v) for v in j.state_post.tolist()]
        for pid, traj in enumerate(trajectories) for j in traj.jumps))


def _snapshots_csv(path, dim: int, rows) -> None:
    """Time slices from (path_id, t_snap, state, regime) tuples."""
    write_csv(path, ["path_id", "t_snap", "regime"] + [f"s{k}" for k in range(dim)],
              ([pid, F17(t), reg] + [F17(v) for v in state.tolist()]
               for pid, t, state, reg in rows))


def snapshots_to_csv(ensemble: EnsembleResult, path) -> None:
    """Time slices: (path_id, t_snap, regime, s0, s1, ...)."""
    n_paths, dim = ensemble.final_states.shape
    _snapshots_csv(path, dim, (
        (pid, t, ensemble.snapshot_states[si, pid], int(ensemble.snapshot_regimes[si, pid]))
        for si, t in enumerate(ensemble.snapshot_times) for pid in range(n_paths)))


def trajectory_snapshots_to_csv(trajectories: Sequence[Trajectory], times, path) -> None:
    """The layout of :func:`snapshots_to_csv`, read off recorded trajectories."""
    _snapshots_csv(path, trajectories[0].model.dim, (
        (pid, t, *traj.state_at(t)) for t in sorted(times)
        for pid, traj in enumerate(trajectories)))
