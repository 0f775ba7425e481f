"""Generic PDMP engine: regimes, competing hazards, deterministic clocks, trajectories.

Every jump cause (stochastic hazard or deterministic clock) proposes its own
event time from the current state; the earliest one wins and its kernel is
applied to the left limit of the state.  Ties are broken deterministically:
clocks beat hazards, lower channel index beats higher.
"""

from __future__ import annotations

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
)
from .flows import (Flow, Hazard, all_finite, as_vector, boundary_hit_time, flow_evolve,
                    sample_jump_time)

Array = np.ndarray

DEFAULT_JUMP_BUDGET = 10_000_000

KernelFn = Callable[[Array, int, np.random.Generator], tuple]


@dataclass(frozen=True)
class JumpKernel:
    """Post-jump law: sampler(pre_state, regime, rng) -> (state, regime[, label]).

    Return the state as a 1-D float64 ndarray, or pay a conversion on every jump.
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

    def __post_init__(self):
        object.__setattr__(self, "hazards", tuple(
            h if isinstance(h, HazardChannel) else HazardChannel(*h) for h in self.hazards
        ))
        object.__setattr__(self, "clocks", tuple(self.clocks))
        if len(self.hazards) == 1 and not self.clocks:
            object.__setattr__(self, "sole_hazard", self.hazards[0])
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
    errors: list                    # [(path_index, "repr"), ...]


def _run_path(model: PdmpModel, initial_sampler, horizon: float, snaps: Array,
              seed: int, i: int, out: EnsembleResult, jump_budget: int) -> None:
    rng = path_rng(seed, i)
    x0, r0 = initial_sampler(rng)
    x_seg = np.atleast_1d(np.asarray(x0, dtype=float))
    t_seg, reg = 0.0, int(r0)
    ptr = 0
    try:
        for t_jump, reg_pre, ev in iter_events(model, x_seg, reg, rng, horizon, jump_budget):
            flow = model.regimes[reg_pre].flow
            while ptr < snaps.size and snaps[ptr] <= t_jump:
                out.snapshot_states[ptr, i] = flow_evolve(flow, x_seg, snaps[ptr] - t_seg)
                out.snapshot_regimes[ptr, i] = reg_pre
                ptr += 1
            t_seg, x_seg, reg = t_jump, ev.state_post, ev.regime_post
        flow = model.regimes[reg].flow
        while ptr < snaps.size:
            out.snapshot_states[ptr, i] = flow_evolve(flow, x_seg, snaps[ptr] - t_seg)
            out.snapshot_regimes[ptr, i] = reg
            ptr += 1
        out.final_states[i] = flow_evolve(flow, x_seg, horizon - t_seg)
        out.final_regimes[i] = reg
    except Exception as exc:  # collected, never aborts the ensemble
        out.errors.append((i, repr(exc)))


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
        + [F17(v) for v in j.state_pre] + [F17(v) for v in j.state_post]
        for pid, traj in enumerate(trajectories) for j in traj.jumps))


def _snapshots_csv(path, dim: int, rows) -> None:
    """Time slices from (path_id, t_snap, state, regime) tuples."""
    write_csv(path, ["path_id", "t_snap", "regime"] + [f"s{k}" for k in range(dim)],
              ([pid, F17(t), reg] + [F17(v) for v in state] for pid, t, state, reg in rows))


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
