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
from functools import cached_property, lru_cache
from operator import attrgetter
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.random.bit_generator import ISpawnableSeedSequence

from .csvout import write_csv
from .errors import (
    HorizonExceeded,
    InvalidParam,
    JumpBudgetExceeded,
    NonFinite,
    PdmpError,
)
from .flows import (Flow, Hazard, TupleFn, _floats, _state, boundary_hit_time, evolve,
                    flow_evolve, sample_jump_time, tuple_form)

Array = np.ndarray

DEFAULT_JUMP_BUDGET = 10_000_000
BLOCK = 64      # Exp(1) levels drawn per call by the plain-float path reader

KernelFn = Callable[[Array, int, np.random.Generator], tuple]


class TupleMap(TupleFn):
    """A jump that draws nothing, on plain floats: ``fn(s, regime) -> (s',
    regime')``, ``s`` a tuple or a list of floats and ``s'`` a tuple; the
    streamed reader runs it (see :class:`Regime`)."""


@lru_cache(maxsize=1024)
def _plain(label: str) -> bool:
    return not any(c in label for c in ',"\r\n')


def _check_label(label) -> None:
    """A label goes unquoted into the CSV jump log; each distinct one is checked once."""
    if not (isinstance(label, str) and _plain(label)):
        raise InvalidParam(f"label {label!r} needs to be a str without , \" \\r \\n")


@dataclass(frozen=True)
class JumpKernel:
    """Post-jump law: sampler(pre_state, regime, rng) -> (state, regime[, label]),
    of the array contract or a float form (a :class:`TupleMap`, or a
    :class:`~pdmpkit.flows.TupleFn` that may draw); ``tuple_sampler`` is the float form."""

    sampler: KernelFn
    tuple_sampler: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        k = self.sampler
        object.__setattr__(self, "tuple_sampler", (
            lambda s, regime, rng, _f=k.fn: _f(s, regime)) if isinstance(k, TupleMap) else
            tuple_form(k, lambda out: (_floats(out[0]), *out[1:])))

    def apply(self, s: tuple, regime: int, rng: np.random.Generator):
        out = self.tuple_sampler(s, regime, rng)
        state, reg, label = out if len(out) == 3 else (*out, None)
        if label is not None:
            _check_label(label)
        if not all(map(math.isfinite, state)):
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
    """Clock that fires when ``event_fn(x)`` crosses zero; ``tuple_event`` is its float form."""

    event_fn: Callable[[Array], float]
    tuple_event: TupleFn = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "tuple_event", TupleFn(tuple_form(self.event_fn, float)))


class _Labelled:
    def __post_init__(self):
        _check_label(self.label)


@dataclass(frozen=True)
class DeterministicClock(_Labelled):
    kind: Union[FixedDelay, BoundaryHit]
    target: JumpKernel
    label: str = "clock"


@dataclass(frozen=True)
class HazardChannel(_Labelled):
    hazard: Hazard
    kernel: JumpKernel
    label: str = "jump"


@dataclass(frozen=True)
class Regime:
    """One dynamical mode: a flow plus the jump causes active in it; ``tuple_domain``
    is the float form of ``domain`` (array contract or :class:`~pdmpkit.flows.TupleFn`)."""

    index: int
    flow: Flow
    hazards: Tuple[HazardChannel, ...] = ()
    clocks: Tuple[DeterministicClock, ...] = ()
    absorbing: bool = False
    domain: Optional[Callable[[Array], bool]] = None
    tuple_domain: Optional[Callable] = field(init=False, default=None, repr=False, compare=False)
    # the regime's one jump cause when it has one hazard and no clock
    sole_hazard: Optional[HazardChannel] = field(init=False, default=None, repr=False,
                                                 compare=False)
    # (tuple flow fn, rate, jump map fn) when that hazard has a constant rate,
    # the regime no domain, the flow's closed form a TupleFn and the kernel a TupleMap
    float_step: Optional[tuple] = field(init=False, default=None, repr=False,
                                        compare=False)

    def __post_init__(self):
        object.__setattr__(self, "hazards", tuple(
            h if isinstance(h, HazardChannel) else HazardChannel(*h) for h in self.hazards
        ))
        object.__setattr__(self, "clocks", tuple(self.clocks))
        if self.domain is not None:
            object.__setattr__(self, "tuple_domain", tuple_form(self.domain, bool))
        if len(self.hazards) == 1 and not self.clocks:
            ch = self.hazards[0]
            object.__setattr__(self, "sole_hazard", ch)
            closed, jump = self.flow.closed_form, ch.kernel.sampler
            if (ch.hazard.const_rate is not None and self.domain is None
                    and isinstance(closed, TupleFn) and isinstance(jump, TupleMap)):
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
    """One resolved event, relative to the segment start (array states from ``next_event``)."""

    dt: float
    kind: str
    state_pre: Sequence[float]
    state_post: Sequence[float]
    regime_post: int


class Segment(NamedTuple):
    t_start: float
    regime: int
    state: tuple


class JumpRecord(NamedTuple):
    t: float
    kind: str
    regime_pre: int
    regime_post: int
    state_pre: tuple
    state_post: tuple


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


def _regime(model: PdmpModel, regime) -> int:
    """``regime`` as an index of the model's regimes."""
    r, k = int(regime), len(model.regimes)
    if not 0 <= r < k:
        raise InvalidParam(f"regime {r} is not in [0, {k})")
    return r


def _event(model: PdmpModel, x: tuple, regime: int, rng: np.random.Generator,
           t_max: float, elapsed_in_regime: float) -> Optional[EventResult]:
    """:func:`next_event` for ``t_max > 0``, with states as tuples of floats."""
    reg = model.regimes[regime]
    if len(x) != reg.flow.dim:
        _state(x, reg.flow.dim)
    ch = reg.sole_hazard
    if ch is not None:
        try:
            dt = sample_jump_time(reg.flow, ch.hazard, x, rng, horizon=t_max)
        except HorizonExceeded:
            return None
        kernel, label = ch.kernel, ch.label
    else:
        best = None     # (dt, rank, channel index, kernel, label); clocks rank 0
        for ci, clock in enumerate(reg.clocks):
            if isinstance(clock.kind, FixedDelay):
                dt = max(clock.kind.duration - elapsed_in_regime, 0.0)
                if dt > t_max:
                    continue
            else:
                dt = boundary_hit_time(reg.flow, clock.kind.tuple_event, x, t_max)
                if dt is None:
                    continue
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
        if best is None:
            return None
        dt, _, _, kernel, label = best
    x_pre = evolve(reg.flow, x, dt)
    x_post, reg_post, kind = kernel.apply(x_pre, regime, rng)
    domain = model.regimes[reg_post].tuple_domain
    if domain is not None and not domain(x_post):
        raise InvalidParam(f"kernel left the domain of regime {reg_post}: state {x_post!r}")
    return EventResult(dt, kind or label, x_pre, x_post, reg_post)


def next_event(model: PdmpModel, state, regime: int, rng: np.random.Generator, *,
               t_max: float, elapsed_in_regime: float = 0.0) -> Optional[EventResult]:
    """Resolve the earliest event among all hazards and clocks of the regime.

    Returns None when nothing fires before ``t_max`` (the caller truncates the
    segment there).  Fixed-delay clocks measure time since the regime was
    entered, hence ``elapsed_in_regime``.  The states come back as 1-D float64
    arrays.
    """
    regime = _regime(model, regime)
    if t_max <= 0:
        return None
    ev = _event(model, _state(state, model.dim), regime, rng, t_max, elapsed_in_regime)
    return None if ev is None else ev._replace(state_pre=np.array(ev.state_pre, dtype=float),
                                               state_post=np.array(ev.state_post, dtype=float))


def iter_events(model: PdmpModel, x0, regime0: int, rng: np.random.Generator,
                horizon: float, jump_budget: int = DEFAULT_JUMP_BUDGET
                ) -> Iterator[Tuple[float, int, EventResult]]:
    """Stream (absolute time, pre-jump regime, event with tuple states) without
    storing the path; one event more than ``jump_budget`` before the horizon raises."""
    if not horizon > 0:     # NaN fails too
        raise InvalidParam("horizon must be positive")
    if jump_budget < 0:
        raise InvalidParam("jump_budget must be >= 0")
    t, x, reg, entered, n = 0.0, _state(x0, model.dim), _regime(model, regime0), 0.0, 0
    while t < horizon:
        ev = _event(model, x, reg, rng, horizon - t, t - entered)
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


def _float_reads(steps: list, dim: int, x0, reg: int, rng: np.random.Generator,
                 horizon: float, times, jump_budget: int) -> Iterator[tuple]:
    """:func:`read_path` for a model whose regimes' ``float_step`` are ``steps``,
    yielding each read's state as a sequence of floats.  Events are drawn
    inline, one ahead of the reads, with the Exp(1) levels ``BLOCK`` at a time
    from one ``rng.exponential`` call; every check fires where the engine's does."""
    if not horizon > 0:     # NaN fails too
        raise InvalidParam("horizon must be positive")
    if jump_budget < 0:
        raise InvalidParam("jump_budget must be >= 0")
    isfinite = math.isfinite
    s = list(_state(x0, dim))
    flow, lam, jump = steps[reg]
    reads = iter(times)
    t_read = next(reads, None)
    xis, k, n, t = (), BLOCK, 0, 0.0
    while True:
        # the event ending the segment (t, s, reg) is at t_new, None past the horizon
        t_new = None
        if len(s) != dim:
            _state(s, dim)
        if t < horizon:     # as the engine, nothing is drawn at the horizon
            if k == BLOCK:
                xis, k = rng.exponential(size=BLOCK).tolist(), 0
            xi = xis[k]
            k += 1
            if lam != 0.0 and not (tau := xi / lam) > horizon - t:
                s_new = s
                if tau != 0.0:
                    s_new = flow(tau, s)
                    if not all(map(isfinite, s_new)):
                        raise NonFinite(
                            f"closed-form flow produced non-finite state at t={tau:.6g}")
                s_new, reg_new = jump(s_new, reg)
                if not all(map(isfinite, s_new)):
                    raise NonFinite("jump kernel produced a non-finite state")
                reg_new = int(reg_new)
                step_new = steps[reg_new]
                if n == jump_budget:
                    raise JumpBudgetExceeded(f"more than {jump_budget} jumps before horizon")
                n += 1
                t_new = t + tau
        # right-continuous: a read at t_new belongs to the next segment
        while t_read is not None and (t_new is None or not t_new <= t_read):
            dt = t_read - t
            if dt < 0:
                raise InvalidParam("flow_evolve needs t >= 0")
            x = s
            if dt != 0.0:
                x = flow(dt, s)
                if not all(map(isfinite, x)):
                    raise NonFinite(f"closed-form flow produced non-finite state at t={dt:.6g}")
            yield x, reg
            t_read = next(reads, None)
        if t_read is None:
            return
        t, s, reg, (flow, lam, jump) = t_new, s_new, reg_new, step_new


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
    regime0 = _regime(model, regime0)
    steps = [r.float_step for r in model.regimes]
    if None not in steps:
        yield from ((np.array(s, dtype=float), reg) for s, reg in _float_reads(
            steps, model.dim, x0, regime0, rng, horizon, times, jump_budget))
        return
    x, reg, t_seg = _state(x0, model.dim), regime0, 0.0
    events = iter_events(model, x, reg, rng, horizon, jump_budget)
    nxt = next(events, None)
    for t in times:
        while nxt is not None and nxt[0] <= t:
            t_seg, _, ev = nxt
            x, reg = ev.state_post, ev.regime_post
            nxt = next(events, None)
        yield flow_evolve(model.regimes[reg].flow, x, t - t_seg), reg


def simulate_trajectory(model: PdmpModel, x0, regime0: int, horizon: float,
                        rng: np.random.Generator,
                        jump_budget: int = DEFAULT_JUMP_BUDGET) -> Trajectory:
    """Run the process to the horizon, recording every segment and jump (tuple states)."""
    x = _state(x0, model.dim)
    segments = [Segment(0.0, int(regime0), x)]
    jumps = []
    for t_jump, reg_pre, ev in iter_events(model, x, regime0, rng, horizon, jump_budget):
        jumps.append(JumpRecord(t_jump, ev.kind, reg_pre, ev.regime_post,
                                ev.state_pre, ev.state_post))
        segments.append(Segment(t_jump, ev.regime_post, ev.state_post))
    return Trajectory(model=model, segments=segments, jumps=jumps, horizon=horizon)


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_M32, _MULT_A, _MIX_L, _MIX_R = 0xFFFFFFFF, 0x931E8875, 0xCA01F9DD, 0x4973F715
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_HASH_A16 = 0x43B0D7E5 * _MULT_A ** 16 & _M32   # hashmix's constant after 16 calls


@lru_cache(maxsize=64)
def _seed_pool(seed: int) -> tuple:
    """``SeedSequence(seed, spawn_key=...)``'s pool before the key is mixed in."""
    return tuple(np.random.SeedSequence([seed & _M32, seed >> 32, 0, 0]).pool.tolist())


class _PathSeed(ISpawnableSeedSequence):
    """``SeedSequence(seed, spawn_key=(index,))`` held as the Philox key it
    generates; the real one is built, once, only to spawn or for other words."""

    def __init__(self, seed: int, index: int, key: list):
        self.seed, self.index, self.key = seed, index, key

    @cached_property
    def real(self) -> np.random.SeedSequence:
        return np.random.SeedSequence(self.seed, spawn_key=(self.index,))

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words == 2 and dtype == np.uint64:
            return np.array(self.key, dtype=np.uint64)
        return self.real.generate_state(n_words, dtype)

    def spawn(self, n_children):
        return self.real.spawn(n_children)


def path_rng(seed: int, path_index: int) -> np.random.Generator:
    """Decorrelated counter-based stream for one path of an ensemble: numpy's
    ``SeedSequence(seed mod 2**64, spawn_key=(path_index,))`` Philox stream,
    bit for bit, with the key hashed here without building the SeedSequence."""
    seed, i = int(seed) & (2**64 - 1), int(path_index)
    if i < 0:
        raise InvalidParam(f"path_index must be >= 0, got {i}")
    pool, const = list(_seed_pool(seed)), _HASH_A16
    for s in range(0, max(i.bit_length(), 1), 32):   # the index's words, low first
        w = i >> s & _M32
        for d in range(4):      # pool[d] = mix(pool[d], hashmix(w))
            v = (w ^ const) * (const := const * _MULT_A & _M32) & _M32
            v = (_MIX_L * pool[d] - _MIX_R * (v ^ v >> 16)) & _M32
            pool[d] = v ^ v >> 16
    const = _INIT_B
    for d in range(4):          # generate_state(2, np.uint64)
        v = (pool[d] ^ const) * (const := const * _MULT_B & _M32) & _M32
        pool[d] = v ^ v >> 16
    key = [pool[0] | pool[1] << 32, pool[2] | pool[3] << 32]
    return np.random.Generator(np.random.Philox(seed=_PathSeed(seed, i, key)))


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


def simulate_ensemble(model: PdmpModel, initial_sampler, horizon: float, n_paths: int,
                      seed: int, snapshot_times: Sequence[float] = (),
                      jump_budget: int = DEFAULT_JUMP_BUDGET) -> EnsembleResult:
    """Independent paths on decorrelated streams derived from ``seed``.

    ``initial_sampler(rng) -> (state, regime)`` draws the initial condition
    from the same per-path stream, so the whole ensemble is reproducible from
    (seed, n_paths, model, snapshot_times) alone.  A path that raises a
    :class:`PdmpError` keeps its earlier reads; the error goes to ``errors``.
    """
    if n_paths < 1:
        raise InvalidParam("n_paths must be >= 1")
    if not horizon > 0:
        raise InvalidParam("horizon must be positive")
    snaps = np.asarray(sorted(snapshot_times), dtype=float)
    if not ((snaps >= 0) & (snaps <= horizon)).all():     # NaN fails too
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
    steps, times = [r.float_step for r in model.regimes], [*out.snapshot_times, horizon]
    for i in range(n_paths):
        rng = path_rng(seed, i)
        x0, r0 = initial_sampler(rng)
        try:
            r0 = _regime(model, r0)
            reads = (read_path(model, x0, r0, rng, horizon, times, jump_budget)
                     if None in steps else
                     _float_reads(steps, dim, x0, r0, rng, horizon, times, jump_budget))
            for k, (x, reg) in zip(range(snaps.size), reads):
                out.snapshot_states[k, i] = x
                out.snapshot_regimes[k, i] = reg
            out.final_states[i], out.final_regimes[i] = next(reads)
        except PdmpError as exc:  # collected, never aborts the ensemble
            out.errors.append((i, exc))
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
    write_csv(path, header, "%s,%.17g,%s,%s,%s" + ",%.17g" * (2 * dim), (
        (pid, j.t, j.kind, j.regime_pre, j.regime_post, *j.state_pre, *j.state_post)
        for pid, traj in enumerate(trajectories) for j in traj.jumps))


def _snapshots_csv(path, dim: int, rows) -> None:
    """Time slices from (path_id, t_snap, state, regime) tuples."""
    write_csv(path, ["path_id", "t_snap", "regime"] + [f"s{k}" for k in range(dim)],
              "%s,%.17g,%s" + ",%.17g" * dim,
              ((pid, t, reg, *state.tolist()) for pid, t, state, reg in rows))


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
