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
BLOCK = 64      # Exp(1) levels drawn per call on a model's plain-float steps

KernelFn = Callable[[Array, int, np.random.Generator], tuple]


class TupleMap(TupleFn):
    """A jump that draws nothing, on plain floats: ``fn(s, regime) -> (s',
    regime')``, ``s`` a tuple or a list of floats and ``s'`` a tuple; the
    event loop runs it inline (see :class:`Regime`)."""


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
    """Clock that fires when the age ``s[coord]`` reaches ``duration``: at dt
    ``max(duration - s[coord], 0)``.  Contract, not checked: the regime's flow
    moves ``s[coord]`` at unit speed, and the kernel entering the regime sets it."""

    duration: float
    coord: int

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
    # (tuple flow fn, rate, jump map fn, label) when the regime has one hazard, of
    # constant rate, no clock, no domain, a TupleFn closed-form flow and a TupleMap kernel
    float_step: Optional[tuple] = field(init=False, default=None, repr=False,
                                        compare=False)

    def __post_init__(self):
        object.__setattr__(self, "hazards", tuple(
            h if isinstance(h, HazardChannel) else HazardChannel(*h) for h in self.hazards
        ))
        object.__setattr__(self, "clocks", tuple(self.clocks))
        for c in self.clocks:
            if isinstance(c.kind, FixedDelay):
                _index("FixedDelay coord", c.kind.coord, self.flow.dim)
        if self.domain is not None:
            object.__setattr__(self, "tuple_domain", tuple_form(self.domain, bool))
        if len(self.hazards) == 1 and not self.clocks:
            ch = self.hazards[0]
            closed, jump = self.flow.closed_form, ch.kernel.sampler
            if (ch.hazard.const_rate is not None and self.domain is None
                    and isinstance(closed, TupleFn) and isinstance(jump, TupleMap)):
                object.__setattr__(self, "float_step",
                                   (closed.fn, ch.hazard.const_rate, jump.fn, ch.label))
        if not self.absorbing and not self.hazards and not self.clocks:
            raise InvalidParam(
                f"regime {self.index} has no hazards and no clocks; declare it absorbing"
            )


@dataclass(frozen=True)
class PdmpModel:
    """Immutable process description: named regimes of one state dimension;
    ``float_steps`` holds every regime's ``float_step`` when none is None."""

    name: str
    regimes: Tuple[Regime, ...]
    float_steps: Optional[tuple] = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "regimes", tuple(self.regimes))
        ids = [r.index for r in self.regimes]
        if ids != list(range(len(self.regimes))):
            raise InvalidParam("regime indices must be dense 0..k-1 in order")
        dims = {r.flow.dim for r in self.regimes}
        if len(dims) != 1:
            raise InvalidParam("all regimes must share the state dimension")
        steps = tuple(r.float_step for r in self.regimes)
        if None not in steps:
            object.__setattr__(self, "float_steps", steps)

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


class JumpRecord(NamedTuple):
    t: float
    kind: str
    regime_pre: int
    regime_post: int
    state_pre: tuple
    state_post: tuple


@dataclass
class Trajectory:
    """One realized path: its start and its recorded jumps (tuple states)."""

    model: PdmpModel
    x0: tuple
    regime0: int
    jumps: list
    horizon: float

    def state_at(self, t: float) -> Tuple[Array, int]:
        """State and regime at time t, flowed from the last jump at or before t
        (so a read at a jump time sees the post-jump state), or from the start."""
        if not 0.0 <= t <= self.horizon:
            raise InvalidParam(f"t={t} outside [0, horizon]")
        i = bisect_right(self.jumps, t, key=attrgetter("t"))
        j = self.jumps[i - 1] if i else None
        t0, reg, x = (j.t, j.regime_post, j.state_post) if j else (0.0, self.regime0, self.x0)
        return flow_evolve(self.model.regimes[reg].flow, x, t - t0), reg


def _count(name: str, value, least: int) -> int:
    """``value`` as an int >= ``least``; a bool, float or string is refused."""
    if not (type(value) is int or isinstance(value, np.integer)) or value < least:
        raise InvalidParam(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _index(name: str, value, n: int) -> int:
    """``value`` as an index in [0, n), typed as :func:`_count` types it."""
    if _count(name, value, 0) >= n:
        raise InvalidParam(f"{name} {value} is not in [0, {n})")
    return int(value)


def _event(model: PdmpModel, x: tuple, regime: int, rng: np.random.Generator,
           t_max: float) -> Optional[tuple]:
    """:func:`next_event` for ``t_max > 0`` and a state of the model's length,
    as a plain ``(dt, kind, state_pre, state_post, regime_post)`` of tuple states."""
    reg = model.regimes[regime]
    # clocks, then hazards capped at the earliest clock, each in index order: a
    # strict < keeps the first of equal times (dt is t_max until a cause is
    # found), so clocks beat hazards and lower indices beat higher; a clock due
    # now wins before any hazard is drawn
    dt, kernel = t_max, None
    for clock in reg.clocks:
        if isinstance(clock.kind, FixedDelay):
            t = max(clock.kind.duration - x[clock.kind.coord], 0.0)
        else:
            t = boundary_hit_time(reg.flow, clock.kind.tuple_event, x, t_max)
        if t is not None and (t < dt or kernel is None and t == dt):
            dt, kernel, label = t, clock.target, clock.label
    hz_cap = dt
    for ch in reg.hazards if hz_cap > 0 else ():
        try:
            t = sample_jump_time(reg.flow, ch.hazard, x, rng, horizon=hz_cap)
        except HorizonExceeded:
            continue
        if t < dt or kernel is None:
            dt, kernel, label = t, ch.kernel, ch.label
    if kernel is None:
        return None
    x_pre = evolve(reg.flow, x, dt)
    x_post, reg_post, kind = kernel.apply(x_pre, regime, rng)
    if not 0 <= reg_post < len(model.regimes):
        raise InvalidParam(f"jump kernel returned regime {reg_post}, not in "
                           f"[0, {len(model.regimes)})")
    domain = model.regimes[reg_post].tuple_domain
    if domain is not None and not domain(x_post):
        raise InvalidParam(f"kernel left the domain of regime {reg_post}: state {x_post!r}")
    return dt, kind or label, x_pre, x_post, reg_post


def next_event(model: PdmpModel, state, regime: int, rng: np.random.Generator, *,
               t_max: float) -> Optional[EventResult]:
    """Resolve the earliest event among all hazards and clocks of the regime.

    Returns None when nothing fires before ``t_max`` (the caller truncates the
    segment there).  The states come back as 1-D float64 arrays.
    """
    regime = _index("regime", regime, len(model.regimes))
    if math.isnan(t_max):
        raise InvalidParam(f"need a t_max that is not NaN, got {t_max!r}")
    if t_max <= 0:
        return None
    ev = _event(model, _state(state, model.dim), regime, rng, t_max)
    return None if ev is None else EventResult(*ev)._replace(
        state_pre=np.array(ev[2], dtype=float), state_post=np.array(ev[3], dtype=float))


def _path(model: PdmpModel, x0, regime0: int, rng: np.random.Generator, horizon: float,
          jump_budget: int, times=None) -> Iterator[tuple]:
    """The event loop of every path: flow to the next jump time, jump, repeat.

    Without ``times`` it yields each event as ``(t, kind, regime_pre,
    regime_post, state_pre, state_post, dt)``; with them, the right-continuous
    ``(state, regime)`` at each of the nondecreasing ``times``, the events drawn
    one ahead of the reads.  On a model's ``float_steps`` each event is worked
    here on plain floats, its Exp(1) level drawn ``BLOCK`` at a time, with
    :func:`_event`'s checks in its order; :func:`_event` works any other.  One
    event more than ``jump_budget`` before the horizon raises."""
    if not horizon > 0:     # NaN fails too
        raise InvalidParam("horizon must be positive")
    _count("jump_budget", jump_budget, 0)
    steps, k_regimes, isfinite = model.float_steps, len(model.regimes), math.isfinite
    s, reg, dim = _state(x0, model.dim), _index("regime", regime0, k_regimes), model.dim
    reads = None if times is None else iter(times)
    t_read = None if reads is None else next(reads, None)
    xis, k, n, t = (), BLOCK, 0, 0.0
    while True:
        # the event ending the segment (t, s, reg) is at t_new, None past the horizon
        t_new = None
        if len(s) != dim:
            _state(s, dim)
        if steps is None:
            if t < horizon:
                ev = _event(model, s, reg, rng, horizon - t)
                if ev is not None:
                    tau, kind, s_pre, s_new, reg_new = ev
                    t_new = t + tau
        else:
            flow, lam, jump, kind = steps[reg]
            if t < horizon:     # as on the _event route, nothing is drawn at the horizon
                if k == BLOCK:
                    xis, k = rng.exponential(size=BLOCK).tolist(), 0
                xi = xis[k]
                k += 1
                if lam != 0.0 and not (tau := xi / lam) > horizon - t:
                    s_pre = s
                    if tau != 0.0:
                        s_pre = flow(tau, s)
                        if not all(map(isfinite, s_pre)):
                            raise NonFinite(
                                f"closed-form flow produced non-finite state at t={tau:.6g}")
                    s_new, reg_new = jump(s_pre, reg)
                    if not all(map(isfinite, s_new)):
                        raise NonFinite("jump kernel produced a non-finite state")
                    reg_new = int(reg_new)
                    if not 0 <= reg_new < k_regimes:
                        raise InvalidParam(f"jump kernel returned regime {reg_new}, not in "
                                           f"[0, {k_regimes})")
                    t_new = t + tau
        if t_new is not None:
            if n == jump_budget:
                raise JumpBudgetExceeded(f"more than {jump_budget} jumps before horizon")
            n += 1
        if reads is None:
            if t_new is None:
                return
            yield t_new, kind, reg, reg_new, s_pre, s_new, tau
        else:
            # right-continuous: a read at t_new belongs to the next segment
            while t_read is not None and (t_new is None or not t_new <= t_read):
                dt = t_read - t
                if dt < 0:
                    raise InvalidParam("flow_evolve needs t >= 0")
                x = s
                if dt != 0.0:
                    x = evolve(model.regimes[reg].flow, s, dt) if steps is None else flow(dt, s)
                    if not all(map(isfinite, x)):
                        raise NonFinite(
                            f"closed-form flow produced non-finite state at t={dt:.6g}")
                yield x, reg
                t_read = next(reads, None)
            if t_read is None:
                return
        t, s, reg = t_new, s_new, reg_new


def iter_events(model: PdmpModel, x0, regime0: int, rng: np.random.Generator,
                horizon: float, jump_budget: int = DEFAULT_JUMP_BUDGET
                ) -> Iterator[Tuple[float, int, EventResult]]:
    """Stream (absolute time, pre-jump regime, event with tuple states) without
    storing the path; one event more than ``jump_budget`` before the horizon raises."""
    for t, kind, r0, r1, pre, post, dt in _path(model, x0, regime0, rng, horizon, jump_budget):
        yield t, r0, EventResult(dt, kind, pre, post, r1)


def read_path(model: PdmpModel, x0, regime0: int, rng: np.random.Generator,
              horizon: float, times, jump_budget: int = DEFAULT_JUMP_BUDGET
              ) -> Iterator[Tuple[Array, int]]:
    """Stream (state, regime) along one path at each of the nondecreasing
    ``times`` in [0, horizon], drawing events only as far as the reads need.
    Paths are right-continuous: a read at a jump time sees the post-jump state,
    as :meth:`Trajectory.state_at` does."""
    for x, reg in _path(model, x0, regime0, rng, horizon, jump_budget, times):
        yield np.array(x, dtype=float), reg


def simulate_trajectory(model: PdmpModel, x0, regime0: int, horizon: float,
                        rng: np.random.Generator,
                        jump_budget: int = DEFAULT_JUMP_BUDGET) -> Trajectory:
    """Run the process to the horizon, recording its start and every jump (tuple states)."""
    x, r = _state(x0, model.dim), _index("regime", regime0, len(model.regimes))
    jumps = [JumpRecord(t, kind, r0, r1, pre, post)
             for t, kind, r0, r1, pre, post, _ in _path(model, x, r, rng, horizon, jump_budget)]
    return Trajectory(model, x, r, jumps, horizon)


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
    n_paths = _count("n_paths", n_paths, 1)
    _count("jump_budget", jump_budget, 0)
    if not horizon > 0:
        raise InvalidParam("horizon must be positive")
    snaps = np.asarray(sorted(snapshot_times), dtype=float)
    if not ((snaps >= 0) & (snaps <= horizon)).all():     # NaN fails too
        raise InvalidParam("snapshot times must lie in [0, horizon]")
    out = EnsembleResult(
        snapshot_times=tuple(snaps.tolist()),
        snapshot_states=np.full((snaps.size, n_paths, model.dim), np.nan),
        snapshot_regimes=np.full((snaps.size, n_paths), -1, dtype=np.int64),
        final_states=np.full((n_paths, model.dim), np.nan),
        final_regimes=np.full(n_paths, -1, dtype=np.int64),
        horizon=horizon,
        errors=[],
    )
    times = [*out.snapshot_times, horizon]
    for i in range(n_paths):
        rng = path_rng(seed, i)
        x0, r0 = initial_sampler(rng)
        try:
            reads = _path(model, x0, r0, rng, horizon, jump_budget, times)
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
    if not trajectories:
        raise InvalidParam("need at least one trajectory")
    _snapshots_csv(path, trajectories[0].model.dim, (
        (pid, t, *traj.state_at(t)) for t in sorted(times)
        for pid, traj in enumerate(trajectories)))
