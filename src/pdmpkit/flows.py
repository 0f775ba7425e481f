"""Deterministic flows, hazard integration along flows, and exact jump-time sampling.

Between jumps the state moves along ``x' = g(x)``.  A hazard ``rate(x)`` turns
into a jump-time law ``F(t) = 1 - exp(-int_0^t rate(x(s)) ds)``; sampling that
law exactly is the core service of this module.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from operator import mul, sub, truediv
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .errors import (
    DivergentIntegral,
    HorizonExceeded,
    InvalidParam,
    NonFinite,
)
# solve_ivp serves cumulative_hazard only; the benchmark tracer also patches this binding
from .lazy import PchipInterpolator, brentq, quad, solve_ivp

Array = np.ndarray

TOL_FLOW = 1e-10    # relative tolerance of the adaptive integrator
ATOL_FLOW = 1e-12
TOL_EVENT = 1e-10   # time accuracy of event / hazard-crossing localisation
HORIZON_CAP = 1e6   # default survival cap for jump-time sampling


class TupleFlow:
    """An exact flow written on plain floats: ``fn(t, s) -> s'`` with ``s`` and
    ``s'`` sequences of ``dim`` Python floats (``fn`` gets a tuple or a list and
    returns a tuple).  Calling it as ``(t, x0)`` with a 1-D float64 array gives
    an array, so it serves as a :attr:`Flow.closed_form`; a streamed path whose
    every regime has one (see :class:`~pdmpkit.process.Regime`) is read off
    the tuples directly."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[float, Sequence[float]], tuple]):
        self.fn = fn

    def __call__(self, t: float, x: Array) -> Array:
        return np.array(self.fn(t, x.tolist()))


class TupleField:
    """A vector field on plain floats: ``fn(s)`` maps a sequence of ``dim``
    floats to a tuple of ``dim`` floats.  Called with a 1-D float64 array it
    gives an array, so it serves as a :attr:`Flow.rhs`."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[Sequence[float]], tuple]):
        self.fn = fn

    def __call__(self, x: Array) -> Array:
        return np.array(self.fn(x.tolist()))


@dataclass(frozen=True)
class Flow:
    """Deterministic motion law for one regime.

    ``rhs`` is the vector field g(x) on a 1-D float64 array; the integrator
    calls a :class:`TupleField`'s ``fn`` on lists of floats, any other rhs with
    an array in and out per stage.  ``closed_form(t, x0)`` is an optional
    exact solution used instead of numerical integration wherever available;
    return a 1-D float64 ndarray of length ``dim``, or pay a conversion per call.
    A :class:`TupleFlow` is the tuple form of that contract: its ``fn(t, s)``
    maps a sequence of ``dim`` floats to a tuple of ``dim`` floats, the same
    numbers the array form gives, and never reads anything but its arguments.
    ``jacobian(x)`` (d x d) is only needed for Lie-bracket computations.
    """

    dim: int
    rhs: Callable[[Array], Array]
    closed_form: Optional[Callable[[float, Array], Array]] = None
    jacobian: Optional[Callable[[Array], Array]] = None

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidParam("Flow.dim must be a positive integer")


@dataclass(frozen=True)
class Hazard:
    """State-dependent jump intensity, with an optional dominating constant.

    ``const_rate`` marks a hazard that is constant in the state; samplers then
    reduce to plain exponential draws.  ``upper_bound`` enables thinning.
    ``rate_along(ts, x0)``, when present, evaluates the rate along the flow at
    an array of time offsets in one call; it must agree with composing the
    flow's closed form with ``rate`` and exists purely to cut sampling cost.
    """

    rate: Callable[[Array], float]
    upper_bound: Optional[float] = None
    const_rate: Optional[float] = None
    rate_along: Optional[Callable[[Array, Array], Array]] = None

    def __post_init__(self):
        if self.upper_bound is not None and self.upper_bound < 0:
            raise InvalidParam("Hazard.upper_bound must be nonnegative")
        if self.const_rate is not None and self.const_rate < 0:
            raise InvalidParam("constant hazard rate must be nonnegative")

    @staticmethod
    def constant(value: float) -> "Hazard":
        value = float(value)
        if not value >= 0:      # NaN fails too
            raise InvalidParam("constant hazard rate must be nonnegative")
        return Hazard(rate=lambda x, _v=value: _v, upper_bound=value, const_rate=value)

    def rate_at(self, x: Array) -> float:
        r = float(self.rate(x))
        if r < 0:
            raise InvalidParam(f"hazard rate is negative ({r:.3g}) at x={x!r}")
        return r


@dataclass(frozen=True)
class CumulativeHazard:
    """Integrated hazard t -> int_0^t rate(x(s)) ds along one flow."""

    ts: Array
    values: Array

    def __post_init__(self):
        ts = np.asarray(self.ts, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if ts.shape != vals.shape:
            raise InvalidParam("CumulativeHazard arrays must share a shape")
        if vals.size and (vals[0] < -1e-12 or np.any(np.diff(vals) < -1e-9)):
            raise InvalidParam("cumulative hazard must start at 0 and be nondecreasing")
        object.__setattr__(self, "ts", ts)
        object.__setattr__(self, "values", np.maximum.accumulate(np.maximum(vals, 0.0)))

    def cdf(self) -> Array:
        """Jump-time distribution function 1 - exp(-value) on the stored grid."""
        return -np.expm1(-self.values)


_F64 = np.dtype(float)


def as_vector(v) -> Array:
    """``np.atleast_1d(np.asarray(v, dtype=float))``, returning a 1-D float64
    ndarray as it is (the same object) without paying for those calls."""
    if type(v) is np.ndarray and v.dtype == _F64 and v.ndim == 1:
        return v
    return np.atleast_1d(np.asarray(v, dtype=float))


def all_finite(a: Array) -> bool:
    """``np.all(np.isfinite(a))`` for a float array, without numpy's per-call cost."""
    return all(map(math.isfinite, a.flat))


def _as_state(x0, dim: int) -> Array:
    x = as_vector(x0)
    if x.shape != (dim,):
        raise InvalidParam(f"state must have shape ({dim},), got {x.shape}")
    return x


# Dormand & Prince (1980) 5(4): stage rows (the last gives the 5th-order end
# point), error weights, and per stage scipy RK45's quartic dense output
_DP_A = ((1 / 5,), (3 / 40, 9 / 40), (44 / 45, -56 / 15, 32 / 9),
         (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
         (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
         (35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84))
_DP_E = (-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
_DP_P = ((1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
         (0, 0, 0, 0),
         (0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
         (0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
         (0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
         (0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
         (0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423))
_EPS4 = 4 * np.finfo(float).eps   # scipy's event-root tolerance


def _rms(values, scale) -> float:
    return math.hypot(*map(truediv, values, scale)) / math.sqrt(len(scale))


def _dp_step(f, y: list, k, h: float):
    """(5th-order end point, 7 stages) of a step of length h from y; k = f(y)."""
    ks = [k]
    for a in _DP_A:
        y_new = [v + sum(map(mul, col, a)) * h for v, col in zip(y, zip(*ks))]
        ks.append(f(y_new))
    return y_new, ks


class _Step(namedtuple("_Step", "f t0 t1 y0 y1 ks")):
    """One accepted step of ``y' = f(y)`` from (t0, y0) to (t1, y1), with stages ks."""

    __slots__ = ()

    def at(self, t: float) -> list:
        """The step's quartic interpolant at t."""
        h = self.t1 - self.t0
        x = (t - self.t0) / h
        w = [h * x * (a + x * (b + x * (c + x * d))) for a, b, c, d in _DP_P]
        return [v + sum(map(mul, col, w)) for v, col in zip(self.y0, zip(*self.ks))]

    def crossing(self, g) -> float:
        """Where g(y) reaches 0: the root on the interpolant, as scipy's events
        find it, Newton-corrected once by a fresh step to it and g's slope."""
        s = brentq(lambda u: g(self.at(u)), self.t0, self.t1, xtol=_EPS4, rtol=_EPS4)
        d = 1e-3 * (self.t1 - self.t0)
        slope = (g(self.at(s + d)) - g(self.at(s - d))) / (2.0 * d)
        y_s = _dp_step(self.f, self.y0, self.ks[0], s - self.t0)[0]
        return min(max(s - g(y_s) / slope, self.t0), self.t1) if slope else s


def _dopri(f, y: list, t_end: float, caller: str):
    """Yield each accepted Dormand-Prince 5(4) step of ``y' = f(y)`` on [0, t_end]
    (``f`` maps a list of floats to floats) under scipy RK45's controller at the
    flow tolerances: its initial step, safety 0.9, factors in [0.2, 10], no growth
    after a rejection, RMS error over atol + max(|y|, |y_new|) rtol, and FSAL.  A
    step below 10 ulp of t or a non-finite state raises NonFinite naming ``caller``."""
    k = f(y)
    if not all(map(math.isfinite, (*y, *k))):
        raise NonFinite(f"{caller} produced a non-finite state")
    scale = [ATOL_FLOW + abs(v) * TOL_FLOW for v in y]
    d0, d1 = _rms(y, scale), _rms(k, scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end)
    d2 = max(d1, _rms(map(sub, f([a + h0 * b for a, b in zip(y, k)]), k), scale) / h0)
    h_abs = min(100 * h0, t_end, max(1e-6, h0 * 1e-3) if d2 <= 1e-15 else (0.01 / d2) ** 0.2)
    t = 0.0
    while t < t_end:
        min_step = 10 * math.ulp(t)
        h_abs, rejected = max(h_abs, min_step), False
        while True:
            if h_abs < min_step:
                raise NonFinite(f"{caller} failed: step size fell below 10 ulp of t={t:.6g}")
            t_new = min(t + h_abs, t_end)
            y_new, ks = _dp_step(f, y, k, t_new - t)
            err = _rms([sum(map(mul, col, _DP_E)) * (t_new - t) for col in zip(*ks)],
                       [ATOL_FLOW + max(abs(u), abs(v)) * TOL_FLOW for u, v in zip(y, y_new)])
            factor = 10.0 if err == 0.0 else 0.9 * err ** -0.2
            if err < 1.0:
                h_abs *= min(1.0 if rejected else 10.0, factor)
                break
            h_abs *= max(0.2, factor)
            rejected = True
        if not all(map(math.isfinite, y_new)):
            raise NonFinite(f"{caller} produced a non-finite state")
        yield _Step(f, t, t_new, y, y_new, ks)
        t, y, k = t_new, y_new, ks[-1]


def _field(flow: Flow):
    """``flow.rhs`` on lists of floats."""
    rhs = flow.rhs
    return rhs.fn if isinstance(rhs, TupleField) else (
        lambda y: np.asarray(rhs(np.array(y)), dtype=float).tolist())


def flow_evolve(flow: Flow, x0, t: float) -> Array:
    """Return the flow position after time ``t >= 0`` starting from ``x0``."""
    if t < 0:
        raise InvalidParam("flow_evolve needs t >= 0")
    x = _as_state(x0, flow.dim)
    if t == 0.0:
        return x.copy()
    if flow.closed_form is not None:
        out = as_vector(flow.closed_form(t, x))
        if not all_finite(out):
            raise NonFinite(f"closed-form flow produced non-finite state at t={t:.6g}")
        return out
    for step in _dopri(_field(flow), x.tolist(), t, "flow integration"):
        pass
    return np.array(step.y1)


def _augmented_field(flow: Flow, hz: Hazard):
    g, rate_at = _field(flow), hz.rate_at
    return lambda y: (*g(y[:-1]), rate_at(np.array(y[:-1])))


def cumulative_hazard(flow: Flow, hz: Hazard, x0, ts: Sequence[float]) -> CumulativeHazard:
    """Integrate the hazard along the flow; one augmented-ODE solve, many read-outs.
    The scipy reference: it runs ``solve_ivp(RK45)``, not the samplers' integrator."""
    ts = np.asarray(ts, dtype=float)
    if ts.size == 0 or np.any(ts < 0):
        raise InvalidParam("cumulative_hazard needs a nonempty grid of times t >= 0")
    x = _as_state(x0, flow.dim)
    t_max = float(ts.max())
    if hz.const_rate is not None:
        return CumulativeHazard(ts=ts, values=hz.const_rate * ts)
    if t_max == 0.0:
        return CumulativeHazard(ts=ts, values=np.zeros_like(ts))

    f = _augmented_field(flow, hz)
    sol = solve_ivp(lambda s, y: f(y.tolist()), (0.0, t_max), [*x.tolist(), 0.0],
                    method="RK45", rtol=TOL_FLOW, atol=ATOL_FLOW, dense_output=True)
    if not sol.success:
        raise NonFinite(f"hazard integration failed: {sol.message}")
    values = sol.sol(ts)[-1]
    if not np.all(np.isfinite(values)):
        raise NonFinite("hazard integration produced non-finite values")
    return CumulativeHazard(ts=ts, values=values)


# ---------------------------------------------------------------------------
# jump-time sampling
# ---------------------------------------------------------------------------

_CHEB_DEG = 12
_CHEB_NODES = _cheb.chebpts2(_CHEB_DEG + 1)  # extrema nodes on [-1, 1]
_CHEB_VINV = np.linalg.inv(_cheb.chebvander(_CHEB_NODES, _CHEB_DEG))


def _linear_map_matrix(fn, n_in: int, n_out: int) -> Array:
    mat = np.zeros((n_out, n_in))
    for i in range(n_in):
        e = np.zeros(n_in)
        e[i] = 1.0
        out = np.asarray(fn(e), dtype=float)
        mat[: out.size, i] = out
    return mat


# node values -> power-basis coefficients (constant pipelines, built once):
# antiderivative on [-1, 1] (degree 13) and the interpolant itself (degree 12)
_N_C = _CHEB_DEG + 1
_PC_FROM_YS = (_linear_map_matrix(_cheb.cheb2poly, _N_C + 1, _N_C + 1)
               @ _linear_map_matrix(_cheb.chebint, _N_C, _N_C + 1) @ _CHEB_VINV)
_DC_FROM_YS = _linear_map_matrix(_cheb.cheb2poly, _N_C, _N_C) @ _CHEB_VINV


def _horner(coeffs, u: float) -> float:
    acc = 0.0
    for c in coeffs:
        acc = acc * u + c
    return acc


class _ChebPanel:
    """Chebyshev interpolant of the hazard on [a, b] with exact antiderivative.

    The antiderivative is kept in the power basis (degree 13 on [-1, 1], which
    is numerically safe) so cumulative values and the crossing solve run in
    plain Horner arithmetic.
    """

    __slots__ = ("a", "b", "half", "pc", "dc", "base", "integral", "resolved")

    def __init__(self, ys: Array, a: float, b: float):
        if not np.all(np.isfinite(ys)):
            raise NonFinite("hazard rate is non-finite along the flow")
        coef = _CHEB_VINV @ ys
        scale = max(1.0, float(np.max(np.abs(coef))))
        self.a, self.b = a, b
        self.half = 0.5 * (b - a)
        self.resolved = float(np.max(np.abs(coef[-2:]))) <= 5e-12 * scale
        self.pc = (self.half * (_PC_FROM_YS @ ys))[::-1].tolist()  # highest power first
        self.dc = (self.half * (_DC_FROM_YS @ ys))[::-1].tolist()
        self.base = _horner(self.pc, -1.0)
        self.integral = _horner(self.pc, 1.0) - self.base

    def solve(self, need: float) -> float:
        """Time at which the panel cumulative reaches ``need`` (monotone Newton
        with bisection safeguarding, refined to TOL_EVENT in time)."""
        lo, hi = -1.0, 1.0
        f_lo = -need
        f_hi = self.integral - need
        if f_hi <= 0.0:
            return self.b
        u = lo + (hi - lo) * (-f_lo) / (f_hi - f_lo)
        u_tol = max(TOL_EVENT / self.half, 4e-16)
        for _ in range(100):
            f = _horner(self.pc, u) - self.base - need
            if f > 0.0:
                hi = u
            else:
                lo = u
            d = _horner(self.dc, u)
            if d > 0.0:
                step = f / d
                u_new = u - step
                if not (lo < u_new < hi):
                    u_new = 0.5 * (lo + hi)
            else:
                u_new = 0.5 * (lo + hi)
            if abs(u_new - u) <= u_tol or (hi - lo) <= u_tol:
                u = u_new
                break
            u = u_new
        t = 0.5 * (self.a + self.b) + self.half * u
        return min(max(t, self.a), self.b)


def _rate_nodes(flow: Flow, hz: Hazard, x0: Array):
    """Node evaluator for panels; uses the vectorized hook when available."""
    if hz.rate_along is not None:
        def eval_nodes(ts):
            vals = np.asarray(hz.rate_along(ts, x0), dtype=float)
            if np.any(vals < 0):
                raise InvalidParam("hazard rate is negative along the flow")
            return vals
    else:
        def eval_nodes(ts):
            return np.array([
                hz.rate_at(as_vector(flow.closed_form(t, x0)))
                for t in ts
            ])
    return eval_nodes


def _inverse_time_closed_form(flow: Flow, hz: Hazard, x0: Array, xi: float, horizon: float) -> float:
    """Invert the cumulative hazard using quadrature on the closed-form flow."""
    eval_nodes = _rate_nodes(flow, hz, x0)
    acc = 0.0
    t_a = 0.0
    width = 1.0
    min_width = 1e-10
    while t_a < horizon:
        t_b = min(t_a + width, horizon)
        mid, half = 0.5 * (t_b + t_a), 0.5 * (t_b - t_a)
        panel = _ChebPanel(eval_nodes(mid + half * _CHEB_NODES), t_a, t_b)
        if not panel.resolved and (t_b - t_a) > min_width:
            width *= 0.5
            continue
        if acc + panel.integral >= xi:
            return panel.solve(xi - acc)
        acc += panel.integral
        t_a = t_b
        width = min(2.0 * width, horizon)
    raise HorizonExceeded(horizon, acc)


def hazard_chunks(f, x0: list, t0: float, horizon: float, xi: float):
    """Integrate the augmented field ``f`` for (x, cumulative hazard) from
    absolute time ``t0`` on chunks of doubling length from 1, capped at
    ``horizon``.  Yields (chunk start, step, crossing) for each accepted step
    of :func:`_dopri`; ``crossing`` is None except on the last step, where it
    is the offset in the chunk at which the cumulative hazard reaches ``xi``
    (:meth:`_Step.crossing`).  Raises :class:`HorizonExceeded` when the
    horizon comes first."""
    x = x0
    acc = 0.0
    t_lo = t0
    span = 1.0
    while t_lo < horizon:
        t_hi = min(t_lo + span, horizon)
        need = xi - acc
        for step in _dopri(f, [*x, 0.0], t_hi - t_lo, "hazard integration"):
            if step.y1[-1] >= need:
                yield t_lo, step, step.crossing(lambda y: y[-1] - need)
                return
            yield t_lo, step, None
        x = step.y1[:-1]
        acc += step.y1[-1]
        t_lo = t_hi
        span = min(2.0 * span, horizon)
    raise HorizonExceeded(horizon, acc)


def sample_jump_time(flow: Flow, hz: Hazard, x0, rng: np.random.Generator,
                     horizon: float = HORIZON_CAP) -> float:
    """Draw a jump time with law F(t) = 1 - exp(-int_0^t rate(x(s)) ds).

    The hazard picks the route: a constant rate draws an exponential; a hazard
    with ``upper_bound`` thins Exp(upper_bound) proposals; any other inverts
    the cumulative hazard at an Exp(1) level, refining the crossing to
    ``TOL_EVENT``.

    Raises :class:`HorizonExceeded` when the hazard never accumulates enough
    mass before ``horizon`` (including rate-zero traps).
    """
    if horizon <= 0:
        raise InvalidParam("sampling horizon must be positive")
    x = _as_state(x0, flow.dim)
    xi = rng.exponential()

    if hz.const_rate is not None:
        lam = hz.const_rate
        if lam == 0.0:
            raise HorizonExceeded(horizon, 0.0)
        tau = xi / lam
        if tau > horizon:
            raise HorizonExceeded(horizon, lam * horizon)
        return tau

    ub = hz.upper_bound
    if ub is not None:
        if ub <= 0:
            raise HorizonExceeded(horizon, 0.0)
        t = 0.0
        x_cur = x
        while True:
            dt = rng.exponential(1.0 / ub)
            if t + dt > horizon:
                raise HorizonExceeded(horizon, float("nan"))
            t += dt
            x_cur = flow_evolve(flow, x_cur, dt)
            r = hz.rate_at(x_cur)
            if r > ub * (1.0 + 1e-9):
                raise InvalidParam(
                    f"hazard rate {r:.6g} exceeds upper_bound {ub:.6g}; thinning is invalid"
                )
            if rng.uniform() * ub <= r:
                return t

    if flow.closed_form is not None:
        return _inverse_time_closed_form(flow, hz, x, xi, horizon)
    return next(t_lo + crossing for t_lo, _, crossing in hazard_chunks(
        _augmented_field(flow, hz), x.tolist(), 0.0, horizon, xi) if crossing is not None)


def boundary_hit_time(flow: Flow, event_fn: Callable[[Array], float], x0,
                      t_max: float) -> Optional[float]:
    """First time in (0, t_max] at which ``event_fn`` changes sign along the flow.

    Returns None when no crossing occurs.  With a closed-form flow the event
    function is scanned on doubling panels and refined by bracketed
    root-finding; otherwise its sign is tested at each integrator step's end
    and the crossing is found in that step (:meth:`_Step.crossing`).
    """
    if t_max <= 0:
        return None
    x = _as_state(x0, flow.dim)

    if flow.closed_form is not None:
        def h_at(t):
            return float(event_fn(as_vector(flow.closed_form(t, x))))

        h_prev = h_at(0.0)
        t_prev = 0.0
        t_a = 0.0
        width = min(1.0, t_max)
        n_sub = 16
        while t_a < t_max:
            t_b = min(t_a + width, t_max)
            for t in np.linspace(t_a, t_b, n_sub + 1)[1:]:
                h = h_at(t)
                if h == 0.0:
                    return float(t)
                if h_prev * h < 0.0:
                    return brentq(h_at, t_prev, t, xtol=TOL_EVENT)
                t_prev, h_prev = float(t), h
            t_a = t_b
            width = min(2.0 * width, t_max)
        return None

    def h_at(y):
        return float(event_fn(np.array(y)))

    h_prev = h_at(x)
    for step in _dopri(_field(flow), x.tolist(), t_max, "boundary detection"):
        h = h_at(step.y1)
        if (h_prev <= 0.0 <= h) or (h_prev >= 0.0 >= h):
            t_hit = step.crossing(h_at)
            return t_hit if t_hit > 0.0 else None
        h_prev = h
    return None


# ---------------------------------------------------------------------------
# Q-transform: Q(x) = int_0^x phi(r)/g(r) dr and its monotone inverse
# ---------------------------------------------------------------------------


_Q_TABLE_POINTS = 4097


class QTransform:
    """Cumulative phase-entry measure of a growth law, with a tabulated inverse."""

    def __init__(self, g: Callable[[float], float], phi: Callable[[float], float]):
        self._g = g
        self._phi = phi

    def _integrand(self, r: float) -> float:
        g = self._g(r)
        if g <= 0:
            raise InvalidParam(f"growth rate must be positive on (0, x]; g({r:.6g}) <= 0")
        return self._phi(r) / g

    def tabulated(self, x_max: float):
        """Dense monotone table of Q on [0, x_max] at ``_Q_TABLE_POINTS`` points;
        returns (Q, Q_inverse) callables.

        Cheap when the transform is evaluated many times (e.g. recursion
        sampling); interpolation error is far below statistical noise at the
        sample sizes used here.  Raises :class:`DivergentIntegral` when phi/g
        is not integrable at 0, seen as the first piece's quadrature failing.
        """
        xs = np.linspace(0.0, x_max, _Q_TABLE_POINTS)
        first, err, _, *msg = quad(self._integrand, 0.0, xs[1], limit=100, full_output=True)
        if msg or err > max(1e-8, 1e-8 * abs(first)):
            raise DivergentIntegral(
                f"integral of phi/g over (0, {xs[1]:.6g}] did not converge (err {err:.2g})")
        vals = np.empty(_Q_TABLE_POINTS)
        vals[:2] = 0.0, first
        for i in range(2, _Q_TABLE_POINTS):
            piece, _ = quad(self._integrand, xs[i - 1], xs[i], limit=100)
            vals[i] = vals[i - 1] + piece
        if np.any(np.diff(vals) < 0):
            raise InvalidParam("Q must be nondecreasing; got a decreasing table")
        q_fn = PchipInterpolator(xs, vals, extrapolate=False)
        # strictly increase for the inverse table; ties only where phi == 0
        keep = np.concatenate(([True], np.diff(vals) > 0))
        inv_fn = PchipInterpolator(vals[keep], xs[keep], extrapolate=False)
        return q_fn, inv_fn

