"""Deterministic flows, hazard integration along flows, and exact jump-time sampling.

Between jumps the state moves along ``x' = g(x)``.  A hazard ``rate(x)`` turns
into a jump-time law ``F(t) = 1 - exp(-int_0^t rate(x(s)) ds)``; sampling that
law exactly is the core service of this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .errors import (
    DivergentIntegral,
    HorizonExceeded,
    InvalidParam,
    MissingBound,
    NonFinite,
)
from .lazy import PchipInterpolator, brentq, quad, solve_ivp

Array = np.ndarray

TOL_FLOW = 1e-10    # relative tolerance of the adaptive integrator
ATOL_FLOW = 1e-12
TOL_EVENT = 1e-10   # time accuracy of event / hazard-crossing localisation
HORIZON_CAP = 1e6   # default survival cap for jump-time sampling


@dataclass(frozen=True)
class Flow:
    """Deterministic motion law for one regime.

    ``rhs`` is the vector field g(x).  ``closed_form(t, x0)`` is an optional
    exact solution used instead of numerical integration wherever available;
    return a 1-D float64 ndarray of length ``dim``, or pay a conversion per call.
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
        if value < 0:
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

    sol = solve_ivp(
        lambda s, y: np.asarray(flow.rhs(y), dtype=float),
        (0.0, t),
        x,
        method="RK45",
        rtol=TOL_FLOW,
        atol=ATOL_FLOW,
    )
    if not sol.success or not np.all(np.isfinite(sol.y[:, -1])):
        raise NonFinite(f"flow integration failed: {sol.message}")
    return sol.y[:, -1].copy()


def _augmented_rhs(flow: Flow, hz: Hazard):
    def rhs(s, y):
        x = y[:-1]
        gx = np.asarray(flow.rhs(x), dtype=float)
        return np.append(gx, hz.rate_at(x))
    return rhs


def cumulative_hazard(flow: Flow, hz: Hazard, x0, ts: Sequence[float]) -> CumulativeHazard:
    """Integrate the hazard along the flow; one augmented-ODE solve, many read-outs."""
    ts = np.asarray(ts, dtype=float)
    if ts.size == 0 or np.any(ts < 0):
        raise InvalidParam("cumulative_hazard needs a nonempty grid of times t >= 0")
    x = _as_state(x0, flow.dim)
    t_max = float(ts.max())
    if hz.const_rate is not None:
        return CumulativeHazard(ts=ts, values=hz.const_rate * ts)
    if t_max == 0.0:
        return CumulativeHazard(ts=ts, values=np.zeros_like(ts))

    sol = solve_ivp(
        _augmented_rhs(flow, hz),
        (0.0, t_max),
        np.append(x, 0.0),
        method="RK45",
        rtol=TOL_FLOW,
        atol=ATOL_FLOW,
        dense_output=True,
    )
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


def _inverse_time_ode(flow: Flow, hz: Hazard, x0: Array, xi: float, horizon: float) -> float:
    """Invert the cumulative hazard by integrating the augmented ODE in chunks."""
    rhs = _augmented_rhs(flow, hz)
    x = x0.copy()
    acc = 0.0
    t_lo = 0.0
    span = 1.0
    while t_lo < horizon:
        t_hi = min(t_lo + span, horizon)

        def _cross(s, y, _need=xi - acc):
            return y[-1] - _need
        _cross.terminal = True
        _cross.direction = 1

        sol = solve_ivp(rhs, (0.0, t_hi - t_lo), np.append(x, 0.0),
                        method="RK45", rtol=TOL_FLOW, atol=ATOL_FLOW, events=[_cross])
        if not sol.success:
            raise NonFinite(f"hazard integration failed: {sol.message}")
        if sol.t_events[0].size:
            return t_lo + float(sol.t_events[0][0])
        x = sol.y[:-1, -1].copy()
        acc += float(sol.y[-1, -1])
        t_lo = t_hi
        span = min(2.0 * span, horizon)
    raise HorizonExceeded(horizon, acc)


def sample_jump_time(flow: Flow, hz: Hazard, x0, rng: np.random.Generator,
                     method: str = "auto", horizon: float = HORIZON_CAP) -> float:
    """Draw a jump time with law F(t) = 1 - exp(-int_0^t rate(x(s)) ds).

    ``method``: "inverse" integrates the cumulative hazard until it crosses an
    Exp(1) level and refines the crossing to ``TOL_EVENT``; "thinning" rejects
    Exp(upper_bound) proposals; "auto" uses the constant-rate shortcut, then
    thinning when an upper bound exists, then inverse transform.

    Raises :class:`HorizonExceeded` when the hazard never accumulates enough
    mass before ``horizon`` (including rate-zero traps).
    """
    if horizon <= 0:
        raise InvalidParam("sampling horizon must be positive")
    x = _as_state(x0, flow.dim)
    xi = rng.exponential()

    if hz.const_rate is not None and method in ("auto", "inverse", "thinning"):
        lam = hz.const_rate
        if lam == 0.0:
            raise HorizonExceeded(horizon, 0.0)
        tau = xi / lam
        if tau > horizon:
            raise HorizonExceeded(horizon, lam * horizon)
        return tau

    if method == "auto":
        method = "thinning" if hz.upper_bound is not None else "inverse"

    if method == "thinning":
        ub = hz.upper_bound
        if ub is None:
            raise MissingBound("thinning requires Hazard.upper_bound")
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

    if method == "inverse":
        if flow.closed_form is not None:
            return _inverse_time_closed_form(flow, hz, x, xi, horizon)
        return _inverse_time_ode(flow, hz, x, xi, horizon)

    raise InvalidParam(f"unknown sampling method {method!r}")


def boundary_hit_time(flow: Flow, event_fn: Callable[[Array], float], x0,
                      t_max: float) -> Optional[float]:
    """First time in (0, t_max] at which ``event_fn`` changes sign along the flow.

    Returns None when no crossing occurs.  With a closed-form flow the event
    function is scanned on doubling panels and refined by bracketed
    root-finding; otherwise the ODE integrator's event machinery is used.
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

    def _hit(s, y):
        return event_fn(y)
    _hit.terminal = True
    _hit.direction = 0
    sol = solve_ivp(lambda s, y: np.asarray(flow.rhs(y), dtype=float), (0.0, t_max), x,
                    method="RK45", rtol=TOL_FLOW, atol=ATOL_FLOW, events=[_hit])
    if not sol.success:
        raise NonFinite(f"boundary detection failed: {sol.message}")
    if sol.t_events[0].size:
        t_hit = float(sol.t_events[0][0])
        return t_hit if t_hit > 0.0 else None
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

    def __call__(self, x: float) -> float:
        if x < 0:
            raise InvalidParam("QTransform is defined for x >= 0")
        if x == 0:
            return 0.0
        val, err, info, *msg = quad(self._integrand, 0.0, x, limit=200, full_output=True)
        if msg or err > max(1e-8, 1e-8 * abs(val)):
            raise DivergentIntegral(
                f"integral of phi/g over (0, {x:.6g}] did not converge (err {err:.2g})"
            )
        return float(val)

    def tabulated(self, x_max: float):
        """Dense monotone table of Q on [0, x_max] at ``_Q_TABLE_POINTS`` points;
        returns (Q, Q_inverse) callables.

        Much cheaper than per-call quadrature when the transform is evaluated
        many times (e.g. recursion sampling); interpolation error is far below
        statistical noise at the sample sizes used here.
        """
        xs = np.linspace(0.0, x_max, _Q_TABLE_POINTS)
        vals = np.empty(_Q_TABLE_POINTS)
        vals[0] = 0.0
        for i in range(1, _Q_TABLE_POINTS):
            piece, _ = quad(self._integrand, xs[i - 1], xs[i], limit=100)
            vals[i] = vals[i - 1] + piece
        if np.any(np.diff(vals) < 0):
            raise InvalidParam("Q must be nondecreasing; got a decreasing table")
        q_fn = PchipInterpolator(xs, vals, extrapolate=False)
        # strictly increase for the inverse table; ties only where phi == 0
        keep = np.concatenate(([True], np.diff(vals) > 0))
        inv_fn = PchipInterpolator(vals[keep], xs[keep], extrapolate=False)
        return q_fn, inv_fn

