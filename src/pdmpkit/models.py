"""Constructors for the concrete biological models, plus the population engine.

Every constructor validates its parameter record and assembles an immutable
:class:`~pdmpkit.process.PdmpModel`.  Closed-form flows are supplied wherever
the motion law integrates in elementary terms, which keeps event sampling
exact and cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from .errors import (
    InvalidParam,
    NoInteriorRoots,
    NonFinite,
    PdmpError,
    PopulationBlowup,
)
from .flows import Flow, Hazard
from .process import (
    BoundaryHit,
    DeterministicClock,
    FixedDelay,
    HazardChannel,
    JumpKernel,
    PdmpModel,
    Regime,
)

Array = np.ndarray
RateLike = Union[float, Callable[[float], float]]


def _require(cond: bool, constraint: str) -> None:
    if not cond:
        raise InvalidParam(f"parameter constraint violated: {constraint}")


def _scalar_fn(spec: RateLike) -> Callable[[float], float]:
    if callable(spec):
        return spec
    value = float(spec)
    return lambda _x, _v=value: _v


def _state_hazard(spec: RateLike, component: int = 0,
                  bound_grid: Optional[Array] = None) -> Hazard:
    """Hazard acting on one state component; constants keep their fast path."""
    if not callable(spec):
        return Hazard.constant(float(spec))
    rate = lambda x, _f=spec, _c=component: float(_f(float(x[_c])))
    ub = None
    if bound_grid is not None:
        vals = np.array([float(spec(v)) for v in bound_grid])
        if np.any(vals < 0):
            raise InvalidParam("intensity function must be nonnegative on its domain")
        ub = float(vals.max()) * (1.0 + 1e-3)
    return Hazard(rate=rate, upper_bound=ub)


def _check_positive_on(fn: Callable[[float], float], xs: Array, constraint: str) -> None:
    vals = np.array([float(fn(x)) for x in xs])
    _require(bool(np.all(vals > 0)), constraint)


def _vector_rate_along(g_closed_form, phi_fn) -> Optional[Callable]:
    """Vectorized hazard-along-flow hook, validated against the scalar route.

    Returns None unless ``phi(g_closed_form(ts, x0))`` broadcasts over an array
    of time offsets and matches per-point evaluation; the sampler then gets a
    one-call path for its quadrature nodes.
    """
    def rate_along(ts, x0):
        return np.asarray(phi_fn(g_closed_form(ts, float(x0[0]))), dtype=float)

    try:
        ts = np.array([0.05, 0.4, 1.3])
        out = rate_along(ts, np.array([0.9]))
        ref = np.array([float(phi_fn(float(g_closed_form(t, 0.9)))) for t in ts])
        if out.shape != ts.shape or not np.allclose(out, ref, rtol=1e-12, atol=1e-14):
            return None
    except Exception:
        return None
    return rate_along


@dataclass(frozen=True)
class SwitchingFields:
    """The one description of a two-regime model on the line.

    Fields g0/g1 drive regimes 0/1, dg0/dg1 are their derivatives where the
    catalog knows them, and q0 (0 -> 1) and q1 (1 -> 0) are the switching
    intensities, all as scalar callables.  ``a`` is the right end of the
    invariant interval (0, a) when the model has one.  The event model, the
    grid solver and the stationary analysis all read this record.
    """

    g0: Callable[[float], float]
    g1: Callable[[float], float]
    q0: Callable[[float], float]
    q1: Callable[[float], float]
    dg0: Optional[Callable[[float], float]] = None
    dg1: Optional[Callable[[float], float]] = None
    a: Optional[float] = None

    def flow(self, regime: int, closed_form=None) -> Flow:
        """The 1-D flow of one regime, with its Jacobian when dg is known."""
        g, dg = (self.g0, self.dg0) if regime == 0 else (self.g1, self.dg1)
        jac = None if dg is None else (lambda x: np.array([[dg(float(x[0]))]]))
        return Flow(dim=1, rhs=lambda x: np.array([g(float(x[0]))]),
                    closed_form=closed_form, jacobian=jac)


@dataclass(frozen=True)
class GrowthDivision:
    """Grid-solver view of a cell-cycle model: growth law g, division (one
    phase) or phase-B entry (two phases) intensity phi, both made scalar
    callables, and the phase-B duration t_B of the two-phase model."""

    g: RateLike
    phi: RateLike
    t_B: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "g", _scalar_fn(self.g))
        object.__setattr__(self, "phi", _scalar_fn(self.phi))


def _switching_model(name: str, fields: SwitchingFields, q_specs, labels, params: dict,
                     closed_forms=(None, None), bound_grid: Optional[Array] = None
                     ) -> PdmpModel:
    """Event model of a switching view; the raw rate specs keep constants on
    the constant-rate fast path."""
    def to1(x, regime, rng):
        return x.copy(), 1

    def to0(x, regime, rng):
        return x.copy(), 0

    regimes = tuple(
        Regime(i, fields.flow(i, closed_forms[i]),
               hazards=(HazardChannel(_state_hazard(q, bound_grid=bound_grid),
                                      JumpKernel(kernel), label),))
        for i, (q, kernel, label) in enumerate(zip(q_specs, (to1, to0), labels)))
    return PdmpModel(name, regimes, params)


def _tail_integral_diverges(fn: Callable[[float], float], x_bar: float,
                            n_octaves: int = 18) -> bool:
    """Heuristic divergence test for int_{x_bar}^inf fn on doubling octaves.

    Declares convergence (returns False) only when the octave integrals decay
    geometrically; constant or growing pieces count as divergent.
    """
    pieces = []
    lo = x_bar
    for _ in range(n_octaves):
        hi = 2.0 * lo
        val, _ = quad(fn, lo, hi, limit=100)
        pieces.append(val)
        lo = hi
    tail = pieces[-6:]
    ratios = [b / a for a, b in zip(tail, tail[1:]) if a > 0]
    return not (ratios and max(ratios) < 0.8)


# ---------------------------------------------------------------------------
# pure jump-type and velocity-jump models
# ---------------------------------------------------------------------------


def make_grasshopper(lam: float, jump_sampler: Callable[[np.random.Generator], float],
                     dim: int = 1) -> PdmpModel:
    """Compound Poisson motion: constant state between rate-``lam`` jumps x -> x + Y."""
    _require(lam > 0, "lam > 0")
    flow = Flow(dim=dim,
                rhs=lambda x: np.zeros_like(x),
                closed_form=lambda t, x: x.copy(),
                jacobian=lambda x: np.zeros((dim, dim)))

    def kernel(x, regime, rng):
        y = np.atleast_1d(np.asarray(jump_sampler(rng), dtype=float))
        return x + y, 0

    regime = Regime(0, flow, hazards=(HazardChannel(Hazard.constant(lam),
                                                    JumpKernel(kernel), "jump"),))
    return PdmpModel("grasshopper", (regime,), {"lam": lam, "dim": dim})


def telegraph_fields(lam: float, c: float) -> SwitchingFields:
    """The telegraph process seen on the line: regime 0 moves at -c, regime 1
    at +c, and each reverses at rate ``lam``."""
    _require(lam > 0, "lam > 0")
    _require(c > 0, "c > 0")
    return SwitchingFields(g0=lambda x: -c, g1=lambda x: c,
                           q0=lambda x: lam, q1=lambda x: lam)


def make_telegraph(lam: float, c: float) -> PdmpModel:
    """Velocity-jump motion on the line: speed ``c``, direction reversals at rate ``lam``."""
    telegraph_fields(lam, c)    # validates lam and c
    flow = Flow(dim=2,
                rhs=lambda s: np.array([s[1], 0.0]),
                closed_form=lambda t, s: np.array([s[0] + s[1] * t, s[1]]),
                jacobian=lambda s: np.array([[0.0, 1.0], [0.0, 0.0]]))

    def flip(s, regime, rng):
        return np.array([s[0], -s[1]]), 0

    regime = Regime(0, flow, hazards=(HazardChannel(Hazard.constant(lam),
                                                    JumpKernel(flip), "flip"),))
    return PdmpModel("telegraph", (regime,), {"lam": lam, "c": c})


# ---------------------------------------------------------------------------
# cell cycle models
# ---------------------------------------------------------------------------


def _validate_growth_division(g, phi, x_bar: float = 1.0) -> None:
    grid = np.geomspace(1e-4, 1e4, 65)
    _check_positive_on(g, grid, "g > 0 on (0, inf)")
    phi_vals = np.array([float(phi(x)) for x in grid])
    _require(bool(np.all(phi_vals >= 0)), "phi >= 0")
    # phi/g integrable on compacts of (0, inf): automatic for finite positive
    # values on the sampled grid (finiteness at 0 is only needed by the size
    # recursion, whose transform reports divergence itself)
    _require(bool(np.all(np.isfinite(phi_vals / np.array([g(x) for x in grid])))),
             "phi/g finite on (0, inf)")
    _require(_tail_integral_diverges(lambda r: 1.0 / g(r), x_bar),
             "int^inf 1/g = inf")
    _require(_tail_integral_diverges(lambda r: phi(r) / g(r), x_bar),
             "int^inf phi/g = inf")


def make_cell_cycle_one_phase(g: RateLike, phi: RateLike,
                              g_closed_form=None) -> PdmpModel:
    """Size growth x' = g(x); division at intensity phi(x) into a size-x/2 daughter."""
    g_fn = _scalar_fn(g)
    phi_fn = _scalar_fn(phi)
    _validate_growth_division(g_fn, phi_fn)
    closed = None
    rate_along = None
    if g_closed_form is not None:
        closed = lambda t, x: np.array([g_closed_form(t, x[0])])
        rate_along = _vector_rate_along(g_closed_form, phi_fn)
    flow = Flow(dim=1, rhs=lambda x: np.array([g_fn(float(x[0]))]), closed_form=closed)
    hazard = Hazard.constant(phi) if not callable(phi) else Hazard(
        rate=lambda x: float(phi(x[0])), rate_along=rate_along)

    def divide(x, regime, rng):
        return x * 0.5, 0

    regime = Regime(0, flow, hazards=(HazardChannel(hazard, JumpKernel(divide), "division"),))
    return PdmpModel("cell_cycle_1p", (regime,), {"g": g, "phi": phi})


def make_rubinow(g: RateLike, m: float, g_closed_form=None) -> PdmpModel:
    """Deterministic cycle: grow from size m, split back to m on reaching 2m."""
    _require(m > 0, "m > 0")
    g_fn = _scalar_fn(g)
    _check_positive_on(g_fn, np.linspace(m, 2.0 * m, 33), "g > 0 on [m, 2m]")
    closed = None
    if g_closed_form is not None:
        closed = lambda t, x: np.atleast_1d(np.asarray(g_closed_form(t, float(x[0])), dtype=float))
    flow = Flow(dim=1, rhs=lambda x: np.array([g_fn(float(x[0]))]), closed_form=closed)

    def split(x, regime, rng):
        return np.array([m]), 0

    clock = DeterministicClock(BoundaryHit(lambda x: 2.0 * m - x[0]),
                               JumpKernel(split), "division")
    regime = Regime(0, flow, clocks=(clock,))
    return PdmpModel("rubinow", (regime,), {"g": g, "m": m})


@dataclass(frozen=True)
class TwoPhaseCellCycleParams:
    """Growth law g, phase-B entry intensity phi, and fixed phase-B duration t_B."""

    g: RateLike
    phi: RateLike
    t_B: float
    g_closed_form: Optional[Callable[[float, float], float]] = None

    def __post_init__(self):
        _require(self.t_B > 0, "t_B > 0")
        _validate_growth_division(_scalar_fn(self.g), _scalar_fn(self.phi))


def make_two_phase_cell_cycle(p: TwoPhaseCellCycleParams) -> PdmpModel:
    """State (x, y): resting phase A grows until phi fires, then a fixed t_B in
    phase B before division halves x.  y tracks time since phase-B entry."""
    g_fn = _scalar_fn(p.g)
    closed_a = closed_b = rate_along = None
    if p.g_closed_form is not None:
        gc = p.g_closed_form
        closed_a = lambda t, s: np.array([gc(t, s[0]), s[1]])
        closed_b = lambda t, s: np.array([gc(t, s[0]), s[1] + t])
        if callable(p.phi):
            rate_along = _vector_rate_along(gc, p.phi)
    flow_a = Flow(dim=2, rhs=lambda s: np.array([g_fn(float(s[0])), 0.0]), closed_form=closed_a)
    flow_b = Flow(dim=2, rhs=lambda s: np.array([g_fn(float(s[0])), 1.0]), closed_form=closed_b)

    hazard = Hazard.constant(p.phi) if not callable(p.phi) else Hazard(
        rate=lambda s: float(p.phi(s[0])), rate_along=rate_along)

    def enter_b(s, regime, rng):
        return np.array([s[0], 0.0]), 1

    def divide(s, regime, rng):
        return np.array([0.5 * s[0], 0.0]), 0

    regime_a = Regime(0, flow_a,
                      hazards=(HazardChannel(hazard, JumpKernel(enter_b), "phase_b_entry"),))
    regime_b = Regime(1, flow_b,
                      clocks=(DeterministicClock(FixedDelay(p.t_B), JumpKernel(divide),
                                                 "division"),))
    return PdmpModel("cell_cycle_2p", (regime_a, regime_b),
                     {"g": p.g, "phi": p.phi, "t_B": p.t_B})


# ---------------------------------------------------------------------------
# gene expression switch
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneExpressionParams:
    """Production rate P, degradation mu, switching intensities q0 (on), q1 (off)."""

    P: float
    mu: float
    q0: RateLike
    q1: RateLike

    def __post_init__(self):
        _require(self.P > 0, "P > 0")
        _require(self.mu > 0, "mu > 0")
        grid = np.linspace(0.0, self.x_max, 257)
        for name, q in (("q0", self.q0), ("q1", self.q1)):
            _check_positive_on(_scalar_fn(q), grid, f"{name} > 0 on [0, P/mu]")

    @property
    def x_max(self) -> float:
        return self.P / self.mu

    def fields(self) -> SwitchingFields:
        """Off: x' = -mu x; on: x' = P - mu x; invariant interval (0, P/mu)."""
        P, mu = self.P, self.mu
        return SwitchingFields(g0=lambda x: -mu * x, g1=lambda x: P - mu * x,
                               q0=_scalar_fn(self.q0), q1=_scalar_fn(self.q1),
                               dg0=lambda x: -mu, dg1=lambda x: -mu, a=self.x_max)


def make_gene_expression(p: GeneExpressionParams) -> PdmpModel:
    """Protein level x with an on/off gene: x' = -mu x (off), x' = P - mu x (on)."""
    mu, a = p.mu, p.x_max
    closed = (lambda t, x: x * math.exp(-mu * t),
              lambda t, x: a + (x - a) * math.exp(-mu * t))
    return _switching_model("gene_expression", p.fields(), (p.q0, p.q1),
                            ("activate", "deactivate"),
                            {"P": p.P, "mu": mu, "q0": p.q0, "q1": p.q1, "x_max": a},
                            closed_forms=closed, bound_grid=np.linspace(0.0, a, 2049))


# ---------------------------------------------------------------------------
# Stein neuron
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SteinParams:
    """Leak alpha, jump sizes a_E/a_I, input rates lambda_E/lambda_I,
    firing threshold theta, refractory duration t_R."""

    alpha: float
    a_E: float
    a_I: float
    lambda_E: float
    lambda_I: float
    theta: float
    t_R: float

    def __post_init__(self):
        _require(self.alpha > 0, "alpha > 0")
        _require(self.a_E >= 0, "a_E >= 0")
        _require(self.a_I >= 0, "a_I >= 0")
        _require(self.lambda_E > 0, "lambda_E > 0")
        # lambda_I = 0 is allowed: it degenerates to a purely excitatory neuron
        _require(self.lambda_I >= 0, "lambda_I >= 0")
        _require(self.theta > 0, "theta > 0")
        _require(self.t_R > 0, "t_R > 0")


def make_stein(p: SteinParams) -> PdmpModel:
    """Depolarization (V, y) with phases sub-threshold (0) and refractory (1).

    A single synaptic hazard at rate lambda_E + lambda_I drives three cases:
    excitation below threshold adds a_E, excitation from V >= theta - a_E
    fires (reset to (0, 0) and enter the refractory phase), inhibition
    subtracts a_I.  The refractory phase lasts exactly t_R.
    """
    lam = p.lambda_E + p.lambda_I
    flow_sub = Flow(dim=2,
                    rhs=lambda s: np.array([-p.alpha * s[0], 0.0]),
                    closed_form=lambda t, s: np.array([s[0] * math.exp(-p.alpha * t), s[1]]))
    flow_ref = Flow(dim=2,
                    rhs=lambda s: np.array([-p.alpha * s[0], 1.0]),
                    closed_form=lambda t, s: np.array([s[0] * math.exp(-p.alpha * t), s[1] + t]))

    def synapse(s, regime, rng):
        v = s[0]
        if rng.uniform() * lam < p.lambda_E:
            if v < p.theta - p.a_E:
                return np.array([v + p.a_E, 0.0]), 0, "excite"
            return np.array([0.0, 0.0]), 1, "fire"
        return np.array([v - p.a_I, 0.0]), 0, "inhibit"

    def wake(s, regime, rng):
        return np.array([0.0, 0.0]), 0

    regime_sub = Regime(0, flow_sub,
                        hazards=(HazardChannel(Hazard.constant(lam), JumpKernel(synapse),
                                               "synapse"),),
                        domain=lambda s: s[0] < p.theta)
    regime_ref = Regime(1, flow_ref,
                        clocks=(DeterministicClock(FixedDelay(p.t_R), JumpKernel(wake),
                                                   "refractory_end"),))
    return PdmpModel("stein", (regime_sub, regime_ref), {
        "alpha": p.alpha, "a_E": p.a_E, "a_I": p.a_I, "lambda_E": p.lambda_E,
        "lambda_I": p.lambda_I, "theta": p.theta, "t_R": p.t_R,
    })


# ---------------------------------------------------------------------------
# switching population models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlleeParams:
    """Logistic regime (i=0) switching with a strong-Allee regime (i=1)."""

    lam: float
    K: float
    A: float
    B: float
    q01: RateLike
    q10: RateLike

    def __post_init__(self):
        _require(self.lam > 0, "lam > 0")
        _require(self.K > 0 and self.A > 0 and self.B > 0, "K, A, B > 0")
        _require(self.K * self.B > 1, "K*B > 1")
        bound = (self.B * self.K + 1.0) ** 2 / (4.0 * self.K * self.B)
        _require(1.0 < self.A < bound, "1 < A < (B*K+1)^2 / (4*K*B)")

    def fields(self) -> SwitchingFields:
        """x' = lam (1 - x/K - A i / (1 + B x)) x in regime i; q01 and q10 switch."""
        lam, K, A, B = self.lam, self.K, self.A, self.B

        def g(i):
            return lambda x: lam * (1.0 - x / K - A * i / (1.0 + B * x)) * x

        def dg(i):
            return lambda x: lam * (1.0 - 2.0 * x / K - A * i / (1.0 + B * x) ** 2)

        return SwitchingFields(g0=g(0), g1=g(1), q0=_scalar_fn(self.q01),
                               q1=_scalar_fn(self.q10), dg0=dg(0), dg1=dg(1))


def allee_interior_roots(p: AlleeParams) -> tuple:
    """Interior stationary points 0 < x1 < x2 of the i=1 flow, by root-finding."""
    def h(x):
        return (1.0 + p.B * x) * (1.0 - x / p.K) - p.A

    x_star = (p.K * p.B - 1.0) / (2.0 * p.B)
    if h(x_star) <= 0 or x_star <= 0:
        raise NoInteriorRoots("the strong-Allee flow has no interior root pair")
    x1 = brentq(h, 1e-14, x_star, xtol=1e-14)
    x2 = brentq(h, x_star, p.K, xtol=1e-14)
    return float(x1), float(x2)


def make_allee(p: AlleeParams) -> PdmpModel:
    """Switching between plain logistic growth and growth with an Allee effect."""
    x1, x2 = allee_interior_roots(p)
    return _switching_model("allee", p.fields(), (p.q01, p.q10), ("switch", "switch"), {
        "lam": p.lam, "K": p.K, "A": p.A, "B": p.B, "q01": p.q01, "q10": p.q10,
        "x1": x1, "x2": x2,
    })


@dataclass(frozen=True)
class BirthSwitchParams:
    """Density-dependent birth rates b_i - c*x switching around a death rate mu."""

    b0: float
    b1: float
    c: float
    mu: float
    q0: RateLike
    q1: RateLike

    def __post_init__(self):
        _require(self.b0 < self.mu, "b0 < mu")
        _require(self.mu < self.b1, "mu < b1")
        _require(self.c > 0, "c > 0")
        grid = np.linspace(0.0, self.attractor_end, 257)
        for name, q in (("q0", self.q0), ("q1", self.q1)):
            _check_positive_on(_scalar_fn(q), grid, f"{name} > 0")

    @property
    def attractor_end(self) -> float:
        return (self.b1 - self.mu) / self.c

    def fields(self) -> SwitchingFields:
        """x' = (rho_i - c x) x with rho_i = b_i - mu; invariant interval (0, a]."""
        c, rho0, rho1 = self.c, self.b0 - self.mu, self.b1 - self.mu
        return SwitchingFields(g0=lambda x: (rho0 - c * x) * x, g1=lambda x: (rho1 - c * x) * x,
                               q0=_scalar_fn(self.q0), q1=_scalar_fn(self.q1),
                               dg0=lambda x: rho0 - 2.0 * c * x,
                               dg1=lambda x: rho1 - 2.0 * c * x, a=self.attractor_end)


def _logistic_closed_form(rho: float, c: float):
    """Exact solution of x' = rho*x - c*x^2, stable for both signs of rho."""
    def pi_t(t, x):
        x0 = float(x[0])
        if x0 == 0.0:
            return np.array([0.0])
        e = math.exp(max(min(-rho * t, 500.0), -500.0))
        return np.array([rho * x0 / (rho * e + c * x0 * (1.0 - e))])
    return pi_t


def make_birth_switch(p: BirthSwitchParams) -> PdmpModel:
    """Population size on (0, inf) switching between a subcritical and a
    supercritical logistic law; the attracting interval is (0, a], a=(b1-mu)/c."""
    closed = (_logistic_closed_form(p.b0 - p.mu, p.c), _logistic_closed_form(p.b1 - p.mu, p.c))
    return _switching_model("birth_switch", p.fields(), (p.q0, p.q1), ("switch", "switch"), {
        "b0": p.b0, "b1": p.b1, "c": p.c, "mu": p.mu, "q0": p.q0, "q1": p.q1,
        "a": p.attractor_end,
    }, closed_forms=closed)


# ---------------------------------------------------------------------------
# individual-based size-structured population
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PopulationEvent:
    t: float
    kind: str            # "division" | "death"
    parent_size: float
    n_after: int


@dataclass
class PopulationResult:
    events: list
    snapshot_times: tuple
    snapshots: list      # list of size arrays, one per snapshot time
    extinction_time: Optional[float]
    final_sizes: Array
    horizon: float
    max_hazard_drift: float = 0.0

    def size_at(self, t: float) -> int:
        i = self.snapshot_times.index(t)
        return len(self.snapshots[i])


def simulate_population(g: Optional[Callable[[float], float]], b: RateLike, d: RateLike,
                        initial_sizes: Sequence[float], horizon: float,
                        rng: np.random.Generator, *,
                        snapshot_times: Sequence[float] = (),
                        max_cells: int = 1_000_000,
                        recheck_every: int = 64) -> PopulationResult:
    """Event-driven simulation of the dividing/dying cell population.

    All sizes grow together along x' = g(x) between events; the population
    hazard is the sum of per-cell birth and death rates integrated along the
    product flow.  At an event, cell i is picked with probability
    (b(x_i)+d(x_i)) / total, then dies w.p. d/(b+d) or splits into two cells
    of half its size.  ``g=None`` marks frozen sizes and takes an exact
    constant-rate path.
    """
    b_fn = _scalar_fn(b)
    d_fn = _scalar_fn(d)
    sizes = [float(x) for x in initial_sizes]
    _require(all(x > 0 for x in sizes), "all initial sizes > 0")
    _require(horizon > 0, "horizon > 0")
    snaps = sorted(float(t) for t in snapshot_times)
    _require(all(0 <= t <= horizon for t in snaps), "snapshot times in [0, horizon]")

    def rates(x: float):
        rb, rd = float(b_fn(x)), float(d_fn(x))
        if rb < 0 or rd < 0:
            raise InvalidParam("birth and death rates must be nonnegative")
        return rb, rd

    events: list = []
    snapshots: list = []
    snap_ptr = 0
    extinction: Optional[float] = None
    max_drift = 0.0

    def take_snaps_until(t_stop: float, size_source):
        nonlocal snap_ptr
        while snap_ptr < len(snaps) and snaps[snap_ptr] <= t_stop:
            snapshots.append(np.asarray(size_source(snaps[snap_ptr]), dtype=float))
            snap_ptr += 1

    t = 0.0
    if g is None:
        wb = [rates(x)[0] for x in sizes]
        wd = [rates(x)[1] for x in sizes]
        total = math.fsum(wb) + math.fsum(wd)
        n_events = 0
        while sizes:
            if total <= 0.0:
                break
            dt = rng.exponential(1.0 / total)
            t_next = t + dt
            take_snaps_until(min(t_next, horizon), lambda _t: list(sizes))
            if t_next > horizon:
                t = horizon
                break
            t = t_next
            u = rng.uniform() * total
            acc = 0.0
            i = 0
            for i in range(len(sizes)):
                acc += wb[i] + wd[i]
                if u <= acc:
                    break
            x = sizes[i]
            if rng.uniform() * (wb[i] + wd[i]) < wd[i]:
                total -= wb[i] + wd[i]
                sizes[i] = sizes[-1]; wb[i] = wb[-1]; wd[i] = wd[-1]
                sizes.pop(); wb.pop(); wd.pop()
                events.append(PopulationEvent(t, "death", x, len(sizes)))
                if not sizes:
                    extinction = t
            else:
                half = 0.5 * x
                hb, hd = rates(half)
                total += 2.0 * (hb + hd) - (wb[i] + wd[i])
                sizes[i] = half; wb[i] = hb; wd[i] = hd
                sizes.append(half); wb.append(hb); wd.append(hd)
                events.append(PopulationEvent(t, "division", x, len(sizes)))
                if len(sizes) > max_cells:
                    raise PopulationBlowup(f"population exceeded {max_cells} cells")
            n_events += 1
            if n_events % recheck_every == 0:
                fresh = math.fsum(wb) + math.fsum(wd)
                drift = abs(total - fresh) / max(1.0, abs(fresh))
                max_drift = max(max_drift, drift)
                if drift > 1e-6:
                    raise PdmpError("population hazard bookkeeping drifted")
                total = fresh
        take_snaps_until(horizon, lambda _t: list(sizes))
        return PopulationResult(events, tuple(snaps), snapshots, extinction,
                                np.asarray(sizes, dtype=float), horizon, max_drift)

    # growing sizes: one augmented ODE per inter-event interval
    def aug_rhs(s, y):
        xs = y[:-1]
        growth = np.array([g(x) for x in xs])
        lam = math.fsum(rates(x)[0] + rates(x)[1] for x in xs)
        return np.append(growth, lam)

    while sizes:
        xi = rng.exponential()
        crossed = False
        acc = 0.0
        t_seg = t
        span = min(1.0, horizon - t_seg) or horizon - t_seg
        xs = np.asarray(sizes, dtype=float)
        while t_seg < horizon:
            t_hi = min(t_seg + span, horizon)

            def _cross(s, y, _need=xi - acc):
                return y[-1] - _need
            _cross.terminal = True
            _cross.direction = 1

            sol = solve_ivp(aug_rhs, (0.0, t_hi - t_seg), np.append(xs, 0.0),
                            method="RK45", rtol=1e-10, atol=1e-12,
                            dense_output=True, events=[_cross])
            if not sol.success:
                raise NonFinite(f"population flow integration failed: {sol.message}")

            def sizes_at(tq, _sol=sol, _t0=t_seg):
                return _sol.sol(tq - _t0)[:-1]

            if sol.t_events[0].size:
                dt_ev = float(sol.t_events[0][0])
                take_snaps_until(t_seg + dt_ev, sizes_at)
                xs = sol.y_events[0][0][:-1].copy()
                t = t_seg + dt_ev
                crossed = True
                break
            take_snaps_until(t_hi, sizes_at)
            acc += float(sol.y[-1, -1])
            xs = sol.y[:-1, -1].copy()
            t_seg = t_hi
            span *= 2.0
        if not crossed:
            t = horizon
            sizes = [float(x) for x in xs]
            break

        weights = [sum(rates(x)) for x in xs]
        total = math.fsum(weights)
        u = rng.uniform() * total
        acc_w = 0.0
        i = 0
        for i in range(len(xs)):
            acc_w += weights[i]
            if u <= acc_w:
                break
        x = float(xs[i])
        rb, rd = rates(x)
        sizes = [float(v) for v in xs]
        if rng.uniform() * (rb + rd) < rd:
            sizes.pop(i)
            events.append(PopulationEvent(t, "death", x, len(sizes)))
            if not sizes:
                extinction = t
        else:
            sizes[i] = 0.5 * x
            sizes.append(0.5 * x)
            events.append(PopulationEvent(t, "division", x, len(sizes)))
            if len(sizes) > max_cells:
                raise PopulationBlowup(f"population exceeded {max_cells} cells")

    take_snaps_until(horizon, lambda _t: list(sizes))
    return PopulationResult(events, tuple(snaps), snapshots, extinction,
                            np.asarray(sizes, dtype=float), horizon, max_drift)
