"""Grid-based forward solvers: pure transport, switching transport with exchange,
the one-phase division master equation, and the two-phase boundary-coupled system.

All schemes are first-order upwind finite volume.  The two properties the
schemes must never lose are nonnegativity and exact mass accounting (cell mass
plus tracked boundary outflow equals the initial mass); both are checked after
every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .csvout import F17, write_csv
from .errors import (
    CflViolation,
    DtMisaligned,
    GridNotDyadic,
    InvalidParam,
    MassAuditError,
)

Array = np.ndarray

MASS_TOL = 1e-10
POSITIVITY_TOL = 1e-13


@dataclass(frozen=True)
class Grid1D:
    """Uniform cell grid on [x_min, x_max] with n cells.

    ``dyadic_aligned`` asserts that x -> 2x maps cell boundaries onto cell
    boundaries (needs x_min = 0 and an even n), which the division term uses
    for exact cell pairing.
    """

    x_min: float
    x_max: float
    n: int
    dyadic_aligned: bool = False

    def __post_init__(self):
        if self.n < 8:
            raise InvalidParam("Grid1D needs at least 8 cells")
        if not self.x_max > self.x_min:
            raise InvalidParam("Grid1D needs x_max > x_min")
        if self.dyadic_aligned and (self.x_min != 0.0 or self.n % 2 != 0):
            raise GridNotDyadic("dyadic alignment requires x_min = 0 and even n")

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / self.n

    @property
    def centers(self) -> Array:
        return self.x_min + (np.arange(self.n) + 0.5) * self.h

    @property
    def edges(self) -> Array:
        return self.x_min + np.arange(self.n + 1) * self.h

    def same_as(self, other: "Grid1D") -> bool:
        return (self.x_min == other.x_min and self.x_max == other.x_max
                and self.n == other.n)


def _values_on(grid: Grid1D, f0) -> Array:
    if callable(f0):
        return np.array([float(f0(x)) for x in grid.centers])
    vals = np.asarray(f0, dtype=float)
    if vals.shape != (grid.n,):
        raise InvalidParam(f"initial density must have shape ({grid.n},)")
    return vals.copy()


@dataclass
class DensityGrid:
    """Per-regime cell averages with total-mass bookkeeping."""

    grid: Grid1D
    values: Array              # (n_regimes, n)
    time: float = 0.0
    initial_mass: float = field(default=math.nan)
    outflow: float = 0.0

    def __post_init__(self):
        self.values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if np.any(self.values < 0):
            raise InvalidParam("densities must be nonnegative")
        if math.isnan(self.initial_mass):
            self.initial_mass = self.mass()

    @property
    def n_regimes(self) -> int:
        return self.values.shape[0]

    def mass(self) -> float:
        return float(self.values.sum()) * self.grid.h

    def mass_drift(self) -> float:
        return self.mass() + self.outflow - self.initial_mass

    def copy(self) -> "DensityGrid":
        return DensityGrid(self.grid, self.values.copy(), self.time,
                           self.initial_mass, self.outflow)


def density_from(grid: Grid1D, f0s) -> DensityGrid:
    """Build a DensityGrid from arrays or callables, one per regime."""
    if callable(f0s):
        f0s = [f0s]
    elif isinstance(f0s, np.ndarray) and f0s.ndim == 1:
        f0s = [f0s]
    elif isinstance(f0s, (list, tuple)) and f0s and isinstance(f0s[0], (int, float)):
        f0s = [np.asarray(f0s, dtype=float)]
    vals = np.stack([_values_on(grid, f) for f in f0s])
    return DensityGrid(grid, vals)


def _audit(density, kind: str) -> None:
    for v in _value_blocks(density):    # each bound below fails on NaN too
        vmin = float(np.min(v))
        if not vmin >= -POSITIVITY_TOL:
            raise MassAuditError(f"{kind}: negative or NaN density {vmin:.3e} appeared")
        if not vmin > 0.0:      # scrub roundoff-level negatives and -0.0
            np.maximum(v, 0.0, out=v)
    drift = density.mass_drift()
    if not abs(drift) <= MASS_TOL * max(1.0, density.initial_mass):
        raise MassAuditError(f"{kind}: mass drifted by {drift:.3e}")


def _value_blocks(density):
    if isinstance(density, DensityGrid):
        return [density.values]
    return [density.f_a, density.f_b, density.staging]


def _edge_speeds(grid: Grid1D, g: Callable[[float], float], dt: float) -> Array:
    """g at the cell edges, checked finite and against the CFL bound of dt."""
    speeds = np.array([float(g(x)) for x in grid.edges])
    if not np.all(np.isfinite(speeds)):
        raise InvalidParam("velocity field must be finite at every cell edge")
    limit = dt * float(np.max(np.abs(speeds))) / grid.h
    if limit > 0.9 + 1e-12:
        raise CflViolation(f"dt*max|g|/h = {limit:.3f} exceeds 0.9")
    return speeds


def _cell_rates(grid: Grid1D, rate: Callable[[float], float], what: str) -> Array:
    rates = np.array([float(rate(x)) for x in grid.centers])
    if not np.all((rates >= 0) & (rates < math.inf)):      # NaN fails too
        raise InvalidParam(f"{what} must be finite and nonnegative")
    return rates


def _split_speeds(g_edges: Array) -> Tuple[Array, Array]:
    """The upwind split (max(g, 0), min(g, 0)) of the edge speeds."""
    return np.maximum(g_edges, 0.0), np.minimum(g_edges, 0.0)


def _flux_buffers(shape: Tuple[int, ...]) -> Tuple[Array, Array]:
    """Work arrays of :func:`_upwind_step` for a density of ``shape``."""
    return np.empty((shape[0] + 1,) + shape[1:]), np.empty(shape)


def _upwind_step(u: Array, speeds, buffers, dt: float, h: float) -> float:
    """One conservative upwind update in place; returns the boundary outflow mass.

    Works on 1-D arrays and on 2-D arrays whose first axis is the transport
    direction (each column advected with the same speeds, shaped (n + 1, 1)).
    ``buffers`` come from :func:`_flux_buffers`; they are free on return.
    """
    gp, gm = speeds
    flux, diff = buffers
    np.multiply(gp[1:-1], u[:-1], out=flux[1:-1])
    flux[1:-1] += np.multiply(gm[1:-1], u[1:], out=diff[1:])
    np.multiply(gm[:1], u[:1], out=flux[:1])    # outflow only where the field points outward
    np.multiply(gp[-1:], u[-1:], out=flux[-1:])
    np.subtract(flux[1:], flux[:-1], out=diff)
    diff *= dt / h
    u -= diff
    return float(np.sum(flux[-1]) - np.sum(flux[0])) * dt


class _FixedStepSolver:
    """Advance by whole steps of ``self.dt`` plus one shorter remainder step."""

    def advance(self, density: DensityGrid, duration: float) -> DensityGrid:
        if not (self.dt > 0 and duration >= 0):     # NaN fails too
            raise InvalidParam("need dt > 0 and t_end >= 0")
        n_full = int(math.floor(duration / self.dt + 1e-9))
        rem = duration - n_full * self.dt
        work = self._work(density, self.dt) if n_full else None
        for _ in range(n_full):
            self.step(density, None, work)
        work = None     # the whole steps share one buffer set; a remainder makes its own
        if rem >= 1e-12 * max(1.0, duration):
            self.step(density, rem)
        return density


# ---------------------------------------------------------------------------
# pure transport
# ---------------------------------------------------------------------------


class LiouvilleSolver(_FixedStepSolver):
    """u_t = -(g u)_x on one regime, first-order upwind."""

    def __init__(self, grid: Grid1D, g: Callable[[float], float], dt: float):
        self.grid = grid
        self.dt = dt
        self.g_edges = _edge_speeds(grid, g, dt)

    def _work(self, density: DensityGrid, dt: float):
        return _split_speeds(self.g_edges), _flux_buffers(density.values[0].shape)

    def step(self, density: DensityGrid, dt: Optional[float] = None, work=None) -> None:
        dt = self.dt if dt is None else dt
        speeds, buffers = self._work(density, dt) if work is None else work
        density.outflow += _upwind_step(density.values[0], speeds, buffers, dt, self.grid.h)
        density.time += dt
        _audit(density, "liouville")


def evolve_liouville(grid: Grid1D, g, f0, t_end: float, dt: float) -> DensityGrid:
    density = density_from(grid, [f0])
    return LiouvilleSolver(grid, g, dt).advance(density, t_end)


# ---------------------------------------------------------------------------
# switching transport
# ---------------------------------------------------------------------------


class SwitchingSolver(_FixedStepSolver):
    """Two-regime transport with exact per-cell exchange for the switching matrix.

    Operator splitting per step: upwind transport in each regime, then the
    exact 2x2 exchange update exp(Q(x) dt), which is unconditionally positive
    and mass-preserving.
    """

    def __init__(self, grid: Grid1D, g0, g1, q0, q1, dt: float):
        self.grid = grid
        self.dt = dt
        self.g_edges = [_edge_speeds(grid, g0, dt), _edge_speeds(grid, g1, dt)]
        self.q0_c = _cell_rates(grid, q0, "switching intensities")
        self.q1_c = _cell_rates(grid, q1, "switching intensities")
        if dt * float(max(self.q0_c.max(), self.q1_c.max())) > 0.5 + 1e-12:
            raise CflViolation("dt * max(q) exceeds 0.5")
        # cells with q0 + q1 = 0 do not exchange; True when every cell does
        active = self.q0_c + self.q1_c > 0
        self._active = True if active.all() else active

    def _work(self, density: DensityGrid, dt: float):
        s = self.q0_c + self.q1_c
        ratio = np.divide(self.q1_c, s, out=np.zeros_like(s), where=self._active)
        e = np.exp(np.multiply(np.negative(s, out=s), dt, out=s), out=s)    # exp(-s dt)
        return ([_split_speeds(ge) for ge in self.g_edges],
                _flux_buffers(density.values[0].shape), (ratio, e))

    def _exchange(self, u: Array, buffers, ratio: Array, e: Array) -> None:
        """Exact exchange exp(Q dt) in place, worked in the free upwind buffers.

        Only the active cells are written; the others keep their values.
        """
        u0, u1 = u
        m, eq0, w = buffers[1], buffers[0][:u0.size], self._active
        np.add(u0, u1, out=m)
        np.multiply(ratio, m, out=eq0)     # the equilibrium share of regime 0
        np.subtract(u0, eq0, out=u1, where=w)      # u1 is free until its last line
        np.multiply(u1, e, out=u1, where=w)
        np.add(eq0, u1, out=u0, where=w)
        np.subtract(m, u0, out=u1, where=w)

    def step(self, density: DensityGrid, dt: Optional[float] = None, work=None) -> None:
        dt = self.dt if dt is None else dt
        speeds, buffers, exchange = self._work(density, dt) if work is None else work
        for i in (0, 1):
            density.outflow += _upwind_step(density.values[i], speeds[i], buffers,
                                            dt, self.grid.h)
        self._exchange(density.values, buffers, *exchange)
        density.time += dt
        _audit(density, "switching")


# ---------------------------------------------------------------------------
# one-phase cell cycle master equation
# ---------------------------------------------------------------------------


class CellCycleSolver(_FixedStepSolver):
    """Transport with division: loss phi(x) f(x), gain 2 phi(2x) f(2x).

    On a dyadic grid, cell k maps exactly into cell k//2 under x -> x/2, so
    the division mass moves by exact cell pairing and the jump part conserves
    mass to machine precision.
    """

    def __init__(self, grid: Grid1D, g, phi, dt: float):
        if not grid.dyadic_aligned:
            raise GridNotDyadic("cell-cycle solver needs a dyadic-aligned grid")
        self.grid = grid
        self.dt = dt
        self.g_edges = _edge_speeds(grid, g, dt)
        self.phi_c = _cell_rates(grid, phi, "division intensity")
        if dt * float(self.phi_c.max()) > 0.5 + 1e-12:
            raise CflViolation("dt * max(phi) exceeds 0.5")

    def _work(self, density: DensityGrid, dt: float):
        return (_split_speeds(self.g_edges), _flux_buffers(density.values[0].shape),
                dt * self.phi_c)

    def step(self, density: DensityGrid, dt: Optional[float] = None, work=None) -> None:
        dt = self.dt if dt is None else dt
        speeds, (flux, diff), dt_phi = self._work(density, dt) if work is None else work
        u = density.values[0]
        density.outflow += _upwind_step(u, speeds, (flux, diff), dt, self.grid.h)
        loss = np.multiply(dt_phi, u, out=diff)     # the upwind buffers are free again
        u -= loss
        half = self.grid.n // 2
        u[:half] += np.add(loss[0::2], loss[1::2], out=flux[:half])
        density.time += dt
        _audit(density, "cell_cycle")


# ---------------------------------------------------------------------------
# two-phase system with boundary coupling
# ---------------------------------------------------------------------------


@dataclass
class TwoPhaseDensity:
    """Resting-phase density f_a(x) and proliferating-phase density f_b(x, y)."""

    x_grid: Grid1D
    n_y: int
    t_B: float
    f_a: Array                 # (n,)
    f_b: Array                 # (n, n_y), y in [0, t_B]
    staging: Array             # accumulated phase-entry mass awaiting the y shift
    time: float = 0.0
    initial_mass: float = field(default=math.nan)
    outflow: float = 0.0

    def __post_init__(self):
        self.f_b = np.ascontiguousarray(self.f_b, dtype=float)    # the y-shift works on it flat
        if math.isnan(self.initial_mass):
            self.initial_mass = self.mass()

    @property
    def dy(self) -> float:
        return self.t_B / self.n_y

    def mass(self) -> float:
        h = self.x_grid.h
        return float(self.f_a.sum() * h + self.f_b.sum() * h * self.dy
                     + self.staging.sum() * h)

    def mass_drift(self) -> float:
        return self.mass() + self.outflow - self.initial_mass

    def phase_masses(self) -> Tuple[float, float]:
        h = self.x_grid.h
        return (float(self.f_a.sum() * h),
                float(self.f_b.sum() * h * self.dy + self.staging.sum() * h))

    def copy(self) -> "TwoPhaseDensity":
        return TwoPhaseDensity(self.x_grid, self.n_y, self.t_B, self.f_a.copy(),
                               self.f_b.copy(), self.staging.copy(), self.time,
                               self.initial_mass, self.outflow)


def two_phase_density(x_grid: Grid1D, n_y: int, t_B: float, f_a0, f_b0=None) -> TwoPhaseDensity:
    if not x_grid.dyadic_aligned:
        raise GridNotDyadic("two-phase solver needs a dyadic-aligned x grid")
    f_a = _values_on(x_grid, f_a0)
    if f_b0 is None:
        f_b = np.zeros((x_grid.n, n_y))
    else:
        f_b = np.asarray(f_b0, dtype=float).copy()
        if f_b.shape != (x_grid.n, n_y):
            raise InvalidParam(f"phase-B density must have shape ({x_grid.n}, {n_y})")
    return TwoPhaseDensity(x_grid, n_y, t_B, f_a, f_b, np.zeros(x_grid.n))


class TwoPhaseSolver:
    """Coupled system: phase A feeds phase B through the y = 0 boundary at rate
    phi(x) f_a; phase B advects in y at unit speed and its y = t_B exit flux
    divides back into phase A (x -> x/2, exact dyadic pairing).

    The y advection is exact: dt must divide the y cell width, and the grid
    content shifts by one whole cell every dy/dt steps.
    """

    def __init__(self, x_grid: Grid1D, n_y: int, t_B: float, g, phi, dt: float):
        if not x_grid.dyadic_aligned:
            raise GridNotDyadic("two-phase solver needs a dyadic-aligned x grid")
        if n_y < 1 or t_B <= 0:
            raise InvalidParam("need n_y >= 1 and t_B > 0")
        if not dt > 0:
            raise InvalidParam("need dt > 0")
        dy = t_B / n_y
        k = dy / dt
        if abs(k - round(k)) > 1e-9 or round(k) < 1:
            raise DtMisaligned(f"dt={dt:.6g} must divide the y cell width {dy:.6g}")
        self.k = int(round(k))
        self.x_grid = x_grid
        self.n_y = n_y
        self.t_B = t_B
        self.dt = dt
        self.g_edges = _edge_speeds(x_grid, g, dt)
        self.phi_c = _cell_rates(x_grid, phi, "phase-entry intensity")
        if dt * float(self.phi_c.max()) > 0.5 + 1e-12:
            raise CflViolation("dt * max(phi) exceeds 0.5")
        self._substep = 0

    def _work(self, density: TwoPhaseDensity):
        gp, gm = _split_speeds(self.g_edges)
        return ((gp, gm), _flux_buffers(density.f_a.shape), (gp[:, None], gm[:, None]),
                _flux_buffers(density.f_b.shape), self.dt * self.phi_c)

    def step(self, density: TwoPhaseDensity, work=None) -> None:
        speeds_a, (flux_a, diff_a), speeds_b, buffers_b, dt_phi = (
            self._work(density) if work is None else work)
        dt, h = self.dt, self.x_grid.h
        density.outflow += _upwind_step(density.f_a, speeds_a, (flux_a, diff_a), dt, h)
        out_b = _upwind_step(density.f_b, speeds_b, buffers_b, dt, h)
        density.outflow += out_b * density.dy

        # boundary condition f_b(.,0) = phi f_a; the f_a upwind buffers are free again
        loss = np.multiply(dt_phi, density.f_a, out=diff_a)
        density.f_a -= loss
        density.staging += loss

        self._substep += 1
        if self._substep == self.k:
            self._substep = 0
            dy = density.dy
            exit_col = flux_a[:-1]
            np.copyto(exit_col, density.f_b[:, -1])
            flat = density.f_b.reshape(-1)     # a 1-D overlapping copy needs no temporary;
            flat[1:] = flat[:-1]                # the column 0 it wraps into is overwritten next
            np.divide(density.staging, dy, out=density.f_b[:, 0])
            density.staging[:] = 0.0
            gain = np.add(exit_col[0::2], exit_col[1::2], out=diff_a[:exit_col.size // 2])
            gain *= dy
            density.f_a[:gain.size] += gain
        density.time += dt
        _audit(density, "two_phase")

    def advance(self, density: TwoPhaseDensity, duration: float) -> TwoPhaseDensity:
        if not duration >= 0:
            raise InvalidParam("need dt > 0 and t_end >= 0")
        n_steps = int(round(duration / self.dt))
        if abs(n_steps * self.dt - duration) > 1e-9 * max(1.0, duration):
            raise DtMisaligned("advance duration must be a multiple of dt")
        work = self._work(density)
        for _ in range(n_steps):
            self.step(density, work)
        return density


# ---------------------------------------------------------------------------
# steady state search and export
# ---------------------------------------------------------------------------


def _l1_weights(density) -> list:
    if isinstance(density, DensityGrid):
        return [density.grid.h]
    h = density.x_grid.h
    return [h, h * density.dy, h]      # f_a, f_b, staging


def steady_state(solver, density, tol: float, t_max: float):
    """Advance until the L1 change per unit time drops below tol, or t_max.

    Returns (density, converged).  Works for any solver exposing
    ``advance(density, duration)``; the change is checked once per unit of
    time.  A :class:`TwoPhaseSolver` advances by whole steps only, so it is
    checked every whole number of steps nearest one unit (at least one).
    """
    every = 1.0
    if isinstance(solver, TwoPhaseSolver):
        every = max(1, round(1.0 / solver.dt)) * solver.dt
    t = 0.0
    weights = _l1_weights(density)
    prev = [np.empty_like(b) for b in _value_blocks(density)]
    while t < t_max - 1e-12:
        span = min(every, t_max - t)
        for old, new in zip(prev, _value_blocks(density)):
            np.copyto(old, new)
        solver.advance(density, span)
        t += span
        diff = sum(float(np.abs(np.subtract(new, old, out=old), out=old).sum()) * w
                   for old, new, w in zip(prev, _value_blocks(density), weights))
        if diff < tol * span:
            return density, True
    return density, False


def coarsen_density(density: DensityGrid, factor: int) -> DensityGrid:
    """Block-average onto a grid ``factor`` times coarser (exact cell averages)."""
    grid = density.grid
    if grid.n % factor != 0:
        raise InvalidParam("coarsening factor must divide the cell count")
    coarse = Grid1D(grid.x_min, grid.x_max, grid.n // factor,
                    dyadic_aligned=grid.dyadic_aligned)
    vals = density.values.reshape(density.n_regimes, coarse.n, factor).mean(axis=2)
    out = DensityGrid(coarse, vals, density.time, initial_mass=density.initial_mass)
    out.outflow = density.outflow
    return out


def density_to_csv(density: Union[DensityGrid, TwoPhaseDensity], path) -> None:
    """Snapshot export: rows (t, regime, cell_center, value)."""
    if isinstance(density, DensityGrid):
        centers, blocks = density.grid.centers, density.values
    else:   # f_a, then the phase-B marginal
        centers = density.x_grid.centers
        blocks = (density.f_a, density.f_b.sum(axis=1) * density.dy + density.staging)
    t = F17(density.time)
    xs = [F17(x) for x in centers.tolist()]
    write_csv(path, ["t", "regime", "cell_center", "value"],
              ([t, r, x, F17(v)] for r, vals in enumerate(blocks)
               for x, v in zip(xs, vals.tolist())))
