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


def density_from(grid: Grid1D, f0s, time: float = 0.0) -> DensityGrid:
    """Build a DensityGrid from arrays or callables, one per regime."""
    if callable(f0s):
        f0s = [f0s]
    elif isinstance(f0s, np.ndarray) and f0s.ndim == 1:
        f0s = [f0s]
    elif isinstance(f0s, (list, tuple)) and f0s and isinstance(f0s[0], (int, float)):
        f0s = [np.asarray(f0s, dtype=float)]
    vals = np.stack([_values_on(grid, f) for f in f0s])
    return DensityGrid(grid, vals, time=time)


def _audit(density, kind: str) -> None:
    vmin = min(float(np.min(v)) for v in _value_blocks(density))
    if vmin < -POSITIVITY_TOL:
        raise MassAuditError(f"{kind}: negative density {vmin:.3e} appeared")
    for v in _value_blocks(density):
        np.maximum(v, 0.0, out=v)   # scrub roundoff-level negatives
    drift = density.mass_drift()
    if abs(drift) > MASS_TOL * max(1.0, density.initial_mass):
        raise MassAuditError(f"{kind}: mass drifted by {drift:.3e}")


def _value_blocks(density):
    if isinstance(density, DensityGrid):
        return [density.values]
    return [density.f_a, density.f_b, density.staging]


def _edge_speeds(grid: Grid1D, g: Callable[[float], float]) -> Array:
    return np.array([float(g(x)) for x in grid.edges])


def _check_cfl(dt: float, g_edges: Array, h: float) -> None:
    limit = dt * float(np.max(np.abs(g_edges))) / h
    if limit > 0.9 + 1e-12:
        raise CflViolation(f"dt*max|g|/h = {limit:.3f} exceeds 0.9")


def _upwind_step(u: Array, g_edges: Array, dt: float, h: float) -> float:
    """One conservative upwind update in place; returns the boundary outflow mass.

    Works on 1-D arrays and on 2-D arrays whose first axis is the transport
    direction (each column advected with the same speeds).
    """
    gp = np.maximum(g_edges, 0.0)
    gm = np.minimum(g_edges, 0.0)
    flux = np.zeros((u.shape[0] + 1,) + u.shape[1:])
    if u.ndim == 2:
        gp = gp[:, None]
        gm = gm[:, None]
    flux[1:-1] = gp[1:-1] * u[:-1] + gm[1:-1] * u[1:]
    flux[0] = gm[0] * u[0]      # outflow only where the field points outward
    flux[-1] = gp[-1] * u[-1]
    u -= (dt / h) * (flux[1:] - flux[:-1])
    out = float(np.sum(flux[-1]) - np.sum(flux[0])) * dt
    return out


class _FixedStepSolver:
    """Advance by whole steps of ``self.dt`` plus one shorter remainder step."""

    def advance(self, density: DensityGrid, duration: float) -> DensityGrid:
        if self.dt <= 0 or duration < 0:
            raise InvalidParam("need dt > 0 and t_end >= 0")
        n_full = int(math.floor(duration / self.dt + 1e-9))
        rem = duration - n_full * self.dt
        for _ in range(n_full):
            self.step(density)
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
        self.g_edges = _edge_speeds(grid, g)
        _check_cfl(dt, self.g_edges, grid.h)

    def step(self, density: DensityGrid, dt: Optional[float] = None) -> None:
        dt = self.dt if dt is None else dt
        density.outflow += _upwind_step(density.values[0], self.g_edges, dt, self.grid.h)
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
        self.g_edges = [_edge_speeds(grid, g0), _edge_speeds(grid, g1)]
        for ge in self.g_edges:
            _check_cfl(dt, ge, grid.h)
        centers = grid.centers
        self.q0_c = np.array([float(q0(x)) for x in centers])
        self.q1_c = np.array([float(q1(x)) for x in centers])
        if np.any(self.q0_c < 0) or np.any(self.q1_c < 0):
            raise InvalidParam("switching intensities must be nonnegative")
        if dt * float(max(self.q0_c.max(), self.q1_c.max())) > 0.5 + 1e-12:
            raise CflViolation("dt * max(q) exceeds 0.5")

    def _exchange(self, u: Array, dt: float) -> None:
        s = self.q0_c + self.q1_c
        active = s > 0
        e = np.exp(-s[active] * dt)
        m = u[0, active] + u[1, active]
        eq0 = (self.q1_c[active] / s[active]) * m
        u[0, active] = eq0 + (u[0, active] - eq0) * e
        u[1, active] = m - u[0, active]

    def step(self, density: DensityGrid, dt: Optional[float] = None) -> None:
        dt = self.dt if dt is None else dt
        for i in (0, 1):
            density.outflow += _upwind_step(density.values[i], self.g_edges[i],
                                            dt, self.grid.h)
        self._exchange(density.values, dt)
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
        self.g_edges = _edge_speeds(grid, g)
        _check_cfl(dt, self.g_edges, grid.h)
        self.phi_c = np.array([float(phi(x)) for x in grid.centers])
        if np.any(self.phi_c < 0):
            raise InvalidParam("division intensity must be nonnegative")
        if dt * float(self.phi_c.max()) > 0.5 + 1e-12:
            raise CflViolation("dt * max(phi) exceeds 0.5")

    def step(self, density: DensityGrid, dt: Optional[float] = None) -> None:
        dt = self.dt if dt is None else dt
        u = density.values[0]
        density.outflow += _upwind_step(u, self.g_edges, dt, self.grid.h)
        loss = dt * self.phi_c * u
        u -= loss
        half = self.grid.n // 2
        u[:half] += loss[0::2] + loss[1::2]
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
        dy = t_B / n_y
        k = dy / dt
        if abs(k - round(k)) > 1e-9 or round(k) < 1:
            raise DtMisaligned(f"dt={dt:.6g} must divide the y cell width {dy:.6g}")
        self.k = int(round(k))
        self.x_grid = x_grid
        self.n_y = n_y
        self.t_B = t_B
        self.dt = dt
        self.g_edges = _edge_speeds(x_grid, g)
        _check_cfl(dt, self.g_edges, x_grid.h)
        self.phi_c = np.array([float(phi(x)) for x in x_grid.centers])
        if np.any(self.phi_c < 0):
            raise InvalidParam("phase-entry intensity must be nonnegative")
        if dt * float(self.phi_c.max()) > 0.5 + 1e-12:
            raise CflViolation("dt * max(phi) exceeds 0.5")
        self._substep = 0

    def step(self, density: TwoPhaseDensity) -> None:
        dt, h = self.dt, self.x_grid.h
        density.outflow += _upwind_step(density.f_a, self.g_edges, dt, h)
        out_b = _upwind_step(density.f_b, self.g_edges, dt, h)
        density.outflow += out_b * density.dy

        loss = dt * self.phi_c * density.f_a    # boundary condition f_b(.,0) = phi f_a
        density.f_a -= loss
        density.staging += loss

        self._substep += 1
        if self._substep == self.k:
            self._substep = 0
            dy = density.dy
            exit_col = density.f_b[:, -1].copy()
            density.f_b[:, 1:] = density.f_b[:, :-1]
            density.f_b[:, 0] = density.staging / dy
            density.staging[:] = 0.0
            half = self.x_grid.n // 2
            gain = (exit_col[0::2] + exit_col[1::2]) * dy
            density.f_a[:half] += gain
        density.time += dt
        _audit(density, "two_phase")

    def advance(self, density: TwoPhaseDensity, duration: float) -> TwoPhaseDensity:
        n_steps = int(round(duration / self.dt))
        if abs(n_steps * self.dt - duration) > 1e-9 * max(1.0, duration):
            raise DtMisaligned("advance duration must be a multiple of dt")
        for _ in range(n_steps):
            self.step(density)
        return density


# ---------------------------------------------------------------------------
# steady state search and export
# ---------------------------------------------------------------------------


def _l1_weights(density) -> list:
    if isinstance(density, DensityGrid):
        return [density.grid.h]
    h = density.x_grid.h
    return [h, h * density.dy, h]      # f_a, f_b, staging


def steady_state(solver, density, tol: float, t_max: float,
                 check_dt: float = 1.0):
    """Advance until the L1 change per unit time drops below tol, or t_max.

    Returns (density, converged).  Works for any solver exposing
    ``advance(density, duration)``.  A :class:`TwoPhaseSolver` advances by
    whole steps only, so it is checked every whole number of steps nearest
    ``check_dt`` (at least one).
    """
    if isinstance(solver, TwoPhaseSolver):
        check_dt = max(1, round(check_dt / solver.dt)) * solver.dt
    t = 0.0
    weights = _l1_weights(density)
    while t < t_max - 1e-12:
        span = min(check_dt, t_max - t)
        prev = [b.copy() for b in _value_blocks(density)]
        solver.advance(density, span)
        t += span
        diff = sum(float(np.abs(new - old).sum()) * w
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
    write_csv(path, ["t", "regime", "cell_center", "value"],
              ([t, r, F17(x), F17(v)] for r, vals in enumerate(blocks)
               for x, v in zip(centers, vals)))
