"""Empirical densities, distances, goodness-of-fit, and sweeping diagnostics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
from typing import Callable, Sequence, Tuple

import numpy as np

from .errors import EmptySample, GridMismatch, InvalidParam
from .flows import flow_evolve  # unused; the benchmark tracer patches this binding
from .process import DEFAULT_JUMP_BUDGET, PdmpModel, _path
from .transport import DensityGrid, Grid1D

Array = np.ndarray


@dataclass(frozen=True)
class Histogram:
    """Cell-average density estimate per regime; out-of-range samples are
    counted, never silently dropped, and the in-range part integrates to 1."""

    grid: Grid1D
    counts: Array              # (n_regimes, n) int64
    n_samples: int
    out_of_range: int
    density: Array             # (n_regimes, n)


def empirical_density(samples, grid: Grid1D, regimes=None, n_regimes: int = 1) -> Histogram:
    """Bin scalar samples (optionally regime-tagged) into cell-average densities."""
    xs = np.asarray(samples, dtype=float).ravel()
    if xs.size == 0:
        raise EmptySample("empirical_density needs at least one sample")
    if regimes is None:
        regs = np.zeros(xs.size, dtype=np.int64)
    else:
        regs = np.asarray(regimes, dtype=np.int64).ravel()
        if regs.shape != xs.shape:
            raise InvalidParam("samples and regimes must align")
        n_regimes = max(n_regimes, int(regs.max()) + 1)
    idx = np.floor((xs - grid.x_min) / grid.h).astype(np.int64)
    inside = (idx >= 0) & (idx < grid.n) & (regs >= 0) & (regs < n_regimes)
    n_in = int(inside.sum())
    if n_in == 0:
        raise EmptySample("all samples fell outside the grid")
    flat = regs[inside] * grid.n + idx[inside]
    counts = np.bincount(flat, minlength=n_regimes * grid.n).reshape(n_regimes, grid.n)
    density = counts / (n_in * grid.h)
    return Histogram(grid=grid, counts=counts, n_samples=int(xs.size),
                     out_of_range=int(xs.size - n_in), density=density)


def _density_values(obj, grid: Grid1D) -> Array:
    if isinstance(obj, Histogram):
        if not obj.grid.same_as(grid):
            raise GridMismatch("histograms live on different grids")
        return obj.density
    if isinstance(obj, DensityGrid):
        if not obj.grid.same_as(grid):
            raise GridMismatch("density grids differ")
        return obj.values
    if callable(obj):
        obj = [obj]
    if isinstance(obj, (list, tuple)) and obj and callable(obj[0]):
        vals = np.stack([[float(f(x)) for x in grid.centers] for f in obj])
        return vals
    vals = np.atleast_2d(np.asarray(obj, dtype=float))
    if vals.shape[1] != grid.n:
        raise GridMismatch("array length does not match the grid")
    return vals


def l1_distance(a, b) -> float:
    """Sum_i |a_i - b_i| * h over all regimes of two same-grid densities.

    Either side may be a Histogram, a DensityGrid, an array, or (a list of)
    callables evaluated at cell centers.
    """
    grid = a.grid if isinstance(a, (Histogram, DensityGrid)) else b.grid
    va = _density_values(a, grid)
    vb = _density_values(b, grid)
    if va.shape != vb.shape:
        raise GridMismatch(f"regime counts differ: {va.shape} vs {vb.shape}")
    return float(np.abs(va - vb).sum()) * grid.h


def ks_statistic(samples, cdf: Callable[[Array], Array]) -> float:
    """Sup-distance between the empirical CDF and a target CDF."""
    xs = np.sort(np.asarray(samples, dtype=float).ravel())
    n = xs.size
    if n == 0:
        raise EmptySample("ks_statistic needs samples")
    try:
        fx = np.asarray(cdf(xs), dtype=float)
        if fx.shape != xs.shape:
            raise TypeError
    except TypeError:
        fx = np.array([float(cdf(x)) for x in xs])
    if np.any(fx < -1e-12) or np.any(fx > 1 + 1e-12) or np.any(np.diff(fx) < -1e-12):
        raise InvalidParam("cdf must be nondecreasing with values in [0, 1]")
    up = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    return float(max(np.max(up - fx), np.max(fx - lo)))


def two_sample_ks(a, b) -> float:
    """Sup-distance between two empirical CDFs."""
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    if a.size == 0 or b.size == 0:
        raise EmptySample("two_sample_ks needs samples on both sides")
    allv = np.concatenate([a, b])
    ca = np.searchsorted(a, allv, side="right") / a.size
    cb = np.searchsorted(b, allv, side="right") / b.size
    return float(np.max(np.abs(ca - cb)))


def dkw_epsilon(n: int, alpha: float) -> float:
    """Dvoretzky-Kiefer-Wolfowitz band half-width at confidence 1 - alpha."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


@dataclass(frozen=True)
class SweepingReport:
    """Mass near the extinction boundary over time, per regime and total."""

    times: Tuple[float, ...]
    eps: float
    mass_total: Array          # fraction of paths with x <= eps
    mass_by_regime: Array      # (n_times, n_regimes)
    regime_freq_small: Array   # regime frequencies among paths with x <= eps

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "eps": self.eps,
            "times": list(self.times),
            "mass_total": self.mass_total.tolist(),
            "mass_by_regime": self.mass_by_regime.tolist(),
            "regime_freq_small": self.regime_freq_small.tolist(),
        }


def sweeping_mass(snapshot_times: Sequence[float], states: Array, regimes: Array,
                  eps: float) -> SweepingReport:
    """Fraction of paths at or below ``eps`` per snapshot, plus the regime mix
    of the two regimes among those near-zero paths (the empirical counterpart
    of the limit law); the first state component is the one compared."""
    if eps <= 0:
        raise InvalidParam("eps must be positive")
    states = np.asarray(states, dtype=float)
    regimes = np.asarray(regimes)
    n_times = states.shape[0]
    xs = states[..., 0]
    mass_total = np.zeros(n_times)
    mass_by_regime = np.zeros((n_times, 2))
    freq = np.full((n_times, 2), np.nan)
    for i in range(n_times):
        ok = np.isfinite(xs[i])
        small = ok & (xs[i] <= eps)
        denom = max(int(ok.sum()), 1)
        mass_total[i] = small.sum() / denom
        for r in range(2):
            mass_by_regime[i, r] = float(np.sum(small & (regimes[i] == r))) / denom
        if small.sum() > 0:
            for r in range(2):
                freq[i, r] = float(np.sum(small & (regimes[i] == r))) / small.sum()
    return SweepingReport(times=tuple(float(t) for t in snapshot_times), eps=eps,
                          mass_total=mass_total, mass_by_regime=mass_by_regime,
                          regime_freq_small=freq)


def occupation_samples(model: PdmpModel, x0, regime0: int, horizon: float,
                       rng: np.random.Generator, *, delta: float) -> Tuple[Array, Array]:
    """Stationary-regime samples from one long path.

    The first half of the horizon is dropped as burn-in; afterwards the first
    state component is read off every ``delta`` time units, which estimates
    the occupation measure.  ``delta`` must be a finite number > 0.
    """
    if isinstance(delta, bool) or not isinstance(delta, Real) or not 0 < delta < math.inf:
        raise InvalidParam(f"delta must be a finite number > 0, got {delta!r}")

    def ticks():
        t_s = 0.5 * horizon
        while t_s <= horizon:
            yield t_s
            t_s += delta

    xs: list = []
    regs: list = []
    for x, reg in _path(model, x0, regime0, rng, horizon, DEFAULT_JUMP_BUDGET, ticks()):
        xs.append(float(x[0]))
        regs.append(reg)
    if not xs:
        raise EmptySample("no occupation samples collected; lower delta")
    return np.asarray(xs), np.asarray(regs, dtype=np.int64)
