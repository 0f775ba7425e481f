"""Empirical densities, distances, goodness-of-fit, and sweeping diagnostics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .csvout import F17, write_csv
from .errors import EmptySample, GridMismatch, InvalidParam
from .flows import flow_evolve
from .process import PdmpModel, iter_events
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

    @property
    def n_regimes(self) -> int:
        return self.counts.shape[0]


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


def _density_values(obj, grid: Grid1D, n_regimes: int) -> Array:
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
    va = _density_values(a, grid, 0)
    vb = _density_values(b, grid, 0)
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
                  eps: float, component: int = 0, n_regimes: int = 2) -> SweepingReport:
    """Fraction of paths at or below ``eps`` per snapshot, plus the regime mix
    among those near-zero paths (the empirical counterpart of the limit law)."""
    if eps <= 0:
        raise InvalidParam("eps must be positive")
    states = np.asarray(states, dtype=float)
    regimes = np.asarray(regimes)
    n_times = states.shape[0]
    xs = states[..., component]
    mass_total = np.zeros(n_times)
    mass_by_regime = np.zeros((n_times, n_regimes))
    freq = np.full((n_times, n_regimes), np.nan)
    for i in range(n_times):
        ok = np.isfinite(xs[i])
        small = ok & (xs[i] <= eps)
        denom = max(int(ok.sum()), 1)
        mass_total[i] = small.sum() / denom
        for r in range(n_regimes):
            mass_by_regime[i, r] = float(np.sum(small & (regimes[i] == r))) / denom
        if small.sum() > 0:
            for r in range(n_regimes):
                freq[i, r] = float(np.sum(small & (regimes[i] == r))) / small.sum()
    return SweepingReport(times=tuple(float(t) for t in snapshot_times), eps=eps,
                          mass_total=mass_total, mass_by_regime=mass_by_regime,
                          regime_freq_small=freq)


def occupation_samples(model: PdmpModel, x0, regime0: int, horizon: float,
                       rng: np.random.Generator, *, delta: float,
                       burn_in: Optional[float] = None, component: int = 0,
                       mode: str = "fixed_delta") -> Tuple[Array, Array]:
    """Stationary-regime samples from one long path.

    The first ``burn_in`` time units (default: half the horizon) are dropped;
    afterwards the state is read off every ``delta`` time units
    (``mode="fixed_delta"``, the default, which estimates the occupation
    measure) or at post-jump states (``mode="jump_chain"``).
    """
    if burn_in is None:
        burn_in = 0.5 * horizon
    if mode not in ("fixed_delta", "jump_chain"):
        raise InvalidParam(f"unknown sampling mode {mode!r}")
    xs: list = []
    regs: list = []
    t_seg = 0.0
    x_seg = np.atleast_1d(np.asarray(x0, dtype=float))
    reg = int(regime0)
    t_s = burn_in
    for t_jump, reg_pre, ev in iter_events(model, x_seg, reg, rng, horizon):
        if mode == "fixed_delta":
            flow = model.regimes[reg_pre].flow
            while t_s <= t_jump:
                xs.append(float(flow_evolve(flow, x_seg, t_s - t_seg)[component]))
                regs.append(reg_pre)
                t_s += delta
        elif t_jump >= burn_in:
            xs.append(float(ev.state_post[component]))
            regs.append(ev.regime_post)
        t_seg, x_seg, reg = t_jump, ev.state_post, ev.regime_post
    if mode == "fixed_delta":
        flow = model.regimes[reg].flow
        while t_s <= horizon:
            xs.append(float(flow_evolve(flow, x_seg, t_s - t_seg)[component]))
            regs.append(reg)
            t_s += delta
    if not xs:
        raise EmptySample("no occupation samples collected; lower burn_in or delta")
    return np.asarray(xs), np.asarray(regs, dtype=np.int64)


def histogram_to_csv(hist: Histogram, path) -> None:
    """Histogram export: rows (cell_center, regime, density)."""
    centers = hist.grid.centers
    write_csv(path, ["cell_center", "regime", "density"],
              ([F17(x), r, F17(v)] for r, vals in enumerate(hist.density)
               for x, v in zip(centers, vals)))
