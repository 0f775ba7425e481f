"""Histogram, distance, goodness-of-fit, and sweeping-diagnostic behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pdmpkit as pk
from pdmpkit import (
    Grid1D,
    dkw_epsilon,
    empirical_density,
    ks_statistic,
    l1_distance,
    occupation_samples,
    sweeping_mass,
    two_sample_ks,
)
from pdmpkit.errors import EmptySample, GridMismatch, InvalidParam


class TestHistogram:
    def test_single_cell_density(self):
        grid = Grid1D(0.0, 1.0, 10)
        hist = empirical_density(np.full(50, 0.55), grid)
        assert hist.density[0, 5] == pytest.approx(1.0 / grid.h)
        assert hist.density[0].sum() * grid.h == pytest.approx(1.0, abs=1e-12)

    def test_normalization_exact(self):
        grid = Grid1D(0.0, 1.0, 64)
        rng = np.random.default_rng(1)
        hist = empirical_density(rng.uniform(size=10_000), grid)
        assert abs(hist.density.sum() * grid.h - 1.0) < 1e-12

    def test_uniform_noise_level(self):
        grid = Grid1D(0.0, 1.0, 64)
        rng = np.random.default_rng(2)
        hist = empirical_density(rng.uniform(size=1_000_000), grid)
        assert l1_distance(hist, [lambda x: 1.0]) <= 0.03

    def test_regime_masses_sum_to_one(self):
        grid = Grid1D(0.0, 1.0, 16)
        rng = np.random.default_rng(3)
        xs = rng.uniform(size=5000)
        regs = rng.integers(0, 3, size=5000)
        hist = empirical_density(xs, grid, regimes=regs, n_regimes=3)
        assert hist.density.sum() * grid.h == pytest.approx(1.0, abs=1e-12)
        assert hist.counts.sum() == 5000

    def test_out_of_range_reported_not_dropped(self):
        grid = Grid1D(0.0, 1.0, 16)
        xs = np.array([0.5, 0.7, 1.5, -0.2])
        hist = empirical_density(xs, grid)
        assert hist.out_of_range == 2
        assert hist.n_samples == 4
        assert hist.density.sum() * grid.h == pytest.approx(1.0, abs=1e-12)

    def test_empty_sample_raises(self):
        grid = Grid1D(0.0, 1.0, 16)
        with pytest.raises(EmptySample):
            empirical_density(np.array([]), grid)
        with pytest.raises(EmptySample):
            empirical_density(np.array([5.0, 6.0]), grid)


class TestL1Distance:
    def test_identical_is_zero(self):
        grid = Grid1D(0.0, 1.0, 16)
        hist = empirical_density(np.random.default_rng(4).uniform(size=100), grid)
        assert l1_distance(hist, hist) == 0.0

    def test_disjoint_unit_masses(self):
        grid = Grid1D(0.0, 1.0, 16)
        a = empirical_density(np.full(10, 0.1), grid)
        b = empirical_density(np.full(10, 0.9), grid)
        assert l1_distance(a, b) == pytest.approx(2.0, abs=1e-12)

    def test_grid_mismatch(self):
        a = empirical_density(np.full(10, 0.5), Grid1D(0.0, 1.0, 16))
        b = empirical_density(np.full(10, 0.5), Grid1D(0.0, 2.0, 16))
        with pytest.raises(GridMismatch):
            l1_distance(a, b)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 50), min_size=8, max_size=8),
           st.lists(st.integers(0, 50), min_size=8, max_size=8),
           st.lists(st.integers(0, 50), min_size=8, max_size=8))
    def test_metric_properties(self, ca, cb, cc):
        grid = Grid1D(0.0, 1.0, 8)
        h = grid.h

        def dens(counts):
            c = np.asarray(counts, dtype=float)
            total = c.sum()
            return (c / (total * h))[None, :] if total else np.zeros((1, 8))

        a, b, c = dens(ca), dens(cb), dens(cc)
        dab = np.abs(a - b).sum() * h
        dba = np.abs(b - a).sum() * h
        assert dab == dba
        assert np.abs(a - c).sum() * h <= dab + np.abs(b - c).sum() * h + 1e-12


class TestKs:
    def test_correct_law_within_band(self):
        rng = np.random.default_rng(5)
        n = 10_000
        xs = rng.exponential(size=n)
        assert ks_statistic(xs, lambda t: -np.expm1(-t)) < dkw_epsilon(n, 0.01)

    def test_wrong_rate_detected(self):
        rng = np.random.default_rng(6)
        xs = rng.exponential(size=5000)
        # sup_x |e^{-x} - e^{-2x}| = 1/4, so the statistic stays near 0.25
        assert ks_statistic(xs, lambda t: -np.expm1(-2.0 * t)) > 0.2

    def test_point_mass_deterministic(self):
        xs = np.full(100, 3.0)
        cdf = lambda t: (np.asarray(t) >= 3.0).astype(float)
        first = ks_statistic(xs, cdf)
        assert first == ks_statistic(xs, cdf) == 1.0  # left-limit convention

    def test_two_sample(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=4000)
        b = rng.normal(size=4000)
        c = rng.normal(loc=1.0, size=4000)
        assert two_sample_ks(a, b) < 0.05
        assert two_sample_ks(a, c) > 0.2

    def test_dkw_value(self):
        assert dkw_epsilon(100_000, 0.01) == pytest.approx(0.005149, abs=1e-5)

    def test_empty_raises(self):
        with pytest.raises(EmptySample):
            ks_statistic(np.array([]), lambda t: t)


class TestSweepingMass:
    def fake_snapshots(self, rng, n_paths=500, n_times=3):
        states = rng.uniform(0.0, 1.0, size=(n_times, n_paths, 1))
        regimes = rng.integers(0, 2, size=(n_times, n_paths))
        return states, regimes

    def test_monotone_in_eps(self):
        rng = np.random.default_rng(8)
        states, regimes = self.fake_snapshots(rng)
        times = [1.0, 2.0, 3.0]
        small = sweeping_mass(times, states, regimes, eps=0.1)
        large = sweeping_mass(times, states, regimes, eps=0.3)
        assert np.all(small.mass_total <= large.mass_total)

    def test_regime_split_sums_to_total(self):
        rng = np.random.default_rng(9)
        states, regimes = self.fake_snapshots(rng)
        rep = sweeping_mass([0.0, 1.0, 2.0], states, regimes, eps=0.2)
        assert np.allclose(rep.mass_by_regime.sum(axis=1), rep.mass_total)
        ok = ~np.isnan(rep.regime_freq_small).any(axis=1)
        assert np.allclose(rep.regime_freq_small[ok].sum(axis=1), 1.0)

    def test_all_paths_counted_once(self):
        states = np.array([[[0.01], [0.5], [0.02], [0.9]]])
        regimes = np.array([[0, 1, 1, 0]])
        rep = sweeping_mass([1.0], states, regimes, eps=0.05)
        assert rep.mass_total[0] == pytest.approx(0.5)
        assert rep.regime_freq_small[0] == pytest.approx([0.5, 0.5])

    def test_stable_gene_model_not_sweeping(self):
        # a stable switch keeps its low-state mass near the stationary value
        # (here: integral of the uniform marginal over [0, eps] = eps)
        model = pk.make_gene_expression(
            pk.GeneExpressionParams(P=1.0, mu=1.0, q0=1.0, q1=1.0))
        ens = pk.simulate_ensemble(model, lambda rng: ([rng.uniform()], 0),
                                   30.0, 2000, seed=88, snapshot_times=[30.0])
        rep = sweeping_mass(ens.snapshot_times, ens.snapshot_states,
                            ens.snapshot_regimes, eps=0.05)
        assert rep.mass_total[-1] < 0.1


class TestExport:
    def test_histogram_csv_columns(self, tmp_path):
        import csv

        from pdmpkit.mcstats import histogram_to_csv

        grid = Grid1D(0.0, 1.0, 8)
        rng = np.random.default_rng(11)
        hist = empirical_density(rng.uniform(size=200), grid,
                                 regimes=rng.integers(0, 2, size=200), n_regimes=2)
        path = tmp_path / "hist.csv"
        histogram_to_csv(hist, path)
        rows = list(csv.reader(open(path)))
        assert rows[0] == ["cell_center", "regime", "density"]
        assert len(rows) - 1 == 2 * grid.n


class TestOccupation:
    def test_fixed_delta_counts(self):
        model = pk.make_telegraph(1.0, 1.0)
        xs, regs = occupation_samples(model, [0.0, 1.0], 0, 100.0,
                                      pk.path_rng(70, 0), delta=1.0)
        # default burn-in is half the horizon
        assert xs.size == 51
        assert set(np.unique(regs)) == {0}

    def test_jump_chain_mode(self):
        model = pk.make_telegraph(2.0, 1.0)
        xs, regs = occupation_samples(model, [0.0, 1.0], 0, 200.0,
                                      pk.path_rng(70, 1), delta=1.0,
                                      mode="jump_chain", burn_in=0.0)
        traj = pk.simulate_trajectory(model, [0.0, 1.0], 0, 200.0,
                                      pk.path_rng(70, 1))
        assert xs.size == len(traj.jumps)

    def test_unknown_mode(self):
        model = pk.make_telegraph(1.0, 1.0)
        with pytest.raises(InvalidParam):
            occupation_samples(model, [0.0, 1.0], 0, 10.0, pk.path_rng(70, 2),
                               delta=1.0, mode="bogus")
