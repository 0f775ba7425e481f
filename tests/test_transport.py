"""Grid solvers: conservation, positivity, convergence, and cross-validation."""

import json
import math
import resource

import numpy as np
import pytest

import pdmpkit as pk
from pdmpkit import (
    CellCycleSolver,
    Grid1D,
    LiouvilleSolver,
    SwitchingSolver,
    TwoPhaseSolver,
    density_from,
    evolve_liouville,
    steady_state,
    two_phase_density,
)
from pdmpkit.cli import run
from pdmpkit.errors import (
    CflViolation,
    DtMisaligned,
    GridNotDyadic,
    InvalidParam,
    MassAuditError,
)
from pdmpkit.transport import _audit, coarsen_density


def bump(center, width):
    return lambda x: math.exp(-((x - center) / width) ** 2)


class TestGrid:
    def test_minimum_cells(self):
        with pytest.raises(InvalidParam):
            Grid1D(0.0, 1.0, 4)

    def test_dyadic_requirements(self):
        with pytest.raises(GridNotDyadic):
            Grid1D(0.5, 1.0, 16, dyadic_aligned=True)
        with pytest.raises(GridNotDyadic):
            Grid1D(0.0, 1.0, 17, dyadic_aligned=True)
        grid = Grid1D(0.0, 1.0, 16, dyadic_aligned=True)
        # x -> 2x maps boundaries in [0, x_max/2] exactly onto boundaries
        doubled = 2.0 * grid.edges[: grid.n // 2 + 1]
        assert np.allclose(doubled, grid.edges[::2], atol=0.0)

    def test_coarsen_preserves_mass(self):
        grid = Grid1D(0.0, 2.0, 64)
        dens = density_from(grid, [bump(1.0, 0.3)])
        coarse = coarsen_density(dens, 8)
        assert coarse.mass() == pytest.approx(dens.mass(), abs=1e-14)


class TestLiouville:
    def test_zero_field_is_identity(self):
        grid = Grid1D(0.0, 1.0, 32)
        dens0 = density_from(grid, [bump(0.5, 0.1)])
        out = evolve_liouville(grid, lambda x: 0.0, bump(0.5, 0.1), 3.0, 0.01)
        assert np.array_equal(out.values, dens0.values)

    def test_constant_advection_translates(self):
        t_end = 0.5
        errors = []
        for n in (128, 256):
            grid = Grid1D(0.0, 4.0, n)
            out = evolve_liouville(grid, lambda x: 1.0, bump(1.0, 0.2), t_end,
                                   0.8 * grid.h)
            exact = [bump(1.0 + t_end, 0.2)(x) for x in grid.centers]
            errors.append(pk.l1_distance(out, np.array([exact])))
        assert errors[0] < 0.2 and errors[1] < errors[0]

    def test_contracting_field_pushforward_convergence(self):
        # exact solution e^t f0(x e^t) for g(x) = -x; first-order ratio window
        t_end = 0.5
        errors = []
        for n in (256, 512):
            grid = Grid1D(0.0, 2.0, n)
            out = evolve_liouville(grid, lambda x: -x, bump(1.0, 0.15), t_end,
                                   0.45 * grid.h / 2.0)
            exact = [math.exp(t_end) * bump(1.0, 0.15)(x * math.exp(t_end))
                     for x in grid.centers]
            errors.append(pk.l1_distance(out, np.array([exact])))
        ratio = errors[0] / errors[1]
        assert 1.5 <= ratio <= 3.0

    def test_cfl_violation(self):
        grid = Grid1D(0.0, 1.0, 32)
        with pytest.raises(CflViolation):
            evolve_liouville(grid, lambda x: 1.0, bump(0.5, 0.1), 1.0, 2.0 * grid.h)

    def test_outflow_tracked(self):
        grid = Grid1D(0.0, 1.0, 64)
        out = evolve_liouville(grid, lambda x: 1.0, bump(0.8, 0.05), 1.0,
                               0.8 * grid.h)
        assert out.outflow > 0.9 * out.initial_mass
        assert abs(out.mass() + out.outflow - out.initial_mass) < 1e-12

    def test_numerical_semigroup_property(self):
        grid = Grid1D(0.0, 2.0, 64)
        solver = LiouvilleSolver(grid, lambda x: -x, 0.4 * grid.h / 2.0)
        one = density_from(grid, [bump(1.0, 0.2)])
        solver.advance(one, 0.8)
        two = density_from(grid, [bump(1.0, 0.2)])
        solver2 = LiouvilleSolver(grid, lambda x: -x, 0.4 * grid.h / 2.0)
        solver2.advance(two, 0.5)
        solver2.advance(two, 0.3)
        assert np.allclose(one.values, two.values, atol=1e-13)


class TestSwitching:
    def gene_fields(self):
        return (lambda x: -x), (lambda x: 1.0 - x)

    def test_zero_exchange_reduces_to_liouville(self):
        grid = Grid1D(0.0, 1.0, 64)
        g0, g1 = self.gene_fields()
        dt = 0.4 * grid.h
        pair = SwitchingSolver(grid, g0, g1, lambda x: 0.0, lambda x: 0.0, dt).advance(
            density_from(grid, [bump(0.5, 0.1), bump(0.3, 0.05)]), 0.5)
        solo0 = evolve_liouville(grid, g0, bump(0.5, 0.1), 0.5, dt)
        solo1 = evolve_liouville(grid, g1, bump(0.3, 0.05), 0.5, dt)
        assert np.allclose(pair.values[0], solo0.values[0], atol=1e-13)
        assert np.allclose(pair.values[1], solo1.values[0], atol=1e-13)

    def test_mass_conserved_without_outflow(self):
        # gene fields point inward at both ends, so the total is conserved
        grid = Grid1D(0.0, 1.0, 128)
        g0, g1 = self.gene_fields()
        solver = SwitchingSolver(grid, g0, g1, lambda x: 1.0, lambda x: 1.0,
                                 0.4 * grid.h)
        dens = density_from(grid, [lambda x: 0.5, lambda x: 0.5])
        for _ in range(200):
            solver.step(dens)
            assert abs(dens.mass_drift()) < 1e-12
        assert dens.outflow == 0.0

    def test_positivity_preserved(self):
        grid = Grid1D(0.0, 1.0, 64)
        g0, g1 = self.gene_fields()
        solver = SwitchingSolver(grid, g0, g1, lambda x: 2.0, lambda x: 0.5,
                                 0.2 * grid.h)
        dens = density_from(grid, [bump(0.9, 0.03), lambda x: 0.0])
        solver.advance(dens, 2.0)
        assert dens.values.min() >= 0.0

    def test_gene_steady_state_matches_analytic(self):
        grid = Grid1D(0.0, 1.0, 256)
        g0, g1 = self.gene_fields()
        solver = SwitchingSolver(grid, g0, g1, lambda x: 1.0, lambda x: 1.0,
                                 0.4 * grid.h)
        dens = density_from(grid, [lambda x: 0.5, lambda x: 0.5])
        dens, converged = steady_state(solver, dens, tol=1e-8, t_max=80.0)
        assert converged
        assert pk.l1_distance(dens, [lambda x: 1.0 - x, lambda x: x]) < 0.05

    def test_restart_from_discrete_fixed_point_converges_immediately(self):
        grid = Grid1D(0.0, 1.0, 128)
        g0, g1 = self.gene_fields()
        solver = SwitchingSolver(grid, g0, g1, lambda x: 1.0, lambda x: 1.0,
                                 0.4 * grid.h)
        dens = density_from(grid, [lambda x: 0.5, lambda x: 0.5])
        dens, converged = steady_state(solver, dens, tol=1e-8, t_max=120.0)
        assert converged
        again, converged2 = steady_state(solver, dens.copy(), tol=1e-8, t_max=2.0)
        assert converged2  # residual already below tol at the first check

    def test_exchange_cfl_guard(self):
        grid = Grid1D(0.0, 1.0, 32)
        with pytest.raises(CflViolation):
            SwitchingSolver(grid, lambda x: -x, lambda x: 1 - x,
                            lambda x: 100.0, lambda x: 100.0, 0.4 * grid.h)


class TestCellCycle:
    def test_requires_dyadic_grid(self):
        grid = Grid1D(0.0, 4.0, 64)
        with pytest.raises(GridNotDyadic):
            CellCycleSolver(grid, lambda x: x, lambda x: x, 1e-3)

    def test_zero_intensity_is_pure_transport(self):
        grid = Grid1D(0.0, 4.0, 64, dyadic_aligned=True)
        dt = 0.4 * grid.h / 4.0
        a = CellCycleSolver(grid, lambda x: x, lambda x: 0.0, dt).advance(
            density_from(grid, [bump(1.0, 0.2)]), 0.5)
        b = evolve_liouville(Grid1D(0.0, 4.0, 64), lambda x: x, bump(1.0, 0.2),
                             0.5, dt)
        assert np.allclose(a.values, b.values, atol=1e-14)

    def test_division_pairing_conserves_mass(self):
        grid = Grid1D(0.0, 8.0, 128, dyadic_aligned=True)
        solver = CellCycleSolver(grid, lambda x: x, lambda x: x, 0.05 * grid.h)
        dens = density_from(grid, [bump(1.0, 0.3)])
        for _ in range(400):
            solver.step(dens)
            assert abs(dens.mass_drift()) < 1e-12
        assert dens.values.min() >= 0.0


class TestTwoPhase:
    def test_zero_intensity_empties_phase_b(self):
        grid = Grid1D(0.0, 4.0, 32, dyadic_aligned=True)
        n_y, t_B = 16, 0.5
        dt = t_B / n_y
        f_b0 = np.ones((32, n_y))
        dens = TwoPhaseSolver(grid, n_y, t_B, lambda x: 0.2, lambda x: 0.0, dt).advance(
            two_phase_density(grid, n_y, t_B, bump(1.0, 0.2), f_b0), t_B)
        mass_a, mass_b = dens.phase_masses()
        assert mass_b == pytest.approx(0.0, abs=1e-14)
        assert dens.time == pytest.approx(t_B)

    def test_mass_conservation_with_coupling(self):
        grid = Grid1D(0.0, 8.0, 64, dyadic_aligned=True)
        n_y, t_B = 40, 0.5
        solver = TwoPhaseSolver(grid, n_y, t_B, lambda x: x, lambda x: x,
                                dt=t_B / n_y / 2.0)
        dens = two_phase_density(grid, n_y, t_B, bump(1.0, 0.3))
        for _ in range(300):
            solver.step(dens)
            assert abs(dens.mass_drift()) < 1e-10
        assert dens.f_a.min() >= 0.0 and dens.f_b.min() >= 0.0

    def test_steady_checks_at_whole_steps(self, tmp_path):
        # 1.0 is not a multiple of dt = 0.0375: checks fall every 27 steps
        model = {"name": "cell_cycle_2p", "g": "x", "phi": "0.9 * x", "t_B": 0.3}
        evolve = {"grid": {"n": 16, "x_max": 8.0}, "dt": 0.0375, "t_end": 3.0, "n_y": 8}
        run("evolve", {"model": model, "evolve": evolve}, tmp_path / "plain")
        run("evolve", {"model": model, "evolve": {**evolve, "steady": {"t_max": 3.0}}},
            tmp_path / "steady")
        summary = json.loads((tmp_path / "steady" / "summary.json").read_text())
        assert summary["converged"] is False
        assert summary["t_final"] == pytest.approx(3.0)
        # not converged: the same 80 steps as the plain run
        assert ((tmp_path / "steady" / "density.csv").read_bytes()
                == (tmp_path / "plain" / "density.csv").read_bytes())

    @pytest.mark.parametrize("dt", [0.0, -0.025])
    def test_nonpositive_dt_rejected(self, dt):
        grid = Grid1D(0.0, 4.0, 32, dyadic_aligned=True)
        with pytest.raises(InvalidParam, match="need dt > 0"):
            TwoPhaseSolver(grid, 10, 0.5, lambda x: 0.1, lambda x: 0.1, dt=dt)

    @pytest.mark.parametrize("t_end", [-1.0, math.nan])
    @pytest.mark.parametrize("model", [
        {"name": "cell_cycle_1p", "g": "x", "phi": "0.9 * x"},
        {"name": "cell_cycle_2p", "g": "x", "phi": "0.9 * x", "t_B": 0.5}])
    def test_negative_duration_rejected(self, model, t_end, tmp_path):
        evolve = {"grid": {"n": 16, "x_max": 8.0}, "dt": 0.015625, "t_end": t_end}
        with pytest.raises(InvalidParam, match=r"need dt > 0 and t_end >= 0"):
            run("evolve", {"model": model, "evolve": evolve}, tmp_path)

    def test_dt_must_divide_y_cell(self):
        grid = Grid1D(0.0, 4.0, 32, dyadic_aligned=True)
        with pytest.raises(DtMisaligned):
            TwoPhaseSolver(grid, 10, 0.5, lambda x: 0.1, lambda x: 0.1, dt=0.03)

    def test_phase_occupancy_matches_monte_carlo(self):
        # fraction of time the followed cell spends in the proliferating phase:
        # grid solve vs the occupation measure of the event-driven process;
        # the domain must cover the at-division sizes (stationary mean ~ 9.4)
        t_B = 0.5
        grid = Grid1D(0.0, 32.0, 512, dyadic_aligned=True)
        n_y = 50
        dy = t_B / n_y
        k = int(math.ceil(dy / (0.45 * grid.h / 32.0)))
        solver = TwoPhaseSolver(grid, n_y, t_B, lambda x: x, lambda x: x,
                                dt=dy / k)
        dens = two_phase_density(grid, n_y, t_B, bump(1.0, 0.2))
        dens.f_a /= dens.mass()
        dens.initial_mass = dens.mass()
        solver.advance(dens, 30.0)
        mass_a, mass_b = dens.phase_masses()
        pde_frac = mass_b / (mass_a + mass_b)

        model = pk.make_cell_cycle(pk.GrowthDivision(
            g=lambda x: x, phi=lambda x: x, t_B=t_B,
            g_closed_form=lambda t, x: x * np.exp(t)))
        _, regs = pk.occupation_samples(model, [1.0, 0.0], 0, 20000.0,
                                        pk.path_rng(61, 0), delta=0.5)
        mc_frac = float(np.mean(regs == 1))
        assert abs(pde_frac - mc_frac) < 0.02


class TestSweepingOnGrid:
    def test_sweeping_mass_concentrates_near_zero(self):
        # sweeping birth-switch parameters: no steady state, and the density
        # mass piles up below any fixed eps
        b0, b1, c, mu = 0.2, 1.5, 1.0, 1.0
        a = (b1 - mu) / c
        g0 = lambda x: (b0 - mu) * x - c * x * x
        g1 = lambda x: (b1 - mu) * x - c * x * x
        grid = Grid1D(0.0, a, 256)
        speed = max(abs(g0(a)), 0.25 * (b1 - mu) ** 2 / c)
        solver = SwitchingSolver(grid, g0, g1, lambda x: 1.0, lambda x: 1.0,
                                 0.45 * grid.h / speed)
        dens = density_from(grid, [lambda x: 1.0 / a, lambda x: 1.0 / a])
        dens, converged = steady_state(solver, dens, tol=1e-8, t_max=60.0)
        assert not converged
        eps = 0.05
        cells = grid.centers <= eps

        def low_mass():
            return dens.values[:, cells].sum() / dens.values.sum()

        fracs = [low_mass()]
        for _ in range(2):
            solver.advance(dens, 70.0)
            fracs.append(low_mass())
        assert fracs[0] < fracs[1] < fracs[2]
        assert fracs[-1] > 0.9


class TestInitialConditions:
    def test_negative_density_rejected(self):
        grid = Grid1D(0.0, 1.0, 32)
        with pytest.raises(InvalidParam):
            density_from(grid, [lambda x: -1.0])

    def test_array_and_callable_agree(self):
        grid = Grid1D(0.0, 1.0, 32)
        from_fn = density_from(grid, [bump(0.5, 0.1)])
        from_arr = density_from(grid, np.array([bump(0.5, 0.1)(x)
                                                for x in grid.centers]))
        assert np.array_equal(from_fn.values, from_arr.values)


def _solver_cases():
    grid = Grid1D(0.0, 1.0, 64)
    dyadic = Grid1D(0.0, 8.0, 64, dyadic_aligned=True)
    gene = (lambda x: -x), (lambda x: 1.0 - x)
    return {
        "liouville": lambda: (LiouvilleSolver(grid, lambda x: 0.5 - x, 0.01),
                              density_from(grid, [bump(0.3, 0.1)])),
        "switching": lambda: (SwitchingSolver(grid, *gene, lambda x: 1.0 + x,
                                              lambda x: 0.5, 0.01),
                              density_from(grid, [bump(0.6, 0.1), bump(0.3, 0.1)])),
        "switching_idle_cells": lambda: (
            SwitchingSolver(grid, *gene, lambda x: 0.0 if x < 0.4 else 1.0,
                            lambda x: 0.0 if x < 0.4 else 2.0, 0.01),
            density_from(grid, [bump(0.6, 0.1), bump(0.3, 0.1)])),
        "cell_cycle": lambda: (CellCycleSolver(dyadic, lambda x: x, lambda x: x, 0.01),
                               density_from(dyadic, [bump(1.0, 0.3)])),
        # dy = 0.0625 and dt = dy / 5: ten steps cross two y-shifts
        "two_phase": lambda: (TwoPhaseSolver(dyadic, 8, 0.5, lambda x: x, lambda x: x,
                                             0.0125),
                              two_phase_density(dyadic, 8, 0.5, bump(1.0, 0.3))),
    }


def _blocks(density):
    if hasattr(density, "f_b"):
        return [density.f_a, density.f_b, density.staging]
    return [density.values]


def _array_bytes(solver) -> int:
    items = [x for v in vars(solver).values() for x in (v if isinstance(v, list) else [v])]
    return sum(x.nbytes for x in items if isinstance(x, np.ndarray))


class TestWorkBuffers:
    """``advance`` steps inside one set of work buffers and keeps none of them."""

    @pytest.mark.parametrize("case", sorted(_solver_cases()))
    def test_direct_steps_match_advance(self, case):
        solver, dens = _solver_cases()[case]()
        stepped = dens.copy()
        solver.advance(dens, 10 * solver.dt)
        for _ in range(10):
            solver.step(stepped)
        for a, b in zip(_blocks(dens), _blocks(stepped)):
            assert np.array_equal(a, b)
        assert (dens.time, dens.outflow) == (stepped.time, stepped.outflow)

    @pytest.mark.parametrize("case", sorted(_solver_cases()))
    def test_solver_keeps_no_arrays_after_advance(self, case):
        solver, dens = _solver_cases()[case]()
        before = _array_bytes(solver)
        solver.advance(dens, 10.5 * solver.dt if case != "two_phase" else 10 * solver.dt)
        assert _array_bytes(solver) == before

    def test_minor_faults_do_not_grow_with_steps(self):
        # fresh full-grid temporaries on every step would fault in new pages
        # each step: 10x the faults for 10x the steps
        n = 2 ** 17
        grid = Grid1D(0.0, 1.0, n)
        solver = SwitchingSolver(grid, lambda x: -x, lambda x: 1.0 - x,
                                 lambda x: 1.0, lambda x: 1.0, 0.8 / n)
        dens = density_from(grid, [np.full(n, 0.5), np.full(n, 0.5)])

        def faults(steps):
            d = dens.copy()
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            solver.advance(d, steps * solver.dt)
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

        faults(4)
        few, many = faults(4), faults(40)
        assert many <= 1.5 * few


class TestNonFinite:
    @pytest.mark.parametrize("make", [
        lambda g: LiouvilleSolver(g, lambda x: math.nan, 0.01),
        lambda g: SwitchingSolver(g, lambda x: -x, lambda x: 1.0 - x,
                                  lambda x: math.inf, lambda x: 1.0, 0.01),
        lambda g: CellCycleSolver(g, lambda x: x, lambda x: math.nan, 0.01),
        lambda g: TwoPhaseSolver(g, 4, 0.5, lambda x: math.nan, lambda x: x, 0.025),
    ], ids=["liouville", "switching", "cell_cycle", "two_phase"])
    def test_constructors_reject_nonfinite(self, make):
        with pytest.raises(InvalidParam, match="finite"):
            make(Grid1D(0.0, 1.0, 32, dyadic_aligned=True))

    @pytest.mark.parametrize("case,block", [("switching", 0), ("two_phase", 1),
                                            ("two_phase", 2)])
    def test_audit_rejects_nan(self, case, block):
        solver, dens = _solver_cases()[case]()
        _blocks(dens)[block].flat[5] = math.nan
        with pytest.raises(MassAuditError, match="NaN"):
            solver.step(dens)


class TestAuditScrub:
    """The audit rewrites a block only when its minimum is not above 0."""

    def _density(self):
        return density_from(Grid1D(0.0, 1.0, 32), [lambda x: 1.0 + x, lambda x: 2.0 - x])

    def test_positive_block_keeps_its_bits(self):
        dens = self._density()
        before = dens.values.tobytes()
        dens.values.flags.writeable = False     # a scrub would raise here
        _audit(dens, "switching")
        assert dens.values.tobytes() == before

    def test_negative_zero_comes_out_positive(self):
        # a block whose minimum is 0.0 may still hold -0.0, which the CSV
        # would print as "-0.0"; the scrub must still run on it
        dens = self._density()
        dens.values[0, 3] = 0.0
        dens.values[1, 5] = -0.0
        dens.initial_mass = dens.mass()
        before = dens.values.copy()
        _audit(dens, "switching")
        assert np.array_equal(dens.values, before)
        assert not np.signbit(dens.values).any()
