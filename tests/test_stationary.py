"""Closed-form stationary pairs, the stability/sweeping verdict, and span checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from pdmpkit import (
    BirthSwitchParams,
    GeneExpressionParams,
    SwitchingFields,
    birth_switch_system,
    classify,
    classify_density,
    gene_switching_system,
    hormander_check,
    stationary_density,
)
from pdmpkit.errors import DerivativeDegenerate, InvalidParam


def gene_like_system():
    # g0 = -x, g1 = 1 - x on (0, 1) with unit switching intensities
    return SwitchingFields(
        g0=lambda x: -x, g1=lambda x: 1.0 - x,
        q0=lambda x: 1.0, q1=lambda x: 1.0, a=1.0)


class TestStationaryDensity:
    def test_gene_closed_form_pair(self):
        # hand integration of r = -1/x + 1/(1-x) gives exp(-R) = 4x(1-x) from
        # a/2 = 1/2, hence fbar0 = 4(1-x), fbar1 = 4x, alpha = 4 and the
        # normalized pair (1-x, x)
        dens = stationary_density(gene_like_system())
        assert dens.alpha == pytest.approx(4.0, abs=1e-8)
        for x in (0.1, 0.25, 0.5, 0.8, 0.93):
            assert dens.fbar0(x) == pytest.approx(4.0 * (1.0 - x), abs=1e-8)
            assert dens.fbar1(x) == pytest.approx(4.0 * x, abs=1e-8)
            assert dens.f0(x) == pytest.approx(1.0 - x, abs=1e-8)
            assert dens.f1(x) == pytest.approx(x, abs=1e-8)
            # the marginal over regimes is uniform on (0, 1)
            assert dens.f0(x) + dens.f1(x) == pytest.approx(1.0, abs=1e-8)

    def test_birth_switch_stable_closed_form(self):
        # partial fractions give exp(-R) = 4 x(1-x)/(x+1/2)^2 from a/2 = 1/2,
        # so fbar0 = 4(1-x)/(x+1/2)^3, fbar1 = 4/(x+1/2)^2, alpha = 32/3
        p = BirthSwitchParams(b0=0.5, b1=2.0, c=1.0, mu=1.0, q0=1.0, q1=1.0)
        dens = stationary_density(birth_switch_system(p))
        assert dens.alpha == pytest.approx(32.0 / 3.0, rel=1e-8)
        for x in (0.15, 0.5, 0.85):
            assert dens.fbar0(x) == pytest.approx(4.0 * (1 - x) / (x + 0.5) ** 3,
                                                  rel=1e-8)
            assert dens.fbar1(x) == pytest.approx(4.0 / (x + 0.5) ** 2, rel=1e-8)

    @pytest.mark.parametrize("system", [gene_like_system(),
                                        birth_switch_system(BirthSwitchParams(
                                            0.5, 2.0, 1.0, 1.0, 1.0, 1.0))])
    def test_stationary_system_residual(self, system):
        # (g_i fbar_i)' must equal the exchange terms; five-point stencils on
        # the computed pair keep the check independent of the derivation
        dens = stationary_density(system)
        h = 1e-3 * system.a

        def d5(f, x):
            return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)

        for x in np.linspace(0.1, 0.9, 9) * system.a:
            flux0 = lambda s: system.g0(s) * dens.fbar0(s)
            flux1 = lambda s: system.g1(s) * dens.fbar1(s)
            exch = system.q1(x) * dens.fbar1(x) - system.q0(x) * dens.fbar0(x)
            scale = max(1.0, abs(exch))
            assert abs(d5(flux0, x) - exch) < 1e-8 * scale
            assert abs(d5(flux1, x) + exch) < 1e-8 * scale

    def test_normalization_integral(self):
        dens = stationary_density(gene_like_system())
        total, _ = quad(lambda x: dens.f0(x) + dens.f1(x), 0.0, 1.0)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_sweeping_density_not_integrable(self):
        p = BirthSwitchParams(b0=0.2, b1=1.5, c=1.0, mu=1.0, q0=1.0, q1=1.0)
        dens = stationary_density(birth_switch_system(p))
        assert math.isinf(dens.alpha)
        assert dens.f0 is None
        # the tail integral over (eps, a) grows like eps^{-r0}
        assert dens.divergence_exponent == pytest.approx(0.75, abs=0.05)

    def test_sign_structure_validated(self):
        with pytest.raises(InvalidParam, match="g0 must be negative"):
            stationary_density(SwitchingFields(g0=lambda x: x, g1=lambda x: 1 - x,
                                               q0=lambda x: 1.0, q1=lambda x: 1.0, a=1.0))
        with pytest.raises(InvalidParam, match="switching intensities must be positive"):
            stationary_density(SwitchingFields(g0=lambda x: -x, g1=lambda x: 1 - x,
                                               q0=lambda x: 0.0, q1=lambda x: 1.0, a=1.0))

    def test_interval_validated(self):
        fields = dict(g0=lambda x: -x, g1=lambda x: 1 - x,
                      q0=lambda x: 1.0, q1=lambda x: 1.0)
        with pytest.raises(InvalidParam, match="no invariant interval"):
            stationary_density(SwitchingFields(**fields))
        with pytest.raises(InvalidParam, match="domain end a must be positive"):
            stationary_density(SwitchingFields(**fields, a=0.0))


class TestClassify:
    def test_stable_parameter_set(self):
        p = BirthSwitchParams(b0=0.5, b1=2.0, c=1.0, mu=1.0, q0=1.0, q1=1.0)
        rep = classify(birth_switch_system(p))
        # r0 = 1/(-0.5) + 1/1 = -1 and lambda = (g0'(0) + g1'(0))/2 = 0.25
        assert rep.r0 == pytest.approx(-1.0, abs=1e-12)
        assert rep.lambda_mean == pytest.approx(0.25, abs=1e-12)
        assert rep.verdict == "Stable"
        assert rep.p0 == rep.p1 == pytest.approx(0.5)
        assert math.isfinite(rep.alpha)

    def test_sweeping_parameter_set(self):
        p = BirthSwitchParams(b0=0.2, b1=1.5, c=1.0, mu=1.0, q0=1.0, q1=1.0)
        rep = classify(birth_switch_system(p))
        # r0 = 1/(-0.8) + 1/0.5 = 0.75 and lambda = (-0.8 + 0.5)/2 = -0.15
        assert rep.r0 == pytest.approx(0.75, abs=1e-12)
        assert rep.lambda_mean == pytest.approx(-0.15, abs=1e-12)
        assert rep.verdict == "Sweeping"
        assert math.isinf(rep.alpha)

    def test_gene_model_classified_from_alpha(self):
        rep = classify(gene_switching_system(
            GeneExpressionParams(P=1.0, mu=1.0, q0=1.0, q1=1.0)))
        assert rep.verdict == "Stable"
        assert math.isnan(rep.r0)  # the active field does not vanish at 0

    @settings(max_examples=10, deadline=None)
    @given(kappa=st.floats(0.05, 20.0))
    def test_verdict_invariant_under_common_intensity_scaling(self, kappa):
        for b0, b1, expected in ((0.5, 2.0, "Stable"), (0.2, 1.5, "Sweeping")):
            p = BirthSwitchParams(b0=b0, b1=b1, c=1.0, mu=1.0,
                                  q0=kappa, q1=kappa)
            rep = classify(birth_switch_system(p))
            assert rep.verdict == expected

    @settings(max_examples=15, deadline=None)
    @given(b0=st.floats(0.05, 0.95), b1=st.floats(1.05, 3.0))
    def test_alpha_route_agrees_with_r0_route(self, b0, b1):
        p = BirthSwitchParams(b0=b0, b1=b1, c=1.0, mu=1.0, q0=1.0, q1=1.0)
        rep = classify(birth_switch_system(p))
        if abs(rep.r0) > 1e-9:
            assert rep.verdict == ("Stable" if rep.r0 < 0 else "Sweeping")
        if abs(rep.r0) > 0.01:
            # away from criticality the numeric route is decisive and agrees
            assert math.isfinite(rep.alpha) == (rep.r0 < 0)
            assert rep.divergence_exponent == pytest.approx(rep.r0, abs=5e-3)

    def test_degenerate_derivative_raises(self):
        fields = SwitchingFields(
            g0=lambda x: -x, g1=lambda x: x * (1.0 - x) ** 2,
            q0=lambda x: 1.0, q1=lambda x: 1.0, a=1.0)
        with pytest.raises(DerivativeDegenerate):
            classify(fields)

    def test_known_slopes_replace_finite_differences(self):
        # g1 = x (1 - x)^2 has g1'(a) = 0, which the finite difference finds
        # (test above); a given dg1 is read instead, at 0 and at a alike
        fields = SwitchingFields(
            g0=lambda x: -x, g1=lambda x: x * (1.0 - x) ** 2,
            q0=lambda x: 1.0, q1=lambda x: 1.0, a=1.0,
            dg0=lambda x: -1.0, dg1=lambda x: 2.0)
        rep = classify(fields)
        assert rep.r0 == 1.0 / -1.0 + 1.0 / 2.0
        assert rep.lambda_mean == 0.5 * -1.0 + 0.5 * 2.0

    def test_classify_is_classify_density_of_the_density(self):
        fields = BirthSwitchParams(b0=0.5, b1=2.0, c=1.0, mu=1.0, q0=1.0, q1=1.0).fields()
        dens = stationary_density(fields)
        assert dens.fields is fields
        assert classify_density(dens) == classify(fields)

    def test_report_serializes(self):
        p = BirthSwitchParams(b0=0.5, b1=2.0, c=1.0, mu=1.0, q0=1.0, q1=1.0)
        d = classify(birth_switch_system(p)).to_dict()
        assert d["schema_version"] == 1
        assert set(d) >= {"r0", "lambda_mean", "alpha", "verdict", "p0", "p1",
                          "divergence_exponent"}


class TestOneDensityPerCommand:
    @pytest.mark.parametrize("command", ["stationary", "classify"])
    def test_cli_builds_one_stationary_density(self, command, monkeypatch, tmp_path):
        from pdmpkit import cli, stationary

        calls = []
        real = stationary.stationary_density

        def counted(fields):
            calls.append(fields)
            return real(fields)

        for module in (stationary, cli):
            monkeypatch.setattr(module, "stationary_density", counted)
        model = {"name": "birth_switch", "b0": 0.5, "b1": 2.0, "c": 1.0, "mu": 1.0,
                 "q0": 1.0, "q1": 1.0}
        cli.run(command, {"model": model, "stationary": {"grid_n": 8}}
                if command == "stationary" else {"model": model}, tmp_path)
        assert len(calls) == 1


class TestHormander:
    def j_const(self, mu=1.0):
        return lambda x: np.array([[-mu]])

    def test_gene_fields_span_the_line(self):
        g0 = lambda x: np.array([-x[0]])
        g1 = lambda x: np.array([1.0 - x[0]])
        for pt in (0.05, 0.4, 1.0):
            res = hormander_check([g0, g1], [pt],
                                  jacobians=[self.j_const(), self.j_const()])
            assert res.holds and res.rank == 1
            # the difference field is the constant production rate
            assert res.directions[0, 0] == pytest.approx(1.0)

    def test_duplicated_fields_fail(self):
        g0 = lambda x: np.array([-x[0]])
        res = hormander_check([g0, g0], [0.5],
                              jacobians=[self.j_const(), self.j_const()])
        assert not res.holds and res.rank == 0

    def test_rotation_with_zero_field(self):
        # g1 = (-y, x), g2 = 0: difference (y, -x), every bracket vanishes;
        # the span has rank one, so the condition fails
        g1 = lambda p: np.array([-p[1], p[0]])
        g2 = lambda p: np.zeros(2)
        j1 = lambda p: np.array([[0.0, -1.0], [1.0, 0.0]])
        j2 = lambda p: np.zeros((2, 2))
        res = hormander_check([g1, g2], [1.0, 0.0], jacobians=[j1, j2])
        assert not res.holds and res.rank == 1
        assert res.directions[:, 0] == pytest.approx([0.0, -1.0])
        bracket_cols = res.directions[:, 1:]
        assert np.max(np.abs(bracket_cols)) < 1e-9

    def test_finite_difference_jacobians(self):
        # planar shear pair needs one bracket to span the plane
        g1 = lambda p: np.array([1.0, 0.0])
        g2 = lambda p: np.array([0.0, p[0]])
        res = hormander_check([g1, g2], [0.0, 0.0])
        assert res.holds and res.rank == 2

    def test_rank_invariance_reorder_and_common_rescale(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            d = int(rng.integers(1, 4))
            k = int(rng.integers(2, 4))
            mats = [(rng.normal(size=d), rng.normal(size=(d, d)))
                    for _ in range(k)]
            fns = [(lambda x, c=c, m=m: c + m @ x) for c, m in mats]
            jacs = [(lambda x, m=m: m) for _, m in mats]
            x = rng.normal(size=d)
            base = hormander_check(fns, x, depth=2, jacobians=jacs).rank
            perm = rng.permutation(k)
            s = float(rng.uniform(0.2, 5.0))
            fns2 = [(lambda x, f=fns[i], s=s: s * f(x)) for i in perm]
            jacs2 = [(lambda x, j=jacs[i], s=s: s * j(x)) for i in perm]
            assert hormander_check(fns2, x, depth=2, jacobians=jacs2).rank == base

