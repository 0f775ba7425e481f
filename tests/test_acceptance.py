"""Acceptance suite: every criterion at its stated tolerance.

Each test loads the matching named config shipped in ``configs/``, runs it
through the same entry points the command-line driver uses, asserts the stated
tolerance, and prints one pass line (visible with ``pytest -s``).  The
SHA-256 of each canonical report (``json.dumps(rep, sort_keys=True)``) is
pinned as well, so a change that moves any reported number shows here; it was
recorded on x86-64 Linux with numpy 2.4.6 and scipy 1.17.1.
"""

import hashlib
import json
import sys
import time

import pytest

from pdmpkit import experiments
from pdmpkit.cli import run
from pdmpkit.config import load_config, validate_config
from pdmpkit.stationary import gene_switching_system, stationary_density
from pdmpkit.models import GeneExpressionParams


def _report(num, name, t0, extra=""):
    msg = f"[acceptance] criterion {num} ({name}): PASS in {time.time() - t0:.1f}s {extra}"
    print(msg, file=sys.stderr)


REPORT_SHA256 = {
    "c1": "2859c53230e57713d9123933606f4e42795d7f5886afb3578eb7293daa894252",
    "c2": "46d07c887acd73a78f9cc9cb55323e5dd2f93e738b14c24b4f8af691c791dcb3",
    "c3": "365fb93456d27df92d8f278351812c7cef9d57220c3f5a55c30d608a8557f249",
    "c4": "8a6db5bdff2e7590a8f4a4f619ca5696242dc0bc7101558faf12bfc2b9dc2f2f",
    "c5": "8e7a69a1b16cc27ae7f4c849c502a4ccfd63c4cd357998e812bcec02440fe916",
    "c6": "6ef0fdba270ff3151d5e3ed428f91e927e308c62a9c88d3696c6f2fb4925c048",
    "c7": "c5f512bfd50b08ae454608ed3ac4caa32c6c0b9f06dd070cf932d9c61ab9e6f6",
    "c8": "34154eb5ab5cd5ed6c873af2a51a9092b1c908e8355afe1fae52e69bcda38662",
}


def _assert_digest(num, rep):
    blob = json.dumps(rep, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == REPORT_SHA256[num], rep


def _compare_cfg(config_dir, stem):
    cfg = validate_config(load_config(config_dir / stem))
    return cfg["compare"]


def test_c1_jump_time_law(config_dir):
    t0 = time.time()
    rep = experiments.dwell_time_ks(_compare_cfg(config_dir, "accept01_gene_dwell_ks.yaml"))
    assert rep["n_samples"] == 100_000
    assert rep["ks_statistic"] < rep["ks_band"], rep
    assert rep["all_pass"]
    assert time.time() - t0 < 30.0
    _assert_digest("c1", rep)
    _report(1, "jump-time law", t0, f"ks={rep['ks_statistic']:.4f}")


def test_c2_gene_expression_stationarity(config_dir):
    t0 = time.time()
    # independent oracle first: the symmetric gene switch has the closed-form
    # normalized pair (1 - x, x), derived by hand and frozen here
    dens = stationary_density(gene_switching_system(
        GeneExpressionParams(P=1.0, mu=1.0, q0=1.0, q1=1.0)))
    for x in (0.2, 0.5, 0.8):
        assert dens.f0(x) == pytest.approx(1.0 - x, abs=1e-8)
        assert dens.f1(x) == pytest.approx(x, abs=1e-8)

    rep = experiments.gene_stationarity(
        _compare_cfg(config_dir, "accept02_gene_stationarity.yaml"))
    assert rep["l1_mc_vs_analytic"] < 0.03, rep
    assert rep["l1_pde_vs_analytic"] < 0.05, rep
    assert rep["pde_converged"]
    assert time.time() - t0 < 120.0
    _assert_digest("c2", rep)
    _report(2, "gene stationarity", t0,
            f"l1_mc={rep['l1_mc_vs_analytic']:.4f} l1_pde={rep['l1_pde_vs_analytic']:.4f}")


def test_c3_stability_sweeping_alternative(config_dir):
    t0 = time.time()
    # frozen derived values: r0 = 1/(b0-mu) + 1/(b1-mu) at both parameter sets
    rep = experiments.stability_alternative(
        _compare_cfg(config_dir, "accept03_stability_alternative.yaml"))
    stable, sweeping = rep["stable_report"], rep["sweeping_report"]
    assert stable["verdict"] == "Stable"
    assert stable["r0"] == pytest.approx(-1.0, abs=1e-12)
    assert sweeping["verdict"] == "Sweeping"
    assert sweeping["r0"] == pytest.approx(0.75, abs=1e-12)
    assert rep["stable_l1"] < 0.05, rep
    assert rep["sweeping_mass_final"] > 0.95, rep
    assert abs(rep["regime_freq_final"][0] - 0.5) < 0.02
    assert abs(rep["regime_freq_final"][1] - 0.5) < 0.02
    assert rep["all_pass"]
    assert time.time() - t0 < 180.0
    _assert_digest("c3", rep)
    _report(3, "stability/sweeping alternative", t0,
            f"l1={rep['stable_l1']:.4f} sweep={rep['sweeping_mass_final']:.3f}")


def test_c4_two_phase_recursion(config_dir):
    t0 = time.time()
    rep = experiments.two_phase_recursion(
        _compare_cfg(config_dir, "accept04_two_phase_recursion.yaml"))
    assert rep["n_samples"] == 100_000
    assert rep["ks_statistic"] < 0.01, rep
    assert time.time() - t0 < 60.0
    _assert_digest("c4", rep)
    _report(4, "two-phase recursion", t0, f"ks={rep['ks_statistic']:.4f}")


def test_c5_mass_conservation_and_positivity(config_dir):
    t0 = time.time()
    rep = experiments.mass_audit(_compare_cfg(config_dir, "accept05_mass_audit.yaml"))
    kinds = {c["kind"] for c in rep["cases"]}
    assert kinds == {"liouville_inward", "liouville_outflow", "switching",
                     "cell_cycle", "two_phase"}
    for case in rep["cases"]:
        assert abs(case["mass_drift"]) <= 1e-9, case
    assert rep["all_pass"]
    _assert_digest("c5", rep)
    _report(5, "mass conservation + positivity", t0)


def test_c6_first_order_convergence(config_dir):
    t0 = time.time()
    rep = experiments.upwind_convergence(
        _compare_cfg(config_dir, "accept06_upwind_convergence.yaml"))
    assert rep["grids"] == [256, 512]
    assert 1.5 <= rep["ratio"] <= 3.0, rep
    _assert_digest("c6", rep)
    _report(6, "first-order convergence", t0, f"ratio={rep['ratio']:.3f}")


def test_c7_population_engine(config_dir):
    t0 = time.time()
    rep = experiments.population_moments(
        _compare_cfg(config_dir, "accept07_population_moments.yaml"))
    assert rep["n_runs"] == 10_000
    assert rep["yule_z"] <= 3.0, rep
    assert rep["extinction_frequency"] > 0.99, rep
    assert time.time() - t0 < 120.0
    _assert_digest("c7", rep)
    _report(7, "population engine", t0,
            f"yule_z={rep['yule_z']:.2f} ext={rep['extinction_frequency']:.4f}")


def test_c8_hormander_checker(config_dir):
    t0 = time.time()
    cfg = validate_config(load_config(config_dir / "accept08_hormander.yaml"))
    rep = experiments.hormander_suite(cfg["hormander"])
    assert rep["gene_span_holds"]
    assert rep["duplicated_fields_fail"]
    assert rep["invariance_cases"] == 100
    assert rep["invariance_failures"] == 0
    _assert_digest("c8", rep)
    _report(8, "Hormander checker", t0)


def test_c9_reproducibility(config_dir, tmp_path):
    t0 = time.time()
    cfg = load_config(config_dir / "accept09_reproducibility.yaml")
    blobs = []
    for sub in ("first", "second"):
        status = run("simulate", cfg, tmp_path / sub)
        files = sorted(a for a in status["artifacts"] if a.endswith(".csv"))
        blobs.append([open(f, "rb").read() for f in files])
    assert blobs[0] == blobs[1]
    assert all(len(b) > 0 for b in blobs[0])
    _report(9, "reproducibility", t0)
