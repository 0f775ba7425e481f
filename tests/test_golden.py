"""Byte-level regression guard: SHA-256 of every artifact of a fixed set of runs.

The digests pin five fast shipped configs plus one tiny ``evolve`` run per
grid-solver model and eleven ``simulate`` runs: unrecorded telegraph, logistic
birth_switch and gene_expression ensembles (constant-rate route, read off a
streamed path with a snapshot at t = 0) and recorded runs of
gene_expression with a state-dependent rate (thinning route), rubinow with and
without a closed-form flow (bracketed root-finding, and the root on a
Dormand-Prince step's interpolant), allee (Dormand-Prince flow), cell_cycle_1p
without a closed form (augmented-ODE inverse of the cumulative hazard) and
with one (Chebyshev-panel inverse), cell_cycle_2p with a closed-form flow and
a fixed phase-B delay, and stein (a kernel that draws, a ``domain`` check and
a fixed refractory delay).  Two birth_switch analysis runs pin the
``stationary`` command on a stable set (the r0 route, which writes
``fstar.csv``) and ``classify`` on a sweeping set.  Five library cases pin
the raw bytes of grid-solver arrays on paths the CLI runs do not reach: a
``SwitchingSolver`` whose rates are both zero on part of the grid (the
exchange runs on the active cells only), ``advance`` durations that end in a
shorter remainder step, a ``TwoPhaseSolver`` run across several y-shifts, and
``steady_state`` with a partial last span.  They were recorded on
x86-64 Linux with numpy 2.4.6 and scipy 1.17.1; another numpy/scipy build may
round differently in the last bit, which changes the 17-digit CSV text.  To
see the digests of the current code run ``python tests/test_golden.py``.
"""

import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from pdmpkit import flows
from pdmpkit.cli import run
from pdmpkit.config import load_config
from pdmpkit.transport import (
    CellCycleSolver,
    Grid1D,
    LiouvilleSolver,
    SwitchingSolver,
    TwoPhaseSolver,
    density_from,
    steady_state,
    two_phase_density,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

SHIPPED = ("accept09_reproducibility", "demo_gene_evolve", "demo_gene_stationary",
           "demo_population", "demo_classify_stable")


def _bump(lo, hi, regime=0):
    return {"kind": "gaussian", "center": 0.5 * (lo + hi), "width": 0.1 * (hi - lo),
            "regime": regime}


EVOLVE = {
    "gene_expression": (
        {"name": "gene_expression", "P": 1.0, "mu": 1.0, "q0": "1 + 0.5 * x", "q1": 1.0},
        {"grid": {"n": 32, "x_max": 1.0}, "dt": 0.02, "t_end": 0.51,
         "f0": _bump(0.0, 1.0, 1)}),
    "birth_switch": (
        {"name": "birth_switch", "b0": 0.5, "b1": 2.0, "c": 1.0, "mu": 1.0,
         "q0": 1.0, "q1": "1 + x"},
        {"grid": {"n": 32, "x_max": 1.0}, "dt": 0.015, "t_end": 0.5, "f0": _bump(0.0, 1.0)}),
    "allee": (
        {"name": "allee", "lam": 1.0, "K": 10.0, "A": 2.0, "B": 1.0,
         "q01": "0.5 + 0.1 * x", "q10": 1.0},
        {"grid": {"n": 32, "x_max": 12.0}, "dt": 0.06, "t_end": 0.6,
         "f0": _bump(0.0, 12.0, 1)}),
    "telegraph": (
        {"name": "telegraph", "lam": 1.2, "c": 0.9},
        {"grid": {"n": 32, "x_min": -5.0, "x_max": 5.0}, "dt": 0.25, "t_end": 1.0,
         "f0": _bump(-2.0, 2.0)}),
    "cell_cycle_1p": (
        {"name": "cell_cycle_1p", "g": "x", "phi": "1.1 * x"},
        {"grid": {"n": 32, "x_max": 8.0}, "dt": 0.025, "t_end": 0.5, "f0": _bump(0.5, 2.0)}),
    "cell_cycle_2p": (
        {"name": "cell_cycle_2p", "g": "x", "phi": "0.9 * x", "t_B": 0.5},
        {"grid": {"n": 16, "x_max": 8.0}, "dt": 0.03125, "t_end": 0.5, "n_y": 8,
         "f0": _bump(0.5, 2.0)}),
}

SIMULATE = {
    "ensemble:telegraph": {
        "model": {"name": "telegraph", "lam": 1.0, "c": 1.0},
        "simulate": {"x0": [0.0, 1.0], "regime0": 0, "horizon": 5.0, "n_paths": 4,
                     "snapshot_times": [1.0, 5.0], "record_trajectories": False}},
    "ensemble:birth_switch": {
        "model": {"name": "birth_switch", "b0": 0.2, "b1": 1.5, "c": 1.0, "mu": 1.0,
                  "q0": 1.0, "q1": 1.0},
        "simulate": {"x0": [0.3], "regime0": 0, "horizon": 20.0, "n_paths": 4,
                     "snapshot_times": [5.0, 20.0], "record_trajectories": False}},
    "ensemble:gene_expression": {
        "model": {"name": "gene_expression", "P": 1.0, "mu": 1.0, "q0": 0.7, "q1": 1.3},
        "simulate": {"x0": [0.5], "regime0": 1, "horizon": 10.0, "n_paths": 6,
                     "snapshot_times": [0.0, 2.5, 10.0], "record_trajectories": False}},
    "recorded:gene_expression": {
        "model": {"name": "gene_expression", "P": 1.0, "mu": 1.0, "q0": "1 + x",
                  "q1": 1.0},
        "simulate": {"x0": [0.5], "regime0": 0, "horizon": 20.0, "n_paths": 2,
                     "snapshot_times": [5.0, 20.0]}},
    "recorded:rubinow_closed": {
        "model": {"name": "rubinow", "g": "0.9 * x", "m": 1.0,
                  "g_closed_form": "x0 * exp(0.9 * t)"},
        "simulate": {"x0": [1.0], "regime0": 0, "horizon": 5.0, "n_paths": 2,
                     "snapshot_times": [1.0, 5.0]}},
    "recorded:rubinow_ode": {
        "model": {"name": "rubinow", "g": "0.9 * x", "m": 1.0},
        "simulate": {"x0": [1.0], "regime0": 0, "horizon": 2.0, "n_paths": 1,
                     "snapshot_times": [1.0, 2.0]}},
    "recorded:allee": {
        "model": {"name": "allee", "lam": 1.0, "K": 10.0, "A": 2.0, "B": 1.0,
                  "q01": 1.0, "q10": 1.0},
        "simulate": {"x0": [4.0], "regime0": 0, "horizon": 6.0, "n_paths": 2,
                     "snapshot_times": [1.0, 6.0]}},
    "recorded:cell_cycle_1p_ode": {
        "model": {"name": "cell_cycle_1p", "g": "x", "phi": "x"},
        "simulate": {"x0": [1.0], "regime0": 0, "horizon": 2.0, "n_paths": 1,
                     "snapshot_times": [1.0, 2.0]}},
    "recorded:cell_cycle_1p_cheb": {
        "model": {"name": "cell_cycle_1p", "g": "x", "phi": "x",
                  "g_closed_form": "x0 * exp(t)"},
        "simulate": {"x0": [1.0], "regime0": 0, "horizon": 3.0, "n_paths": 2,
                     "snapshot_times": [1.0, 3.0]}},
    "recorded:cell_cycle_2p": {
        "model": {"name": "cell_cycle_2p", "g": "0.6 * x", "phi": 1.0, "t_B": 0.5,
                  "g_closed_form": "x0 * exp(0.6 * t)"},
        "simulate": {"x0": [1.0, 0.0], "regime0": 0, "horizon": 4.0, "n_paths": 2,
                     "snapshot_times": [1.0, 4.0]}},
    "recorded:stein": {
        "model": {"name": "stein", "alpha": 1.0, "a_E": 0.3, "a_I": 0.2, "lambda_E": 3.0,
                  "lambda_I": 1.0, "theta": 1.0, "t_R": 0.2},
        "simulate": {"x0": [0.0, 0.0], "regime0": 0, "horizon": 5.0, "n_paths": 2,
                     "snapshot_times": [1.0, 5.0]}},
}


_BIRTH_SWITCH = {"name": "birth_switch", "c": 1.0, "mu": 1.0, "q0": 1.0, "q1": 1.0}

ANALYSIS = {
    "stationary:birth_switch_stable": {
        "model": {**_BIRTH_SWITCH, "b0": 0.5, "b1": 2.0},
        "stationary": {"grid_n": 64}},
    "classify:birth_switch_sweeping": {
        "model": {**_BIRTH_SWITCH, "b0": 0.2, "b1": 1.5}},
}


def _gauss(grid, center, width):
    return np.exp(-((grid.centers - center) / width) ** 2)


def _arrays(density) -> dict:
    scalars = np.array([density.time, density.outflow, density.initial_mass])
    if hasattr(density, "f_b"):
        return {"f_a": density.f_a, "f_b": density.f_b, "staging": density.staging,
                "scalars": scalars}
    return {"values": density.values, "scalars": scalars}


def _switching_idle_cells() -> dict:
    # q0 = q1 = 0 below x = 0.3; 0.41 is 20 steps of 0.02 plus a 0.01 remainder
    grid = Grid1D(0.0, 1.0, 40)
    solver = SwitchingSolver(grid, lambda x: -x, lambda x: 1.0 - x,
                             lambda x: 0.0 if x < 0.3 else 1.0 + x,
                             lambda x: 0.0 if x < 0.3 else 0.5, 0.02)
    density = density_from(grid, [_gauss(grid, 0.6, 0.1), _gauss(grid, 0.2, 0.1)])
    return _arrays(solver.advance(density, 0.41))


def _remainder_steps() -> dict:
    # each duration ends in a remainder step shorter than dt
    grid = Grid1D(0.0, 1.0, 48)
    switching = SwitchingSolver(grid, lambda x: -x, lambda x: 1.0 - x,
                                lambda x: 1.0 + x, lambda x: 2.0 - x, 0.015)
    sw = switching.advance(density_from(grid, [_gauss(grid, 0.5, 0.1)] * 2), 0.37)
    dyadic = Grid1D(0.0, 8.0, 64, dyadic_aligned=True)
    cc = CellCycleSolver(dyadic, lambda x: x, lambda x: 1.1 * x, 0.01).advance(
        density_from(dyadic, [_gauss(dyadic, 1.2, 0.3)]), 0.237)
    lv = LiouvilleSolver(grid, lambda x: 0.5 - x, 0.03).advance(
        density_from(grid, [_gauss(grid, 0.3, 0.1)]), 0.5)
    return {f"{name}.{key}": arr for name, d in (("switching", sw), ("cell_cycle", cc),
                                                 ("liouville", lv))
            for key, arr in _arrays(d).items()}


def _two_phase_shifts() -> dict:
    # dy = 0.125 and dt = dy / 4: 0.75 takes 24 steps and six y-shifts
    grid = Grid1D(0.0, 8.0, 16, dyadic_aligned=True)
    n_y, t_b = 4, 0.5
    f_b0 = np.outer(_gauss(grid, 2.0, 0.5), np.arange(1.0, n_y + 1.0))
    density = two_phase_density(grid, n_y, t_b, _gauss(grid, 1.0, 0.4), f_b0)
    solver = TwoPhaseSolver(grid, n_y, t_b, lambda x: x, lambda x: 0.9 * x, 0.03125)
    return _arrays(solver.advance(density, 0.75))


def _steady_partial_span() -> dict:
    # t_max 2.5: two unit spans and a half span, with no convergence
    grid = Grid1D(0.0, 1.0, 32)
    solver = SwitchingSolver(grid, lambda x: -x, lambda x: 1.0 - x,
                             lambda x: 1.0, lambda x: 1.0, 0.01)
    density = density_from(grid, [_gauss(grid, 0.7, 0.1), _gauss(grid, 0.3, 0.1)])
    density, converged = steady_state(solver, density, tol=1e-12, t_max=2.5)
    assert not converged
    return _arrays(density)


LIBRARY = {
    "library:switching_idle_cells": _switching_idle_cells,
    "library:remainder_steps": _remainder_steps,
    "library:two_phase_shifts": _two_phase_shifts,
    "library:steady_partial_span": _steady_partial_span,
}


def _digests(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


def run_case(case: str, out: Path) -> dict:
    """Run one named case into ``out`` and return {artifact name: sha256}."""
    kind, _, name = case.partition(":")
    if kind == "library":
        return {key: hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()
                for key, arr in LIBRARY[case]().items()}
    if kind == "config":
        cfg = load_config(CONFIG_DIR / f"{name}.yaml")
        run(cfg["command"], cfg, out)
    elif kind == "evolve":
        model, section = EVOLVE[name]
        run("evolve", {"model": model, "evolve": section, "seed": 1}, out)
    elif case in ANALYSIS:
        run(kind, ANALYSIS[case], out)
    else:
        run("simulate", {**SIMULATE[case], "seed": 3}, out)
    return _digests(out)


CASES = ([f"config:{n}" for n in SHIPPED] + [f"evolve:{n}" for n in EVOLVE] + list(SIMULATE)
         + list(ANALYSIS) + list(LIBRARY))

GOLDEN = {
    "config:accept09_reproducibility": {
        "snapshots.csv": "97689000b57c2ab435f827ecd83ae88ef9da84ea534cac669822a41ee9c7e6ae",
        "summary.json": "30cb3e7798800f53777c4032c554d8bbdfb8b18b3b512cf1780bce149d01dab0",
        "trajectories.csv": "27288499bd74663ec9e8f90f157ba2eb2fa415837aa455931ea773d2f04ae885",
    },
    "classify:birth_switch_sweeping": {
        "report.json": "035f5f3132d4a11ea4952443808d4689a6266b15e9d0d94254f19c3e86e1f367",
    },
    "config:demo_classify_stable": {
        "report.json": "1ad6c01ebaa79265afe281eb70aa3b1b0c993cdbc3fa46f422ce0c36931313aa",
    },
    "config:demo_gene_evolve": {
        "density.csv": "9557797b622214e2b549a8c68276f2292bdfef54723798ff8ecd3ad2a4fab552",
        "summary.json": "910723ffd5d897f38b428a101d6e1b875e18aaa27677dc1c44f475dba4aa23c2",
    },
    "config:demo_gene_stationary": {
        "fstar.csv": "ef6939d2b276fa08132c9e38e4082ab426afb791f5fec79dbe292e613a4d4761",
        "report.json": "67e2d6aac61e63bf14ef74cdf0255c2e0797c9082e010de3dd87a8503922ba86",
    },
    "config:demo_population": {
        "events.csv": "ca6e5d27565e0d9b4ae886ced1e0e690e43fea75d7b2d341550a9deb8764b60f",
        "population_snapshots.csv": "31718c1a97af2d32ac5db0854cf76c3577aea4ab85e574d5a97c7850a1d97c44",
        "summary.json": "073b536ca95e96692c028ef2b1317897f537dd25e9a0a81e7bf36c9c569072e2",
    },
    "ensemble:birth_switch": {
        "snapshots.csv": "7a663900ef88798c3e231a01dde09b013bd561cc702809ff2a2fe2e63865d67b",
        "summary.json": "373161013e76cb6cf8db94c20a8cb6869403a3cb9e49aadd531603c9fdf4a847",
    },
    "ensemble:gene_expression": {
        "snapshots.csv": "5acc5b5a6e5e960bfb7a65025e30d42547d6e2305bcd6e3570e0b4a3f0bd5c47",
        "summary.json": "4a2b76eee0c7fc3c040393d3f63e89dc12cc934c436eddd5e6a169f99f70708a",
    },
    "ensemble:telegraph": {
        "snapshots.csv": "fdb27e3b382bf8d269be844cd8bac0a8ea69fc3cf05bd0831c737a40205f382c",
        "summary.json": "9ab1cc681b3073ce7b73ada24192221351a907e2a35a058d5651d16bea6659c9",
    },
    "evolve:allee": {
        "density.csv": "a5b2aca64472fc4c06b7c09180f74e49927bee334674e04bdf3dc08b84137ca5",
        "summary.json": "991404b61802776499e1c426ad2e2d917f947404d15c0d25fbff8a5c0e9c311e",
    },
    "evolve:birth_switch": {
        "density.csv": "a741e79c3e893d11ebce03b204677a8c1dcba32852e16e78efd582a2e7f3af94",
        "summary.json": "f1657f2ce181cba794784871ec5cf9851e177fba8d9b946522c3ab10896433f8",
    },
    "evolve:cell_cycle_1p": {
        "density.csv": "cba8bf35466a30c9afe462a9b322d3396b160222ff087aaa2e56c2f0e4885de6",
        "summary.json": "942ec359c9e7ce798d55c2c87429ef9cd0c18f1f4f3487390b577ccdab5e7cc9",
    },
    "evolve:cell_cycle_2p": {
        "density.csv": "8e152bce52265e9d2ab581e11453b8f1446111218d87b03f0ed8838446e9d1af",
        "summary.json": "1e80fd732ed6abb7af0b9c8a4d2dac36af6c5e2885addbb71771d81ae4c65735",
    },
    "evolve:gene_expression": {
        "density.csv": "616ce4d74678c56257f992a9f00f9f90ff19044fb98ad1142fcac4df160e8ee8",
        "summary.json": "3b412156e006c8e06cc71494c58410005af4196825a55dd9a441d57c7418e595",
    },
    "recorded:allee": {
        "snapshots.csv": "c07a93723cc024133241cbec9750e41da2a6027332924c90abab77bde7b90105",
        "summary.json": "587390bea8d4d459fcb147bac8907834295c35600a848dd5c02f7b42af44f0a4",
        "trajectories.csv": "d6153b78195587aff23642ea89367d2d9dd1de72978b390d9eb12fc06f34f01a",
    },
    "recorded:cell_cycle_1p_ode": {
        "snapshots.csv": "fd6f31d497d48aa3b2fbf48048c0aa4913aaa57c187c1c64bf2779c4b1224556",
        "summary.json": "695a102ef37fe996e9bfbf7a9a64f95c8ef8491d2c96d96b84aefaf8e0c03811",
        "trajectories.csv": "4dea7213e0fbfbbbc9f82f328ef1b296dcce8c5ed090f7e9984e099de43b4f63",
    },
    "recorded:gene_expression": {
        "snapshots.csv": "78ac7af59839ef6d17005b75a9756c658f304006158c00a7b1f68e627e7c49f2",
        "summary.json": "7c66273238f3e986635574f7f89de534865eba9b9d56d478183d8454658b3a2c",
        "trajectories.csv": "e7bbd3dafd1b8f330c22843cc58483dcc65227d8c6732565b263767c1a4f0d16",
    },
    "recorded:rubinow_closed": {
        "snapshots.csv": "8ec2754652e3bb25b04f10773daafafa869a4cfa7ebbbf0373398eb2c21a56ce",
        "summary.json": "c20f7b40bb19d83e43d33d810df37526b92260d9eed049fbedcd2d07e688bbc0",
        "trajectories.csv": "0af9c45d988a9c5c2ee5509c50f4b97daec0453af734879fb0caf821124220e4",
    },
    "recorded:rubinow_ode": {
        "snapshots.csv": "09587d8ebb7e59d82016d60a9ab8439f96be29305a6a81020696d9a31e4a5f4c",
        "summary.json": "cf366d7037599866d55813671622629288f019093fecd85502c68cc8906ab10c",
        "trajectories.csv": "8607a7727ed6ad00ec9b6ee62d9b9f5e46498bbea7aa288d64156fb0fed5f327",
    },
    "recorded:cell_cycle_1p_cheb": {
        "snapshots.csv": "bb3fc82e4387800ce3e60a42a9202b93c93cbeae6dcac025a1c38f8042c8be42",
        "summary.json": "6f552f958c6ac443f40ec305064077fe264f87045bb67226fa5079ba7b0f50e8",
        "trajectories.csv": "51751ff1d55431ad4867be1b11c31e6a4ffe2b0a26853d44df8eea2bc59cb67c",
    },
    "recorded:cell_cycle_2p": {
        "snapshots.csv": "cc7951408c1bbe724c6ab27d32d367edd55a18608069b2e3355cd37306982a02",
        "summary.json": "f491d39bcfada05ac442412eac1c2246d8ba4e40b3dc8982a3facf8fa2a00957",
        "trajectories.csv": "e08ffe01847ac73e035d9686a2ee4fe77d647dba53fdb02f1a9cacae3427b802",
    },
    "recorded:stein": {
        "snapshots.csv": "30b71b3a9cd9a632d0d3387371116d3cd50b673700dec998ec097f26cd5235af",
        "summary.json": "da7fa987217dfbe67a478b9b7d8ed81bb0528cdbcf46bef9972ef637e97ff4e6",
        "trajectories.csv": "3a072a645e198fd4024d59b2a100035473f5053ba2558f81faf9a87213e9cc18",
    },
    "evolve:telegraph": {
        "density.csv": "8f2fe611a21a313ac0efc048cd56495bb9596483ece12a9bc9871c6bb528fe69",
        "summary.json": "448612d8207ea82f5bc7b30f44eba7cc68b932f8c5d830ff7b9409367bbc5866",
    },
    "stationary:birth_switch_stable": {
        "fstar.csv": "b09b7c6a3439cc19eee46b8c37c277484d4c5b1cbbdde9c1267eafa68a398a06",
        "report.json": "1ad6c01ebaa79265afe281eb70aa3b1b0c993cdbc3fa46f422ce0c36931313aa",
    },
    "library:remainder_steps": {
        "cell_cycle.scalars": "f3395933ddb52926f8c220671b4cfb69c858f540532b1972e98a820355dc3d70",
        "cell_cycle.values": "da598e7c8f05644c015786ad6e07db9dc6aea68511c2f75d03280c427ddaeeb1",
        "liouville.scalars": "075b7b9221e132ef0a355493aa2f558cf8aacdc326e4a4e1ad136a379ca82ee5",
        "liouville.values": "f857ce8b1c8b0b5cdeb0f8b9b97159526098fbd22428aede1d8001f9c27b91de",
        "switching.scalars": "193228bc486e8196fd71b5f1453f3cb3db3a6ee13da2e51a85d83534b01dc5d8",
        "switching.values": "76e8408b7ea8646cdf298a2e2b60abc477882b899c5e9cc45fbe7cf11bc5a5d2",
    },
    "library:steady_partial_span": {
        "scalars": "250b6fdee0d6820820c376706f0b955c613e82fa15d466ff52158928b3b422a0",
        "values": "d5f0978cca1695194b09068d94d4afbd9796d2935a5283a50ac64590de7f05dd",
    },
    "library:switching_idle_cells": {
        "scalars": "91c055828b5d6725b1f292707c5a97c7ca1cf6c62db26cfdd775d6a4e503bf4d",
        "values": "48f6b13c95dcf5026d0e094a103fbba427719bed04a6cf7f4b9d9cc0b33b46c5",
    },
    "library:two_phase_shifts": {
        "f_a": "4e81ae9817c8ba0bbfa7aba28798ce199390a52d85add2b0d9730608b033be89",
        "f_b": "828191740b7cfb7ca1016a57560357f46a1f9ce913601c149a9f8c828287b593",
        "scalars": "bf4e9a3f7728ba4735c6799fc61ddfa810d2c32c3624929be0b997cffaa5ab1e",
        "staging": "38723a2e5e8a17aa7950dc008209944e898f69a7bd10a23c839d341e935fd5ca",
    },
}


@pytest.mark.parametrize("case", CASES)
def test_artifact_digests(case, tmp_path):
    assert run_case(case, tmp_path) == GOLDEN[case]


def _compensated_sum(values, start=0):
    """Neumaier's compensated sum, the way CPython 3.12's ``sum`` adds floats."""
    total, comp = start, 0.0
    for v in values:
        t = total + v
        comp += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


@pytest.mark.parametrize("case", ["config:demo_population", "recorded:rubinow_ode",
                                  "recorded:allee", "recorded:cell_cycle_1p_ode"])
def test_digests_do_not_depend_on_the_interpreters_float_sum(case, tmp_path, monkeypatch):
    # the Dormand-Prince stepper adds its stage products itself, left to right
    monkeypatch.setattr(flows, "sum", _compensated_sum, raising=False)
    assert run_case(case, tmp_path) == GOLDEN[case]


if __name__ == "__main__":
    import pprint
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pprint.pprint({c: run_case(c, Path(tmp) / c.replace(":", "_")) for c in CASES},
                      width=100)
