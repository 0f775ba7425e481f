"""Byte-level regression guard: SHA-256 of every artifact of a fixed set of runs.

The digests pin five fast shipped configs plus one tiny ``evolve`` run per
grid-solver model and three ``simulate`` runs: unrecorded telegraph and
logistic birth_switch ensembles (constant-rate route) and a recorded
gene_expression run with a state-dependent rate (thinning route).  They were recorded on
x86-64 Linux with numpy 2.4.6 and scipy 1.17.1; another numpy/scipy build may
round differently in the last bit, which changes the 17-digit CSV text.  To
see the digests of the current code run ``python tests/test_golden.py``.
"""

import hashlib
from pathlib import Path

import pytest

from pdmpkit.cli import run
from pdmpkit.config import load_config

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
    "recorded:gene_expression": {
        "model": {"name": "gene_expression", "P": 1.0, "mu": 1.0, "q0": "1 + x",
                  "q1": 1.0},
        "simulate": {"x0": [0.5], "regime0": 0, "horizon": 20.0, "n_paths": 2,
                     "snapshot_times": [5.0, 20.0]}},
}


def _digests(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


def run_case(case: str, out: Path) -> dict:
    """Run one named case into ``out`` and return {artifact name: sha256}."""
    kind, _, name = case.partition(":")
    if kind == "config":
        cfg = load_config(CONFIG_DIR / f"{name}.yaml")
        run(cfg["command"], cfg, out)
    elif kind == "evolve":
        model, section = EVOLVE[name]
        run("evolve", {"model": model, "evolve": section, "seed": 1}, out)
    else:
        run("simulate", {**SIMULATE[case], "seed": 3}, out)
    return _digests(out)


CASES = [f"config:{n}" for n in SHIPPED] + [f"evolve:{n}" for n in EVOLVE] + list(SIMULATE)

GOLDEN = {
    "config:accept09_reproducibility": {
        "snapshots.csv": "97689000b57c2ab435f827ecd83ae88ef9da84ea534cac669822a41ee9c7e6ae",
        "summary.json": "30cb3e7798800f53777c4032c554d8bbdfb8b18b3b512cf1780bce149d01dab0",
        "trajectories.csv": "27288499bd74663ec9e8f90f157ba2eb2fa415837aa455931ea773d2f04ae885",
    },
    "config:demo_classify_stable": {
        "report.json": "b64b6a4855fe42b73f34ef888eb6ae9d5400c87b657663a5dbcf3575b620185a",
    },
    "config:demo_gene_evolve": {
        "density.csv": "9557797b622214e2b549a8c68276f2292bdfef54723798ff8ecd3ad2a4fab552",
        "summary.json": "910723ffd5d897f38b428a101d6e1b875e18aaa27677dc1c44f475dba4aa23c2",
    },
    "config:demo_gene_stationary": {
        "fstar.csv": "378270b5ac3623cf7bdc11d248482365e2b2a7fbfe071250f0e4ead6f3632179",
        "report.json": "cf2ef5bff13a23e055895e4976d30d6a14514b77f1f337483d893ffbc0712a5a",
    },
    "config:demo_population": {
        "events.csv": "8708cb0207b3d05b48f9dd4e4b7e1a33c451d97655a6297f668e885d87e06b62",
        "population_snapshots.csv": "601c4ffe2e58aa4a31ef86b403a84cb9f0b0b183a98491f1c1972f642543e14a",
        "summary.json": "073b536ca95e96692c028ef2b1317897f537dd25e9a0a81e7bf36c9c569072e2",
    },
    "ensemble:birth_switch": {
        "snapshots.csv": "7a663900ef88798c3e231a01dde09b013bd561cc702809ff2a2fe2e63865d67b",
        "summary.json": "373161013e76cb6cf8db94c20a8cb6869403a3cb9e49aadd531603c9fdf4a847",
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
    "recorded:gene_expression": {
        "snapshots.csv": "78ac7af59839ef6d17005b75a9756c658f304006158c00a7b1f68e627e7c49f2",
        "summary.json": "7c66273238f3e986635574f7f89de534865eba9b9d56d478183d8454658b3a2c",
        "trajectories.csv": "e7bbd3dafd1b8f330c22843cc58483dcc65227d8c6732565b263767c1a4f0d16",
    },
    "evolve:telegraph": {
        "density.csv": "8f2fe611a21a313ac0efc048cd56495bb9596483ece12a9bc9871c6bb528fe69",
        "summary.json": "448612d8207ea82f5bc7b30f44eba7cc68b932f8c5d830ff7b9409367bbc5866",
    },
}


@pytest.mark.parametrize("case", CASES)
def test_artifact_digests(case, tmp_path):
    assert run_case(case, tmp_path) == GOLDEN[case]


if __name__ == "__main__":
    import pprint
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pprint.pprint({c: run_case(c, Path(tmp) / c.replace(":", "_")) for c in CASES},
                      width=100)
