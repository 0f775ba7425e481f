"""Importing pdmpkit and running a constant-rate model leave scipy unloaded.

scipy is imported on the first call of a route that needs it (ODE flows,
quadrature, root finding).  Other tests import scipy in-process, so the check
runs in a fresh interpreter.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pdmpkit

SCRIPT = textwrap.dedent("""
    import sys
    import pdmpkit
    import pdmpkit.cli

    cfg = {"model": {"name": "telegraph", "lam": 1.0, "c": 1.0},
           "simulate": {"x0": [0.0, 1.0], "regime0": 0, "horizon": 5.0, "n_paths": 2,
                        "snapshot_times": [1.0, 5.0]},
           "seed": 3}
    pdmpkit.cli.run("simulate", cfg, sys.argv[1])
    print(sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "yaml")))
""")


def test_constant_rate_run_does_not_load_scipy(tmp_path):
    src = Path(pdmpkit.__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "trajectories.csv").exists()
    assert done.stdout.splitlines()[-1] == "[]"
