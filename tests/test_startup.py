"""Importing pdmpkit and running a constant-rate model leave scipy unloaded.

scipy is imported on the first call of a route that needs it (quadrature,
root finding); the ODE routes run on pdmpkit's own integrator and never load
``scipy.integrate``.  Other tests import scipy in-process, so the checks run
in a fresh interpreter.
"""

import ast
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

# allee: no closed-form flow (every flow_evolve integrates), constant switching
ALLEE = {"name": "allee", "lam": 1.0, "K": 10.0, "A": 2.0, "B": 1.0, "q01": 1.0, "q10": 1.0}


def _run(script, out_dir) -> list:
    src = Path(pdmpkit.__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "-c", script, str(out_dir)], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 0, done.stderr
    assert (out_dir / "trajectories.csv").exists()
    return ast.literal_eval(done.stdout.splitlines()[-1])


def test_constant_rate_run_does_not_load_scipy(tmp_path):
    assert _run(SCRIPT, tmp_path) == []


def test_recorded_ode_flow_run_does_not_load_scipy_integrate(tmp_path):
    script = (SCRIPT.replace('{"name": "telegraph", "lam": 1.0, "c": 1.0}', repr(ALLEE))
              .replace('"x0": [0.0, 1.0]', '"x0": [4.0]')
              .replace('"horizon": 5.0', '"horizon": 6.0, "record_trajectories": True'))
    assert script.count("allee") == 1 and "record_trajectories" in script
    loaded = _run(script, tmp_path)
    assert "scipy.optimize" in loaded      # allee's interior roots use brentq
    assert not [m for m in loaded if m.startswith("scipy.integrate")]
