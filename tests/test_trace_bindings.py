"""The benchmark's span tracer finds every binding it patches.

``perfbench/spans.py`` wraps pdmpkit functions through fixed module
attributes (for example ``models.solve_ivp`` or ``mcstats.flow_evolve``).  A
refactor that drops one of those bindings breaks the traced benchmark; this
test installs the tracer and takes it off again, so such a refactor fails
here first.
"""

import importlib.util
from pathlib import Path

import pdmpkit
from pdmpkit import cli, config, experiments, exprs

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
MODULES = (cli, config, exprs, experiments, pdmpkit.flows, pdmpkit.mcstats,
           pdmpkit.models, pdmpkit.process, pdmpkit.stationary, pdmpkit.transport)
CLASSES = (pdmpkit.Trajectory, pdmpkit.SwitchingSolver, pdmpkit.CellCycleSolver,
           pdmpkit.TwoPhaseSolver, pdmpkit.LiouvilleSolver)


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_tracer_installs_and_unpatches():
    spans = _load_spans()
    before = [dict(vars(owner)) for owner in MODULES + CLASSES]
    run = cli.run
    tracer = spans.Tracer()
    try:
        spans.install(tracer, pdmpkit)
        assert cli.run is not run
    finally:
        tracer.unpatch()
    assert [dict(vars(owner)) for owner in MODULES + CLASSES] == before
