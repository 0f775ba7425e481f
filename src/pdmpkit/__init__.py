"""Simulation and numerical analysis of piecewise deterministic Markov processes.

Event-exact simulation of jump/switching/flow-with-jump models, grid solvers
for their forward equations, closed-form stationary densities for two-regime
1-D switching systems, and a stability-vs-sweeping classifier.
"""

from . import errors
from .flows import (
    CumulativeHazard,
    Flow,
    Hazard,
    QTransform,
    TupleFn,
    boundary_hit_time,
    cumulative_hazard,
    flow_evolve,
    sample_jump_time,
)
from .mcstats import (
    Histogram,
    dkw_epsilon,
    empirical_density,
    ks_statistic,
    l1_distance,
    occupation_samples,
    sweeping_mass,
    two_sample_ks,
)
from .models import (
    AlleeParams,
    BirthSwitchParams,
    GeneExpressionParams,
    GrowthDivision,
    PopulationResult,
    SteinParams,
    SwitchingFields,
    make_allee,
    make_birth_switch,
    make_cell_cycle,
    make_gene_expression,
    make_grasshopper,
    make_rubinow,
    make_stein,
    make_telegraph,
    simulate_population,
    telegraph_fields,
)
from .process import (
    BoundaryHit,
    DeterministicClock,
    EnsembleResult,
    FixedDelay,
    HazardChannel,
    JumpKernel,
    PdmpModel,
    Regime,
    Trajectory,
    TupleMap,
    iter_events,
    next_event,
    path_rng,
    simulate_ensemble,
    simulate_trajectory,
)
from .stationary import (
    ClassificationReport,
    StationaryDensity,
    birth_switch_system,
    classify,
    classify_density,
    gene_switching_system,
    hormander_check,
    stationary_density,
)
from .transport import (
    CellCycleSolver,
    DensityGrid,
    Grid1D,
    LiouvilleSolver,
    SwitchingSolver,
    TwoPhaseDensity,
    TwoPhaseSolver,
    density_from,
    evolve_liouville,
    steady_state,
    two_phase_density,
)

__version__ = "0.1.0"
