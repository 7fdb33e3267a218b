"""Terrain-aware UAV path planning toolkit.

A cost model over 3D waypoint paths (length, cylindrical threats,
altitude corridor, turn/climb smoothness) plus seven population-based
solvers for it, a deterministic benchmark harness, and paired t-test
reporting.  The cost API is ``evaluate_paths`` (a stack of paths) and
``total_cost`` (one path's four terms); the kernels are in ``uavpath.cost``.
"""

from .cost import CostBreakdown, evaluate_paths, total_cost
from .encodings import decode_angle, decode_cartesian, decode_spherical
from .optimizers import ALGORITHMS, EvolutionTrace, SwarmConfig, run
from .scenario import (
    ConfigError,
    CostWeights,
    FlightConstraints,
    Scenario,
    Threat,
    load_scenario,
    save_scenario,
)
from .stats import SampleSummary, TTestVerdict, Verdict, mean_std, paired_t_test
from .suite import build_benchmark_suite
from .terrain import (
    SyntheticTerrainSpec,
    TerrainMap,
    generate_synthetic,
    load_dem,
    save_dem,
)

__version__ = "0.1.0"
