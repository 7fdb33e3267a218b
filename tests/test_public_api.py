"""The names ``import uavpath`` exports.

The cost model is exported once, as the batch scorer and the per-term
breakdown; the per-term kernels stay in ``uavpath.cost``.  A name added to
or dropped from the package surface has to be added or dropped here too.
"""

import types

import uavpath

PUBLIC_NAMES = {
    "ALGORITHMS",
    "ConfigError",
    "CostBreakdown",
    "CostWeights",
    "EvolutionTrace",
    "FlightConstraints",
    "SampleSummary",
    "Scenario",
    "SwarmConfig",
    "SyntheticTerrainSpec",
    "TTestVerdict",
    "TerrainMap",
    "Threat",
    "Verdict",
    "build_benchmark_suite",
    "decode_angle",
    "decode_cartesian",
    "decode_spherical",
    "evaluate_paths",
    "generate_synthetic",
    "load_dem",
    "load_scenario",
    "mean_std",
    "paired_t_test",
    "run",
    "save_dem",
    "save_scenario",
    "total_cost",
}


def test_public_names():
    exported = {
        name
        for name in dir(uavpath)
        if not name.startswith("_") and not isinstance(getattr(uavpath, name), types.ModuleType)
    }
    assert exported == PUBLIC_NAMES
