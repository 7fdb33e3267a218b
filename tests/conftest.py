import os
import sys

# numpy's AVX-512 and AVX2 loops for exp, arctan2, arccos, log and tan
# differ by a few ulp, and the golden hashes are bit-exact, so the whole
# session runs numpy at one dispatch level: AVX2, which is what a host
# without AVX-512 runs.  The variable is read once, when numpy is imported.
NPY_DISABLE_CPU_FEATURES = "X86_V4 AVX512_ICL AVX512_SPR"
if "numpy" not in sys.modules:
    os.environ["NPY_DISABLE_CPU_FEATURES"] = NPY_DISABLE_CPU_FEATURES

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from numpy._core._multiarray_umath import __cpu_features__  # noqa: E402

if any(__cpu_features__.get(name) for name in NPY_DISABLE_CPU_FEATURES.split()):
    pytest.exit(
        "numpy was imported before tests/conftest.py at a dispatch level above AVX2; "
        f'set NPY_DISABLE_CPU_FEATURES="{NPY_DISABLE_CPU_FEATURES}" before numpy '
        "is imported, so the golden hashes compare at their level",
        returncode=4,
    )

from uavpath import (
    CostWeights,
    FlightConstraints,
    Scenario,
    SyntheticTerrainSpec,
    Threat,
    generate_synthetic,
)
from uavpath.cost import (
    altitude_cost_many,
    evaluate_paths,
    length_cost_many,
    path_planes,
    segment_lengths,
    segment_steps,
    smooth_cost_many,
    threat_cost_many,
)
from uavpath.scenario import threat_table


@pytest.fixture(scope="session")
def flat_terrain():
    spec = SyntheticTerrainSpec(n_cols=11, n_rows=11, cell_size=10.0, base_elevation=0.0)
    return generate_synthetic(spec, 0)


@pytest.fixture(scope="session")
def flat_scenario(flat_terrain):
    """Threat-free 100 m box over flat ground, endpoints at mid-corridor."""
    return Scenario(
        terrain=flat_terrain,
        threats=(),
        start=[10.0, 10.0, 70.0],
        goal=[90.0, 90.0, 70.0],
        constraints=FlightConstraints(),
        weights=CostWeights(),
        n_waypoints=6,
    )


@pytest.fixture(scope="session")
def hilly_scenario():
    """Small scenario with hills and two threats near the diagonal."""
    spec = SyntheticTerrainSpec(
        n_cols=21, n_rows=21, cell_size=10.0, base_elevation=0.0,
        n_hills=3, amp_min=5.0, amp_max=12.0, sigma_min=30.0, sigma_max=60.0,
    )
    terrain = generate_synthetic(spec, 7)
    ground = lambda x, y: float(terrain.heights(x, y))
    return Scenario(
        terrain=terrain,
        threats=(Threat(80.0, 90.0, 18.0), Threat(130.0, 120.0, 15.0)),
        start=[15.0, 15.0, ground(15.0, 15.0) + 70.0],
        goal=[185.0, 185.0, ground(185.0, 185.0) + 70.0],
        constraints=FlightConstraints(),
        weights=CostWeights(),
        n_waypoints=8,
    )


def random_feasibleish_path(scenario, rng, n=None):
    """Random path with corridor-following altitudes; may still cross threats."""
    n = n or scenario.n_waypoints
    x_min, x_max, y_min, y_max = scenario.terrain.bounds
    xs = rng.uniform(x_min, x_max, n - 2)
    ys = rng.uniform(y_min, y_max, n - 2)
    ground = scenario.terrain.heights(xs, ys)
    zs = ground + rng.uniform(
        scenario.constraints.h_min, scenario.constraints.h_max, n - 2
    )
    interior = np.column_stack([xs, ys, zs])
    return np.vstack([scenario.start, interior, scenario.goal])


# The cost kernels read a stack laid out once as evaluate_paths lays it
# out; these give each term of an (M, n, 3) stack of paths.


def f1_of(paths):
    return length_cost_many(segment_lengths(segment_steps(path_planes(paths))))


def f2_of(paths, threats, constraints):
    points = path_planes(paths)
    return threat_cost_many(points, segment_steps(points), threat_table(threats, constraints))


def f3_of(paths, terrain, constraints):
    return altitude_cost_many(path_planes(paths), terrain, constraints)


def f4_of(paths, weights):
    steps = segment_steps(path_planes(paths))
    return smooth_cost_many(steps, segment_lengths(steps), weights)


def drive(steps, score):
    """Run an initializer or step of ``uavpath.optimizers`` (a generator) to
    its end, answering each batch of paths it yields with ``score(paths)``;
    returns what it returns."""
    try:
        paths = next(steps)
        while True:
            paths = steps.send(score(paths))
    except StopIteration as done:
        return done.value


def scored_on(scenario):
    """The scoring ``run`` gives a step: ``evaluate_paths`` on ``scenario``."""
    return lambda paths: evaluate_paths(paths, scenario)
