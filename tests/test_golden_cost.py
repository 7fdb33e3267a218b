"""Golden cost kernels: bit-exact outputs of the ``*_many`` cost terms and
of ``evaluate_paths``, pinned by SHA-256.

The input is a fixed batch of paths on each scenario of the benchmark suite
(suite seed 0): genomes of every encoding, both from the solvers' initial
sampler and uniform over the search box, plus hand-made edge cases
(collapsed paths, vertical segments, off-map waypoints, a path through a
threat centre).  A rewrite of a kernel that must keep its arithmetic keeps
every hash below; a change that alters cost values on purpose copies the
new hashes from the assertion messages and says so in CHANGES.md.  The
hashes were taken with numpy 2.x on x86-64 at the AVX2 dispatch level that
``tests/conftest.py`` pins through ``NPY_DISABLE_CPU_FEATURES``.
"""

import hashlib

import numpy as np
import pytest

from uavpath.cost import evaluate_paths
from uavpath.encodings import angle_space, cartesian_space, random_genomes, spherical_space
from uavpath.suite import build_benchmark_suite

from conftest import f1_of, f2_of, f3_of, f4_of

N_SAMPLED = 16  # genomes from the solvers' initial sampler, per encoding
N_UNIFORM = 16  # genomes uniform over the search box, per encoding

GOLDEN = {
    "length": "9ca3378502d2449140da94a5c007fcfa538094a2e082e6333c2e6d74836f9b75",
    "threat": "058084bb5f35c6d74476f3879feb03f0dcb04a6377a064da7ff3c8ae2c61f721",
    "altitude": "6c10f9553434048aeb1a4cefd7c277cc9107597389dfa3dfb930fbab02f6cf06",
    "smooth": "eccd7aca7ad5c87fc4890ad4531cddb04ffef848f33e088ba86139753ff26a90",
    "total": "ec0bbcd707b50f2ce90b8bb70ea11e6ecb50c196be086a479c0b6c4c5c6f6be4",
    "threat_segment": "38d71eeebfa4ef0dde140d54cafec4f01f089fac3509b893cfb0077a06e1789f",
}

KERNELS = {
    "length": lambda paths, s: f1_of(paths),
    "threat": lambda paths, s: f2_of(paths, s.threats, s.constraints),
    "altitude": lambda paths, s: f3_of(paths, s.terrain, s.constraints),
    "smooth": lambda paths, s: f4_of(paths, s.weights),
    "total": lambda paths, s: evaluate_paths(paths, s),
    # one segment per path, so an infinite segment hides no finite one
    "threat_segment": lambda paths, s: f2_of(segments(paths), s.threats, s.constraints),
}


def segments(paths: np.ndarray) -> np.ndarray:
    """Each segment of each path as a two-waypoint path, (M * (n-1), 2, 3)."""
    return np.stack([paths[:, :-1], paths[:, 1:]], axis=2).reshape(-1, 2, 3)


def edge_case_paths(scenario, rng) -> np.ndarray:
    """Collapsed, vertical, off-map and threat-crossing paths, (5, n, 3)."""
    n = scenario.n_waypoints
    start, goal = scenario.start, scenario.goal
    line = start + np.linspace(0.0, 1.0, n)[:, None] * (goal - start)

    collapsed = np.tile(start, (n, 1))
    # every second segment climbs straight up from the previous waypoint
    vertical = line.copy()
    vertical[2:-1:2, :2] = vertical[1:-2:2, :2]
    vertical[2:-1:2, 2] += 40.0
    # a zero-length first segment, then a vertical one
    stalled = line.copy()
    stalled[1] = start
    stalled[2] = start + [0.0, 0.0, 25.0]
    x_min, _, _, y_max = scenario.terrain.bounds
    off_map = line + rng.normal(0.0, 5.0, line.shape)
    off_map[[0, -1]] = start, goal
    off_map[1:-1:3, 0] = x_min - 50.0
    off_map[2:-1:3, 1] = y_max + 50.0
    through = line.copy()
    if scenario.threats:
        threat = scenario.threats[0]
        through[n // 2, :2] = threat.center_x, threat.center_y
    return np.stack([collapsed, vertical, stalled, off_map, through])


def scenario_paths(scenario, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    batches = [edge_case_paths(scenario, rng)]
    for space_of in (cartesian_space, angle_space, spherical_space):
        space = space_of(scenario)
        streams = [np.random.default_rng([seed, i]) for i in range(N_SAMPLED)]
        batches.append(space.decode(random_genomes(space, scenario, streams, 1)[:, 0], scenario))
        uniform = rng.uniform(space.lower, space.upper, (N_UNIFORM, space.lower.size))
        batches.append(space.decode(uniform, scenario))
    return np.concatenate(batches)


@pytest.fixture(scope="module")
def cases():
    return [(s, scenario_paths(s, i)) for i, s in enumerate(build_benchmark_suite(0))]


@pytest.mark.parametrize("kernel", list(KERNELS))
def test_golden_cost(kernel, cases):
    h = hashlib.sha256()
    for scenario, paths in cases:
        out = KERNELS[kernel](paths, scenario)
        assert out.ndim == 1
        h.update(np.ascontiguousarray(out, dtype="<f8").tobytes())
    digest = h.hexdigest()
    assert digest == GOLDEN[kernel], f"{kernel}: {digest}"


def test_batch_covers_edge_cases(cases):
    """The pinned batch reaches every kind of value the kernels return."""
    totals = np.concatenate([evaluate_paths(p, s) for s, p in cases])
    threat = np.concatenate([f2_of(p, s.threats, s.constraints) for s, p in cases])
    assert np.isfinite(totals).any() and np.isinf(totals).any()
    assert (threat == 0).any() and np.isinf(threat).any()
    assert ((threat > 0) & np.isfinite(threat)).any()
