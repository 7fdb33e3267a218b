"""Built-in eight-scenario benchmark suite.

Two synthetic hill terrains host four scenarios each.  Scenarios 1, 2, 5
and 6 are "simple" (three to five well-separated cylinders near the
route); 3, 4, 7 and 8 are "complicated" (eight to twelve cylinders forming
corridors, with the straight start-goal line provably blocked).  Every
scenario ships with a stored feasibility witness: a detour path whose
total cost is finite.

Generation is deterministic in the suite seed and retries placement until
all scenario invariants hold.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .cost import cost_components, total_cost
from .scenario import ConfigError, CostWeights, FlightConstraints, Scenario, Threat, require_int
from .terrain import SyntheticTerrainSpec, TerrainMap, generate_synthetic, height_at

N_SCENARIOS = 8
_COMPLICATED = (3, 4, 7, 8)  # 1-based scenario numbers

_TERRAIN_SPECS = (
    SyntheticTerrainSpec(
        n_cols=61, n_rows=61, cell_size=10.0, base_elevation=0.0,
        n_hills=5, amp_min=4.0, amp_max=11.0, sigma_min=60.0, sigma_max=140.0,
    ),
    SyntheticTerrainSpec(
        n_cols=61, n_rows=61, cell_size=10.0, base_elevation=0.0,
        n_hills=9, amp_min=5.0, amp_max=13.0, sigma_min=40.0, sigma_max=100.0,
    ),
)

_PLACEMENT_ATTEMPTS = 200
_WITNESS_ATTEMPTS = 500


def is_complicated(number: int) -> bool:
    """Scenario numbers are 1-based; 3, 4, 7 and 8 carry corridor threats."""
    return number in _COMPLICATED


def _derived_seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence((seed, tag)).generate_state(1, dtype=np.uint64)[0])


def _sample_threats(rng, start, goal, constraints, complicated: bool) -> list[Threat]:
    """Threats live in a band around the start-goal line; complicated
    scenarios put some cylinders directly on it."""
    sx, sy = start[:2]
    gx, gy = goal[:2]
    dx, dy = gx - sx, gy - sy
    length = math.hypot(dx, dy)
    ux, uy = dx / length, dy / length      # along the line
    nx, ny = -uy, ux                       # lateral unit normal
    threats: list[Threat] = []

    def clear_of_endpoints(x, y, r):
        margin = constraints.drone_diameter + r + 25.0
        return (
            math.hypot(x - sx, y - sy) > margin and math.hypot(x - gx, y - gy) > margin
        )

    if complicated:
        n_total = int(rng.integers(8, 13))
        n_blockers = int(rng.integers(2, 4))
        for _ in range(n_blockers):
            t = rng.uniform(0.25, 0.75)
            off = rng.uniform(-10.0, 10.0)
            r = rng.uniform(25.0, 35.0)
            x = sx + t * dx + off * nx
            y = sy + t * dy + off * ny
            threats.append(Threat(x, y, r))
        band, min_sep, r_lo, r_hi = 130.0, 15.0, 14.0, 24.0
        n_extra = n_total - n_blockers
    else:
        n_extra = int(rng.integers(3, 6))
        band, min_sep, r_lo, r_hi = 120.0, 40.0, 18.0, 30.0

    guard = 0
    while n_extra > 0 and guard < 400:
        guard += 1
        t = rng.uniform(0.05, 0.95)
        off = rng.uniform(-band, band)
        r = rng.uniform(r_lo, r_hi)
        x = sx + t * dx + off * nx
        y = sy + t * dy + off * ny
        if not (30.0 <= x <= 570.0 and 30.0 <= y <= 570.0):
            continue
        if not clear_of_endpoints(x, y, r):
            continue
        if any(
            math.hypot(x - o.center_x, y - o.center_y) < r + o.radius + min_sep
            for o in threats
        ):
            continue
        threats.append(Threat(x, y, r))
        n_extra -= 1
    if n_extra > 0:
        raise RuntimeError("threat placement did not converge")
    return threats


def _make_witness(rng, scenario: Scenario) -> np.ndarray | None:
    """Search for a finite-cost detour: interior waypoints on a laterally
    bowed version of the straight line, flying at mid-corridor height."""
    n = scenario.n_waypoints
    start, goal = scenario.start, scenario.goal
    dx, dy = goal[0] - start[0], goal[1] - start[1]
    nx, ny = -dy, dx
    norm = math.hypot(nx, ny)
    nx, ny = nx / norm, ny / norm
    ts = np.linspace(0.0, 1.0, n)[1:-1]
    x_min, x_max, y_min, y_max = scenario.terrain.bounds
    mid = scenario.constraints.corridor_mid
    for _ in range(_WITNESS_ATTEMPTS):
        side = 1.0 if rng.random() < 0.5 else -1.0
        bow = rng.uniform(0.0, 280.0)
        noise = rng.normal(0.0, 15.0, size=ts.size)
        off = side * bow * np.sin(math.pi * ts) + noise
        xs = np.clip(start[0] + ts * dx + off * nx, x_min + 5.0, x_max - 5.0)
        ys = np.clip(start[1] + ts * dy + off * ny, y_min + 5.0, y_max - 5.0)
        ground = scenario.terrain.heights(xs, ys)
        zs = ground + mid
        path = np.vstack(
            [start, np.column_stack([xs, ys, zs]), goal]
        )
        if math.isfinite(total_cost(path, scenario).total):
            return path
    return None


def _build_scenario(seed: int, number: int, terrain: TerrainMap) -> Scenario:
    rng = np.random.default_rng(np.random.SeedSequence((seed, number)))
    constraints = FlightConstraints()
    weights = CostWeights()
    complicated = is_complicated(number)
    for _ in range(_PLACEMENT_ATTEMPTS):
        sx = rng.uniform(40.0, 90.0)
        sy = rng.uniform(40.0, 90.0)
        gx = rng.uniform(510.0, 560.0)
        gy = rng.uniform(510.0, 560.0)
        start = np.array([sx, sy, height_at(terrain, sx, sy) + constraints.corridor_mid])
        goal = np.array([gx, gy, height_at(terrain, gx, gy) + constraints.corridor_mid])
        try:
            threats = _sample_threats(rng, start, goal, constraints, complicated)
            scenario = Scenario(
                terrain=terrain,
                threats=tuple(threats),
                start=start,
                goal=goal,
                constraints=constraints,
                weights=weights,
                n_waypoints=12,
                name=f"s{number}",
            )
        except (ConfigError, RuntimeError):
            continue
        if complicated:
            _, threat, _, _ = cost_components(np.vstack([start, goal])[None], scenario)
            if math.isfinite(threat[0]):
                continue
        witness = _make_witness(rng, scenario)
        if witness is None:
            continue
        return replace(scenario, witness=witness)
    raise RuntimeError(f"scenario {number} generation did not converge")


def build_benchmark_suite(seed: int) -> list[Scenario]:
    """Deterministically build the eight benchmark scenarios for a seed."""
    require_int("suite seed", seed, 0)
    terrains = [
        generate_synthetic(spec, _derived_seed(seed, 100 + i))
        for i, spec in enumerate(_TERRAIN_SPECS)
    ]
    return [
        _build_scenario(seed, number, terrains[0 if number <= 4 else 1])
        for number in range(1, N_SCENARIOS + 1)
    ]
