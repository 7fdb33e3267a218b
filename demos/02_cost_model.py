"""The path cost model piece by piece: length, threat penalties, the
altitude corridor, and smoothness."""

import numpy as np

from uavpath import (
    CostWeights,
    FlightConstraints,
    Scenario,
    SyntheticTerrainSpec,
    Threat,
    generate_synthetic,
    total_cost,
)
from uavpath.cost import path_planes, segment_steps, threat_cost_many

terrain = generate_synthetic(
    SyntheticTerrainSpec(n_cols=21, n_rows=21, cell_size=10.0), seed=0
)
scenario = Scenario(
    terrain=terrain,
    threats=(Threat(100.0, 95.0, 20.0),),
    start=[20.0, 20.0, 70.0],
    goal=[180.0, 180.0, 70.0],
    constraints=FlightConstraints(h_min=20, h_max=120, drone_diameter=1, danger_distance=10),
    weights=CostWeights(),
    n_waypoints=5,
)

# The threat cost of a single segment depends on how close its horizontal
# projection comes to the cylinder axis: zero outside the danger annulus,
# linear inside it, infinite in the collision disc.
threat = scenario.threats[0]
print("segment distance sweep (collision radius 21 m, danger radius 31 m):")
for offset in (40.0, 28.0, 24.0, 20.0):
    segment = path_planes(np.array([[[100.0 - offset, 0.0, 70.0], [100.0 - offset, 200.0, 70.0]]]))
    pen = threat_cost_many(segment, segment_steps(segment), scenario.threat_table)[0]
    print(f"  passes {offset:4.0f} m from center -> penalty {pen}")

# Full paths break down into the four weighted terms.
def show(name, path):
    b = total_cost(np.asarray(path), scenario)
    print(f"{name:18s} f1={b.f1:8.2f} f2={b.f2:8.2f} f3={b.f3:7.2f} f4={b.f4:5.2f} total={b.total}")

straight = np.linspace(scenario.start, scenario.goal, scenario.n_waypoints)
show("straight (hits)", straight)

detour = straight.copy()
detour[1:-1, 0] += [35.0, 55.0, 35.0]  # bow east around the cylinder
detour[1:-1, 1] -= [25.0, 10.0, 0.0]
show("detour", detour)

too_low = detour.copy()
too_low[2, 2] = 5.0  # drops under the 20 m floor
show("detour, too low", too_low)
