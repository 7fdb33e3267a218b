"""Terrain basics: synthetic hill maps, ESRI ASCII round trips, and
continuous height queries."""

import tempfile
from pathlib import Path

import numpy as np

from uavpath import SyntheticTerrainSpec, generate_synthetic, load_dem, save_dem

# A 600 m x 600 m map with five gentle hills on a flat base.
spec = SyntheticTerrainSpec(
    n_cols=61, n_rows=61, cell_size=10.0, base_elevation=0.0,
    n_hills=5, amp_min=5.0, amp_max=15.0, sigma_min=50.0, sigma_max=120.0,
)
terrain = generate_synthetic(spec, seed=42)
print(f"grid: {terrain.n_cols} x {terrain.n_rows} nodes, cell {terrain.cell_size} m")
print(f"elevation range: {terrain.z_min:.2f} .. {terrain.z_max:.2f} m")

# Height queries interpolate bilinearly between grid nodes, so they are
# continuous everywhere inside the map; a point off the map reads NaN.
xs = np.array([0.0, 305.0, 123.4, 700.0])
ys = np.array([0.0, 295.0, 456.7, 100.0])
for x, y, z in zip(xs, ys, terrain.heights(xs, ys)):
    print(f"ground at ({x:6.1f}, {y:6.1f}) = {z:7.3f} m")

# Maps serialize to plain-text ESRI ASCII grids and reload losslessly.
with tempfile.TemporaryDirectory() as tmp:
    dem = Path(tmp) / "hills.asc"
    save_dem(terrain, dem)
    reloaded = load_dem(dem)
    print(f"saved {dem.stat().st_size} bytes; values identical after reload:",
          np.array_equal(reloaded.elevations, terrain.elevations))
    print("file head:")
    for line in dem.read_text().splitlines()[:5]:
        print("   ", line[:72])
