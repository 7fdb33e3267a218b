"""Gridded elevation models: ESRI ASCII grid I/O, bilinear height queries,
and synthetic hill terrains for desk-scale benchmarks.

Coordinates are meters, x east, y north, z up.  Grid values are point
samples at the cell corners; row 0 of the stored array is the southernmost
row (files store north first, so rows are flipped on load).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")
_REQUIRED_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize")
# Largest synthetic grid, checked before the grid is allocated (about 11.6x
# a 1201 x 1201 DEM; each node takes several float64 arrays while built).
MAX_GRID_NODES = 4096 * 4096


class DemParseError(ValueError):
    """Raised when an ESRI ASCII grid file is malformed."""


class TerrainError(Exception):
    """Base class for height-query failures."""


class OutOfBoundsError(TerrainError):
    """Query point lies outside the terrain's bounding rectangle."""


class NodataError(TerrainError):
    """Query touches a nodata cell corner."""


@dataclass(frozen=True, eq=False)
class TerrainMap:
    """Immutable elevation grid.

    ``elevations`` has shape ``(n_rows, n_cols)`` with nodata cells stored
    as NaN; ``nodata_value`` keeps the file sentinel for re-serialization.
    """

    n_cols: int
    n_rows: int
    origin_x: float
    origin_y: float
    cell_size: float
    nodata_value: float
    elevations: np.ndarray = field(repr=False)

    def __post_init__(self):
        elev = np.array(self.elevations, dtype=float)
        if elev.shape != (self.n_rows, self.n_cols):
            raise ValueError(
                f"elevations shape {elev.shape} != ({self.n_rows}, {self.n_cols})"
            )
        if self.n_cols < 2 or self.n_rows < 2:
            raise ValueError("grid needs at least 2x2 nodes for interpolation")
        if self.cell_size <= 0:
            raise ValueError("cell_size must be > 0")
        if np.isinf(elev).any():
            raise ValueError("non-nodata elevations must be finite")
        elev.setflags(write=False)
        object.__setattr__(self, "elevations", elev)
        # The grid is immutable, so its elevation range is taken once.
        object.__setattr__(self, "_z_range", (float(np.nanmin(elev)), float(np.nanmax(elev))))

    @property
    def x_max(self) -> float:
        return self.origin_x + (self.n_cols - 1) * self.cell_size

    @property
    def y_max(self) -> float:
        return self.origin_y + (self.n_rows - 1) * self.cell_size

    @property
    def bounds(self) -> tuple[float, float, float, float]:
        """(x_min, x_max, y_min, y_max) of the interpolable rectangle."""
        return (self.origin_x, self.x_max, self.origin_y, self.y_max)

    @property
    def z_min(self) -> float:
        return self._z_range[0]

    @property
    def z_max(self) -> float:
        return self._z_range[1]

    def heights(self, xs, ys) -> np.ndarray:
        """Vectorized bilinear interpolation.

        Returns NaN where the query is out of bounds or touches a nodata
        corner; never raises.  Exact grid nodes return the stored value.
        """
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        inside = (
            (xs >= self.origin_x)
            & (xs <= self.x_max)
            & (ys >= self.origin_y)
            & (ys <= self.y_max)
        )
        # Out-of-bounds points get clipped indices to keep the gather legal,
        # then masked back to NaN at the end.
        gx = (np.where(inside, xs, self.origin_x) - self.origin_x) / self.cell_size
        gy = (np.where(inside, ys, self.origin_y) - self.origin_y) / self.cell_size
        ix = np.clip(gx.astype(int), 0, self.n_cols - 2)
        iy = np.clip(gy.astype(int), 0, self.n_rows - 2)
        u = gx - ix
        v = gy - iy
        # One flat gather per corner is cheaper than 2-D fancy indexing.
        grid = self.elevations.ravel()
        i00 = iy * self.n_cols + ix
        i01 = i00 + self.n_cols
        f00 = grid.take(i00)
        f10 = grid.take(i00 + 1)
        f01 = grid.take(i01)
        f11 = grid.take(i01 + 1)
        z = (
            (1.0 - u) * (1.0 - v) * f00
            + u * (1.0 - v) * f10
            + (1.0 - u) * v * f01
            + u * v * f11
        )
        return np.where(inside, z, np.nan)


def height_at(terrain: TerrainMap, x: float, y: float) -> float:
    """Ground elevation at (x, y) by bilinear interpolation.

    Raises OutOfBoundsError outside the grid rectangle and NodataError when
    any of the four surrounding corners is nodata.
    """
    x_min, x_max, y_min, y_max = terrain.bounds
    if not (x_min <= x <= x_max and y_min <= y <= y_max):
        raise OutOfBoundsError(f"({x}, {y}) outside terrain bounds {terrain.bounds}")
    z = float(terrain.heights(x, y))
    if np.isnan(z):
        raise NodataError(f"({x}, {y}) touches a nodata cell")
    return z


def load_dem(file_path) -> TerrainMap:
    """Parse an ESRI ASCII grid file.

    Header keys are case-insensitive; the first data row is the
    northernmost and maps to the highest y index.
    """
    header: dict[str, float] = {}
    rows: list[np.ndarray] = []
    n_cols = None
    with open(file_path) as fh:
        for line_no, line in enumerate(fh, start=1):
            tokens = line.split()
            if not tokens:
                continue
            key = tokens[0].lower()
            if not rows and key in _HEADER_KEYS:
                if len(tokens) != 2:
                    raise DemParseError(f"line {line_no}: expected 'key value'")
                if key in header:
                    raise DemParseError(f"line {line_no}: duplicate header key {key!r}")
                try:
                    header[key] = float(tokens[1])
                except ValueError:
                    raise DemParseError(
                        f"line {line_no}: non-numeric value for {key!r}"
                    ) from None
                continue
            # First non-header line: check the header is complete.
            if n_cols is None:
                for req in _REQUIRED_KEYS:
                    if req not in header:
                        raise DemParseError(f"line {line_no}: missing header key {req!r}")
                n_cols = int(header["ncols"])
            try:
                values = np.array([float(t) for t in tokens])
            except ValueError:
                raise DemParseError(f"line {line_no}: non-numeric cell value") from None
            if values.size != n_cols:
                raise DemParseError(
                    f"row {len(rows) + 1}: expected {n_cols} values, got {values.size}"
                )
            rows.append(values)
    if n_cols is None:
        raise DemParseError("no data rows found")
    n_rows = int(header["nrows"])
    if len(rows) != n_rows:
        raise DemParseError(f"expected {n_rows} data rows, got {len(rows)}")
    grid = np.vstack(rows)[::-1]  # file is north-first; store south-first
    nodata = header.get("nodata_value", -9999.0)
    if "nodata_value" in header:  # only mask cells when the file declares a sentinel
        grid = np.where(grid == nodata, np.nan, grid)
    return TerrainMap(
        n_cols=n_cols,
        n_rows=n_rows,
        origin_x=header["xllcorner"],
        origin_y=header["yllcorner"],
        cell_size=header["cellsize"],
        nodata_value=nodata,
        elevations=grid,
    )


def save_dem(terrain: TerrainMap, file_path) -> None:
    """Write an ESRI ASCII grid; non-nodata values round-trip exactly."""
    with open(file_path, "w") as fh:
        fh.write(f"ncols {terrain.n_cols}\n")
        fh.write(f"nrows {terrain.n_rows}\n")
        fh.write(f"xllcorner {terrain.origin_x!r}\n")
        fh.write(f"yllcorner {terrain.origin_y!r}\n")
        fh.write(f"cellsize {terrain.cell_size!r}\n")
        fh.write(f"NODATA_value {terrain.nodata_value!r}\n")
        for row in terrain.elevations[::-1]:  # northernmost row first
            out = [
                repr(terrain.nodata_value) if np.isnan(v) else repr(float(v))
                for v in row
            ]
            fh.write(" ".join(out) + "\n")


@dataclass(frozen=True)
class SyntheticTerrainSpec:
    """Recipe for a deterministic Gaussian-hill terrain."""

    n_cols: int
    n_rows: int
    cell_size: float
    base_elevation: float = 0.0
    n_hills: int = 0
    amp_min: float = 0.0
    amp_max: float = 0.0
    sigma_min: float = 1.0
    sigma_max: float = 1.0
    origin_x: float = 0.0
    origin_y: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an int beyond float range
                raise ValueError(f"{f.name} is out of range") from None
            if not finite:
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.n_cols < 2 or self.n_rows < 2:
            raise ValueError("n_cols and n_rows must be >= 2")
        if self.n_cols * self.n_rows > MAX_GRID_NODES:
            raise ValueError(
                f"n_cols * n_rows must be <= {MAX_GRID_NODES} grid nodes, "
                f"got {self.n_cols} * {self.n_rows}"
            )
        if self.cell_size <= 0:
            raise ValueError("cell_size must be > 0")
        if self.n_hills < 0:
            raise ValueError("n_hills must be >= 0")
        if self.sigma_min <= 0 or self.sigma_max < self.sigma_min:
            raise ValueError("hill widths must satisfy 0 < sigma_min <= sigma_max")
        if self.amp_max < self.amp_min:
            raise ValueError("amp_max must be >= amp_min")


def generate_synthetic(spec: SyntheticTerrainSpec, seed: int) -> TerrainMap:
    """Build a terrain of Gaussian hills on a flat base.

    Elevation at (x, y) = base + sum_i A_i * exp(-((x-cx_i)^2 + (y-cy_i)^2)
    / (2 sigma_i^2)).  Bit-identical for a fixed (spec, seed).
    """
    rng = np.random.default_rng(seed)
    xs = spec.origin_x + spec.cell_size * np.arange(spec.n_cols)
    ys = spec.origin_y + spec.cell_size * np.arange(spec.n_rows)
    gx, gy = np.meshgrid(xs, ys)
    grid = np.full((spec.n_rows, spec.n_cols), float(spec.base_elevation))
    for _ in range(spec.n_hills):
        # Hill summits sit on grid nodes so peak elevations are exact.
        cx = xs[rng.integers(0, spec.n_cols)]
        cy = ys[rng.integers(0, spec.n_rows)]
        amp = rng.uniform(spec.amp_min, spec.amp_max)
        sigma = rng.uniform(spec.sigma_min, spec.sigma_max)
        grid = grid + amp * np.exp(-((gx - cx) ** 2 + (gy - cy) ** 2) / (2.0 * sigma**2))
    return TerrainMap(
        n_cols=spec.n_cols,
        n_rows=spec.n_rows,
        origin_x=spec.origin_x,
        origin_y=spec.origin_y,
        cell_size=spec.cell_size,
        nodata_value=-9999.0,
        elevations=grid,
    )
