"""Gridded elevation models: ESRI ASCII grid I/O, bilinear height queries,
and synthetic hill terrains for desk-scale benchmarks.

Coordinates are meters, x east, y north, z up.  Grid values are point
samples at the cell corners; row 0 of the stored array is the southernmost
row (files store north first, so rows are flipped on load).
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field, fields

import numpy as np

_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")
_REQUIRED_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize")
# Largest synthetic grid, checked before the grid is allocated (about 11.6x
# a 1201 x 1201 DEM; each node takes several float64 arrays while built).
MAX_GRID_NODES = 4096 * 4096
# Most hill-node additions a synthetic build may make, n_hills * n_cols *
# n_rows: 64 hills on the largest grid.  generate_synthetic adds each hill
# over the whole grid, at 13-23 ns a node on a 2-CPU Xeon, so a build takes
# at most about 25 s.
MAX_HILL_NODES = 64 * MAX_GRID_NODES
# Largest magnitude of a config number and of an elevation: above any UTM
# coordinate (about 1e7 m) and any plausible weight (see check_fields).
MAX_MAGNITUDE = 1e9


class ConfigError(ValueError):
    """Raised for every bad input where it is read, naming the field or the
    file: by each config record's constructor (``check_fields`` and the
    ``Scenario`` checks), the config loader, ``load_dem``, ``SwarmConfig``,
    ``run``'s algorithm, ``BenchmarkSpec`` and a suite seed."""


def is_int(value) -> bool:
    """An integer, numpy's included; a bool is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A real number, numpy's included; a bool is not one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_fields(record) -> None:
    """Check a dataclass's fields annotated ``int`` or ``float``, raising a
    ``ConfigError`` that names the field: an ``int`` field must be an
    integer, and each a real number (a bool is neither) of magnitude at
    most ``MAX_MAGNITUDE``, which NaN and infinity are not; ``nodata_value``,
    a file sentinel that no arithmetic reads, need only be finite.  A
    ``float`` field is then held as a Python float.

    The bound keeps the model's arithmetic finite: with at most
    ``MAX_GRID_NODES`` synthetic grid nodes (a DEM has what its file holds)
    and ``MAX_WAYPOINTS`` path nodes, a grid's width is at most about 1e16 m
    and its square 1e32, and every weighted cost stays far below the float
    range."""
    for f in fields(record):
        if f.type not in ("int", "float"):
            continue
        value = getattr(record, f.name)
        if f.type == "int" and not is_int(value):
            raise ConfigError(f"{f.name} must be an integer, got {value!r}")
        if not is_real(value):
            raise ConfigError(f"{f.name} must be a number, got {value!r}")
        limit = sys.float_info.max if f.name == "nodata_value" else MAX_MAGNITUDE
        # False for NaN and infinity; a Python int is compared exactly, so
        # 10**400 needs no conversion, and is not printed.
        if not abs(value) <= limit:
            got = "a larger integer" if is_int(value) else value
            raise ConfigError(f"{f.name} must be finite and at most {limit:g} in magnitude, got {got}")
        if f.type == "float":
            object.__setattr__(record, f.name, float(value))


@dataclass(frozen=True, eq=False)
class TerrainMap:
    """Immutable elevation grid.

    ``elevations`` is a 2-D grid of shape ``(n_rows, n_cols)``, which sets
    ``n_rows`` and ``n_cols``, with nodata cells stored as NaN;
    ``nodata_value`` keeps the file sentinel for re-serialization.  The
    four scalar fields obey ``check_fields``, and the non-nodata
    elevations the same magnitude bound.
    """

    origin_x: float
    origin_y: float
    cell_size: float
    nodata_value: float
    elevations: np.ndarray = field(repr=False)

    def __post_init__(self):
        check_fields(self)
        elev = np.array(self.elevations, dtype=float)
        if elev.ndim != 2:
            raise ConfigError(f"elevations must be a 2-D grid, got shape {elev.shape}")
        n_rows, n_cols = elev.shape
        if n_cols < 2 or n_rows < 2:
            raise ConfigError("grid needs at least 2x2 nodes for interpolation")
        if self.cell_size <= 0:
            raise ConfigError("cell_size must be > 0")
        # The grid is immutable, so its rectangle, (x_min, x_max, y_min,
        # y_max) in ``bounds``, and its elevation range are taken once.
        x_max = self.origin_x + (n_cols - 1) * self.cell_size
        y_max = self.origin_y + (n_rows - 1) * self.cell_size
        # fmin and fmax skip NaN as nanmin and nanmax do, give NaN without a
        # warning when every cell is nodata, and an infinite end for an
        # infinite cell.
        z_range = (float(np.fmin.reduce(elev, axis=None)), float(np.fmax.reduce(elev, axis=None)))
        if math.isnan(z_range[0]):
            raise ConfigError("every cell is nodata")
        if not max(map(abs, z_range)) <= MAX_MAGNITUDE:
            raise ConfigError(
                f"non-nodata elevations must be at most {MAX_MAGNITUDE:g} in magnitude, got the range {z_range}"
            )
        elev.setflags(write=False)
        vars(self).update(
            elevations=elev, n_cols=n_cols, n_rows=n_rows, x_max=x_max, y_max=y_max,
            bounds=(self.origin_x, x_max, self.origin_y, y_max), _z_range=z_range,
        )

    @property
    def z_min(self) -> float:
        return self._z_range[0]

    @property
    def z_max(self) -> float:
        return self._z_range[1]

    def contains(self, xs, ys):
        """Where (x, y) is on the closed ``bounds`` rectangle: the one on-map rule."""
        return (xs >= self.origin_x) & (xs <= self.x_max) & (ys >= self.origin_y) & (ys <= self.y_max)

    def heights(self, xs, ys) -> np.ndarray:
        """Vectorized bilinear interpolation.

        Returns NaN off the map (``contains``) or where a nodata corner is
        touched; never raises.  Exact grid nodes return the stored value.
        """
        # Strided views (a path stack's x or y plane) are copied first:
        # comparisons on contiguous data cost less than the copy.
        xs = np.asarray(xs, dtype=float, order="C")
        ys = np.asarray(ys, dtype=float, order="C")
        inside = self.contains(xs, ys)
        # Out-of-bounds points get clipped indices to keep the gather legal,
        # then masked back to NaN at the end.  The work runs on flat arrays,
        # in place where it can, so each op is one contiguous loop.
        gx = np.where(inside, xs, self.origin_x).reshape(-1)
        gy = np.where(inside, ys, self.origin_y).reshape(-1)
        gx -= self.origin_x
        gx /= self.cell_size
        gy -= self.origin_y
        gy /= self.cell_size
        # gx, gy >= 0 (a point on the map lies at or past the origin, the
        # rest sit on it), so only the last cell's index needs clamping.
        ix = gx.astype(int)
        np.minimum(ix, self.n_cols - 2, out=ix)
        iy = gy.astype(int)
        np.minimum(iy, self.n_rows - 2, out=iy)
        u, v = gx, gy
        u -= ix  # the fractions within the cell
        v -= iy
        # One flat gather per corner is cheaper than 2-D fancy indexing;
        # the corner index moves in place from (ix, iy) to its neighbours.
        grid = self.elevations.ravel()
        i = iy
        i *= self.n_cols
        i += ix
        f00 = grid.take(i)
        i += 1
        f10 = grid.take(i)
        i += self.n_cols
        f11 = grid.take(i)
        i -= 1
        f01 = grid.take(i)
        # (1-u)(1-v) f00 + u(1-v) f10 + (1-u) v f01 + u v f11, left to right
        su = 1.0 - u
        sv = 1.0 - v
        z = su * sv
        z *= f00
        w = u * sv
        w *= f10
        z += w
        np.multiply(su, v, out=w)
        w *= f01
        z += w
        np.multiply(u, v, out=w)
        w *= f11
        z += w
        z = z.reshape(inside.shape)
        z[~inside] = np.nan
        return z


def load_dem(file_path) -> TerrainMap:
    """Parse an ESRI ASCII grid file.

    Header keys are case-insensitive; ``ncols`` and ``nrows`` must be
    positive integers and the other header values finite.  The first data
    row is the northernmost and maps to the highest y index.  Cells are
    separated by whitespace, blank lines are skipped, and a cell is an
    ASCII float literal without underscores (``12``, ``-0.5``, ``1e3``,
    ``nan``, ``inf``).
    """
    header: dict[str, float] = {}
    with open(file_path) as fh:
        line_no = 0
        while True:
            data_start = fh.tell()
            line = fh.readline()
            if not line:
                raise ConfigError("no data rows found")
            line_no += 1
            tokens = line.split()
            if not tokens:
                continue
            key = tokens[0].lower()
            if key not in _HEADER_KEYS:
                break  # the first data row
            if len(tokens) != 2:
                raise ConfigError(f"line {line_no}: expected one value for {key!r}")
            if key in header:
                raise ConfigError(f"line {line_no}: duplicate header key {key!r}")
            header[key] = _header_value(key, tokens[1], line_no)
        for req in _REQUIRED_KEYS:
            if req not in header:
                raise ConfigError(f"line {line_no}: missing header key {req!r}")
        n_cols = int(header["ncols"])
        # One C-level pass over the whole block; a malformed block is
        # scanned again row by row to name the offending line.
        fh.seek(data_start)
        try:
            grid = np.loadtxt(fh, dtype=float, comments=None, ndmin=2)
        except ValueError:
            grid = None
        if grid is None or grid.shape[1] != n_cols:
            fh.seek(data_start)
            _raise_row_error(fh, line_no, n_cols)
    n_rows = int(header["nrows"])
    if grid.shape[0] != n_rows:
        raise ConfigError(f"expected {n_rows} data rows, got {grid.shape[0]}")
    grid = grid[::-1]  # file is north-first; store south-first
    nodata = header.get("nodata_value", -9999.0)
    if "nodata_value" in header:  # only mask cells when the file declares a sentinel
        grid[grid == nodata] = np.nan
    return TerrainMap(
        origin_x=header["xllcorner"],
        origin_y=header["yllcorner"],
        cell_size=header["cellsize"],
        nodata_value=nodata,
        elevations=grid,
    )


def _header_value(key: str, token: str, line_no: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ConfigError(f"line {line_no}: non-numeric value for {key!r}") from None
    if key in ("ncols", "nrows"):
        if not (value.is_integer() and value >= 1):  # False for nan and inf too
            raise ConfigError(f"line {line_no}: {key!r} must be a positive integer, got {token}")
    elif not math.isfinite(value):
        raise ConfigError(f"line {line_no}: {key!r} must be finite, got {token}")
    return value


def _is_cell(token: str) -> bool:
    """np.loadtxt's cell grammar: float() without its underscores and
    non-ASCII digits."""
    if not token.isascii() or "_" in token:
        return False
    try:
        float(token)
    except ValueError:
        return False
    return True


def _raise_row_error(lines, first_line_no: int, n_cols: int):
    """Raise the error of the first bad data row, numbered as in the file."""
    n_rows = 0
    for line_no, line in enumerate(lines, start=first_line_no):
        tokens = line.split()
        if not tokens:
            continue
        n_rows += 1
        if not all(map(_is_cell, tokens)):
            raise ConfigError(f"line {line_no}: non-numeric cell value")
        if len(tokens) != n_cols:
            raise ConfigError(f"row {n_rows}: expected {n_cols} values, got {len(tokens)}")
    raise ConfigError("data rows could not be parsed")


def save_dem(terrain: TerrainMap, file_path) -> None:
    """Write an ESRI ASCII grid; non-nodata values round-trip exactly.  A
    grid that holds its own ``nodata_value`` as a cell value would reload
    that cell as nodata, so it is a ConfigError, and nothing is written."""
    if (terrain.elevations == terrain.nodata_value).any():
        raise ConfigError(f"nodata_value {terrain.nodata_value!r} is also a cell value")
    with open(file_path, "w") as fh:
        fh.write(f"ncols {terrain.n_cols}\n")
        fh.write(f"nrows {terrain.n_rows}\n")
        fh.write(f"xllcorner {terrain.origin_x!r}\n")
        fh.write(f"yllcorner {terrain.origin_y!r}\n")
        fh.write(f"cellsize {terrain.cell_size!r}\n")
        fh.write(f"NODATA_value {terrain.nodata_value!r}\n")
        grid = np.where(np.isnan(terrain.elevations), terrain.nodata_value, terrain.elevations)
        for row in grid[::-1]:  # northernmost row first
            fh.write(" ".join(map(repr, row.tolist())) + "\n")


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
        check_fields(self)
        if self.n_cols < 2 or self.n_rows < 2:
            raise ConfigError("n_cols and n_rows must be >= 2")
        if self.n_cols * self.n_rows > MAX_GRID_NODES:
            raise ConfigError(
                f"n_cols * n_rows must be <= {MAX_GRID_NODES} grid nodes, "
                f"got {self.n_cols} * {self.n_rows}"
            )
        if self.cell_size <= 0:
            raise ConfigError("cell_size must be > 0")
        if self.n_hills < 0:
            raise ConfigError("n_hills must be >= 0")
        if self.n_hills * self.n_cols * self.n_rows > MAX_HILL_NODES:
            raise ConfigError(
                f"n_hills * n_cols * n_rows must be <= {MAX_HILL_NODES} hill-nodes, "
                f"got {self.n_hills} * {self.n_cols} * {self.n_rows}"
            )
        # generate_synthetic divides by 2 * sigma**2, which a width below
        # 1 / MAX_MAGNITUDE takes to zero or past the float range.
        if not 1 / MAX_MAGNITUDE <= self.sigma_min <= self.sigma_max:
            raise ConfigError(f"hill widths must satisfy {1 / MAX_MAGNITUDE:g} <= sigma_min <= sigma_max")
        if self.amp_max < self.amp_min:
            raise ConfigError("amp_max must be >= amp_min")


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
        bump = np.exp(-((gx - cx) ** 2 + (gy - cy) ** 2) / (2.0 * sigma**2))
        grid = grid + amp * bump
    return TerrainMap(
        origin_x=spec.origin_x,
        origin_y=spec.origin_y,
        cell_size=spec.cell_size,
        nodata_value=-9999.0,
        elevations=grid,
    )
