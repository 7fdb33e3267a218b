import math
import warnings
from dataclasses import fields

import numpy as np
import pytest
from oracles import save_dem_reference

from uavpath import (
    ConfigError,
    SyntheticTerrainSpec,
    TerrainMap,
    generate_synthetic,
    load_dem,
    save_dem,
)
from uavpath.terrain import MAX_MAGNITUDE

BOUND = r"must be finite and at most 1e\+09 in magnitude, got "

SMALL_DEM = """\
ncols 2
nrows 2
xllcorner 0.0
yllcorner 0.0
cellsize 10.0
1 2
3 4
"""


def write(tmp_path, text, name="grid.asc"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoadDem:
    def test_two_by_two(self, tmp_path):
        t = load_dem(write(tmp_path, SMALL_DEM))
        assert (t.n_cols, t.n_rows) == (2, 2)
        assert (t.origin_x, t.origin_y, t.cell_size) == (0.0, 0.0, 10.0)
        assert t.elevations.size == 4
        # first file row is the northernmost: value 1 sits at max y
        assert float(t.heights(0.0, 10.0)) == 1.0
        assert float(t.heights(0.0, 0.0)) == 3.0

    def test_row_width_mismatch(self, tmp_path):
        bad = "ncols 3\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 5\n1 2\n3 4 5\n"
        with pytest.raises(ConfigError, match="row 1: expected 3 values"):
            load_dem(write(tmp_path, bad))

    def test_nodata_cell_flagged(self, tmp_path):
        text = (
            "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 10\n"
            "NODATA_value -9999\n1 2\n-9999 4\n"
        )
        t = load_dem(write(tmp_path, text))
        assert t.nodata_value == -9999
        assert np.isnan(t.elevations[0, 0])  # south-west corner
        assert np.isfinite(t.elevations).sum() == 3
        assert (t.z_min, t.z_max) == (1.0, 4.0)  # the range skips nodata

    def test_every_cell_nodata_rejected(self, tmp_path):
        text = (
            "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 10\n"
            "NODATA_value -9999\n-9999 -9999\n-9999 nan\n"
        )
        with pytest.raises(ValueError, match="every cell is nodata"):
            load_dem(write(tmp_path, text))

    def test_missing_header_key(self, tmp_path):
        bad = "ncols 2\nnrows 2\nxllcorner 0\ncellsize 5\n1 2\n3 4\n"
        with pytest.raises(ConfigError, match="missing header key 'yllcorner'"):
            load_dem(write(tmp_path, bad))

    def test_duplicate_header_key(self, tmp_path):
        bad = "ncols 2\nncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 5\n1 2\n3 4\n"
        with pytest.raises(ConfigError, match="duplicate header key"):
            load_dem(write(tmp_path, bad))

    def test_non_numeric_cell(self, tmp_path):
        bad = "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 5\n1 x\n3 4\n"
        with pytest.raises(ConfigError, match="line 6"):
            load_dem(write(tmp_path, bad))

    def test_header_case_insensitive(self, tmp_path):
        text = "NCOLS 2\nNROWS 2\nXLLCORNER 1\nYLLCORNER 2\nCELLSIZE 5\n1 2\n3 4\n"
        t = load_dem(write(tmp_path, text))
        assert (t.origin_x, t.origin_y) == (1.0, 2.0)

    def test_row_count_mismatch(self, tmp_path):
        bad = "ncols 2\nnrows 3\nxllcorner 0\nyllcorner 0\ncellsize 5\n1 2\n3 4\n"
        with pytest.raises(ConfigError, match="expected 3 data rows"):
            load_dem(write(tmp_path, bad))


    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("xllcorner", "nan", "'xllcorner' must be finite"),
            ("yllcorner", "inf", "'yllcorner' must be finite"),
            ("cellsize", "nan", "'cellsize' must be finite"),
            ("NODATA_value", "-inf", "'nodata_value' must be finite"),
            ("ncols", "2.7", "'ncols' must be a positive integer"),
            ("ncols", "nan", "'ncols' must be a positive integer"),
            ("nrows", "0", "'nrows' must be a positive integer"),
            ("nrows", "-2", "'nrows' must be a positive integer"),
        ],
    )
    def test_bad_header_value_names_key(self, tmp_path, key, value, message):
        header = {"ncols": "2", "nrows": "2", "xllcorner": "0", "yllcorner": "0",
                  "cellsize": "5", "NODATA_value": "-9999", key: value}
        text = "".join(f"{k} {v}\n" for k, v in header.items()) + "1 2\n3 4\n"
        line = list(header).index(key) + 1
        with pytest.raises(ConfigError, match=f"line {line}: {message}, got {value}"):
            load_dem(write(tmp_path, text))

    def test_integral_float_grid_size(self, tmp_path):
        text = "ncols 2.0\nnrows 2e0\nxllcorner 0\nyllcorner 0\ncellsize 5\n1 2\n3 4\n"
        assert load_dem(write(tmp_path, text)).elevations.shape == (2, 2)

    @pytest.mark.parametrize("token", ["#", "1_0", "\u0661"])
    def test_token_outside_the_cell_grammar(self, tmp_path, token):
        # float() takes "1_0" as 10.0 and the Arabic-Indic digit as 1.0;
        # the grid parser takes neither.
        bad = f"ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 5\n1 2\n3 {token}\n"
        with pytest.raises(ConfigError, match="line 7: non-numeric cell value"):
            load_dem(write(tmp_path, bad))

    def test_error_line_counts_blank_lines(self, tmp_path):
        bad = "\n\nncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 5\n\n\n1 2\n\n3 x\n"
        with pytest.raises(ConfigError, match="line 12: non-numeric cell value"):
            load_dem(write(tmp_path, bad))

    def test_width_error_counts_data_rows(self, tmp_path):
        bad = "ncols 2\nnrows 3\nxllcorner 0\nyllcorner 0\ncellsize 5\n1 2\n\n3 4\n5 6 7\n"
        with pytest.raises(ConfigError, match="row 3: expected 2 values, got 3"):
            load_dem(write(tmp_path, bad))

    def test_consistent_wrong_width(self, tmp_path):
        bad = "ncols 3\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 5\n1 2\n3 4\n"
        with pytest.raises(ConfigError, match="row 1: expected 3 values, got 2"):
            load_dem(write(tmp_path, bad))

    def test_single_data_row_keeps_its_shape(self, tmp_path):
        bad = "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 5\n1 2\n"
        with pytest.raises(ConfigError, match="expected 2 data rows, got 1"):
            load_dem(write(tmp_path, bad))

    def test_header_only_file(self, tmp_path):
        bad = "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 5\n\n"
        with pytest.raises(ConfigError, match="no data rows found"):
            load_dem(write(tmp_path, bad))


class TestTerrainMap:
    def test_size_read_from_grid(self):
        t = TerrainMap(1.0, 2.0, 0.5, -9999.0, np.zeros((3, 5)))
        assert (t.n_cols, t.n_rows) == (5, 3)
        assert t.bounds == (1.0, 3.0, 2.0, 3.0)
        assert [f.name for f in fields(TerrainMap)] == [
            "origin_x", "origin_y", "cell_size", "nodata_value", "elevations",
        ]

    @pytest.mark.parametrize("elevations", [[1.0, 2.0, 3.0], np.zeros((2, 2, 2)), 5.0])
    def test_grid_must_be_2d(self, elevations):
        with pytest.raises(ValueError, match="elevations must be a 2-D grid"):
            TerrainMap(0.0, 0.0, 1.0, -9999.0, elevations)

    @pytest.mark.parametrize("with_nodata", [False, True], ids=["dense", "with-nodata"])
    @pytest.mark.parametrize("cell", [math.inf, -math.inf], ids=["+inf", "-inf"])
    def test_infinite_cell_rejected(self, cell, with_nodata):
        """An infinite cell makes one end of the elevation range infinite,
        past the magnitude bound; NaN cells, skipped by the range, do not
        hide it."""
        grid = np.zeros((3, 4))
        grid[1, 2] = cell
        if with_nodata:
            grid[0, 0] = grid[2, 3] = np.nan
        with pytest.raises(ConfigError, match=r"^non-nodata elevations must be at most 1e\+09 in magnitude, "):
            TerrainMap(0.0, 0.0, 1.0, -9999.0, grid)

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["max", "min"])
    def test_elevation_bound_is_closed(self, sign):
        """An elevation of magnitude MAX_MAGNITUDE is in, and the next float
        above it is out, at either end of the range."""
        grid = np.zeros((2, 3))
        grid[1, 1] = sign * MAX_MAGNITUDE
        assert TerrainMap(0.0, 0.0, 1.0, -9999.0, grid).elevations[1, 1] == grid[1, 1]
        grid[1, 1] = sign * math.nextafter(MAX_MAGNITUDE, math.inf)
        with pytest.raises(ConfigError, match="^non-nodata elevations must be at most"):
            TerrainMap(0.0, 0.0, 1.0, -9999.0, grid)

    @pytest.mark.parametrize(
        "origin_x, origin_y, cell_size, named",
        [(0.0, 0.0, 1e308, "cell_size"), (-1e308, 0.0, 1e308, "origin_x"),
         (1.7e308, 0.0, 1e307, "origin_x"), (0.0, 1.7e308, 1e307, "origin_y")],
        ids=["width", "width-from-below", "x-edge", "y-edge"],
    )
    def test_extent_past_the_float_range_names_field(self, origin_x, origin_y, cell_size, named):
        """A grid whose width, or far edge, would pass the float range has
        an origin or a cell size past the magnitude bound, the first such
        field in field order is named, and nothing warns."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=f"^{named} {BOUND}"):
                TerrainMap(origin_x, origin_y, cell_size, -9999.0, np.zeros((3, 3)))

    def test_extent_up_to_the_float_range_accepted(self):
        """A width of 1e308 from -1e308 is past the magnitude bound; a width
        of MAX_MAGNITUDE from -MAX_MAGNITUDE is in."""
        with pytest.raises(ConfigError, match=f"^origin_x {BOUND}-1e\\+308$"):
            TerrainMap(-1e308, 0.0, 1e308, -9999.0, np.zeros((2, 2)))
        t = TerrainMap(-MAX_MAGNITUDE, 0.0, MAX_MAGNITUDE, -9999.0, np.zeros((2, 2)))
        assert t.bounds == (-1e9, 0.0, 0.0, 1e9)


class TestHeightAt:
    def test_grid_node_identity(self, tmp_path):
        t = load_dem(write(tmp_path, SMALL_DEM))
        for (x, y), want in [((0, 0), 3.0), ((10, 0), 4.0), ((0, 10), 1.0), ((10, 10), 2.0)]:
            assert float(t.heights(x, y)) == want

    def test_cell_center_symmetry(self):
        t = TerrainMap(0.0, 0.0, 10.0, -9999.0, [[0.0, 10.0], [10.0, 0.0]])
        assert float(t.heights(5.0, 5.0)) == pytest.approx(5.0)

    def test_hand_evaluated_bilinear(self):
        # f(0,0)=1, f(1,0)=2, f(0,1)=3, f(1,1)=4 queried at (0.25, 0.75):
        # (1-u)(1-v)f00 + u(1-v)f10 + (1-u)v f01 + uv f11 = 2.75
        t = TerrainMap(0.0, 0.0, 1.0, -9999.0, [[1.0, 2.0], [3.0, 4.0]])
        assert float(t.heights(0.25, 0.75)) == pytest.approx(2.75, abs=1e-12)

    def test_out_of_bounds(self, tmp_path):
        t = load_dem(write(tmp_path, SMALL_DEM))
        assert math.isnan(t.heights(-0.1, 5.0))
        assert math.isnan(t.heights(5.0, 10.1))

    def test_nodata_corner(self, tmp_path):
        text = (
            "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 10\n"
            "NODATA_value -9999\n1 2\n-9999 4\n"
        )
        t = load_dem(write(tmp_path, text))
        assert math.isnan(t.heights(5.0, 5.0))

    def test_all_nodes_exact(self):
        rng = np.random.default_rng(3)
        grid = rng.uniform(-50, 150, size=(7, 9))
        t = TerrainMap(5.0, -20.0, 2.5, -9999.0, grid)
        for iy in range(7):
            for ix in range(9):
                assert float(t.heights(5.0 + 2.5 * ix, -20.0 + 2.5 * iy)) == grid[iy, ix]

    def test_continuity_within_cells(self):
        rng = np.random.default_rng(4)
        grid = rng.uniform(0, 100, size=(6, 6))
        t = TerrainMap(0.0, 0.0, 10.0, -9999.0, grid)
        max_grad = np.abs(np.diff(grid)).max() / t.cell_size + np.abs(np.diff(grid, axis=0)).max() / t.cell_size
        for _ in range(300):
            x, y = rng.uniform(0, 50, 2)
            eps = 10 ** rng.uniform(-6, -1)
            dx, dy = rng.normal(size=2)
            scale = eps / math.hypot(dx, dy)
            x2 = float(np.clip(x + dx * scale, 0, 50))
            y2 = float(np.clip(y + dy * scale, 0, 50))
            dh = abs(float(t.heights(x2, y2)) - float(t.heights(x, y)))
            dist = math.hypot(x2 - x, y2 - y)
            assert dh <= dist * 2 * max_grad + 1e-9


class TestSynthetic:
    def test_zero_hills_constant(self):
        spec = SyntheticTerrainSpec(n_cols=5, n_rows=4, cell_size=2.0, base_elevation=100.0)
        t = generate_synthetic(spec, 1)
        assert np.all(t.elevations == 100.0)

    def test_single_hill_peak_on_node(self):
        spec = SyntheticTerrainSpec(
            n_cols=15, n_rows=15, cell_size=10.0, base_elevation=10.0,
            n_hills=1, amp_min=50.0, amp_max=50.0, sigma_min=20.0, sigma_max=20.0,
        )
        t = generate_synthetic(spec, 5)
        assert t.elevations.max() == pytest.approx(60.0)

    def test_deterministic(self):
        spec = SyntheticTerrainSpec(
            n_cols=12, n_rows=9, cell_size=5.0, n_hills=4,
            amp_min=5.0, amp_max=20.0, sigma_min=10.0, sigma_max=40.0,
        )
        a = generate_synthetic(spec, 42)
        b = generate_synthetic(spec, 42)
        assert np.array_equal(a.elevations, b.elevations)

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            SyntheticTerrainSpec(n_cols=1, n_rows=5, cell_size=1.0)
        with pytest.raises(ValueError):
            SyntheticTerrainSpec(n_cols=5, n_rows=5, cell_size=0.0)
        with pytest.raises(ValueError):
            SyntheticTerrainSpec(n_cols=5, n_rows=5, cell_size=1.0, n_hills=1, sigma_min=0.0)

    def test_hill_width_floor_is_closed(self):
        """A hill of width 1 / MAX_MAGNITUDE is a spike on its summit node,
        built without a warning; a narrower one is rejected."""
        spec = dict(n_cols=5, n_rows=5, cell_size=1.0, n_hills=1, amp_min=3.0, amp_max=3.0, sigma_max=1e-9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = generate_synthetic(SyntheticTerrainSpec(**spec, sigma_min=1 / MAX_MAGNITUDE), 0)
        assert sorted(t.elevations.ravel())[-2:] == [0.0, 3.0]
        with pytest.raises(ConfigError, match="^hill widths must satisfy 1e-09 <= sigma_min <= sigma_max$"):
            SyntheticTerrainSpec(**spec, sigma_min=math.nextafter(1e-9, 0.0))

    def test_integer_beyond_float_range_names_field(self):
        with pytest.raises(ValueError, match="n_cols"):
            SyntheticTerrainSpec(n_cols=10**400, n_rows=11, cell_size=10.0)


class TestSaveRoundTrip:
    @pytest.mark.parametrize(
        "nodata, grid",
        [(0.0, np.zeros((2, 2))), (0.0, [[5.0, 5.0], [0.0, 5.0]]), (-0.0, [[5.0, 5.0], [0.0, 5.0]])],
        ids=["all-sentinel", "one-sentinel-cell", "signed-zero"],
    )
    def test_grid_holding_its_sentinel_is_not_written(self, tmp_path, nodata, grid):
        """A cell equal to nodata_value would reload as nodata (load_dem
        masks by ==, so 0.0 matches -0.0): save_dem names the sentinel and
        writes no file."""
        t = TerrainMap(0.0, 0.0, 10.0, nodata, grid)
        with pytest.raises(ConfigError, match=f"^nodata_value {nodata!r} is also a cell value$"):
            save_dem(t, tmp_path / "out.asc")
        assert not (tmp_path / "out.asc").exists()

    def test_values_round_trip_exactly(self, tmp_path):
        rng = np.random.default_rng(9)
        grid = rng.uniform(-10, 500, size=(5, 8))
        grid[2, 3] = np.nan
        t = TerrainMap(1.25, -3.5, 0.75, -9999.0, grid)
        out = tmp_path / "rt.asc"
        save_dem(t, out)
        t2 = load_dem(out)
        assert (t2.n_cols, t2.n_rows) == (8, 5)
        assert (t2.origin_x, t2.origin_y, t2.cell_size) == (1.25, -3.5, 0.75)
        both = np.isfinite(t.elevations)
        assert np.array_equal(np.isnan(t2.elevations), ~both)
        assert np.array_equal(t2.elevations[both], t.elevations[both])

    @pytest.mark.parametrize("nodata", [-9999.0, 0.1, -0.0, 3.0000000000000004e-12])
    def test_bytes_equal_the_per_cell_writer(self, tmp_path, nodata):
        """NaN cells, -0.0, 17-digit values, tiny magnitudes and the
        magnitude bound are written byte for byte as the per-cell reference
        writes them.  Under the sentinel -0.0 the zero cells are 1.0, since
        a grid may not hold its own sentinel."""
        rng = np.random.default_rng(4)
        grid = rng.uniform(-10, 500, size=(6, 7))
        grid[0, :3] = -0.0, 0.0, 0.1 + 0.2  # 0.30000000000000004
        if nodata == 0.0:
            grid[0, :2] = 1.0
        grid[1, 1] = 1.2345678901234567e-300
        grid[2, 2] = -MAX_MAGNITUDE
        grid[4, 4] = math.nextafter(MAX_MAGNITUDE, 0.0)
        grid[3, 4] = grid[5, 0] = grid[5, 6] = np.nan
        t = TerrainMap(1.25, -3.5, 0.1 + 0.7, nodata, grid)
        save_dem(t, tmp_path / "fast.asc")
        save_dem_reference(t, tmp_path / "ref.asc")
        assert (tmp_path / "fast.asc").read_bytes() == (tmp_path / "ref.asc").read_bytes()
