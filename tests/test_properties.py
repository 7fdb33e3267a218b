"""Property tests of the cost model's invariants and of the grid parser,
drawn with hypothesis.

* F1 (length) and F4 (smoothness) depend only on the differences between
  waypoints, so translating a whole path leaves them unchanged up to the
  rounding of the translated coordinates.
* F2 (threats) never decreases as a threat's radius grows: the collision
  and danger radii both grow while the distance to the path stays put, so
  an infinite value stays infinite.
* An endpoint is rejected for collision exactly when F2 scores the
  zero-length segment at it +inf, with the collision radius at F2's own
  distance or one ulp to either side of it.
* ``load_dem`` returns exactly the grid a per-token ``float()`` gives,
  whatever the separators, line endings and blank lines, and a bad cell
  names its line in the file.

Examples are derandomized so a run is reproducible, and no example
database is written.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from uavpath import (
    ConfigError, CostWeights, FlightConstraints, Scenario, TerrainMap, Threat, load_dem,
)

from uavpath.terrain import MAX_MAGNITUDE

from conftest import f1_of, f2_of, f4_of

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, database=None, derandomize=True)

coord = st.floats(-1000.0, 1000.0, allow_nan=False, allow_infinity=False)


@st.composite
def paths(draw, min_waypoints=3, max_waypoints=8):
    """A path whose horizontal steps are at least 1 m long, so no turn or
    climb angle sits at the degenerate-segment threshold."""
    n = draw(st.integers(min_waypoints, max_waypoints))
    start = [draw(coord), draw(coord), draw(st.floats(0.0, 300.0))]
    steps = []
    for _ in range(n - 1):
        length = draw(st.floats(1.0, 200.0))
        heading = draw(st.floats(-math.pi, math.pi))
        dz = draw(st.floats(-50.0, 50.0))
        steps.append([length * math.cos(heading), length * math.sin(heading), dz])
    return np.vstack([start, start + np.cumsum(steps, axis=0)])


def rel_close(a: float, b: float) -> bool:
    """|a - b| within 1e-9 of the larger magnitude, and within 1e-9
    absolute below 1: a straight path has a zero turn angle, and a shift of
    up to 1000 m moves the direction of a 1 m step by ~1e-13 rad."""
    return abs(a - b) <= 1e-9 * max(abs(a), abs(b), 1.0)


@PROPERTY_SETTINGS
@given(path=paths(), shift=st.tuples(coord, coord, coord))
def test_length_and_smoothness_translation_invariant(path, shift):
    stack = np.stack([path, path + np.asarray(shift)])  # the path and its shift
    length = f1_of(stack)
    smooth = f4_of(stack, CostWeights())
    assert rel_close(length[0], length[1])
    assert rel_close(smooth[0], smooth[1])


threat = st.builds(Threat, coord, coord, st.floats(0.5, 300.0))


@PROPERTY_SETTINGS
@given(
    path=paths(min_waypoints=2),
    threats=st.lists(threat, min_size=1, max_size=3),
    data=st.data(),
)
def test_threat_cost_monotone_in_radius(path, threats, data):
    i = data.draw(st.integers(0, len(threats) - 1), label="grown threat")
    growth = data.draw(st.floats(0.0, 300.0), label="radius growth")
    grown = list(threats)
    grown[i] = Threat(threats[i].center_x, threats[i].center_y, threats[i].radius + growth)
    constraints = FlightConstraints()
    before = f2_of(path[None], threats, constraints)[0]
    after = f2_of(path[None], grown, constraints)[0]
    assert after >= before
    if math.isinf(before):
        assert math.isinf(after)


on_square = st.floats(0.0, 250.0)


@PROPERTY_SETTINGS
@given(start=st.tuples(on_square, on_square), centre=st.tuples(on_square, on_square),
       side=st.sampled_from([-math.inf, None, math.inf]))
def test_endpoint_collision_check_agrees_with_threat_cost(start, centre, side):
    """F2's distance from the endpoint to the centre is the collision radius,
    or one ulp below or above it.  Start and centre lie in [0, 250]^2 of a
    flat 600 m map, so the goal at (600, 600) is more than 494 m from the
    centre, beyond any radius drawn."""
    dx, dy = centre[0] - start[0], centre[1] - start[1]
    collide = math.sqrt(dx * dx + dy * dy)
    if side is not None:
        collide = math.nextafter(collide, side)
    radius = collide - 1.0  # drone_diameter 1
    assume(radius > 0 and 1.0 + radius == collide)
    threats = [Threat(*centre, radius)]
    endpoint = np.array([*start, 70.0])
    f2 = f2_of(np.stack([endpoint, endpoint])[None], threats, FlightConstraints())[0]
    terrain = TerrainMap(0.0, 0.0, 10.0, -9999.0, np.zeros((61, 61)))
    try:
        Scenario(terrain, tuple(threats), endpoint, [600.0, 600.0, 70.0], FlightConstraints(),
                 CostWeights(), 5)
        rejected = False
    except ConfigError as exc:
        assert str(exc) == "start inside collision zone of threat 0"
        rejected = True
    assert rejected == math.isinf(f2)


finite = st.floats(allow_nan=False, allow_infinity=False)
in_bound = st.floats(-MAX_MAGNITUDE, MAX_MAGNITUDE)
separator = st.sampled_from([" ", "  ", "\t", " \t ", "\t\t"])
blank = st.sampled_from(["", " ", "\t", "  \t"])


@st.composite
def dem_files(draw):
    """An ESRI grid as file lines, each a list of text pieces; a data row
    holds its tokens at the odd indices, between its separators.  Also
    returns the indices of the data rows, the line ending and the nodata
    sentinel.  A grid's cells span the float range or the magnitude bound."""
    n_cols, n_rows = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    cells = draw(st.sampled_from([finite, in_bound]))
    fmt = draw(st.sampled_from([repr, "%.17g".__mod__]))
    sentinel = draw(st.sampled_from([-9999.0, 0.0, 1e300, -3.4028234663852886e38]))
    lines = [[""] for _ in range(draw(st.integers(0, 2)))]
    lines += [[f"ncols {n_cols}"], [f"nrows {n_rows}"], ["xllcorner 0.5"], ["yllcorner -2"],
              ["cellsize 1.25"], [f"NODATA_value {fmt(sentinel)}"]]
    rows = []
    for _ in range(n_rows):
        lines += [[draw(blank)] for _ in range(draw(st.integers(0, 2)))]
        pieces = [draw(blank)]
        for _ in range(n_cols):
            value = sentinel if draw(st.integers(0, 3)) == 0 else draw(cells)
            pieces += [fmt(value), draw(separator)]
        pieces[-1] = draw(blank)
        rows.append(len(lines))
        lines.append(pieces)
    return lines, rows, draw(st.sampled_from(["\n", "\r\n"])), sentinel


def write_lines(path, lines, eol):
    path.write_bytes((eol.join("".join(pieces) for pieces in lines) + eol).encode())


@PROPERTY_SETTINGS
@given(dem=dem_files(), data=st.data())
def test_load_dem_matches_per_token_float(tmp_path_factory, dem, data):
    lines, rows, eol, sentinel = dem
    want = np.array([[float(t) for t in lines[i][1::2]] for i in rows])[::-1]
    want = np.where(want == sentinel, np.nan, want)
    assume(not np.isnan(want).all())  # an all-nodata grid has no elevation range
    path = tmp_path_factory.getbasetemp() / "property.asc"
    write_lines(path, lines, eol)
    if np.nanmax(np.abs(want)) <= MAX_MAGNITUDE:
        got = load_dem(path).elevations
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    else:  # a cell past the magnitude bound
        with pytest.raises(ConfigError, match="^non-nodata elevations must be at most 1e\\+09 in magnitude, "):
            load_dem(path)
    # One cell outside the grammar: the error names its line in the file.
    i = data.draw(st.sampled_from(rows), label="bad row")
    k = data.draw(st.integers(0, want.shape[1] - 1), label="bad column")
    bad = [list(pieces) for pieces in lines]
    bad[i][2 * k + 1] = data.draw(st.sampled_from(["#", "1_0", "x", "1.5.2"]), label="bad token")
    write_lines(path, bad, eol)
    with pytest.raises(ConfigError, match=f"^line {i + 1}: non-numeric cell value$"):
        load_dem(path)
