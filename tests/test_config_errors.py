"""Every bad input raises ``ConfigError`` where it is read, naming the field
or the file, so a caller meets one exception type whichever layer read it."""

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
import yaml

from uavpath import (
    ConfigError, CostWeights, FlightConstraints, SwarmConfig, SyntheticTerrainSpec, TerrainMap, Threat,
    build_benchmark_suite, load_scenario, run,
)
from uavpath.cli import MAX_RUNS_PER_CELL, BenchmarkSpec
from uavpath.cost import evaluate_paths, total_cost
from uavpath.optimizers import MAX_EVALUATIONS, MAX_SWARM_SIZE, budgeted_config
from uavpath.terrain import MAX_HILL_NODES, MAX_MAGNITUDE, load_dem

BOUND = r"must be finite and at most 1e\+09 in magnitude, got "
ENDPOINT = r"must be 3 numbers \(x, y, z\), each at most 1e\+09 in magnitude, got "


def spec(flat_scenario, **kwargs):
    return BenchmarkSpec(scenarios=(flat_scenario,), algorithms=("pso",), baseline="pso", **kwargs)


class TestRaisedWhereRead:
    def test_swarm_config(self):
        with pytest.raises(ConfigError, match="swarm_size"):
            SwarmConfig(swarm_size=1)

    def test_unknown_algorithm(self, flat_scenario):
        with pytest.raises(ConfigError, match="unknown algorithm 'nope'"):
            run("nope", flat_scenario, SwarmConfig(swarm_size=4, max_iterations=1))

    def test_de_floor_names_swarm_size(self, flat_scenario):
        with pytest.raises(ConfigError, match="swarm_size of at least 4, got 3"):
            run("de", flat_scenario, SwarmConfig(swarm_size=3, max_iterations=1))

    def test_benchmark_spec(self, flat_scenario):
        with pytest.raises(ConfigError, match="jobs must be >= 1"):
            spec(flat_scenario, jobs=0)

    def test_benchmark_spec_base_config_seed(self, flat_scenario):
        """run_benchmark seeds each run by mix_seed(base_seed, ...), so a
        seed in base_config would be dropped without a word."""
        with pytest.raises(ConfigError, match=r"^base_config\.seed must be 0 \(set base_seed\), got 12345$"):
            spec(flat_scenario, base_config=SwarmConfig(6, 2, seed=12345))

    def test_suite_seed(self):
        with pytest.raises(ConfigError, match="suite seed"):
            build_benchmark_suite(-1)

    def test_scenario_file_is_a_directory(self, tmp_path):
        with pytest.raises(ConfigError, match=re.escape(f"cannot read {tmp_path}")) as info:
            load_scenario(tmp_path)
        assert isinstance(info.value.__cause__, OSError)

    def test_dem_grid_error_names_dem_path(self, tmp_path):
        # The file parses, but one node is too few to interpolate between.
        (tmp_path / "tiny.asc").write_text("ncols 1\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 10\n0\n")
        cfg = {"terrain": {"dem_path": "tiny.asc"},
               "start": {"x": 0.0, "y": 0.0, "z": 70.0}, "goal": {"x": 5.0, "y": 5.0, "z": 70.0}}
        (tmp_path / "tiny.yaml").write_text(yaml.safe_dump(cfg))
        with pytest.raises(ConfigError, match=r"terrain\.dem_path .*tiny\.asc: .*2x2") as info:
            load_scenario(tmp_path / "tiny.yaml")
        assert type(info.value.__cause__) is ConfigError


class TestIntegerFields:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("swarm_size", 10.0),
            ("swarm_size", True),
            ("max_iterations", 5.0),
            ("max_iterations", "5"),
            ("seed", 1.5),
            ("seed", True),
            ("seed", None),
        ],
    )
    def test_swarm_config_rejects_non_integer(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            SwarmConfig(**{field: value})

    def test_swarm_config_accepts_numpy_integers(self):
        config = SwarmConfig(swarm_size=np.int64(10), max_iterations=np.int32(2), seed=np.uint64(3))
        assert (config.swarm_size, config.max_iterations, config.seed) == (10, 2, 3)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("runs_per_cell", 2.0),
            ("runs_per_cell", True),
            ("jobs", 1.5),
            ("jobs", True),
            ("base_seed", 0.5),
            ("base_seed", False),
        ],
    )
    def test_benchmark_spec_rejects_non_integer(self, flat_scenario, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            spec(flat_scenario, **{field: value})

    def test_benchmark_spec_accepts_numpy_integers(self, flat_scenario):
        assert spec(flat_scenario, runs_per_cell=np.int64(2), jobs=np.int8(1), base_seed=np.int64(-3)).jobs == 1

    @pytest.mark.parametrize("value", [12.5, 12.0, "12", True, None])
    def test_scenario_rejects_non_integer_waypoints(self, flat_scenario, value):
        with pytest.raises(ConfigError, match="n_waypoints must be an integer"):
            replace(flat_scenario, n_waypoints=value)

    def test_scenario_waypoint_floor(self, flat_scenario):
        with pytest.raises(ConfigError, match="^n_waypoints must be >= 3, got 2$"):
            replace(flat_scenario, n_waypoints=2)
        assert replace(flat_scenario, n_waypoints=np.int64(3)).n_interior == 1


class TestRunSize:
    """A run's size is bounded where it is read, each bound closed: a value
    at it is accepted and the next one names the field.  No run starts."""

    def test_swarm_size_bound_is_closed(self):
        assert SwarmConfig(swarm_size=MAX_SWARM_SIZE, max_iterations=1).swarm_size == MAX_SWARM_SIZE
        with pytest.raises(ConfigError, match=f"^swarm_size must be <= {MAX_SWARM_SIZE}, got {MAX_SWARM_SIZE + 1}$"):
            SwarmConfig(swarm_size=MAX_SWARM_SIZE + 1, max_iterations=1)

    @pytest.mark.parametrize("swarm", [2, 500, 3001, MAX_SWARM_SIZE])
    def test_evaluation_bound_is_closed(self, swarm):
        iters = MAX_EVALUATIONS // swarm
        assert SwarmConfig(swarm_size=swarm, max_iterations=iters).max_iterations == iters
        with pytest.raises(ConfigError, match=rf"^swarm_size \* max_iterations must be <= {MAX_EVALUATIONS} "
                                              rf"paths per run, got {swarm} \* {iters + 1}$"):
            SwarmConfig(swarm_size=swarm, max_iterations=iters + 1)

    def test_de_budget_stays_inside_the_bound(self):
        """DE trades swarm for iterations at an equal budget, so a config at
        the bound gives a DE config inside it."""
        for swarm in [*range(2, 60), 3001, MAX_SWARM_SIZE]:
            de = budgeted_config("de", SwarmConfig(swarm_size=swarm, max_iterations=MAX_EVALUATIONS // swarm))
            assert de.swarm_size * de.max_iterations <= MAX_EVALUATIONS

    def test_runs_per_cell_bound_is_closed(self, flat_scenario):
        assert spec(flat_scenario, runs_per_cell=MAX_RUNS_PER_CELL).runs_per_cell == MAX_RUNS_PER_CELL
        with pytest.raises(ConfigError,
                           match=f"^runs_per_cell must be <= {MAX_RUNS_PER_CELL}, got {MAX_RUNS_PER_CELL + 1}$"):
            spec(flat_scenario, runs_per_cell=MAX_RUNS_PER_CELL + 1)

    def test_hill_work_bound_is_closed(self):
        """64 x 64 nodes take exactly MAX_HILL_NODES / 4096 hills; the spec
        alone is built, not the terrain."""
        n_hills = MAX_HILL_NODES // (64 * 64)
        assert n_hills * 64 * 64 == MAX_HILL_NODES
        assert SyntheticTerrainSpec(n_cols=64, n_rows=64, cell_size=1.0, n_hills=n_hills).n_hills == n_hills
        with pytest.raises(ConfigError, match=f"^n_hills \\* n_cols \\* n_rows must be <= {MAX_HILL_NODES} "
                                              f"hill-nodes, got {n_hills + 1} \\* 64 \\* 64$"):
            SyntheticTerrainSpec(n_cols=64, n_rows=64, cell_size=1.0, n_hills=n_hills + 1)


class TestOutOfRange:
    """An integer beyond the float range is past the magnitude bound: a
    ConfigError naming the field, in the words the YAML reader uses, that
    does not print the integer."""

    @pytest.mark.parametrize(
        "record, field",
        [
            (lambda v: Threat(0.0, 0.0, v), "radius"),
            (lambda v: Threat(v, 0.0, 1.0), "center_x"),
            (lambda v: FlightConstraints(h_min=v), "h_min"),
            (lambda v: FlightConstraints(danger_distance=-v), "danger_distance"),
            (lambda v: CostWeights(b1=v), "b1"),
        ],
        ids=["Threat.radius", "Threat.center_x", "FlightConstraints.h_min",
             "FlightConstraints.danger_distance", "CostWeights.b1"],
    )
    def test_huge_integer(self, record, field):
        with pytest.raises(ConfigError, match=f"^{field} {BOUND}a larger integer$"):
            record(10**400)


def make(cls, **kwargs):
    """``cls`` built from valid values, with ``kwargs`` overriding them."""
    valid = {
        Threat: {"center_x": 0.0, "center_y": 0.0, "radius": 5.0},
        SyntheticTerrainSpec: {"n_cols": 5, "n_rows": 5, "cell_size": 1.0},
        TerrainMap: {"origin_x": 0.0, "origin_y": 0.0, "cell_size": 10.0, "nodata_value": -9999.0,
                     "elevations": np.zeros((3, 3))},
    }.get(cls, {})
    return cls(**{**valid, **kwargs})


class TestFieldRule:
    """Every config record checks its fields by their annotations, naming
    the field, and raises ``ConfigError``."""

    RECORDS = [
        (Threat, "radius"),
        (Threat, "center_y"),
        (FlightConstraints, "h_min"),
        (CostWeights, "b1"),
        (SyntheticTerrainSpec, "cell_size"),
        (SyntheticTerrainSpec, "amp_max"),
        (TerrainMap, "cell_size"),
        (TerrainMap, "origin_x"),
    ]

    @pytest.mark.parametrize(
        "value, says",
        [(True, "a number, got True"), ("5", "a number, got '5'"), (None, "a number, got None"),
         (math.nan, "finite and at most 1e+09 in magnitude, got nan"),
         (math.inf, "finite and at most 1e+09 in magnitude, got inf")],
        ids=["True", "'5'", "None", "nan", "inf"],
    )
    @pytest.mark.parametrize("cls, field", RECORDS, ids=lambda x: getattr(x, "__name__", x))
    def test_float_field_must_be_a_number(self, cls, field, value, says):
        with pytest.raises(ConfigError, match=f"^{field} must be {re.escape(says)}$") as info:
            make(cls, **{field: value})
        assert type(info.value) is ConfigError

    @pytest.mark.parametrize("value", [7, np.int64(7), np.float32(7.0)], ids=["int", "int64", "float32"])
    @pytest.mark.parametrize("cls, field", RECORDS, ids=lambda x: getattr(x, "__name__", x))
    def test_float_field_held_as_float(self, cls, field, value):
        held = getattr(make(cls, **{field: value}), field)
        assert type(held) is float and held == 7.0

    @pytest.mark.parametrize(
        "cls, field", [(cls, "h_max" if field == "h_min" else field) for cls, field in RECORDS],
        ids=lambda x: getattr(x, "__name__", x),
    )
    def test_magnitude_bound_is_closed(self, cls, field):
        """MAX_MAGNITUDE itself is in, as a float and as an int, and the
        next float and int above it are out."""
        for value in (MAX_MAGNITUDE, 10**9):
            assert getattr(make(cls, **{field: value}), field) == 1e9
        for value in (math.nextafter(MAX_MAGNITUDE, math.inf), 10**9 + 1):
            with pytest.raises(ConfigError, match=f"^{field} {BOUND}"):
                make(cls, **{field: value})

    @pytest.mark.parametrize("value", [2.5, 5.0, True])
    @pytest.mark.parametrize("field", ["n_cols", "n_hills"])
    def test_int_field_must_be_an_integer(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
            make(SyntheticTerrainSpec, **{field: value})

    def test_numpy_numbers_and_integers_in_float_fields_accepted(self):
        assert make(Threat, center_x=np.int64(3), radius=np.float32(2.5)).radius == 2.5
        assert make(SyntheticTerrainSpec, n_cols=np.int64(6), cell_size=2).n_cols == 6
        assert FlightConstraints(h_min=np.float64(5.0), h_max=100).h_max == 100


class TestScenarioInputs:
    @pytest.mark.parametrize(
        "field, value",
        [("start", [10**400, 0, 0]), ("start", [1, 2]), ("start", None), ("goal", "abc"),
         ("start", ["10.0", "10.0", "70.0"]), ("goal", [True, 10.0, 70.0])],
        ids=["huge", "two-numbers", "None", "string", "strings", "bool"],
    )
    def test_endpoint_must_be_three_numbers(self, flat_scenario, field, value):
        with pytest.raises(ConfigError, match=rf"^{field} {ENDPOINT}"):
            replace(flat_scenario, **{field: value})

    def test_nan_endpoint_is_off_the_map(self, flat_scenario):
        """NaN fails the magnitude bound, before the on-map test."""
        with pytest.raises(ConfigError, match=rf"^start {ENDPOINT}\[nan, 10.0, 70.0\]$"):
            replace(flat_scenario, start=[float("nan"), 10.0, 70.0])

    def test_endpoint_bound_is_closed(self, flat_scenario):
        """A start at x = MAX_MAGNITUDE, on the far edge of a map that ends
        there, is in; the next float above it is out, before the on-map
        test."""
        terrain = TerrainMap(MAX_MAGNITUDE - 100.0, 0.0, 10.0, -9999.0, np.zeros((11, 11)))
        sc = replace(flat_scenario, terrain=terrain, start=[MAX_MAGNITUDE, 10.0, 70.0],
                     goal=[MAX_MAGNITUDE - 90.0, 90.0, 70.0])
        assert sc.start[0] == terrain.x_max == 1e9
        with pytest.raises(ConfigError, match=f"^start {ENDPOINT}"):
            replace(sc, start=[math.nextafter(MAX_MAGNITUDE, math.inf), 10.0, 70.0])

    @pytest.mark.parametrize("start_x", [0.0, math.inf], ids=["far-corner", "inf"])
    def test_endpoint_distance_past_the_float_range(self, flat_scenario, start_x):
        """A map 2e200 m wide, from whose far corner the start-goal
        distance would square past the float range, and an infinite start:
        the magnitude bound rejects the cell size, and the goal at that
        corner or the infinite start, before any distance is taken."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=f"^cell_size {BOUND}1e\\+200$"):
                TerrainMap(0.0, 0.0, 1e200, -9999.0, np.zeros((3, 3)))
            with pytest.raises(ConfigError, match=f"^{'start' if start_x else 'goal'} {ENDPOINT}"):
                replace(flat_scenario, start=[start_x, 0.0, 70.0], goal=[2e200, 2e200, 70.0])

    @pytest.mark.parametrize("label, z", [("start", 20.0), ("goal", 120.0)], ids=["h_min", "h_max"])
    def test_endpoint_on_corridor_edge_accepted(self, flat_scenario, label, z):
        """Over flat ground at 0 m the corridor is [20, 120] m, closed."""
        x, y, _ = getattr(flat_scenario, label)
        assert getattr(replace(flat_scenario, **{label: [x, y, z]}), label)[2] == z

    @pytest.mark.parametrize(
        "start, threat",
        [((10.0, 10.0), Threat(13.0, 14.0, 4.0)),
         ((24.30642671306078, 439.2037173939365),
          Threat(368.623948169398, 17.019219068112633, 543.7883132084082))],
        ids=["3-4-5", "hypot-one-ulp-above"],
    )
    def test_endpoint_on_collision_circle_rejected(self, flat_scenario, start, threat):
        """The start lies exactly on the threat's collision circle, of
        radius r + drone_diameter (drone_diameter 1), on a flat 600 m map.
        3-4-5: the centre is 3 m east and 4 m north of the start and r = 4,
        so the distance and the radius are both exactly 5.
        hypot-one-ulp-above: F2's sqrt(dx*dx + dy*dy) is 544.7883132084082
        and 1 + r equals it, but math.hypot reads 544.7883132084083, so a
        check by hypot would accept a start from which every path scores
        +inf."""
        terrain = TerrainMap(0.0, 0.0, 10.0, -9999.0, np.zeros((61, 61)))
        with pytest.raises(ConfigError, match="^start inside collision zone of threat 0$"):
            replace(flat_scenario, terrain=terrain, start=[*start, 70.0], goal=[10.0, 590.0, 70.0],
                    threats=(threat,))

    @pytest.mark.parametrize(
        "x, says",
        [(100.5, "^threat 0 center outside terrain bounds$"), (1e300, f"^center_x {BOUND}1e\\+300$")],
        ids=["past-the-edge", "huge"],
    )
    def test_threat_center_off_the_map(self, flat_scenario, x, says):
        """A centre past the edge is checked after the endpoints; one 1e300 m
        away fails the magnitude bound when the threat is built."""
        with pytest.raises(ConfigError, match=says):
            replace(flat_scenario, threats=(Threat(x, 50.0, 1.0),))

    @pytest.mark.parametrize(
        "threats, where",
        [([(1.0, 2.0, 3.0)], "threats[0]"), ([Threat(50.0, 50.0, 5.0), None], "threats[1]"), (None, "threats")],
        ids=["tuple", "None-entry", "None"],
    )
    def test_threats_must_be_threats(self, flat_scenario, threats, where):
        with pytest.raises(ConfigError, match=f"^{re.escape(where)} must be "):
            replace(flat_scenario, threats=threats)

    @pytest.mark.parametrize("label, node", [("start", (1, 1)), ("goal", (9, 9))])
    def test_endpoint_over_nodata_names_it(self, flat_scenario, label, node):
        """An endpoint is rejected when a corner of its cell is nodata: the
        start sits on grid node (10, 10) m, the goal on (90, 90) m."""
        elev = np.zeros((11, 11))
        elev[node] = np.nan
        terrain = TerrainMap(0.0, 0.0, 10.0, -9999.0, elev)
        with pytest.raises(ConfigError, match=f"^{label} over unusable terrain: .* touches a nodata cell$"):
            replace(flat_scenario, terrain=terrain)


class TestRarelyMetInputs:
    """One bad input per raise that no other test reaches; each message names
    the field or the file."""

    @pytest.mark.parametrize("empty", ["scenarios", "algorithms"])
    def test_benchmark_spec_needs_scenarios_and_algorithms(self, flat_scenario, empty):
        with pytest.raises(ConfigError, match="^need at least one scenario and one algorithm$"):
            replace(spec(flat_scenario), **{empty: ()})

    def test_evaluate_paths_wants_three_coordinates(self, flat_scenario):
        with pytest.raises(ValueError, match=re.escape("waypoints of shape (n, 3), got (2, 3, 2)")):
            evaluate_paths(np.zeros((2, 3, 2)), flat_scenario)

    def test_total_cost_needs_three_waypoints(self, flat_scenario):
        with pytest.raises(ValueError, match="at least 3 waypoints, got 2"):
            total_cost(np.array([flat_scenario.start, flat_scenario.goal]), flat_scenario)

    def test_weights_not_all_zero(self):
        with pytest.raises(ConfigError, match=r"^at least one of b1\.\.b4 must be > 0$"):
            CostWeights(b1=0.0, b2=0.0, b3=0.0, b4=0.0)

    @pytest.mark.parametrize(
        "terrain", [{"dem_path": "map.asc", "synthetic": {}}, {}], ids=["both", "neither"]
    )
    def test_terrain_needs_one_source(self, tmp_path, terrain):
        cfg = {"terrain": terrain, "start": {"x": 10.0, "y": 10.0, "z": 70.0},
               "goal": {"x": 90.0, "y": 90.0, "z": 70.0}}
        (tmp_path / "s.yaml").write_text(yaml.safe_dump(cfg))
        with pytest.raises(ConfigError, match="^terrain needs exactly one of dem_path or synthetic$"):
            load_scenario(tmp_path / "s.yaml")

    def test_invalid_yaml_names_the_file(self, tmp_path):
        (tmp_path / "s.yaml").write_text("start: [1, 2\n")
        with pytest.raises(ConfigError, match=re.escape(f"invalid YAML in {tmp_path / 's.yaml'}: ")):
            load_scenario(tmp_path / "s.yaml")

    def test_missing_start(self, tmp_path):
        cfg = {"terrain": {"synthetic": {}}, "goal": {"x": 90.0, "y": 90.0, "z": 70.0}}
        (tmp_path / "s.yaml").write_text(yaml.safe_dump(cfg))
        with pytest.raises(ConfigError, match="^missing required section 'start'$"):
            load_scenario(tmp_path / "s.yaml")

    @pytest.mark.parametrize(
        "header, says",
        [("ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 0\n", "^cell_size must be > 0$"),
         ("ncols\n", "^line 1: expected one value for 'ncols'$"),
         ("ncols abc\n", "^line 1: non-numeric value for 'ncols'$")],
        ids=["cellsize-0", "ncols-no-value", "ncols-abc"],
    )
    def test_dem_header(self, tmp_path, header, says):
        (tmp_path / "map.asc").write_text(header + "1 2\n3 4\n")
        with pytest.raises(ConfigError, match=says):
            load_dem(tmp_path / "map.asc")
