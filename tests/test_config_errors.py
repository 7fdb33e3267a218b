"""Every bad input raises ``ConfigError`` where it is read, naming the field
or the file, so a caller meets one exception type whichever layer read it."""

import re

import numpy as np
import pytest
import yaml

from uavpath import ConfigError, SwarmConfig, build_benchmark_suite, load_scenario, run
from uavpath.cli import BenchmarkSpec


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
        assert type(info.value.__cause__) is ValueError


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
