import argparse
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
import yaml

from uavpath import cli, scenario
from uavpath import ConfigError, CostWeights, FlightConstraints, Threat, load_scenario, save_scenario
from uavpath.cost import total_cost
from uavpath.suite import build_benchmark_suite, is_complicated

from conftest import f2_of

MINIMAL = {
    "terrain": {"synthetic": {"n_cols": 11, "n_rows": 11, "cell_size": 10.0}},
    "start": {"x": 10.0, "y": 10.0, "z": 70.0},
    "goal": {"x": 90.0, "y": 90.0, "z": 70.0},
}


def write_config(tmp_path, cfg, name="sc.yaml"):
    p = tmp_path / name
    p.write_text(yaml.safe_dump(cfg))
    return p


class TestLoadScenario:
    def test_minimal_flat(self, tmp_path):
        sc = load_scenario(write_config(tmp_path, MINIMAL))
        assert sc.n_waypoints == 12
        assert sc.threats == ()
        assert np.allclose(sc.start, [10, 10, 70])

    def test_inverted_corridor(self, tmp_path):
        cfg = dict(MINIMAL, constraints={"h_min": 200.0, "h_max": 100.0})
        with pytest.raises(ConfigError, match="h_min < h_max"):
            load_scenario(write_config(tmp_path, cfg))

    def test_start_inside_threat(self, tmp_path):
        cfg = dict(MINIMAL, threats=[{"x": 12.0, "y": 10.0, "r": 20.0}])
        with pytest.raises(ConfigError, match="start inside collision zone"):
            load_scenario(write_config(tmp_path, cfg))

    def test_unknown_key_rejected(self, tmp_path):
        cfg = dict(MINIMAL, wibble=3)
        with pytest.raises(ConfigError, match="wibble"):
            load_scenario(write_config(tmp_path, cfg))

    def test_unknown_nested_key_rejected(self, tmp_path):
        cfg = dict(MINIMAL, weights={"b1": 1.0, "b9": 2.0})
        with pytest.raises(ConfigError, match="b9"):
            load_scenario(write_config(tmp_path, cfg))

    def test_dangling_dem_path(self, tmp_path):
        cfg = dict(MINIMAL, terrain={"dem_path": "missing.asc"})
        with pytest.raises(ConfigError, match=r"terrain\.dem_path .*missing\.asc: .*No such file"):
            load_scenario(write_config(tmp_path, cfg))

    def test_goal_outside_corridor(self, tmp_path):
        cfg = dict(MINIMAL, goal={"x": 90.0, "y": 90.0, "z": 500.0})
        with pytest.raises(ConfigError, match="goal altitude"):
            load_scenario(write_config(tmp_path, cfg))

    def test_endpoints_outside_map(self, tmp_path):
        cfg = dict(MINIMAL, goal={"x": 900.0, "y": 90.0, "z": 70.0})
        with pytest.raises(ConfigError, match="goal outside terrain bounds"):
            load_scenario(write_config(tmp_path, cfg))

    def test_shared_dem_parsed_once(self, tmp_path, hilly_scenario, monkeypatch):
        """Scenario files naming one DEM share its grid when loaded in one
        call, as ``uavpath bench --scenarios`` loads them; separate calls
        parse it each time."""
        save_scenario(hilly_scenario, tmp_path / "a.yaml")  # writes a.asc
        sub = tmp_path / "sub"
        sub.mkdir()
        cfg = yaml.safe_load((tmp_path / "a.yaml").read_text())
        cfg["terrain"]["dem_path"] = "../a.asc"  # the same file by another path
        write_config(sub, cfg, "b.yaml")
        parsed = []
        load_dem = scenario.load_dem
        monkeypatch.setattr(scenario, "load_dem", lambda path: parsed.append(path) or load_dem(path))
        files = f"{tmp_path / 'a.yaml'},{sub / 'b.yaml'}"
        a, b = cli._resolve_scenarios(argparse.Namespace(scenarios=files))
        assert len(parsed) == 1
        assert a.terrain is b.terrain and (a.name, b.name) == ("a", "b")
        c = load_scenario(tmp_path / "a.yaml")
        assert len(parsed) == 2 and c.terrain is not a.terrain

    def test_one_loader(self, tmp_path, hilly_scenario):
        """``load_scenario(p)`` equals ``load_scenarios([p])[0]`` in every
        field, the terrain's grid and the derived tables included."""
        path = tmp_path / "h.yaml"
        save_scenario(hilly_scenario, path)
        one, (first,) = load_scenario(path), scenario.load_scenarios([path])
        assert one.name == "h" and len(one.threats) == 2
        assert pickle.dumps(one) == pickle.dumps(first)

    def test_save_load_round_trip(self, tmp_path, hilly_scenario):
        path = tmp_path / "rt.yaml"
        save_scenario(hilly_scenario, path)
        sc = load_scenario(path)
        assert np.array_equal(sc.start, hilly_scenario.start)
        assert np.array_equal(sc.goal, hilly_scenario.goal)
        assert sc.threats == hilly_scenario.threats
        assert sc.n_waypoints == hilly_scenario.n_waypoints
        assert np.array_equal(sc.terrain.elevations, hilly_scenario.terrain.elevations)

    def test_round_trip_keeps_constraints_and_weights(self, tmp_path, hilly_scenario):
        original = replace(
            hilly_scenario,
            constraints=FlightConstraints(
                h_min=15.5, h_max=130.25, drone_diameter=2.0, danger_distance=7.5
            ),
            weights=CostWeights(b1=2.0, b2=0.5, b3=3.0, b4=0.0, a1=1.5, a2=0.75),
        )
        path = tmp_path / "rt.yaml"
        save_scenario(original, path)
        sc = load_scenario(path)
        assert sc.constraints == original.constraints
        assert sc.weights == original.weights


class TestThreatType:
    def test_radius_positive(self):
        with pytest.raises(ConfigError):
            Threat(0.0, 0.0, 0.0)


@pytest.fixture(scope="module")
def suite():
    return build_benchmark_suite(0)


class TestBenchmarkSuite:
    def test_shape(self, suite):
        assert len(suite) == 8
        for number, sc in enumerate(suite, start=1):
            n = len(sc.threats)
            if is_complicated(number):
                assert 8 <= n <= 12
            else:
                assert 3 <= n <= 5

    def test_deterministic(self, suite):
        again = build_benchmark_suite(0)
        for a, b in zip(suite, again):
            assert np.array_equal(a.start, b.start)
            assert np.array_equal(a.goal, b.goal)
            assert a.threats == b.threats
            assert np.array_equal(a.terrain.elevations, b.terrain.elevations)
            assert np.array_equal(a.witness, b.witness)

    def test_complicated_straight_line_blocked(self, suite):
        for number, sc in enumerate(suite, start=1):
            if not is_complicated(number):
                continue
            straight = np.vstack([sc.start, sc.goal])
            assert math.isinf(f2_of(straight[None], sc.threats, sc.constraints)[0])

    def test_witness_is_feasible(self, suite):
        for sc in suite:
            assert sc.witness is not None
            assert sc.witness.shape == (sc.n_waypoints, 3)
            assert math.isfinite(total_cost(sc.witness, sc).total)

    def test_witness_is_not_a_field(self, suite):
        """Only the suite builder sets a witness: a scenario built from
        fields, a copy with other fields among them, carries none.  A
        pickle keeps it."""
        with pytest.raises(TypeError, match="witness"):
            replace(suite[0], witness=suite[0].witness)
        assert replace(suite[0], name="copy").witness is None
        assert np.array_equal(pickle.loads(pickle.dumps(suite[0])).witness, suite[0].witness)

    def test_two_base_terrains(self, suite):
        a = suite[0].terrain.elevations
        assert all(np.array_equal(sc.terrain.elevations, a) for sc in suite[:4])
        b = suite[4].terrain.elevations
        assert all(np.array_equal(sc.terrain.elevations, b) for sc in suite[4:])
        assert not np.array_equal(a, b)

    def test_different_seed_differs(self, suite):
        other = build_benchmark_suite(1)
        assert any(
            a.threats != b.threats or not np.array_equal(a.start, b.start)
            for a, b in zip(suite, other)
        )
