import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from uavpath import (
    CostWeights,
    FlightConstraints,
    Scenario,
    Threat,
    altitude_cost,
    altitude_penalty,
    climb_angle,
    path_length_cost,
    segment_threat_penalty,
    smooth_cost,
    threat_cost,
    total_cost,
    turn_angle,
)
from uavpath.cost import _weighted_total, cost_components, evaluate_paths
from uavpath.suite import build_benchmark_suite
from uavpath.terrain import SyntheticTerrainSpec, generate_synthetic

from conftest import random_feasibleish_path
from oracles import oracle_total_cost

CONS = FlightConstraints(h_min=100.0, h_max=200.0, drone_diameter=1.0, danger_distance=5.0)


class TestPathLength:
    def test_three_four_five(self):
        assert path_length_cost([(0, 0, 0), (3, 4, 0)]) == 5.0

    def test_unit_steps(self):
        assert path_length_cost([(0, 0, 0), (1, 0, 0), (1, 1, 0)]) == 2.0

    def test_repeated_waypoint_adds_nothing(self):
        base = [(0, 0, 0), (2, 0, 0), (2, 3, 1)]
        dup = [(0, 0, 0), (2, 0, 0), (2, 0, 0), (2, 3, 1)]
        assert path_length_cost(dup) == path_length_cost(base)

    def test_never_below_direct_distance(self, flat_scenario):
        rng = np.random.default_rng(0)
        direct = np.linalg.norm(flat_scenario.goal - flat_scenario.start)
        for _ in range(100):
            p = random_feasibleish_path(flat_scenario, rng)
            assert path_length_cost(p) >= direct - 1e-12


class TestThreatPenalty:
    # R=10, D=1, S=5: collision radius 11, danger radius 16
    threat = Threat(0.0, 0.0, 10.0)
    cons = FlightConstraints(h_min=1, h_max=100, drone_diameter=1.0, danger_distance=5.0)

    def seg_at(self, d):
        return (d, -100.0, 50.0), (d, 100.0, 50.0)

    def test_outside_danger_zone(self):
        a, b = self.seg_at(20.0)
        assert segment_threat_penalty(a, b, self.threat, self.cons) == 0.0

    def test_middle_branch(self):
        a, b = self.seg_at(12.0)
        assert segment_threat_penalty(a, b, self.threat, self.cons) == pytest.approx(4.0)

    def test_collision(self):
        a, b = self.seg_at(10.0)
        assert segment_threat_penalty(a, b, self.threat, self.cons) == math.inf

    def test_distance_is_to_segment_not_endpoints(self):
        # endpoints far away but the segment passes right over the center
        a, b = (-100.0, 0.0, 50.0), (100.0, 0.0, 50.0)
        assert segment_threat_penalty(a, b, self.threat, self.cons) == math.inf

    def test_continuous_and_nonincreasing(self):
        ds = np.linspace(11.001, 25.0, 400)
        vals = [
            segment_threat_penalty(*self.seg_at(d), self.threat, self.cons) for d in ds
        ]
        assert all(u >= v for u, v in zip(vals, vals[1:]))
        assert np.all(np.abs(np.diff(vals)) <= np.diff(ds) + 1e-12)

    def test_closest_distance_equal_to_collision_radius(self):
        a, b = self.seg_at(11.0)  # passes (11, 0): exactly collide_r away
        assert segment_threat_penalty(a, b, self.threat, self.cons) == math.inf

    def test_zero_length_segment_in_collision_disc(self):
        p = (5.0, 3.0, 50.0)
        assert segment_threat_penalty(p, p, self.threat, self.cons) == math.inf

    def test_zero_length_segment_beyond_danger_ring(self):
        p = (12.0, 13.0, 50.0)  # 17.7 m from the centre, danger radius 16
        assert segment_threat_penalty(p, p, self.threat, self.cons) == 0.0

    def test_empty_threat_list(self):
        assert threat_cost([(0, 0, 0), (1, 1, 1), (2, 2, 2)], [], self.cons) == 0.0

    def test_two_threats_add(self):
        t1 = Threat(0.0, 12.0, 10.0)
        t2 = Threat(0.0, -12.0, 10.0)
        seg = [(-50.0, 0.0, 10.0), (50.0, 0.0, 10.0)]
        assert threat_cost(seg, [t1, t2], self.cons) == pytest.approx(8.0)


class TestAltitude:
    def test_midpoint_zero(self, flat_terrain):
        assert altitude_penalty((50, 50, 150), flat_terrain, CONS) == 0.0

    def test_offset(self, flat_terrain):
        assert altitude_penalty((50, 50, 120), flat_terrain, CONS) == pytest.approx(30.0)

    def test_above_ceiling(self, flat_terrain):
        assert altitude_penalty((50, 50, 250), flat_terrain, CONS) == math.inf

    def test_outside_map_is_infinite(self, flat_terrain):
        assert altitude_penalty((-5, 50, 150), flat_terrain, CONS) == math.inf

    def test_sums_over_waypoints(self, flat_terrain):
        path = [(10, 10, 160), (50, 50, 130), (90, 90, 150)]
        assert altitude_cost(path, flat_terrain, CONS) == pytest.approx(10 + 20 + 0)

    def test_one_bad_waypoint_absorbs(self, flat_terrain):
        path = [(10, 10, 150), (50, 50, 10), (90, 90, 150)]
        assert altitude_cost(path, flat_terrain, CONS) == math.inf


class TestAngles:
    def test_collinear_turn_zero(self):
        assert turn_angle((0, 0, 0), (1, 0, 5), (2, 0, 9)) == 0.0

    def test_right_angle(self):
        assert turn_angle((0, 0, 0), (1, 0, 0), (1, 1, 0)) == pytest.approx(math.pi / 2)

    def test_three_quarter_turn(self):
        # directions (1,0) then (-1,1): atan2(|1*1-0*(-1)|, -1) = atan2(1, -1)
        assert turn_angle((0, 0, 0), (1, 0, 0), (0, 1, 0)) == pytest.approx(3 * math.pi / 4)

    def test_vertical_segment_turns_zero(self):
        assert turn_angle((0, 0, 0), (0, 0, 5), (1, 1, 5)) == 0.0

    def test_climb_45(self):
        assert climb_angle((0, 0, 0), (1, 0, 1)) == pytest.approx(math.pi / 4)

    def test_climb_horizontal(self):
        assert climb_angle((0, 0, 0), (3, 4, 0)) == 0.0

    def test_climb_vertical(self):
        assert climb_angle((0, 0, 0), (0, 0, 5)) == pytest.approx(math.pi / 2)
        assert climb_angle((0, 0, 5), (0, 0, 0)) == pytest.approx(-math.pi / 2)

    def test_climb_zero_length(self):
        assert climb_angle((1, 1, 1), (1, 1, 1)) == 0.0

    def test_climb_antisymmetric(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            p0, p1 = rng.uniform(-10, 10, (2, 3))
            if np.linalg.norm(p1 - p0) < 1e-6:
                continue
            assert climb_angle(p0, p1) == pytest.approx(-climb_angle(p1, p0), abs=1e-12)

    def test_turn_invariant_to_rotation_and_scaling(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            pts = rng.uniform(-5, 5, (3, 3))
            base = turn_angle(*pts)
            theta = rng.uniform(0, 2 * math.pi)
            c, s = math.cos(theta), math.sin(theta)
            rot = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])
            rotated = pts @ rot.T
            assert turn_angle(*rotated) == pytest.approx(base, abs=1e-9)
            scale = rng.uniform(0.1, 7.0)
            scaled = pts[1] + scale * (pts - pts[1])
            assert turn_angle(*scaled) == pytest.approx(base, abs=1e-9)


class TestSmoothCost:
    W = CostWeights()

    def test_straight_horizontal(self):
        p = [(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)]
        assert smooth_cost(p, self.W) == 0.0

    def test_single_right_angle(self):
        p = [(0, 0, 0), (1, 0, 0), (1, 1, 0)]
        assert smooth_cost(p, self.W) == pytest.approx(math.pi / 2)

    def test_climb_then_level(self):
        p = [(0, 0, 0), (1, 0, 1), (2, 0, 1)]
        w = CostWeights(a1=0.0, a2=2.0)
        assert smooth_cost(p, w) == pytest.approx(2 * math.pi / 4)


class TestTotalCost:
    def test_straight_path_costs_length_only(self, flat_scenario):
        n = flat_scenario.n_waypoints
        path = np.linspace(flat_scenario.start, flat_scenario.goal, n)
        b = total_cost(path, flat_scenario)
        direct = float(np.linalg.norm(flat_scenario.goal - flat_scenario.start))
        assert b.f2 == b.f3 == b.f4 == 0.0
        assert b.total == pytest.approx(direct)

    def test_collision_absorbs(self, hilly_scenario):
        t = hilly_scenario.threats[0]
        n = hilly_scenario.n_waypoints
        path = np.linspace(hilly_scenario.start, hilly_scenario.goal, n)
        path[2, 0], path[2, 1] = t.center_x, t.center_y
        b = total_cost(path, hilly_scenario)
        assert b.f2 == math.inf and b.total == math.inf

    def test_endpoint_mismatch_rejected(self, flat_scenario):
        path = np.linspace(flat_scenario.start + 1.0, flat_scenario.goal, 6)
        with pytest.raises(ValueError, match="endpoints"):
            total_cost(path, flat_scenario)

    def test_reversal_invariance(self, hilly_scenario):
        rev = Scenario(
            terrain=hilly_scenario.terrain,
            threats=hilly_scenario.threats,
            start=hilly_scenario.goal,
            goal=hilly_scenario.start,
            constraints=hilly_scenario.constraints,
            weights=hilly_scenario.weights,
            n_waypoints=hilly_scenario.n_waypoints,
        )
        rng = np.random.default_rng(8)
        checked = 0
        for _ in range(200):
            p = random_feasibleish_path(hilly_scenario, rng)
            fwd = total_cost(p, hilly_scenario)
            bwd = total_cost(p[::-1], rev)
            if not math.isfinite(fwd.total):
                assert not math.isfinite(bwd.total)
                continue
            checked += 1
            for name in ("f1", "f2", "f3", "f4", "total"):
                assert getattr(bwd, name) == pytest.approx(getattr(fwd, name), rel=1e-12)
        assert checked >= 10

    def test_weight_monotonicity(self, hilly_scenario):
        rng = np.random.default_rng(9)
        p = random_feasibleish_path(hilly_scenario, rng)
        base = total_cost(p, hilly_scenario).total
        for bumped in ("b1", "b2", "b3", "b4"):
            kwargs = {bumped: 2.5}
            sc = Scenario(
                terrain=hilly_scenario.terrain,
                threats=hilly_scenario.threats,
                start=hilly_scenario.start,
                goal=hilly_scenario.goal,
                constraints=hilly_scenario.constraints,
                weights=CostWeights(**kwargs),
                n_waypoints=hilly_scenario.n_waypoints,
            )
            assert total_cost(p, sc).total >= base - 1e-9

    def test_nan_coordinate_scores_infinite(self):
        s4 = build_benchmark_suite(0)[3]
        paths = np.stack([s4.witness, s4.witness])
        paths[1, 3, 0] = np.nan
        totals = evaluate_paths(paths, s4)
        assert math.isfinite(totals[0]) and totals[1] == math.inf
        assert np.argmin(totals[::-1]) == 1
        assert total_cost(paths[1], s4).total == math.inf

    @pytest.mark.parametrize("nodes", [[3], [2, 3]])
    def test_infinite_coordinate_scores_infinite_without_warning(self, nodes):
        s4 = build_benchmark_suite(0)[3]
        path = s4.witness.copy()
        path[nodes, 0] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert evaluate_paths(path, s4)[0] == math.inf
            assert total_cost(path, s4).total == math.inf

    def test_zero_weight_suppresses_infinite_term(self, flat_scenario):
        sc = Scenario(
            terrain=flat_scenario.terrain,
            threats=flat_scenario.threats,
            start=flat_scenario.start,
            goal=flat_scenario.goal,
            constraints=flat_scenario.constraints,
            weights=CostWeights(b3=0.0),
            n_waypoints=flat_scenario.n_waypoints,
        )
        path = np.linspace(sc.start, sc.goal, sc.n_waypoints)
        path[2, 2] = 500.0  # altitude violation
        b = total_cost(path, sc)
        assert b.f3 == math.inf
        assert math.isfinite(b.total)


class TestFeasibilityFirst:
    """evaluate_paths skips terms on rows an earlier term made infinite;
    its totals must equal the weighted total of the full breakdown."""

    @staticmethod
    def mixed_batch(scenario):
        w = scenario.witness
        threat = scenario.threats[0]
        rows = {
            "feasible": w,
            "collision": w.copy(),
            "corridor": w.copy(),
            "off_map": w.copy(),
            "nan": w.copy(),
        }
        rows["collision"][2, :2] = threat.center_x, threat.center_y
        rows["corridor"][2, 2] += 500.0
        rows["off_map"][2, 0] = scenario.terrain.bounds[0] - 50.0
        rows["nan"][3, 1] = np.nan
        rng = np.random.default_rng(5)
        nudged = np.repeat(w[None], 10, axis=0)
        nudged[:, 1:-1] += rng.normal(0.0, 1.0, nudged[:, 1:-1].shape)
        wild = [random_feasibleish_path(scenario, rng) for _ in range(10)]
        return list(rows), np.concatenate([np.stack(list(rows.values())), nudged, wild])

    @pytest.mark.parametrize("weights", [{}, {"b2": 0.0}, {"b3": 0.0}])
    def test_totals_equal_full_breakdown(self, weights):
        scenario = build_benchmark_suite(0)[3]
        scenario = replace(scenario, weights=CostWeights(**weights))
        names, paths = self.mixed_batch(scenario)
        got = evaluate_paths(paths, scenario)
        want = _weighted_total(*cost_components(paths, scenario), scenario.weights)
        assert got.tobytes() == want.tobytes()
        finite = dict(zip(names, np.isfinite(got)))
        assert finite["feasible"] and not finite["nan"]
        # a zero weight lets through the rows only its own term rules out
        assert finite["collision"] == ("b2" in weights)
        assert finite["corridor"] == finite["off_map"] == ("b3" in weights)
        assert np.isfinite(got[len(names):]).sum() >= 10


def _random_scenario(seed):
    rng = np.random.default_rng(seed)
    spec = SyntheticTerrainSpec(
        n_cols=int(rng.integers(12, 30)),
        n_rows=int(rng.integers(12, 30)),
        cell_size=float(rng.uniform(5, 15)),
        base_elevation=float(rng.uniform(0, 30)),
        n_hills=int(rng.integers(0, 5)),
        amp_min=2.0,
        amp_max=float(rng.uniform(5, 18)),
        sigma_min=15.0,
        sigma_max=float(rng.uniform(30, 90)),
    )
    terrain = generate_synthetic(spec, int(rng.integers(1 << 16)))
    x_min, x_max, y_min, y_max = terrain.bounds
    cons = FlightConstraints(
        h_min=float(rng.uniform(5, 30)),
        h_max=float(rng.uniform(80, 150)),
        drone_diameter=float(rng.uniform(0.5, 2.0)),
        danger_distance=float(rng.uniform(2, 15)),
    )
    weights = CostWeights(
        b1=float(rng.uniform(0.5, 2)),
        b2=float(rng.uniform(0.5, 2)) if seed % 3 else 0.0,
        b3=float(rng.uniform(0.5, 2)),
        b4=float(rng.uniform(0.5, 2)),
        a1=float(rng.uniform(0.2, 2)),
        a2=float(rng.uniform(0.2, 2)),
    )
    mid = cons.corridor_mid
    span_x, span_y = x_max - x_min, y_max - y_min
    while True:
        sx = x_min + 0.1 * span_x
        sy = y_min + 0.1 * span_y
        gx = x_max - 0.1 * span_x
        gy = y_max - 0.1 * span_y
        threats = tuple(
            Threat(
                float(rng.uniform(x_min + 0.2 * span_x, x_max - 0.2 * span_x)),
                float(rng.uniform(y_min + 0.2 * span_y, y_max - 0.2 * span_y)),
                float(rng.uniform(3, 0.08 * min(span_x, span_y))),
            )
            for _ in range(int(rng.integers(1, 5)))
        )
        try:
            return Scenario(
                terrain=terrain,
                threats=threats,
                start=[sx, sy, float(terrain.heights(sx, sy)) + mid],
                goal=[gx, gy, float(terrain.heights(gx, gy)) + mid],
                constraints=cons,
                weights=weights,
                n_waypoints=int(rng.integers(3, 11)),
            )
        except Exception:
            continue


def random_paths_for(scenario, rng, count):
    """Mix of corridor-respecting and wild paths (some off-map)."""
    x_min, x_max, y_min, y_max = scenario.terrain.bounds
    paths = []
    for _ in range(count):
        n = scenario.n_waypoints
        if rng.random() < 0.7:
            p = random_feasibleish_path(scenario, rng, n)
        else:
            xs = rng.uniform(x_min - 30, x_max + 30, n - 2)
            ys = rng.uniform(y_min - 30, y_max + 30, n - 2)
            zs = rng.uniform(-10, 400, n - 2)
            p = np.vstack([scenario.start, np.column_stack([xs, ys, zs]), scenario.goal])
        paths.append(p)
    return paths


class TestAgainstOracle:
    def test_matches_independent_evaluator(self):
        for seed in (101, 202, 303):
            scenario = _random_scenario(seed)
            rng = np.random.default_rng(seed + 1)
            finite_seen = inf_seen = 0
            for p in random_paths_for(scenario, rng, 200):
                got = total_cost(p, scenario)
                f1, f2, f3, f4, total = oracle_total_cost(p, scenario)
                assert math.isinf(got.total) == math.isinf(total)
                if math.isinf(total):
                    inf_seen += 1
                    continue
                finite_seen += 1
                for a, b in ((got.f1, f1), (got.f2, f2), (got.f3, f3), (got.f4, f4), (got.total, total)):
                    if math.isinf(b):
                        assert math.isinf(a)
                    else:
                        assert a == pytest.approx(b, rel=1e-9)
            assert finite_seen > 20 and inf_seen > 5
