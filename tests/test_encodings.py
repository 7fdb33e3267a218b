import math

import numpy as np
import pytest

from uavpath import (
    CostWeights, FlightConstraints, Scenario, TerrainMap, decode_angle, decode_cartesian,
    decode_spherical,
)
from uavpath.cost import EPS_LEN
from uavpath.encodings import (
    SPSO_INIT_PHI_HALFWIDTH,
    SPSO_INIT_PSI_BAND,
    angle_space,
    cartesian_space,
    clamp_wrap,
    random_genomes,
    rho_max,
    spherical_space,
    wrap_difference,
    wrap_to_pi,
)
from uavpath.suite import build_benchmark_suite
from uavpath.terrain import SyntheticTerrainSpec, generate_synthetic

from conftest import random_feasibleish_path
from oracles import encode_spherical


class TestDecodeCartesian:
    def test_direct_placement(self, flat_scenario):
        genome = np.tile([50.0, 40.0, 80.0], flat_scenario.n_interior)
        path = decode_cartesian(genome, flat_scenario)
        assert path.shape == (flat_scenario.n_waypoints, 3)
        assert np.array_equal(path[0], flat_scenario.start)
        assert np.array_equal(path[-1], flat_scenario.goal)
        assert np.array_equal(path[1], [50.0, 40.0, 80.0])

    def test_length_mismatch(self, flat_scenario):
        with pytest.raises(ValueError, match="genome length"):
            decode_cartesian(np.zeros(5), flat_scenario)
        with pytest.raises(ValueError, match="genome length"):
            decode_cartesian(np.zeros(0), flat_scenario)

    def test_round_trip(self, flat_scenario):
        rng = np.random.default_rng(0)
        genome = random_genomes(cartesian_space(flat_scenario), flat_scenario, [rng], 1)[0, 0]
        path = decode_cartesian(genome, flat_scenario)
        assert np.array_equal(path[1:-1].reshape(-1), genome)


class TestDecodeAngle:
    def test_angle_zero_is_midpoint(self, flat_scenario):
        genome = np.zeros(3 * flat_scenario.n_interior)
        path = decode_angle(genome, flat_scenario)
        bounds = flat_scenario.axis_bounds
        mid = bounds.mean(axis=1)
        assert np.allclose(path[1:-1], mid)

    def test_endpoints_map_to_bounds(self, flat_scenario):
        bounds = flat_scenario.axis_bounds
        hi_path = decode_angle(np.full(3 * flat_scenario.n_interior, math.pi / 2), flat_scenario)
        lo_path = decode_angle(np.full(3 * flat_scenario.n_interior, -math.pi / 2), flat_scenario)
        assert np.array_equal(hi_path[1:-1], np.tile(bounds[:, 1], (flat_scenario.n_interior, 1)))
        assert np.array_equal(lo_path[1:-1], np.tile(bounds[:, 0], (flat_scenario.n_interior, 1)))

    def test_monotone_in_each_angle(self, flat_scenario):
        rng = np.random.default_rng(1)
        d = 3 * flat_scenario.n_interior
        for _ in range(50):
            g = rng.uniform(-math.pi / 2, math.pi / 2, d)
            j = int(rng.integers(d))
            bumped = g.copy()
            bumped[j] = min(math.pi / 2, g[j] + 1e-3)
            if bumped[j] == g[j]:
                continue
            a = decode_angle(g, flat_scenario)[1:-1].reshape(-1)
            b = decode_angle(bumped, flat_scenario)[1:-1].reshape(-1)
            assert b[j] > a[j]
            mask = np.arange(d) != j
            assert np.array_equal(a[mask], b[mask])


class TestDecodeSpherical:
    def test_vertical_step(self, flat_scenario):
        genome = np.tile([2.0, 0.0, 1.3], flat_scenario.n_interior)
        path = decode_spherical(genome, flat_scenario)
        first = path[1] - path[0]
        assert first == pytest.approx([0.0, 0.0, 2.0], abs=1e-12)

    def test_horizontal_x_step(self, flat_scenario):
        genome = np.tile([3.0, math.pi / 2, 0.0], flat_scenario.n_interior)
        path = decode_spherical(genome, flat_scenario)
        assert path[1] - path[0] == pytest.approx([3.0, 0.0, 0.0], abs=1e-12)

    def test_horizontal_y_step(self, flat_scenario):
        genome = np.tile([1.0, math.pi / 2, math.pi / 2], flat_scenario.n_interior)
        path = decode_spherical(genome, flat_scenario)
        assert path[1] - path[0] == pytest.approx([0.0, 1.0, 0.0], abs=1e-12)

    def test_chains_from_start_and_appends_goal(self, flat_scenario):
        rng = np.random.default_rng(2)
        genome = random_genomes(spherical_space(flat_scenario), flat_scenario, [rng], 1)[0, 0]
        path = decode_spherical(genome, flat_scenario)
        assert np.array_equal(path[0], flat_scenario.start)
        assert np.array_equal(path[-1], flat_scenario.goal)
        triples = genome.reshape(-1, 3)
        steps = np.diff(path[:-1], axis=0)
        assert np.linalg.norm(steps, axis=1) == pytest.approx(triples[:, 0], rel=1e-12)

    def test_azimuth_ignored_for_vertical_steps(self, flat_scenario):
        rng = np.random.default_rng(3)
        n = flat_scenario.n_interior
        for _ in range(20):
            rhos = rng.uniform(0.5, 5.0, n)
            g1 = np.stack([rhos, np.zeros(n), rng.uniform(-math.pi, math.pi, n)], axis=1)
            g2 = np.stack([rhos, np.zeros(n), rng.uniform(-math.pi, math.pi, n)], axis=1)
            p1 = decode_spherical(g1.reshape(-1), flat_scenario)
            p2 = decode_spherical(g2.reshape(-1), flat_scenario)
            assert np.array_equal(p1, p2)


class TestEncodeSpherical:
    def test_pure_vertical_step(self, flat_scenario):
        n = flat_scenario.n_waypoints
        path = np.vstack(
            [flat_scenario.start,
             flat_scenario.start + [0.0, 0.0, 2.0],
             flat_scenario.start + np.arange(2, n - 1)[:, None] * [5.0, 5.0, 0.5],
             flat_scenario.goal]
        )
        genome = encode_spherical(path)
        assert genome[0] == pytest.approx(2.0)
        assert genome[1] == pytest.approx(0.0)  # polar angle 0 = straight up
        assert genome[2] == 0.0                 # azimuth convention for vertical

    def test_inverse_of_decode_example(self, flat_scenario):
        # step (3,0,0) -> (rho=3, psi=pi/2, phi=0)
        p = np.vstack([
            flat_scenario.start,
            flat_scenario.start + [3.0, 0.0, 0.0],
            flat_scenario.start + [6.0, 0.0, 0.0],
            flat_scenario.start + [9.0, 0.0, 0.0],
            flat_scenario.start + [12.0, 0.0, 0.0],
            flat_scenario.goal,
        ])
        genome = encode_spherical(p)
        assert genome[0] == pytest.approx(3.0)
        assert genome[1] == pytest.approx(math.pi / 2)
        assert genome[2] == pytest.approx(0.0)

    def test_degenerate_step_rejected(self, flat_scenario):
        p = np.vstack([
            flat_scenario.start,
            flat_scenario.start,  # zero-length first step
            flat_scenario.start + [5.0, 5.0, 1.0],
            flat_scenario.goal,
        ])
        with pytest.raises(ValueError, match="degenerate"):
            encode_spherical(p)

    def test_round_trip_random_paths(self, hilly_scenario):
        rng = np.random.default_rng(4)
        for _ in range(300):
            path = random_feasibleish_path(hilly_scenario, rng)
            genome = encode_spherical(path)
            back = decode_spherical(genome, hilly_scenario)
            assert np.abs(back[1:-1] - path[1:-1]).max() < 1e-9


class TestClampWrap:
    def test_phi_wraps(self, flat_scenario):
        space = spherical_space(flat_scenario)
        g = np.tile([1.0, 0.5, 3 * math.pi / 2], flat_scenario.n_interior)
        out = clamp_wrap(g, space)
        assert out[2::3] == pytest.approx(-math.pi / 2)

    def test_psi_clamps(self, flat_scenario):
        space = spherical_space(flat_scenario)
        g = np.tile([1.0, 2.0, 0.0], flat_scenario.n_interior)
        out = clamp_wrap(g, space)
        assert np.all(out[1::3] == math.pi / 2)

    def test_in_range_identity_bitwise(self, flat_scenario):
        rng = np.random.default_rng(5)
        for space_of in (cartesian_space, angle_space, spherical_space):
            space = space_of(flat_scenario)
            g = random_genomes(space, flat_scenario, [rng], 1)[0, 0]
            assert np.array_equal(clamp_wrap(g, space), g)

    def test_wrap_to_pi_edges(self):
        assert wrap_to_pi(3 * math.pi / 2) == pytest.approx(-math.pi / 2)
        assert wrap_to_pi(math.pi) == math.pi
        assert wrap_to_pi(-math.pi) == math.pi
        vals = np.array([0.1, -3.0, 3.0])
        assert np.array_equal(wrap_to_pi(vals), vals)

    def test_wrapped_difference_short_way(self, flat_scenario):
        space = spherical_space(flat_scenario)
        delta = np.zeros(space.dims)
        delta[2] = -0.9 * math.pi - 0.9 * math.pi  # phi_q - phi_u = -1.8 pi
        wrapped = wrap_difference(delta, space)
        assert wrapped[2] == pytest.approx(0.2 * math.pi)
        assert np.all(wrapped[0::3] == 0) and np.all(wrapped[1::3] == 0)


class TestRandomGenome:
    def test_deterministic_from_cloned_streams(self, hilly_scenario):
        for space_of in (cartesian_space, angle_space, spherical_space):
            space = space_of(hilly_scenario)
            a = random_genomes(space, hilly_scenario, [np.random.default_rng(99)], 1)[0, 0]
            b = random_genomes(space, hilly_scenario, [np.random.default_rng(99)], 1)[0, 0]
            assert np.array_equal(a, b)

    def test_angle_bounds_respected(self, hilly_scenario):
        rng = np.random.default_rng(6)
        space = angle_space(hilly_scenario)
        lo = hi = 0.0
        for _ in range(10_000):
            g = random_genomes(space, hilly_scenario, [rng], 1)[0, 0]
            lo = min(lo, g.min())
            hi = max(hi, g.max())
        assert -math.pi / 2 <= lo and hi <= math.pi / 2

    def test_spherical_rho_capped(self, hilly_scenario):
        rng = np.random.default_rng(7)
        cap = rho_max(hilly_scenario)
        space = spherical_space(hilly_scenario)
        for _ in range(10_000):
            g = random_genomes(space, hilly_scenario, [rng], 1)[0, 0]
            rhos = g[0::3]
            assert np.all(rhos > 0) and np.all(rhos <= cap)

    def test_cartesian_within_bounds(self, hilly_scenario):
        rng = np.random.default_rng(8)
        space = cartesian_space(hilly_scenario)
        for _ in range(500):
            g = random_genomes(space, hilly_scenario, [rng], 1)[0, 0]
            assert np.all(g >= space.lower) and np.all(g <= space.upper)


def _uniform_reference(space, scenario, seeds):
    """random_genomes as drawn with ``Generator.uniform``: per stream, the
    genome box (or the spherical init box), then one altitude offset per
    node above the ground under the node ``space.decode`` places, from
    fresh generators."""
    streams = [np.random.default_rng(seed) for seed in seeds]
    cons = scenario.constraints
    if space.decode is decode_spherical:
        n = scenario.n_interior
        dx, dy = (scenario.goal - scenario.start)[:2]
        bearing = math.atan2(dy, dx)
        lo = np.tile(
            [EPS_LEN, math.pi / 2 - SPSO_INIT_PSI_BAND, bearing - SPSO_INIT_PHI_HALFWIDTH], n
        )
        hi = np.tile([rho_max(scenario), math.pi / 2, bearing + SPSO_INIT_PHI_HALFWIDTH], n)
        return clamp_wrap(np.stack([rng.uniform(lo, hi) for rng in streams]), space)
    genomes = np.stack([rng.uniform(space.lower, space.upper) for rng in streams])
    nodes = space.decode(genomes, scenario)[:, 1:-1]
    ground = scenario.terrain.heights(nodes[..., 0], nodes[..., 1])
    z = ground + np.stack([rng.uniform(cons.h_min, cons.h_max, size=ground.shape[1]) for rng in streams])
    if space.decode is decode_angle:
        lo_z, hi_z = scenario.axis_bounds[2]
        z_genes = np.arcsin(np.clip((2.0 * z - hi_z - lo_z) / (hi_z - lo_z), -1.0, 1.0))
    else:
        z_genes = np.clip(z, space.lower[2::3], space.upper[2::3])
    genomes[:, 2::3] = np.where(np.isnan(z), genomes[:, 2::3], z_genes)
    return genomes


def _offset_scenario():
    """A suite-sized hill map whose origin is not (0, 0), with no threats
    and both endpoints at mid-corridor.  Off the zero origin, decode_angle's
    rounding of ``0.5 * ((hi - lo) * sin + hi + lo)`` differs from other
    orderings in the last bits of some x and y."""
    spec = SyntheticTerrainSpec(
        n_cols=61, n_rows=61, cell_size=10.0, n_hills=9, amp_min=5.0, amp_max=13.0,
        sigma_min=40.0, sigma_max=100.0, origin_x=1234.5, origin_y=-777.25,
    )
    terrain = generate_synthetic(spec, 3)
    constraints = FlightConstraints()
    xs, ys = spec.origin_x + np.array([50.0, 550.0]), spec.origin_y + np.array([50.0, 550.0])
    zs = terrain.heights(xs, ys) + constraints.corridor_mid
    return Scenario(
        terrain=terrain,
        threats=(),
        start=[xs[0], ys[0], zs[0]],
        goal=[xs[1], ys[1], zs[1]],
        constraints=constraints,
        weights=CostWeights(),
        n_waypoints=12,
    )


@pytest.mark.parametrize("space_of", [cartesian_space, angle_space, spherical_space])
@pytest.mark.parametrize("index", [0, 6, "offset"])
def test_sampler_draws_equal_generator_uniform(space_of, index):
    """random_genomes scales ``rng.random`` itself; a numpy whose
    ``Generator.uniform`` computes ``lo + (hi - lo) * u`` differently
    breaks this identity, and with it every golden hash.  Each altitude
    sits above the node its genome decodes to, on the suite's maps (origin
    0) and off them."""
    scenario = _offset_scenario() if index == "offset" else build_benchmark_suite(0)[index]
    space = space_of(scenario)
    seeds = range(40, 56)
    got = random_genomes(space, scenario, [np.random.default_rng(seed) for seed in seeds], 1)[:, 0]
    assert np.array_equal(got, _uniform_reference(space, scenario, seeds))


@pytest.mark.parametrize(
    "space_of, decode",
    [(cartesian_space, decode_cartesian), (angle_space, decode_angle), (spherical_space, decode_spherical)],
)
def test_space_is_read_only(space_of, decode):
    """Every step of a run reads one space, so none of its arrays can be
    written; and a space decodes with its own builder's map."""
    for scenario in build_benchmark_suite(0):
        space = space_of(scenario)
        assert space.decode is decode
        for name in ("lower", "upper", "wrap", "v_cap"):
            assert not getattr(space, name).flags.writeable, name


@pytest.fixture(scope="module")
def holed_scenario():
    """A 12 x 10 grid with three nodata nodes, so some sampled (x, y) have
    no ground and take the box-uniform altitude."""
    elev = np.random.default_rng(3).uniform(0.0, 40.0, (10, 12))
    elev[4, 5] = elev[7, 2] = elev[2, 9] = np.nan
    terrain = TerrainMap(
        origin_x=0.0, origin_y=0.0, cell_size=10.0,
        nodata_value=-9999.0, elevations=elev,
    )
    return Scenario(
        terrain=terrain,
        threats=(),
        start=[5.0, 5.0, 90.0],
        goal=[105.0, 85.0, 90.0],
        constraints=FlightConstraints(),
        weights=CostWeights(),
        n_waypoints=7,
    )


class TestSamplerBlocks:
    """A block of tries per stream is what successive one-try blocks on
    the same streams draw, and a one-try block leaves each stream where
    the genome box and the altitude offsets, drawn in two calls, left it."""

    @pytest.mark.parametrize("space_of", [cartesian_space, angle_space, spherical_space])
    @pytest.mark.parametrize("tries", [1, 4, 7])
    def test_block_equals_successive_single_tries(self, holed_scenario, space_of, tries):
        space = space_of(holed_scenario)
        seeds = range(10, 15)
        block = random_genomes(
            space, holed_scenario, [np.random.default_rng(seed) for seed in seeds], tries
        )
        assert block.shape == (len(seeds), tries, space.dims)
        clones = [np.random.default_rng(seed) for seed in seeds]
        for t in range(tries):
            assert np.array_equal(block[:, t], random_genomes(space, holed_scenario, clones, 1)[:, 0])
        if space.decode is not decode_spherical and tries > 1:
            nodes = space.decode(block.reshape(-1, space.dims), holed_scenario)[:, 1:-1]
            assert np.isnan(holed_scenario.terrain.heights(nodes[..., 0], nodes[..., 1])).any()

    @pytest.mark.parametrize("space_of", [cartesian_space, angle_space, spherical_space])
    def test_one_try_leaves_stream_after_its_draws(self, holed_scenario, space_of):
        space = space_of(holed_scenario)
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        random_genomes(space, holed_scenario, [rng], 1)
        ref.random(space.dims)
        if space.decode is not decode_spherical:
            ref.random(holed_scenario.n_interior)
        assert rng.bit_generator.state == ref.bit_generator.state
        assert rng.random() == ref.random()
