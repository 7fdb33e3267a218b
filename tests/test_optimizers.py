import copy
import itertools
import math

import numpy as np
import pytest

from uavpath import (
    CostWeights,
    FlightConstraints,
    Scenario,
    SwarmConfig,
    Threat,
    run,
)
from uavpath import optimizers
from uavpath.cost import evaluate_paths
from uavpath.encodings import SearchSpace
from uavpath.encodings import assemble_path, clamp_wrap, decode_cartesian, random_genomes
from uavpath.optimizers import (
    ALGORITHMS,
    AbcColony,
    DePopulation,
    GaPopulation,
    Swarm,
    _abc_candidates,
    _abc_greedy,
    _scout_phase,
    budgeted_config,
    de_step,
    ga_crossover,
    ga_mutate,
    ga_step,
    inertial_step as pso_step,
    inertial_step as spso_step,
    inertial_step as theta_pso_step,
    init_swarm,
    onlooker_weights,
    qpso_step,
    _particle_streams,
    _rng,
)
from uavpath.suite import build_benchmark_suite

from conftest import drive, scored_on
from oracles import abc_candidates_reference, de_trials_reference, sample_reference


@pytest.fixture()
def one_node_scenario(flat_terrain):
    return Scenario(
        terrain=flat_terrain,
        threats=(),
        start=[10.0, 10.0, 70.0],
        goal=[90.0, 90.0, 70.0],
        constraints=FlightConstraints(),
        weights=CostWeights(),
        n_waypoints=3,
    )


class OnesRng:
    """Stub generator whose uniform draws are all ones."""

    def random(self, shape=None):
        return np.ones(shape) if shape is not None else 1.0


class ScriptedRng:
    """Returns pre-scripted values for successive draws."""

    def __init__(self, randoms=(), integers=(), normals=None):
        self._randoms = list(randoms)
        self._integers = list(integers)
        self._normals = normals

    def random(self, shape=None):
        v = self._randoms.pop(0)
        if shape is None:
            return float(np.asarray(v).ravel()[0])
        return np.broadcast_to(np.asarray(v, dtype=float), shape).copy()

    def integers(self, *args, **kwargs):
        return self._integers.pop(0)

    def normal(self, loc=0.0, scale=1.0, size=None):
        if self._normals is not None:
            return np.asarray(self._normals, dtype=float)
        return np.zeros(size)


def stub_swarm(positions, velocities, best_positions, best_fitness, inertia=1.0, wrap=None):
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    d = positions.shape[1]
    space = SearchSpace(
        decode_cartesian,
        np.full(d, -1e9),
        np.full(d, 1e9),
        np.zeros(d, dtype=bool) if wrap is None else np.asarray(wrap),
    )
    swarm = Swarm(
        scenario=None,
        space=space,
        positions=positions,
        velocities=np.atleast_2d(np.asarray(velocities, dtype=float)),
        fitness=np.zeros(len(positions)),
        best_positions=np.atleast_2d(np.asarray(best_positions, dtype=float)),
        best_fitness=np.asarray(best_fitness, dtype=float),
        inertia=inertia,
    )
    swarm.decode = lambda genomes: genomes
    return swarm


def zeros(paths):
    return np.zeros(len(paths))


class TestInertialSteps:
    def test_pso_hand_evaluated_update(self):
        # w=0.5, v=1, x=0, l=2, lg=4, r1=r2=1, eta=1.5 -> v'=9.5, x'=9.5
        swarm = stub_swarm(
            positions=[[0.0], [4.0]],
            velocities=[[1.0], [0.0]],
            best_positions=[[2.0], [4.0]],
            best_fitness=[1.0, 0.0],  # particle 1 holds the global best
            inertia=0.5,
        )
        config = SwarmConfig(swarm_size=2, max_iterations=1)
        drive(pso_step(swarm, config, OnesRng()), zeros)
        assert swarm.velocities[0, 0] == pytest.approx(9.5)
        assert swarm.positions[0, 0] == pytest.approx(9.5)

    def test_degenerate_coefficients_pure_inertia(self, monkeypatch):
        monkeypatch.setattr(optimizers, "COGNITIVE", 0.0)
        monkeypatch.setattr(optimizers, "SOCIAL", 0.0)
        swarm = stub_swarm([[0.0]], [[1.0]], [[5.0]], [0.0], inertia=1.0)
        config = SwarmConfig(swarm_size=2, max_iterations=1)
        drive(pso_step(swarm, config, OnesRng()), zeros)
        assert swarm.velocities[0, 0] == 1.0
        assert swarm.positions[0, 0] == 1.0

    def test_fixed_point_is_stationary(self):
        swarm = stub_swarm([[3.0]], [[0.0]], [[3.0]], [0.0], inertia=1.0)
        config = SwarmConfig(swarm_size=2, max_iterations=1)
        drive(pso_step(swarm, config, OnesRng()), zeros)
        assert swarm.positions[0, 0] == 3.0
        assert swarm.velocities[0, 0] == 0.0

    def test_theta_hand_evaluated_update(self):
        # w=1, dtheta=0.1, theta=0, gamma=gamma_g=0, r=0.5 -> dtheta'=0.1
        swarm = stub_swarm([[0.0]], [[0.1]], [[0.0]], [0.0], inertia=1.0)
        config = SwarmConfig(swarm_size=2, max_iterations=1)
        drive(theta_pso_step(swarm, config, ScriptedRng(randoms=[0.5, 0.5])), zeros)
        assert swarm.velocities[0, 0] == pytest.approx(0.1)
        assert swarm.positions[0, 0] == pytest.approx(0.1)

    def test_spso_wrapped_short_way(self, monkeypatch):
        # phi_u = 0.9pi, phi_q = -0.9pi: attraction wraps to +0.2pi
        swarm = stub_swarm(
            positions=[[0.9 * math.pi]],
            velocities=[[0.0]],
            best_positions=[[-0.9 * math.pi]],
            best_fitness=[0.0],
            inertia=0.0,
            wrap=[True],
        )
        monkeypatch.setattr(optimizers, "COGNITIVE", 1.0)
        monkeypatch.setattr(optimizers, "SOCIAL", 0.0)
        config = SwarmConfig(swarm_size=2, max_iterations=1)
        drive(spso_step(swarm, config, OnesRng()), zeros)
        assert swarm.velocities[0, 0] == pytest.approx(0.2 * math.pi)
        # position 1.1pi wraps back into (-pi, pi]
        assert swarm.positions[0, 0] == pytest.approx(-0.9 * math.pi)


class TestQpso:
    def test_u_one_lands_on_attractor(self):
        swarm = stub_swarm([[0.0], [10.0]], [[0.0], [0.0]], [[2.0], [4.0]], [1.0, 0.0])
        swarm.velocities = None
        config = SwarmConfig(swarm_size=2, max_iterations=1)
        # a = 0.25, u-draw 0 -> u = 1 -> ln(1/u) = 0, coin irrelevant
        rng = ScriptedRng(randoms=[0.25, 0.0, 0.9])
        drive(qpso_step(swarm, config, rng), zeros)
        p = 0.25 * 2.0 + 0.75 * 4.0
        assert swarm.positions[0, 0] == pytest.approx(p)

    def test_collapsed_swarm_stays_at_attractor(self):
        swarm = stub_swarm([[4.0], [4.0]], [[0.0], [0.0]], [[4.0], [4.0]], [0.5, 0.5])
        swarm.velocities = None
        config = SwarmConfig(swarm_size=2, max_iterations=1)
        rng = ScriptedRng(randoms=[0.6, 0.2, 0.1])  # u = 0.8, but spread = 0
        drive(qpso_step(swarm, config, rng), zeros)
        assert np.all(swarm.positions == 4.0)

    def test_attractor_endpoint_at_a_one(self):
        swarm = stub_swarm([[0.0], [9.0]], [[0.0], [0.0]], [[2.0], [4.0]], [1.0, 0.0])
        swarm.velocities = None
        config = SwarmConfig(swarm_size=2, max_iterations=1)
        rng = ScriptedRng(randoms=[1.0, 0.0, 0.2])  # a = 1 -> p = local best
        drive(qpso_step(swarm, config, rng), zeros)
        assert swarm.positions[0, 0] == pytest.approx(2.0)


class TestStationarity:
    @pytest.mark.parametrize("algorithm", ["pso", "theta_pso", "spso"])
    def test_zero_coefficients_freeze_swarm(self, algorithm, hilly_scenario, monkeypatch):
        monkeypatch.setattr(optimizers, "COGNITIVE", 0.0)
        monkeypatch.setattr(optimizers, "SOCIAL", 0.0)
        config = SwarmConfig(swarm_size=8, max_iterations=5, seed=3)
        swarm_stream = _rng(config.seed, algorithm, 1)
        swarm = drive(init_swarm(algorithm, hilly_scenario, config), scored_on(hilly_scenario))
        initial = swarm.positions.copy()
        step = {"pso": pso_step, "theta_pso": theta_pso_step, "spso": spso_step}[algorithm]
        for _ in range(5):
            drive(step(swarm, config, swarm_stream), scored_on(hilly_scenario))
            assert np.array_equal(swarm.positions, initial)
            assert np.all(swarm.velocities == 0.0)


class TestGaOperators:
    def test_merge_makes_midpoint(self, flat_scenario):
        nodes = np.array([[0.0, 0.0, 0.0], [2.0, 2.0, 2.0]])
        rng = ScriptedRng(integers=[2, 0])  # op=merge, pair index 0
        out = ga_mutate(nodes, flat_scenario, rng)
        assert out.shape == (1, 3)
        assert np.array_equal(out[0], [1.0, 1.0, 1.0])

    def test_delete_guard_on_single_node(self, flat_scenario):
        nodes = np.array([[5.0, 5.0, 50.0]])
        rng = ScriptedRng(integers=[1])  # op=delete
        out = ga_mutate(nodes, flat_scenario, rng)
        assert np.array_equal(out, nodes)

    def test_add_inserts_midpoint_with_zero_jitter(self, flat_scenario):
        nodes = np.array([[10.0, 0.0, 0.0]])
        # full path = [start, node, goal]; segment 0 runs start -> node
        rng = ScriptedRng(integers=[0, 0])  # op=add, segment 0
        out = ga_mutate(nodes, flat_scenario, rng)
        assert out.shape == (2, 3)
        mid = 0.5 * (flat_scenario.start + nodes[0])
        assert np.allclose(out[0], mid)

    def test_crossover_at_waypoint_boundary(self):
        p1 = np.arange(12.0).reshape(4, 3)
        p2 = -np.arange(9.0).reshape(3, 3)
        c1, c2 = ga_crossover(p1, p2, max_nodes=8, c1=2, c2=1)
        assert np.array_equal(c1, np.vstack([p1[:2], p2[1:]]))
        assert np.array_equal(c2, np.vstack([p2[:1], p1[2:]]))

    def test_crossover_passthrough_for_single_node(self, flat_scenario, monkeypatch):
        """A pair with a single-node parent takes no cut: at crossover rate 1
        on one-node members the children are the tournament winners
        themselves, and a generation draws only its picks and coins."""
        monkeypatch.setattr(optimizers, "GA_CROSSOVER_RATE", 1.0)
        monkeypatch.setattr(optimizers, "GA_MUTATION_RATE", 0.0)
        rng = np.random.default_rng(5)
        for m in (2, 3, 10, 11):
            members = [np.full((1, 3), float(i)) for i in range(m)]
            fitness = rng.permutation(m).astype(float)
            pop = GaPopulation(scenario=flat_scenario, space=None, members=members, fitness=fitness)
            clone = copy.deepcopy(rng)
            picks = clone.integers(m, size=(m // 2, 2, 2)).reshape(-1, 2)[: m - 1]
            clone.random(m // 2)  # crossover coins
            clone.random(m - 1)  # mutation coins
            drive(ga_step(pop, SwarmConfig(swarm_size=m, max_iterations=1), rng), zeros)
            assert rng.bit_generator.state == clone.bit_generator.state
            assert pop.members[0] is members[int(np.argmin(fitness))]  # the elite
            for (a, b), child in zip(picks.tolist(), pop.members[1:]):
                assert child is members[a if fitness[a] <= fitness[b] else b]


class TestGaMembers:
    """GA scores each distinct member of a generation once and never writes
    a member array, so a member's bytes identify its fitness."""

    CONFIG = SwarmConfig(swarm_size=20, max_iterations=20, seed=1)

    def test_each_distinct_member_scored_once(self, hilly_scenario, monkeypatch):
        config = self.CONFIG
        score = scored_on(hilly_scenario)
        pop = drive(optimizers._init_ga("ga", hilly_scenario, config), score)
        rng = _rng(config.seed, "ga", 1)
        scored = []
        paths = optimizers._State.paths

        def recording_paths(state, genomes):
            scored.extend(g.tobytes() for g in genomes)
            return paths(state, genomes)

        monkeypatch.setattr(optimizers._State, "paths", recording_paths)
        reused = 0
        for _ in range(config.max_iterations):
            parents = {nodes.tobytes() for nodes in pop.members}
            before = pop.evaluations
            scored.clear()
            drive(ga_step(pop, config, rng), score)
            children = {nodes.tobytes() for nodes in pop.members}
            # Every child counts; only those new to this generation are scored.
            assert pop.evaluations - before == config.swarm_size
            assert len(set(scored)) == len(scored)
            assert set(scored) == children - parents
            reused += config.swarm_size - len(scored)
            # A reused fitness has the bits that scoring the child gives.
            rescored = [evaluate_paths(assemble_path(c, hilly_scenario), hilly_scenario)[0] for c in pop.members]
            assert np.array(rescored).tobytes() == pop.fitness.tobytes()
        assert reused > config.swarm_size * config.max_iterations // 2

    def test_members_are_never_written(self, hilly_scenario):
        """Generations bred from read-only members, so that any write into a
        member raises, give the trace of run()."""
        config = self.CONFIG
        score = scored_on(hilly_scenario)
        pop = drive(optimizers._init_ga("ga", hilly_scenario, config), score)
        rng = _rng(config.seed, "ga", 1)
        best = []
        for _ in range(config.max_iterations):
            for nodes in pop.members:
                nodes.setflags(write=False)
            drive(ga_step(pop, config, rng), score)
            best.append(pop.best()[0])
        trace = run("ga", hilly_scenario, config)
        assert best == trace.best_fitness.tolist()
        assert pop.evaluations == trace.evaluations


class TestDe:
    def test_zero_difference_vector_and_greedy(self, one_node_scenario, monkeypatch):
        monkeypatch.setattr(optimizers, "DE_CR", 1.0)
        optimum = np.array([50.0, 50.0, 70.0])
        bad = np.array([15.0, 85.0, 115.0])
        members = np.vstack([bad, optimum, optimum, optimum])
        space = SearchSpace(decode_cartesian, np.full(3, 0.0), np.full(3, 200.0), np.zeros(3, bool))
        fitness = evaluate_paths(
            np.stack([np.vstack([one_node_scenario.start, m[None], one_node_scenario.goal]) for m in members]),
            one_node_scenario,
        )
        pop = DePopulation(scenario=one_node_scenario, space=space, members=members.copy(), fitness=fitness.copy())
        config = SwarmConfig(swarm_size=4, max_iterations=1)
        drive(de_step(pop, config, np.random.default_rng(0)), scored_on(one_node_scenario))
        # target 0's mutant is built from three copies of the optimum, so the
        # trial equals the optimum and greedily replaces the bad member...
        assert np.array_equal(pop.members[0], optimum)
        # ...while the already-optimal members only accept equal-cost trials.
        assert pop.fitness[1:] == pytest.approx(fitness[1:])

    def test_population_too_small(self, one_node_scenario, monkeypatch):
        """The floor fails run() before init scores any genome."""
        scored = []
        monkeypatch.setattr(optimizers, "evaluate_paths", lambda paths, scenario: scored.append(paths))
        with pytest.raises(ValueError, match="at least 4"):
            run("de", one_node_scenario, SwarmConfig(swarm_size=3, max_iterations=1))
        assert scored == []


def make_colony(scenario, sources):
    sources = np.asarray(sources, dtype=float)
    space = SearchSpace(decode_cartesian, np.full(3, 0.0), np.full(3, 200.0), np.zeros(3, bool))
    paths = np.stack([np.vstack([scenario.start, s[None], scenario.goal]) for s in sources])
    fitness = evaluate_paths(paths, scenario)
    i = int(np.argmin(fitness))
    return AbcColony(
        scenario=scenario,
        space=space,
        sources=sources.copy(),
        fitness=fitness.copy(),
        trials=np.zeros(len(sources), dtype=int),
        best_genome=sources[i].copy(),
        best_fitness=float(fitness[i]),
        scout_stream=np.random.default_rng(5),
    )


class TestAbc:
    def test_null_move_increments_trial(self, one_node_scenario):
        colony = make_colony(one_node_scenario, [[50.0, 50.0, 70.0], [60.0, 60.0, 75.0]])
        picks = np.array([0])
        rng = ScriptedRng(integers=[1, 0], randoms=[0.5])  # dim 1, partner 1, phi=0
        cands = _abc_candidates(colony.sources, picks, rng)
        assert np.array_equal(cands[0], colony.sources[0])
        drive(_abc_greedy(colony, picks, cands), scored_on(one_node_scenario))
        assert colony.trials[0] == 1
        assert colony.trials[1] == 0

    def test_onlooker_weights_degenerate(self):
        w = onlooker_weights(np.array([math.inf, 5.0, math.inf]))
        assert w == pytest.approx([0.0, 1.0, 0.0])
        uniform = onlooker_weights(np.array([math.inf, math.inf]))
        assert uniform == pytest.approx([0.5, 0.5])

    def test_scout_replaces_exhausted_source(self, one_node_scenario):
        colony = make_colony(one_node_scenario, [[50.0, 50.0, 70.0], [60.0, 60.0, 75.0]])
        before = colony.sources[1].copy()
        colony.trials[:] = [0, 50]
        drive(_scout_phase(colony), scored_on(one_node_scenario))
        assert colony.trials[1] == 0
        assert not np.array_equal(colony.sources[1], before)

    def test_scout_retiring_best_source_keeps_best(self, one_node_scenario):
        """The colony's best is a record of its own: a scout may retire the
        source that holds it, and the lowest source fitness then rises."""
        colony = make_colony(one_node_scenario, [[50.0, 50.0, 70.0], [60.0, 60.0, 75.0]])
        best_fitness, best_genome = colony.best()
        assert best_fitness == colony.fitness[0] < colony.fitness[1]
        colony.trials[:] = [50, 0]
        drive(_scout_phase(colony), scored_on(one_node_scenario))
        assert colony.fitness.min() > best_fitness
        assert colony.best()[0] == best_fitness
        assert np.array_equal(colony.best()[1], best_genome)

    def test_scout_leaves_fresh_sources(self, one_node_scenario):
        colony = make_colony(one_node_scenario, [[50.0, 50.0, 70.0], [60.0, 60.0, 75.0]])
        before = colony.sources.copy()
        colony.trials[:] = [3, 7]
        drive(_scout_phase(colony), scored_on(one_node_scenario))
        assert np.array_equal(colony.sources, before)


class TestStepsEqualPerMemberReference:
    """de_step and _abc_candidates draw each generation's numbers as arrays
    and do their arithmetic on whole arrays; trials, candidates and the
    generator state they leave must equal the per-member loops of
    tests/oracles.py over the same draws."""

    SPACE = SearchSpace(decode_cartesian, np.full(30, 0.0), np.full(30, 200.0), np.zeros(30, bool))

    @pytest.mark.parametrize("m", [4, 20, 50])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_de_trials(self, m, seed):
        x = np.random.default_rng(100 + m).uniform(0.0, 200.0, (m, 30))
        pop = DePopulation(scenario=None, space=self.SPACE, members=x.copy(), fitness=np.zeros(m))
        seen = []
        pop.decode = lambda trials: trials
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        drive(
            de_step(pop, SwarmConfig(swarm_size=m, max_iterations=1), rng),
            lambda trials: seen.append(trials.copy()) or np.ones(len(trials)),
        )
        want = clamp_wrap(de_trials_reference(x, ref_rng, optimizers.DE_F, optimizers.DE_CR), self.SPACE)
        assert np.array_equal(seen[0], want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("m", [4, 20, 50])
    @pytest.mark.parametrize("onlookers", [False, True])
    def test_abc_candidates(self, m, onlookers):
        sources = np.random.default_rng(200 + m).uniform(0.0, 200.0, (m, 30))
        picks = np.arange(m)
        if onlookers:
            picks = np.random.default_rng(m).integers(m, size=m)
            assert len(np.unique(picks)) < m  # some source is picked twice
        rng, ref_rng = np.random.default_rng(m), np.random.default_rng(m)
        got = _abc_candidates(sources, picks, rng)
        assert np.array_equal(got, abc_candidates_reference(sources, picks, ref_rng))
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("seed", range(8))
    def test_phi_draw_equals_generator_uniform(self, seed):
        """_abc_candidates scales ``rng.random`` itself and the oracle calls
        ``Generator.uniform(-1, 1)``; a numpy that computes ``-1 + 2 u``
        differently breaks this identity, and with it the oracle test."""
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert np.array_equal(-1.0 + 2.0 * rng.random(500), ref_rng.uniform(-1.0, 1.0, 500))


class TestGenerationDraws:
    """Laws of the per-generation array draws, over many generations."""

    @pytest.mark.parametrize("m", [4, 5, 20, 50])
    def test_de_partners_distinct_and_not_self(self, m):
        rng = np.random.default_rng(m)
        for _ in range(200):
            partners = optimizers._de_partners(m, rng)
            assert partners.shape == (m, 3)
            triples = np.column_stack([np.arange(m), partners])
            assert all(len(set(row)) == 4 for row in triples.tolist())

    def test_de_partner_triples_uniform(self):
        """At m = 4 each member has 3! = 6 ordered partner triples, each with
        probability 1/6; chi-square over 60 000 draws, 5 degrees of
        freedom, below its 0.999 quantile (20.52)."""
        m, n = 4, 60_000
        rng = np.random.default_rng(2024)
        draws = np.stack([optimizers._de_partners(m, rng) for _ in range(n)])  # (n, m, 3)
        for i in range(m):
            others = [j for j in range(m) if j != i]
            triples = {t: 0 for t in itertools.permutations(others)}
            for t, count in zip(*np.unique(draws[:, i], axis=0, return_counts=True)):
                triples[tuple(t.tolist())] += count
            counts = np.array(list(triples.values()))
            assert len(triples) == 6
            chi2 = ((counts - n / 6) ** 2 / (n / 6)).sum()
            assert chi2 < 20.52, (i, counts)

    @pytest.mark.parametrize("s", [2, 3, 20])
    def test_abc_partner_differs_one_dimension_moves(self, s):
        rng = np.random.default_rng(s)
        for _ in range(200):
            sources = rng.uniform(0.0, 200.0, (s, 6))  # distinct in every dimension
            picks = rng.integers(s, size=s)
            cands = _abc_candidates(sources, picks, rng)
            # A partner equal to its source would leave its row unchanged.
            assert np.all((cands != sources[picks]).sum(axis=1) == 1)

    @pytest.mark.parametrize("seed", range(0, 200, 25))
    def test_ga_cut_draw_equals_scalar_draws(self, seed):
        """ga_step draws every crossed pair's cut points in one
        ``integers(1, highs)`` call; a numpy whose array-bound draws consume
        the stream otherwise than successive scalar draws breaks this
        identity, and with it the GA's golden hashes."""
        sizes = np.random.default_rng(seed)
        for _ in range(25):
            highs = sizes.integers(2, 2 * 12, size=sizes.integers(1, 60)).tolist()  # 2 draws one value
            rng, ref_rng = np.random.default_rng(seed + 1000), np.random.default_rng(seed + 1000)
            for _ in range(3):  # with normal draws between, as mutations make
                assert rng.integers(1, highs).tolist() == [int(ref_rng.integers(1, h)) for h in highs]
                assert np.array_equal(rng.normal(0.0, 1.0, 3), ref_rng.normal(0.0, 1.0, 3))
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("m", [2, 3, 10, 11])
    def test_ga_winner_is_fitter_of_pair(self, m, flat_scenario, monkeypatch):
        """With no crossover or mutation the children are the tournament
        winners: the fitter of each pair of picks, a tie to the first."""
        monkeypatch.setattr(optimizers, "GA_CROSSOVER_RATE", 0.0)
        monkeypatch.setattr(optimizers, "GA_MUTATION_RATE", 0.0)
        fitness_rng = np.random.default_rng(m)
        pop = GaPopulation(
            scenario=flat_scenario,
            space=None,
            members=[],
            fitness=np.empty(0),
        )
        # Few distinct values, so many pairs tie; a generator that scores nothing.
        def evaluate_members(members):
            return fitness_rng.choice([1.0, 2.0, 3.0, math.inf], len(members)), {}
            yield

        pop.evaluate_members = evaluate_members
        rng = np.random.default_rng(100 + m)
        for _ in range(100):
            pop.members = [np.full((1, 3), float(i)) for i in range(m)]  # member i holds i
            pop.fitness, _ = drive(pop.evaluate_members(pop.members), None)
            fitness = pop.fitness.copy()
            # The step's first draw: its picks, pair-major, one pair per kept child.
            picks = copy.deepcopy(rng).integers(m, size=(m // 2, 2, 2)).reshape(-1, 2)[: m - 1]
            drive(ga_step(pop, SwarmConfig(swarm_size=m, max_iterations=1), rng), None)
            got = [int(c[0, 0]) for c in pop.members]
            assert got[0] == int(np.argmin(fitness))  # the elite
            for (a, b), winner in zip(picks.tolist(), got[1:]):
                assert winner == (a if fitness[a] <= fitness[b] else b)


class TestStreams:
    """Each stream's SeedSequence gets its entropy as uint32 words; its pool
    must be the one the tuple (seed, algorithm id, *key) gives."""

    def test_algorithm_ids(self):
        # An algorithm's index in ALGORITHMS, the solver table's order, is its
        # id in every stream: reordering the table changes every trace.
        assert ALGORITHMS == ("pso", "theta_pso", "qpso", "spso", "ga", "de", "abc")

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63 + 12345, 2**64 - 1])
    @pytest.mark.parametrize("algorithm", ["pso", "abc"])
    def test_equal_to_tuple_entropy(self, seed, algorithm):
        streams = _particle_streams(seed, algorithm, 3) + [_rng(seed, algorithm, 1), _rng(seed, algorithm, 2)]
        keys = [(0, 0), (0, 1), (0, 2), (1,), (2,)]
        for stream, key in zip(streams, keys):
            want = np.random.SeedSequence((seed, ALGORITHMS.index(algorithm), *key))
            assert np.array_equal(stream.bit_generator.seed_seq.generate_state(4), want.generate_state(4))
            assert np.array_equal(stream.random(5), np.random.default_rng(want).random(5))


def _threat_ring(terrain):
    """A tight ring of overlapping cylinders walls off the goal at its centre."""
    ring = tuple(
        Threat(50.0 + 25.0 * math.cos(a), 50.0 + 25.0 * math.sin(a), 12.0)
        for a in np.linspace(0.0, 2.0 * math.pi, 10, endpoint=False)
    )
    return Scenario(
        terrain=terrain,
        threats=ring,
        start=[10.0, 10.0, 70.0],
        goal=[50.0, 50.0, 70.0],
        constraints=FlightConstraints(),
        weights=CostWeights(),
        n_waypoints=5,
    )


class TestInitEqualsPerRoundReference:
    """The initial population, its fitness and the evaluation count must
    equal the round-by-round redraw of tests/oracles.py, however the
    sampler groups a stream's tries, and the sampler must score each block
    of tries in one batch.  On s3 and s7 some particles of every algorithm
    exhaust their retries."""

    @pytest.fixture(scope="class")
    def suite(self):
        return build_benchmark_suite(0)

    def check(self, algorithm, scenario, swarm):
        space_of, _, _ = optimizers._SOLVERS[algorithm]
        space = space_of(scenario)
        batches = []
        score = scored_on(scenario)
        state, genomes, fitness = drive(
            optimizers._sample(algorithm, scenario, 3, swarm), lambda paths: batches.append(paths) or score(paths)
        )
        want_genomes, want_fitness, want_evaluations = sample_reference(
            lambda batch: random_genomes(space, scenario, batch, 1)[:, 0],
            lambda g: evaluate_paths(space.decode(g, scenario), scenario),
            _particle_streams(3, algorithm, swarm),
            optimizers.INIT_RETRIES,
        )
        assert np.array_equal(genomes, want_genomes)
        assert np.array_equal(fitness, want_fitness)
        assert state.evaluations == want_evaluations
        # One scored batch per block of tries.
        assert len(batches) <= math.ceil(optimizers.INIT_RETRIES / optimizers.INIT_BLOCK)
        return state, fitness

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("index", [2, 6])
    @pytest.mark.parametrize("swarm", [12, 37])
    def test_suite(self, suite, algorithm, index, swarm):
        _, fitness = self.check(algorithm, suite[index], swarm)
        assert np.isinf(fitness).any()  # some particle used every retry

    @pytest.mark.parametrize("retries", [1, 7])
    @pytest.mark.parametrize("algorithm", ["pso", "spso", "theta_pso"])
    def test_retry_counts(self, suite, algorithm, retries, monkeypatch):
        monkeypatch.setattr(optimizers, "INIT_RETRIES", retries)
        state, _ = self.check(algorithm, suite[6], 37)
        assert state.evaluations <= 37 * retries

    @pytest.mark.parametrize("retries", [7, 20])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_closed_ring_uses_every_retry(self, flat_terrain, algorithm, retries, monkeypatch):
        monkeypatch.setattr(optimizers, "INIT_RETRIES", retries)
        state, fitness = self.check(algorithm, _threat_ring(flat_terrain), 12)
        assert np.all(np.isinf(fitness))
        assert state.evaluations == 12 * retries


class TestRun:
    def test_unknown_algorithm(self, flat_scenario):
        with pytest.raises(ValueError, match="unknown algorithm"):
            run("simulated_annealing", flat_scenario, SwarmConfig(swarm_size=4, max_iterations=1))

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_deterministic_traces(self, algorithm, hilly_scenario):
        config = SwarmConfig(swarm_size=10, max_iterations=8, seed=21)
        a = run(algorithm, hilly_scenario, config)
        b = run(algorithm, hilly_scenario, config)
        assert np.array_equal(a.best_fitness, b.best_fitness)
        assert np.array_equal(a.best_path, b.best_path)
        assert a.evaluations == b.evaluations

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_trace_monotone_and_consistent(self, algorithm, hilly_scenario):
        config = SwarmConfig(swarm_size=12, max_iterations=15, seed=4)
        trace = run(algorithm, hilly_scenario, config)
        assert len(trace.best_fitness) == config.max_iterations
        assert not np.any(trace.best_fitness[1:] > trace.best_fitness[:-1])
        assert trace.final_fitness == trace.best_fitness[-1]
        assert trace.best_path.shape[1] == 3
        assert np.array_equal(trace.best_path[0], hilly_scenario.start)
        assert np.array_equal(trace.best_path[-1], hilly_scenario.goal)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_trace_is_lowest_fitness_evaluated(self, algorithm, hilly_scenario, monkeypatch):
        """best_fitness[k] is the lowest fitness any evaluation, init
        included, has returned by the end of iteration k."""
        lowest = [math.inf]
        after_steps = []
        evaluate = optimizers.evaluate_paths

        def recording_evaluate(paths, scenario):
            fitness = evaluate(paths, scenario)
            lowest[0] = min(lowest[0], fitness.min(initial=math.inf))
            return fitness

        def recording(step):
            def wrapped(*args):
                yield from step(*args)
                after_steps.append(lowest[0])

            return wrapped

        monkeypatch.setattr(optimizers, "evaluate_paths", recording_evaluate)
        for name, (space_of, init, step) in optimizers._SOLVERS.items():
            monkeypatch.setitem(optimizers._SOLVERS, name, (space_of, init, recording(step)))
        trace = run(algorithm, hilly_scenario, SwarmConfig(swarm_size=12, max_iterations=20, seed=2))
        assert trace.best_fitness.tolist() == after_steps
        assert trace.best_fitness[-1] < trace.best_fitness[0]  # the rule is tested on improvements

    def test_local_bests_never_increase(self, hilly_scenario):
        config = SwarmConfig(swarm_size=10, max_iterations=1, seed=9)
        swarm_stream = _rng(config.seed, "spso", 1)
        score = scored_on(hilly_scenario)
        swarm = drive(init_swarm("spso", hilly_scenario, config), score)
        prev = swarm.best_fitness.copy()
        for _ in range(25):
            drive(spso_step(swarm, config, swarm_stream), score)
            assert np.all(swarm.best_fitness <= prev)
            prev = swarm.best_fitness.copy()

    def test_impossible_scenario_reports_failure(self, flat_terrain):
        trace = run("pso", _threat_ring(flat_terrain), SwarmConfig(swarm_size=10, max_iterations=5, seed=0))
        assert not trace.feasible
        assert math.isinf(trace.final_fitness)
        assert np.all(np.isinf(trace.best_fitness))

    def test_flat_scenario_reaches_analytic_optimum(self, flat_scenario):
        direct = float(np.linalg.norm(flat_scenario.goal - flat_scenario.start))
        for algorithm in ("spso", "pso"):
            trace = run(algorithm, flat_scenario, SwarmConfig(swarm_size=60, max_iterations=80, seed=2))
            assert trace.feasible
            assert trace.final_fitness <= 1.05 * direct

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_positions_respect_bounds(self, algorithm, hilly_scenario):
        config = SwarmConfig(swarm_size=8, max_iterations=6, seed=13)
        trace = run(algorithm, hilly_scenario, config)
        x_min, x_max, y_min, y_max = hilly_scenario.terrain.bounds
        interior = trace.best_path[1:-1]
        if algorithm == "spso":
            # chained decode is not box-bounded; just sanity-check shape
            assert interior.shape[1] == 3
        else:
            assert np.all(interior[:, 0] >= x_min - 1e-9)
            assert np.all(interior[:, 0] <= x_max + 1e-9)
            assert np.all(interior[:, 1] >= y_min - 1e-9)
            assert np.all(interior[:, 1] <= y_max + 1e-9)


class TestBudget:
    def test_de_budget_rule(self):
        base = SwarmConfig(swarm_size=100, max_iterations=100)
        de = budgeted_config("de", base)
        assert de.swarm_size == 20
        assert de.max_iterations == 500
        assert de.swarm_size * de.max_iterations == base.swarm_size * base.max_iterations
        assert budgeted_config("pso", base) is base

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SwarmConfig(swarm_size=1, max_iterations=10)
        with pytest.raises(ValueError):
            SwarmConfig(swarm_size=10, max_iterations=0)
        with pytest.raises(ValueError):
            SwarmConfig(swarm_size=10, max_iterations=10, seed=-1)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_evaluation_budget_bookkeeping(self, algorithm, hilly_scenario):
        m, iters = 10, 12
        trace = run(algorithm, hilly_scenario, SwarmConfig(swarm_size=m, max_iterations=iters, seed=6))
        # every algorithm consumes about m evaluations per iteration plus
        # initialization (with up to 20 retries per particle)
        assert trace.evaluations >= (m // 2) * (iters + 1)
        assert trace.evaluations <= m * (iters + 25)

    @pytest.fixture(scope="class")
    def suite(self):
        return build_benchmark_suite(0)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("index", [2, 6])
    def test_loop_spends_swarm_times_iterations(self, suite, algorithm, index):
        """The candidates counted after initialization are the equal loop
        budget; those counted before are the initializer's own."""
        scenario = suite[index]
        config = budgeted_config(algorithm, SwarmConfig(swarm_size=20, max_iterations=15, seed=1))
        trace = run(algorithm, scenario, config)
        _, init, _ = optimizers._SOLVERS[algorithm]
        assert trace.init_evaluations == drive(init(algorithm, scenario, config), scored_on(scenario)).evaluations
        assert trace.evaluations - trace.init_evaluations == config.swarm_size * config.max_iterations

    @pytest.mark.parametrize("index", [2, 6])
    def test_abc_scouts_add_at_most_one_per_iteration(self, suite, index, monkeypatch):
        monkeypatch.setattr(optimizers, "ABC_LIMIT", 3)
        config = SwarmConfig(swarm_size=20, max_iterations=15, seed=1)
        trace = run("abc", suite[index], config)
        loop = trace.evaluations - trace.init_evaluations
        budget = config.swarm_size * config.max_iterations
        assert budget < loop <= budget + config.max_iterations  # some scout flew
