"""Population-based path optimizers behind one ``run`` entry point.

* pso       - inertial velocity/position updates on cartesian genomes
* theta_pso - the same algebra on phase-angle genomes
* qpso      - velocity-free sampling around a local attractor
* spso      - inertial updates on spherical motion vectors (azimuth
              differences take the short way around)
* ga        - variable-length waypoint genomes with add/delete/merge
              mutations and one-point crossover
* de        - DE/rand/1/bin with greedy selection
* abc       - employed/onlooker/scout phases over food sources

Each algorithm is a row of the solver table: a search space, an
initializer and a step ``step(state, config, rng)`` that updates the
state in place; the driver knows nothing else about any algorithm.
Initializers and steps are generators: each yields the decoded paths of a
batch of candidates and is sent back their fitness, as in
``fitness = yield state.paths(genomes)``.  ``run_lockstep`` drives many
runs on one scenario and scores the batches of all of them that have one
path length in one ``evaluate_paths`` call; ``run`` is that driver with
one run.  Every state derives from ``_State``, whose ``paths`` decodes and
counts every batch of candidates.  Its ``best()`` is the lowest entry
(lowest index on ties) of a record that never loses its best: the
swarm's local bests, DE's greedy members, GA's population with the elite
at index 0, and for ABC alone, whose scouts can retire its best source,
a separate (fitness, genome) record.

Fitness is always the scenario's total path cost; infeasible candidates
carry infinite fitness, stay in the population, and are never admitted as
a best while a finite particle exists.  Every stochastic draw flows from
named streams derived from (seed, algorithm, key) (see ``_rng``), so
traces are bit-reproducible.
"""

from __future__ import annotations

import math
import time
from collections.abc import Generator
from dataclasses import dataclass, field, replace

import numpy as np

from . import encodings
from .cost import evaluate_paths
from .encodings import SearchSpace, assemble_path, clamp_velocity, clamp_wrap, wrap_difference
from .scenario import ConfigError, Scenario, require_int

INIT_RETRIES = 20  # attempts per particle to find a finite-fitness genome
INIT_BLOCK = 4  # attempts drawn per particle in one sampler call

# Solver constants fixed by the paper, read where they are used, so that
# patching one changes the next step.
INERTIA = 1.0  # initial PSO-family inertia weight
DAMPING = 0.98  # inertia weight factor per PSO-family iteration
COGNITIVE = 1.5  # PSO-family pull toward the particle's own best
SOCIAL = 1.5  # PSO-family pull toward the swarm's best
QPSO_BETA = (1.0, 0.5)  # QPSO contraction coefficient, linear start -> end
GA_CROSSOVER_RATE = 0.8
GA_MUTATION_RATE = 0.2
DE_F = 0.5  # DE differential weight
DE_CR = 0.9  # DE crossover rate
DE_MIN_POPULATION = 4  # a member and three distinct partners
ABC_LIMIT = 50  # ABC failed trials before a source is retired

# Rows per stacked evaluate_paths call.  The cost per path of one call falls
# with its rows up to about 1000 and rises past 1500 (on s4 of the suite and
# on the 1201x1201 DEM; see CHANGES.md).
MAX_STACK = 1000


@dataclass
class SwarmConfig:
    """Population size, iteration count and seed of one run.  Every
    coefficient the paper fixes is a module constant: INERTIA, DAMPING,
    COGNITIVE, SOCIAL, QPSO_BETA, GA_CROSSOVER_RATE, GA_MUTATION_RATE,
    DE_F, DE_CR and ABC_LIMIT."""

    swarm_size: int = 500
    max_iterations: int = 200
    seed: int = 0

    def __post_init__(self):
        for name, minimum in (("swarm_size", 2), ("max_iterations", 1), ("seed", 0)):
            require_int(name, getattr(self, name), minimum)


@dataclass
class EvolutionTrace:
    """Result of one optimization run."""

    algorithm: str
    seed: int
    best_fitness: np.ndarray  # global best after each iteration
    best_genome: np.ndarray
    best_path: np.ndarray
    evaluations: int
    init_evaluations: int  # the candidates counted before the first step

    @property
    def final_fitness(self) -> float:
        return float(self.best_fitness[-1])

    @property
    def feasible(self) -> bool:
        """False marks a failed run: no finite-fitness path was ever found."""
        return math.isfinite(self.final_fitness)


def _entropy(seed: int, algorithm: str, *key: int) -> np.ndarray:
    """The uint32 words ``SeedSequence((seed, algorithm id, *key))`` coerces
    its tuple to: the seed as little-endian 32-bit words (at least one), then
    one word per entry.  A sequence given these words as an array has the
    same pool, and skips that coercion in Python."""
    words = [seed & 0xFFFFFFFF]
    while seed >> 32:
        seed >>= 32
        words.append(seed & 0xFFFFFFFF)
    return np.array(words + [ALGORITHMS.index(algorithm), *key], dtype=np.uint32)


def _rng(seed: int, algorithm: str, *key: int) -> np.random.Generator:
    """The stream of (seed, algorithm, key).  Keys: (0, i) is particle i's
    initialization stream, (1,) the swarm-level iteration draws and (2,)
    ABC's scouts."""
    return np.random.default_rng(np.random.SeedSequence(_entropy(seed, algorithm, *key)))


def _particle_streams(seed: int, algorithm: str, count: int) -> list:
    """``_rng(seed, algorithm, 0, i)`` for i < count."""
    entropy = np.tile(_entropy(seed, algorithm, 0, 0), (count, 1))
    entropy[:, -1] = np.arange(count)
    return [np.random.default_rng(np.random.SeedSequence(row)) for row in entropy]


# --- shared state ----------------------------------------------------------------


@dataclass
class _State:
    """Problem, search space and number of candidate paths scored so far."""

    scenario: Scenario
    space: SearchSpace
    evaluations: int = field(default=0, kw_only=True)

    def decode(self, genomes) -> np.ndarray:
        return encodings.decode(self.space.kind, genomes, self.scenario)

    def paths(self, genomes) -> np.ndarray:
        """Decode and count a batch of genomes: the paths a step yields to
        have them scored."""
        self.evaluations += len(genomes)
        return self.decode(genomes)


def _sample(algorithm: str, scenario: Scenario, seed: int, count: int) -> Generator:
    """One scored genome for each of ``count`` particle streams, infeasible
    ones redrawn from their own stream a bounded number of times; a
    generator that returns (bare state, genomes, fitness).

    Every INIT_BLOCK-th round draws the next INIT_BLOCK tries of each stream
    still infeasible in one sampler call, and each round scores its try
    from that block: the genomes, scores and evaluation count of drawing
    one try per round.  No stream is read after init, so the tries left
    over once a particle is feasible change nothing."""
    streams = _particle_streams(seed, algorithm, count)
    space_of, _, _ = _SOLVERS[algorithm]
    base = _State(scenario, space_of(scenario))
    genomes = np.empty((count, base.space.dims))
    fitness = np.empty(count)
    bad = np.arange(count)
    for r in range(INIT_RETRIES):
        if r % INIT_BLOCK == 0:
            drawn = bad  # the particle of each block row, ascending
            block = encodings.random_genomes(
                base.space, scenario, [streams[i] for i in bad], min(INIT_BLOCK, INIT_RETRIES - r)
            )
        batch = block[np.searchsorted(drawn, bad), r % INIT_BLOCK]
        genomes[bad] = batch
        fitness[bad] = yield base.paths(batch)
        bad = np.flatnonzero(~np.isfinite(fitness))
        if bad.size == 0:
            break
    return base, genomes, fitness


def _lowest(fitness, genomes) -> tuple[float, np.ndarray]:
    """The lowest entry of ``fitness`` and its genome; the lowest index wins ties."""
    i = int(np.argmin(fitness))
    return float(fitness[i]), genomes[i]


def _keep_best(colony, fitness, genomes) -> None:
    """Keep the lowest of ``fitness`` as ABC's best if it improves it; ABC
    alone keeps its best apart, since a scout can retire the source holding it."""
    best_fitness, best_genome = _lowest(fitness, genomes)
    if best_fitness < colony.best_fitness:
        colony.best_fitness = best_fitness
        colony.best_genome = best_genome.copy()


# --- PSO family ----------------------------------------------------------------


@dataclass
class Swarm(_State):
    """Vectorized particle state; row i is particle i."""

    positions: np.ndarray        # (M, D)
    velocities: np.ndarray       # (M, D); qpso leaves them at zero
    fitness: np.ndarray          # (M,)
    best_positions: np.ndarray   # (M, D) local bests
    best_fitness: np.ndarray     # (M,)
    inertia: float
    iteration: int = 0

    def update_bests(self) -> None:
        improved = self.fitness < self.best_fitness
        self.best_positions[improved] = self.positions[improved]
        self.best_fitness[improved] = self.fitness[improved]

    def best(self) -> tuple[float, np.ndarray]:
        return _lowest(self.best_fitness, self.best_positions)


def init_swarm(algorithm: str, scenario: Scenario, config: SwarmConfig) -> Generator:
    base, positions, fitness = yield from _sample(algorithm, scenario, config.seed, config.swarm_size)
    return Swarm(
        **vars(base),
        positions=positions,
        velocities=np.zeros_like(positions),
        fitness=fitness,
        best_positions=positions.copy(),
        best_fitness=fitness.copy(),
        inertia=INERTIA,
    )


def inertial_step(swarm: Swarm, config: SwarmConfig, rng) -> Generator:
    """v <- w v + eta1 r1 (local - x) + eta2 r2 (global - x); x <- x + v.

    The update of pso on cartesian genomes, of theta_pso on phase angles
    clamped to [-pi/2, pi/2], and of spso on (rho, psi, phi) motion
    vectors, where azimuth attraction uses the wrapped short-way
    difference."""
    shape = swarm.positions.shape
    r1 = rng.random(shape)
    r2 = rng.random(shape)
    _, g_best = swarm.best()
    to_local = wrap_difference(swarm.best_positions - swarm.positions, swarm.space)
    to_global = wrap_difference(g_best[None, :] - swarm.positions, swarm.space)
    v = (
        swarm.inertia * swarm.velocities
        + COGNITIVE * r1 * to_local
        + SOCIAL * r2 * to_global
    )
    swarm.velocities = clamp_velocity(v, swarm.space)
    swarm.positions = clamp_wrap(swarm.positions + swarm.velocities, swarm.space)
    swarm.fitness = yield swarm.paths(swarm.positions)
    swarm.update_bests()
    swarm.inertia *= DAMPING
    swarm.iteration += 1


def qpso_beta(config: SwarmConfig, iteration: int) -> float:
    start, end = QPSO_BETA
    span = max(config.max_iterations - 1, 1)
    return start + (end - start) * min(iteration, span) / span


def qpso_step(swarm: Swarm, config: SwarmConfig, rng) -> Generator:
    """Sample x around the attractor p = a l + (1-a) g with spread set by
    the distance to the swarm's mean best position."""
    shape = swarm.positions.shape
    beta = qpso_beta(config, swarm.iteration)
    mbest = swarm.best_positions.mean(axis=0)
    a = rng.random(shape)
    u = 1.0 - rng.random(shape)  # (0, 1]: keeps ln(1/u) finite
    sign = np.where(rng.random(shape) < 0.5, 1.0, -1.0)
    _, g_best = swarm.best()
    p = a * swarm.best_positions + (1.0 - a) * g_best[None, :]
    spread = 2.0 * beta * np.abs(mbest[None, :] - swarm.positions)
    swarm.positions = clamp_wrap(p + sign * 0.5 * spread * np.log(1.0 / u), swarm.space)
    swarm.fitness = yield swarm.paths(swarm.positions)
    swarm.update_bests()
    swarm.iteration += 1


# --- GA --------------------------------------------------------------------------


@dataclass
class GaPopulation(_State):
    """Variable-length waypoint genomes; member i is an (k_i, 3) array of
    interior nodes with k_i in [1, ga_max_nodes].  No code writes a member,
    so an unchanged child shares its parent's array, and a member's bytes
    identify its fitness (``evaluate_members``)."""

    members: list
    fitness: np.ndarray
    known: dict = field(default_factory=dict)  # each member's bytes -> its fitness

    def decode(self, genomes) -> np.ndarray:
        """Members are interior nodes: (k, 3), or (M, k, 3) for one k."""
        return assemble_path(genomes, self.scenario)

    def evaluate_members(self, members) -> Generator:
        """Score a generation bred from ``self.members``, each distinct
        member once; a generator that returns its fitness and its ``known``.
        A member whose nodes equal, byte for byte, a member of the current
        population takes that fitness: the kernels score row by row, so
        scoring it again would give the same bits.  The first copy of every
        other distinct member is yielded, in one batch per node count (the
        byte length holds the count).  Every member counts as an evaluation."""
        keys = [nodes.tobytes() for nodes in members]
        groups: dict[int, dict[bytes, np.ndarray]] = {}  # node count -> first copy of each new member
        for key, nodes in zip(keys, members):
            if key not in self.known:
                groups.setdefault(len(nodes), {}).setdefault(key, nodes)
        self.evaluations += len(members) - sum(map(len, groups.values()))
        scores = dict(self.known)
        for k in sorted(groups):
            batch = groups[k]
            scores.update(zip(batch, (yield self.paths(np.array(list(batch.values())))).tolist()))
        fitness = np.array([scores[key] for key in keys])
        return fitness, dict(zip(keys, fitness.tolist()))

    def best(self) -> tuple[float, np.ndarray]:
        return _lowest(self.fitness, self.members)


def ga_max_nodes(scenario: Scenario) -> int:
    """The most interior nodes a GA member may have."""
    return 2 * scenario.n_interior


def _init_ga(algorithm: str, scenario: Scenario, config: SwarmConfig) -> Generator:
    base, genomes, fitness = yield from _sample(algorithm, scenario, config.seed, config.swarm_size)
    members = [g.reshape(-1, 3) for g in genomes]
    known = dict(zip((nodes.tobytes() for nodes in members), fitness.tolist()))
    return GaPopulation(**vars(base), members=members, fitness=fitness, known=known)


def ga_crossover(p1: np.ndarray, p2: np.ndarray, max_nodes: int, c1: int, c2: int):
    """One-point crossover after node ``c1`` of ``p1`` and ``c2`` of ``p2``,
    each child cut to ``max_nodes``."""
    child1 = np.concatenate((p1[:c1], p2[c2:]))[:max_nodes]
    child2 = np.concatenate((p2[:c2], p1[c1:]))[:max_nodes]
    return child1, child2


def ga_mutate(nodes: np.ndarray, scenario: Scenario, rng) -> np.ndarray:
    """Apply one of the three structural mutations, each equally likely;
    a mutation whose length guard fails leaves the genome unchanged."""
    op = int(rng.integers(3))
    if op == 0:  # add: midpoint of a random segment of the full path, jittered
        if len(nodes) >= ga_max_nodes(scenario):
            return nodes
        seg = int(rng.integers(len(nodes) + 1))  # of the len(nodes) + 1 segments
        a = nodes[seg - 1] if seg > 0 else scenario.start
        b = nodes[seg] if seg < len(nodes) else scenario.goal
        mid = 0.5 * (a + b) + rng.normal(0.0, scenario.terrain.cell_size, 3)
        lo, hi = scenario.axis_bounds.T  # the bounds of one node
        return np.concatenate((nodes[:seg], np.clip(mid, lo, hi)[None], nodes[seg:]))
    if op == 1:  # delete a random node, keeping at least one
        if len(nodes) <= 1:
            return nodes
        i = int(rng.integers(len(nodes)))
        return np.concatenate((nodes[:i], nodes[i + 1:]))
    # merge two adjacent nodes into their midpoint
    if len(nodes) < 2:
        return nodes
    i = int(rng.integers(len(nodes) - 1))
    mid = 0.5 * (nodes[i] + nodes[i + 1])
    return np.concatenate((nodes[:i], mid[None], nodes[i + 2:]))


def ga_step(population: GaPopulation, config: SwarmConfig, rng) -> Generator:
    """Tournament selection, one-point crossover, structural mutation,
    elitism of one: the best member is carried to index 0.

    Each generation draws its m // 2 parent pairs as binary tournaments
    (the fitter of two uniform picks, a tie to the first), one crossover
    coin per pair and one mutation coin per child it keeps, as arrays.  A
    pair crosses if its coin came up and no parent has a single node; the
    cuts of every crossing pair, bounded by the parents' lengths, are drawn
    in one call (equal to drawing them pair by pair).  Mutations are drawn
    per child, since lengths vary."""
    members = population.members
    m = len(members)
    fitness = population.fitness
    picks = rng.integers(m, size=(m // 2, 2, 2))  # pair, parent, pick
    first, second = picks[..., 0], picks[..., 1]
    parents = np.where(fitness[first] <= fitness[second], first, second)
    coins = rng.random(m // 2) < GA_CROSSOVER_RATE
    mutated = rng.random(m - 1) < GA_MUTATION_RATE
    pairs = [(members[i], members[j]) for i, j in parents.tolist()]
    crossing = [coin and min(map(len, pair)) > 1 for pair, coin in zip(pairs, coins)]
    highs = [len(p) for pair, cross in zip(pairs, crossing) if cross for p in pair]
    cuts = iter(rng.integers(1, highs).reshape(-1, 2).tolist())
    max_nodes = ga_max_nodes(population.scenario)
    children = []
    for pair, cross in zip(pairs, crossing):
        children += ga_crossover(*pair, max_nodes, *next(cuts)) if cross else pair
    new_members = [population.best()[1]]
    for child, mutate in zip(children, mutated):  # drops the m-th child of an even m
        if mutate:
            child = ga_mutate(child, population.scenario, rng)
        new_members.append(child)
    # Scored against the generation that bred them, before it is replaced.
    population.fitness, population.known = yield from population.evaluate_members(new_members)
    population.members = new_members


# --- DE ---------------------------------------------------------------------------


@dataclass
class DePopulation(_State):
    members: np.ndarray   # (M, D)
    fitness: np.ndarray

    def best(self) -> tuple[float, np.ndarray]:
        return _lowest(self.fitness, self.members)


def _init_de(algorithm: str, scenario: Scenario, config: SwarmConfig) -> Generator:
    if config.swarm_size < DE_MIN_POPULATION:
        raise ConfigError(f"DE needs a swarm_size of at least {DE_MIN_POPULATION}, got {config.swarm_size}")
    base, genomes, fitness = yield from _sample(algorithm, scenario, config.seed, config.swarm_size)
    return DePopulation(**vars(base), members=genomes, fitness=fitness)


def _de_partners(m: int, rng) -> np.ndarray:
    """(m, 3) partners r1, r2, r3 of each member: distinct, none the member
    itself, every ordered triple equally likely, as when drawn one by one
    with repeats rejected.  Sorting a row of uniform keys, the member's own
    key set to +inf, orders the other m - 1 members uniformly at random."""
    keys = rng.random((m, m))
    np.fill_diagonal(keys, np.inf)
    return np.argsort(keys, axis=1)[:, :3]


def de_step(population: DePopulation, config: SwarmConfig, rng) -> Generator:
    """DE/rand/1/bin generation with greedy replacement."""
    x = population.members
    m, d = x.shape
    r1, r2, r3 = _de_partners(m, rng).T
    mutants = x[r1] + DE_F * (x[r2] - x[r3])
    cross = rng.random((m, d)) < DE_CR
    cross[np.arange(m), rng.integers(d, size=m)] = True  # at least one mutant dimension
    trials = clamp_wrap(np.where(cross, mutants, x), population.space)
    trial_fitness = yield population.paths(trials)
    accept = trial_fitness <= population.fitness
    population.members = np.where(accept[:, None], trials, x)
    population.fitness = np.where(accept, trial_fitness, population.fitness)


# --- ABC --------------------------------------------------------------------------


@dataclass
class AbcColony(_State):
    """Food sources (one per employed bee); onlookers equal employed."""

    sources: np.ndarray    # (S, D)
    fitness: np.ndarray
    trials: np.ndarray     # failures since last improvement
    best_genome: np.ndarray
    best_fitness: float
    scout_stream: np.random.Generator

    def best(self) -> tuple[float, np.ndarray]:
        return self.best_fitness, self.best_genome


def _init_abc(algorithm: str, scenario: Scenario, config: SwarmConfig) -> Generator:
    n_sources = max(2, config.swarm_size // 2)
    base, genomes, fitness = yield from _sample(algorithm, scenario, config.seed, n_sources)
    best_fitness, best_genome = _lowest(fitness, genomes)
    return AbcColony(
        **vars(base),
        sources=genomes,
        fitness=fitness,
        trials=np.zeros(n_sources, dtype=int),
        best_genome=best_genome.copy(),
        best_fitness=best_fitness,
        scout_stream=_rng(config.seed, "abc", 2),
    )


def _abc_candidates(sources: np.ndarray, picks: np.ndarray, rng) -> np.ndarray:
    """One-dimension neighbor moves v = x + phi (x - x_partner): per pick a
    uniform dimension, a uniform partner other than the source and
    phi ~ U(-1, 1), each drawn for all picks at once."""
    s, d = sources.shape
    n = len(picks)
    dims = rng.integers(d, size=n)
    k = rng.integers(s - 1, size=n)
    partners = k + (k >= picks)  # skips the source itself
    phi = -1.0 + 2.0 * rng.random(n)
    x = sources[picks, dims]
    cands = sources[picks]
    cands[np.arange(n), dims] = x + phi * (x - sources[partners, dims])
    return cands


def _abc_greedy(colony: AbcColony, picks: np.ndarray, cands: np.ndarray) -> Generator:
    cands = clamp_wrap(cands, colony.space)
    fitness = yield colony.paths(cands)
    for row, i in enumerate(picks):
        if fitness[row] < colony.fitness[i]:
            colony.sources[i] = cands[row]
            colony.fitness[i] = fitness[row]
            colony.trials[i] = 0
        else:
            colony.trials[i] += 1


def onlooker_weights(fitness: np.ndarray) -> np.ndarray:
    """Selection probabilities 1 / (1 + f), zero for infinite-cost sources;
    uniform fallback when every source is infinite."""
    w = np.where(np.isfinite(fitness), 1.0 / (1.0 + fitness), 0.0)
    total = w.sum()
    if total <= 0:
        return np.full(len(fitness), 1.0 / len(fitness))
    return w / total


def _scout_phase(colony: AbcColony) -> Generator:
    """Retire the most exhausted source, at most one per cycle."""
    worst = int(np.argmax(colony.trials))
    if colony.trials[worst] < ABC_LIMIT:
        return
    fresh = encodings.random_genomes(colony.space, colony.scenario, [colony.scout_stream])[0]
    colony.sources[worst] = fresh
    colony.fitness[worst] = (yield colony.paths(fresh[None]))[0]
    colony.trials[worst] = 0
    _keep_best(colony, colony.fitness[[worst]], colony.sources[[worst]])


def abc_step(colony: AbcColony, config: SwarmConfig, rng) -> Generator:
    """Employed, onlooker and scout phases; the best source ever seen is
    retained outside the colony."""
    s = len(colony.sources)
    # Employed bees: one neighbor move per source.
    picks = np.arange(s)
    yield from _abc_greedy(colony, picks, _abc_candidates(colony.sources, picks, rng))
    # Onlookers: fitness-proportional source choice.
    picks = rng.choice(s, size=s, p=onlooker_weights(colony.fitness))
    yield from _abc_greedy(colony, picks, _abc_candidates(colony.sources, picks, rng))
    _keep_best(colony, colony.fitness, colony.sources)
    yield from _scout_phase(colony)


# --- solver table and run loop --------------------------------------------------------

# algorithm -> (search space of its genomes, initializer, step).  The order
# is each algorithm's id in its streams (see ``_entropy``).
_SOLVERS = {
    "pso": (encodings.cartesian_space, init_swarm, inertial_step),
    "theta_pso": (encodings.angle_space, init_swarm, inertial_step),
    "qpso": (encodings.cartesian_space, init_swarm, qpso_step),
    "spso": (encodings.spherical_space, init_swarm, inertial_step),
    "ga": (encodings.cartesian_space, _init_ga, ga_step),
    "de": (encodings.cartesian_space, _init_de, de_step),
    "abc": (encodings.cartesian_space, _init_abc, abc_step),
}
ALGORITHMS = tuple(_SOLVERS)


def _solve(algorithm: str, scenario: Scenario, config: SwarmConfig) -> Generator:
    """One run as a generator: it yields each batch of paths it needs
    scored, is sent their fitness and returns its trace."""
    if algorithm not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
    swarm_stream = _rng(config.seed, algorithm, 1)
    _, init, step = _SOLVERS[algorithm]
    state = yield from init(algorithm, scenario, config)
    init_evaluations = state.evaluations
    trace = np.empty(config.max_iterations)
    # Steps update the state in place.  best() reads a record that never loses
    # its best (ABC's is kept apart from its sources), so it is the best so far.
    for k in range(config.max_iterations):
        yield from step(state, config, swarm_stream)
        trace[k], best_genome = state.best()
    return EvolutionTrace(
        algorithm=algorithm,
        seed=config.seed,
        best_fitness=trace,
        best_genome=np.array(best_genome, copy=True),
        best_path=state.decode(best_genome),
        evaluations=state.evaluations,
        init_evaluations=init_evaluations,
    )


def run_lockstep(scenario: Scenario, plans: list) -> list[tuple[EvolutionTrace, float]]:
    """Run every (algorithm, config) of ``plans`` on ``scenario`` together;
    returns (trace, seconds) per plan, in plan order.

    Each round sends every live run the fitness of its last batch and takes
    its next one.  The batches of one path length are concatenated in plan
    order and scored in calls of at most MAX_STACK rows; a batch alone in
    its length is scored as it is.  The kernels score row by row, so each
    trace is the one ``run`` gives, whichever runs share its calls.  Every
    run is started before any path is scored, so a check that fails at
    the start of a run raises first; a run that raises stops them all.

    A run's seconds are the time spent in its own generator plus its
    share, by rows, of each call it was scored in."""
    runs = [_solve(algorithm, scenario, config) for algorithm, config in plans]
    traces: list = [None] * len(runs)
    seconds = [0.0] * len(runs)
    sent: list = [None] * len(runs)  # the fitness each run is sent next; None starts it
    live = range(len(runs))
    while live:
        by_length: dict[int, list] = {}  # path length -> (run, paths), in plan order
        waiting = []
        for i in live:
            t0 = time.perf_counter()
            try:
                paths = runs[i].send(sent[i])
            except StopIteration as done:
                traces[i] = done.value
            else:
                by_length.setdefault(paths.shape[1], []).append((i, paths))
                waiting.append(i)
            seconds[i] += time.perf_counter() - t0
        live = waiting
        for batch in by_length.values():
            t0 = time.perf_counter()
            if len(batch) == 1:
                i, paths = batch[0]
                sent[i] = evaluate_paths(paths, scenario)
                seconds[i] += time.perf_counter() - t0
                continue
            stack = np.concatenate([paths for _, paths in batch])
            chunks = range(0, len(stack), MAX_STACK)
            fitness = np.concatenate([evaluate_paths(stack[a:a + MAX_STACK], scenario) for a in chunks])
            share = (time.perf_counter() - t0) / len(stack)
            start = 0
            for i, paths in batch:
                sent[i] = fitness[start:start + len(paths)]
                start += len(paths)
                seconds[i] += share * len(paths)
    return list(zip(traces, seconds))


def run(algorithm: str, scenario: Scenario, config: SwarmConfig) -> EvolutionTrace:
    """Execute one full optimization and return its trace: ``run_lockstep``
    with one plan.

    Deterministic for a fixed (algorithm, scenario, config.seed).  A trace
    whose final best fitness is infinite marks a failed run (see
    ``EvolutionTrace.feasible``).
    """
    return run_lockstep(scenario, [(algorithm, config)])[0][0]


def budgeted_config(algorithm: str, config: SwarmConfig) -> SwarmConfig:
    """Benchmark-harness budget rule: DE trades swarm size for iterations
    (1:5) at an equal number of fitness evaluations."""
    if algorithm != "de":
        return config
    budget = config.swarm_size * config.max_iterations
    swarm = max(DE_MIN_POPULATION, config.swarm_size // 5)
    return replace(config, swarm_size=swarm, max_iterations=max(1, budget // swarm))
