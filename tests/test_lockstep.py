"""run_lockstep against run(): runs that share a scenario are scored
together, in stacked evaluate_paths calls, and each must get, byte for
byte, the trace, genome, path and evaluation count run() gives it alone."""

from dataclasses import replace

import numpy as np
import pytest

from uavpath import ConfigError, SwarmConfig, optimizers, run
from uavpath.optimizers import ALGORITHMS, budgeted_config, run_lockstep
from uavpath.suite import build_benchmark_suite

CONFIG = SwarmConfig(swarm_size=10, max_iterations=12)


@pytest.fixture(scope="module")
def suite():
    return build_benchmark_suite(0)


@pytest.fixture(autouse=True)
def scouts_fly(monkeypatch):
    # A low ABC_LIMIT makes ABC's one-path scout batches appear within the run.
    monkeypatch.setattr(optimizers, "ABC_LIMIT", 3)


def plans_of(algorithms, runs):
    return [
        (algorithm, budgeted_config(algorithm, replace(CONFIG, seed=100 * k + i)))
        for i, algorithm in enumerate(algorithms)
        for k in range(runs)
    ]


def as_bytes(array):
    return array.shape, np.ascontiguousarray(array).tobytes()


def assert_runs_alone_equal(scenario, plans, got=None):
    got = run_lockstep(scenario, plans) if got is None else got
    assert len(got) == len(plans)
    for (algorithm, config), (trace, seconds) in zip(plans, got):
        want = run(algorithm, scenario, config)
        assert (trace.algorithm, trace.seed) == (algorithm, config.seed)
        assert as_bytes(trace.best_fitness) == as_bytes(want.best_fitness)
        assert as_bytes(trace.best_genome) == as_bytes(want.best_genome)
        assert as_bytes(trace.best_path) == as_bytes(want.best_path)
        assert trace.evaluations == want.evaluations
        assert seconds > 0


@pytest.mark.parametrize("runs", [1, 2, 5])
@pytest.mark.parametrize("index", [2, 6])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_runs_of_one_algorithm(suite, algorithm, index, runs):
    assert_runs_alone_equal(suite[index], plans_of([algorithm], runs))


def test_unit_of_every_algorithm(suite):
    assert_runs_alone_equal(suite[6], plans_of(ALGORITHMS, 2))


def test_chunks_split_requests(suite, monkeypatch):
    """Batches of 10 rows (5 for DE) scored in calls of 7 rows: chunk
    boundaries fall inside a run's batch."""
    calls = []
    evaluate = optimizers.evaluate_paths

    def recording(paths, scenario):
        calls.append(len(paths))
        return evaluate(paths, scenario)

    monkeypatch.setattr(optimizers, "MAX_STACK", 7)
    plans = plans_of(ALGORITHMS, 2)
    monkeypatch.setattr(optimizers, "evaluate_paths", recording)
    got = run_lockstep(suite[2], plans)
    monkeypatch.setattr(optimizers, "evaluate_paths", evaluate)
    assert 7 in calls
    assert_runs_alone_equal(suite[2], plans, got)


def test_runs_share_calls(suite, monkeypatch):
    """Five pso runs of one length make as many evaluate_paths calls as
    the longest of them alone: every round is one stacked call."""
    calls = []
    evaluate = optimizers.evaluate_paths
    monkeypatch.setattr(optimizers, "evaluate_paths", lambda p, sc: calls.append(len(p)) or evaluate(p, sc))
    plans = plans_of(["pso"], 5)
    alone = []
    for algorithm, config in plans:
        calls.clear()
        run(algorithm, suite[2], config)
        alone.append(len(calls))
    calls.clear()
    run_lockstep(suite[2], plans)
    assert len(calls) == max(alone)
    assert max(calls) > CONFIG.swarm_size


def test_failing_run_raises_before_any_scoring(suite, monkeypatch):
    """A unit whose later run fails the DE floor raises before any run is
    scored, as run() does for that run alone."""
    scored = []
    monkeypatch.setattr(optimizers, "evaluate_paths", lambda paths, scenario: scored.append(paths))
    plans = [("pso", CONFIG), ("de", replace(CONFIG, swarm_size=3))]
    with pytest.raises(ConfigError, match="at least 4"):
        run_lockstep(suite[2], plans)
    with pytest.raises(ConfigError, match="unknown algorithm"):
        run_lockstep(suite[2], [("pso", CONFIG), ("simulated_annealing", CONFIG)])
    assert scored == []

