"""Golden suite: the built-in benchmark suite pinned bit for bit by SHA-256.

Each hash covers, for every scenario of one suite seed, its threats
(centre x, centre y, radius), its start and goal, and the bytes of its
stored feasibility witness.  A rewrite of the suite builder that must keep
the suite keeps every hash below; a change that alters the suite on purpose
copies the new hashes from the assertion messages and says so in
CHANGES.md.  The hills go through ``exp``, so the hashes were taken with
numpy 2.x on x86-64 at the AVX2 dispatch level that ``tests/conftest.py``
pins through ``NPY_DISABLE_CPU_FEATURES``.

The witness search is also checked against ``oracles.witness_reference``,
the same search one attempt at a time, on every call the builder makes.
"""

import hashlib

import numpy as np
import pytest

from uavpath import cli, cost, suite
from uavpath.scenario import ConfigError
from uavpath.suite import build_benchmark_suite

from oracles import witness_reference

GOLDEN = {
    0: "16d7675de2270771eec7546c394fc6efecd46354177d0e58c2704a95b9718a5f",
    1: "c572dd8fc408337904ead3fc948f4671ce55846c2259f12a69631894e3bc7fbc",
    2: "13ca9f45d39cfa2365aad341afbdd7ed3b7b1ac2fc0b8137a0ae36b8f6fceb86",
    3: "2bcc9218d3c9704d261b2b06a6e88ef880da0cdb15f272231be9ba6d9d5de65a",
    4: "5aeab4ce5572ed8b96102d0d9c20c7d60bc490ab2bcf21ccfceb16acb06308a6",
}


def suite_digest(scenarios) -> str:
    h = hashlib.sha256()
    for sc in scenarios:
        threats = [(t.center_x, t.center_y, t.radius) for t in sc.threats]
        for array in (threats, sc.start, sc.goal, sc.witness):
            h.update(np.ascontiguousarray(array, dtype="<f8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_golden_suite(seed):
    digest = suite_digest(build_benchmark_suite(seed))
    assert digest == GOLDEN[seed], f"suite seed {seed}: {digest}"


def twin(rng):
    """A generator at the same point of the same stream as ``rng``."""
    other = np.random.Generator(type(rng.bit_generator)())
    other.bit_generator.state = rng.bit_generator.state
    return other


def checked_search(search, calls):
    """``search`` wrapped to run the reference on a twin stream first and
    require the same witness bytes; where the search runs out, both must
    leave the stream in one state."""
    def run(rng, scenario):
        reference_rng = twin(rng)
        expected = witness_reference(reference_rng, scenario)
        witness = search(rng, scenario)
        calls.append(witness is not None)
        if expected is None:
            assert witness is None
            assert rng.bit_generator.state == reference_rng.bit_generator.state
        else:
            assert witness is not None
            assert witness.tobytes() == expected.tobytes()
        return witness
    return run


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_witness_search_matches_reference(seed, monkeypatch):
    calls = []
    monkeypatch.setattr(suite, "_make_witness", checked_search(suite._make_witness, calls))
    build_benchmark_suite(seed)
    assert calls.count(True) == suite.N_SCENARIOS


def test_exhausted_search_matches_reference(monkeypatch):
    """A search that finds nothing returns None and leaves the stream where
    the attempt-by-attempt reference leaves it, at an attempt count that is
    not a whole number of scoring chunks."""
    scenario = build_benchmark_suite(0)[0]

    def infeasible(points, terrain, constraints):
        return np.full(points.shape[1], np.inf)

    # F3 is the term both scorers run first, so every path scores +inf.
    monkeypatch.setattr(cost, "altitude_cost_many", infeasible)
    monkeypatch.setattr(suite, "_WITNESS_ATTEMPTS", 13)
    rng = np.random.default_rng(7)
    reference_rng = twin(rng)
    assert suite._make_witness(rng, scenario) is None
    assert witness_reference(reference_rng, scenario) is None
    assert rng.bit_generator.state == reference_rng.bit_generator.state
    assert rng.bit_generator.state != np.random.default_rng(7).bit_generator.state


def test_suite_seeds_build_in_one_attempt():
    """Each scenario is built in one attempt, with no retry to fall back
    on; suite seeds 0-9999 all build, and these 200 are checked here."""
    for seed in range(200):
        assert len(build_benchmark_suite(seed)) == suite.N_SCENARIOS


def test_threat_placement_that_runs_out_is_a_config_error(monkeypatch):
    monkeypatch.setattr(suite, "_THREAT_DRAWS", 0)
    with pytest.raises(ConfigError, match="^suite seed 0, scenario s1: threat placement did not converge$"):
        build_benchmark_suite(0)


def test_unblocked_complicated_scenario_is_a_config_error(monkeypatch):
    sample = suite._sample_threats

    def no_blockers(rng, start, goal, constraints, complicated):
        return [] if complicated else sample(rng, start, goal, constraints, complicated)

    monkeypatch.setattr(suite, "_sample_threats", no_blockers)
    with pytest.raises(ConfigError, match="^suite seed 0, scenario s3: the straight start-goal line is not blocked$"):
        build_benchmark_suite(0)


def test_witness_search_that_runs_out_is_a_config_error(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(suite, "_make_witness", lambda rng, scenario: None)
    with pytest.raises(ConfigError, match="^suite seed 0, scenario s1: no finite detour in 500 attempts$"):
        build_benchmark_suite(0)
    assert cli.main(["bench", "--suite-seed", "0", "--algos", "pso", "--baseline", "pso",
                     "--out", str(tmp_path)]) == 2
    assert "error: suite seed 0, scenario s1: no finite detour" in capsys.readouterr().err
