"""Golden traces: bit-exact run results pinned by SHA-256.

A refactor that must not change behaviour keeps every hash below.  A
change that alters traces on purpose copies the new hashes from the
assertion messages of ``pytest tests/test_golden.py`` and says so in
CHANGES.md.  The hashes cover the per-iteration best fitness, the decoded
best path and the evaluation count, and were taken with numpy 2.x on
x86-64 at the AVX2 dispatch level that ``tests/conftest.py`` pins through
``NPY_DISABLE_CPU_FEATURES``.
"""

import hashlib

import numpy as np
import pytest

from uavpath import SwarmConfig, optimizers, run
from uavpath.optimizers import ALGORITHMS
from uavpath.suite import build_benchmark_suite

GOLDEN_CONFIG = SwarmConfig(swarm_size=12, max_iterations=10, seed=5)

GOLDEN = {
    "pso": "59569ef4b95117e314c09a9ee485e37914267208cdae103bb5818e9c6a6599f6",
    "theta_pso": "ab705e448aa00c366c3ffd3c9769ddecc78471ed6c8f7c01d8ff700836c64950",
    "qpso": "3e965d950c9c1e4fa0a4eada17eaa97d7d647e2242718efeda7dbced766185f8",
    "spso": "ca5013edd7d7847314526feb7846508ecc8ffc06a108fc6235e7a53eecc12598",
    "ga": "e24ab54e15e829426212ccdedd6273143538ee185164b3d459a79918f8782d95",
    "de": "318c8cef3d15efa6b98deaff8fb49c3ea4e7124d3133eb201211c2f3ad541bc1",
    "abc": "d19d905efe10bee9e304c4428d5105a5792a85b4be8250cc5b9f1e1461aaa7a3",
}


def trace_digest(trace) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(trace.best_fitness, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(trace.best_path, dtype="<f8").tobytes())
    h.update(str(trace.evaluations).encode())
    return h.hexdigest()


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_golden_trace(algorithm, hilly_scenario, monkeypatch):
    # A low ABC_LIMIT makes ABC scouts fly within the ten iterations.
    monkeypatch.setattr(optimizers, "ABC_LIMIT", 3)
    trace = run(algorithm, hilly_scenario, GOLDEN_CONFIG)
    digest = trace_digest(trace)
    assert digest == GOLDEN[algorithm], f"{algorithm}: {digest}"


# At GOLDEN_CONFIG de's best never moves from its initial member, so its
# hash pins init alone.  At seed 6 the best improves within the ten
# iterations, so this hash pins de_step too.
DE_STEP_CONFIG = SwarmConfig(swarm_size=12, max_iterations=10, seed=6)
DE_STEP_GOLDEN = "ae6ab428629d9a5abb6ed94d41c9048984e555e7314e610ad20200af7228a54f"


def test_golden_de_step(hilly_scenario):
    trace = run("de", hilly_scenario, DE_STEP_CONFIG)
    assert trace.best_fitness[-1] < trace.best_fitness[0]
    digest = trace_digest(trace)
    assert digest == DE_STEP_GOLDEN, f"de seed 6: {digest}"


# All seven solvers on every suite scenario at once, where GA's children
# often repeat a member of the generation that bred them (the 12 x 10
# golden above sees few such repeats).
SUITE_CONFIG = SwarmConfig(swarm_size=20, max_iterations=20, seed=1)
SUITE_GOLDEN = "32d15310ef35c35ffc137b7d091f2d38f8ff7d6120b54650781dcdad8fce39ef"


def test_golden_suite_fingerprint():
    h = hashlib.sha256()
    for scenario in build_benchmark_suite(0):
        for algorithm in ALGORITHMS:
            h.update(trace_digest(run(algorithm, scenario, SUITE_CONFIG)).encode())
    digest = h.hexdigest()
    assert digest == SUITE_GOLDEN, f"suite s1-s8 x 7 solvers: {digest}"
