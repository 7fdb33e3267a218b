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

GOLDEN_CONFIG = SwarmConfig(swarm_size=12, max_iterations=10, seed=5)

GOLDEN = {
    "pso": "59569ef4b95117e314c09a9ee485e37914267208cdae103bb5818e9c6a6599f6",
    "theta_pso": "ab705e448aa00c366c3ffd3c9769ddecc78471ed6c8f7c01d8ff700836c64950",
    "qpso": "3e965d950c9c1e4fa0a4eada17eaa97d7d647e2242718efeda7dbced766185f8",
    "spso": "ca5013edd7d7847314526feb7846508ecc8ffc06a108fc6235e7a53eecc12598",
    "ga": "3a32a0c6b9f36fab9fdb6e35e10517314aeac8caaf4a0a0455f1297ad8df20b3",
    "de": "318c8cef3d15efa6b98deaff8fb49c3ea4e7124d3133eb201211c2f3ad541bc1",
    "abc": "921d1420fb8cec7fc0f15eace72e77083965c7a7e0073e404733167bb2a8882a",
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
