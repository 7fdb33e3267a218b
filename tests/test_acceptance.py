"""Acceptance suite.

Each test prints one `ACCEPTANCE n: PASS/FAIL` line (run with `pytest -s`
to see them).  The shared benchmark matrix (8 scenarios x {spso, pso,
qpso} x 10 runs at swarm 100 / 100 iterations, equal loop budgets) is
computed once per session.
"""

import math
import os
import time

import numpy as np
import pytest

from uavpath import SwarmConfig, run, total_cost
from uavpath.cli import (
    BenchmarkSpec,
    main,
    run_benchmark,
    summarize,
)
from uavpath.cost import evaluate_paths
from uavpath.encodings import decode_angle, decode_spherical
from uavpath.optimizers import ALGORITHMS
from uavpath.scenario import CostWeights, FlightConstraints, Scenario
from uavpath.stats import Verdict, paired_t_test, t_two_sided_p
from uavpath.suite import build_benchmark_suite, is_complicated
from uavpath.terrain import SyntheticTerrainSpec, generate_synthetic

from conftest import random_feasibleish_path
from oracles import encode_spherical, oracle_total_cost
from test_cli import read_summary_rows
from test_cost import _random_scenario, random_paths_for

SUITE_SEED = 0
SWARM = 100
ITERATIONS = 100
RUNS = 10
MATRIX_ALGOS = ("spso", "pso", "qpso")


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="session")
def matrix():
    suite = build_benchmark_suite(SUITE_SEED)
    spec = BenchmarkSpec(
        scenarios=tuple(suite),
        algorithms=MATRIX_ALGOS,
        runs_per_cell=RUNS,
        base_config=SwarmConfig(swarm_size=SWARM, max_iterations=ITERATIONS),
        baseline="spso",
        base_seed=SUITE_SEED,
        jobs=min(4, os.cpu_count() or 1),
    )
    t0 = time.perf_counter()
    records = run_benchmark(spec)
    elapsed = time.perf_counter() - t0
    print(f"\n[matrix] {len(records)} runs in {elapsed:.1f}s "
          f"(jobs={spec.jobs})")
    return suite, spec, records, summarize(records, spec)


def test_criterion_1_directional_table(matrix):
    suite, spec, records, rows = matrix
    cell = {(r["scenario"], r["algorithm"]): r for r in rows}
    wins = 0
    dplus = 0
    for number, sc in enumerate(suite, start=1):
        spso_mean = float(cell[(sc.name, "spso")]["mean"])
        pso_mean = float(cell[(sc.name, "pso")]["mean"])
        if spso_mean <= pso_mean:
            wins += 1
        if is_complicated(number) and cell[(sc.name, "qpso")]["verdict"] == "D+":
            dplus += 1
    ok = wins >= 6 and dplus >= 3
    assert report(
        1, ok,
        f"spso mean <= pso mean in {wins}/8 scenarios (need >=6); "
        f"D+ vs qpso in {dplus}/4 complicated scenarios (need >=3)",
    )


def test_criterion_2_feasibility(matrix):
    suite, spec, records, rows = matrix
    counts = {}
    for r in records:
        if r.algorithm == "spso":
            counts.setdefault(r.scenario, 0)
            counts[r.scenario] += int(r.trace.feasible)
    worst = min(counts.values())
    ok = len(counts) == 8 and worst >= 9
    assert report(
        2, ok,
        f"spso feasible runs per scenario: {sorted(counts.items())} (need >=9/10 each)",
    )


def test_criterion_3_monotone_convergence(matrix):
    suite, spec, records, rows = matrix
    violations = sum(
        1 for r in records
        if np.any(r.trace.best_fitness[1:] > r.trace.best_fitness[:-1])
    )
    ok = violations == 0
    assert report(
        3, ok, f"{violations} non-monotone traces out of {len(records)} runs (need 0)"
    )


def test_criterion_4_brute_force_oracle():
    spec = SyntheticTerrainSpec(n_cols=11, n_rows=11, cell_size=10.0)
    flat = generate_synthetic(spec, 0)
    scenario = Scenario(
        terrain=flat,
        threats=(),
        start=[10.0, 10.0, 70.0],
        goal=[90.0, 90.0, 70.0],
        constraints=FlightConstraints(),
        weights=CostWeights(),
        n_waypoints=3,
    )
    # exhaustive 1 m grid over the single interior node
    xs = np.arange(0.0, 101.0)
    zs = np.arange(20.0, 121.0)
    best = math.inf
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    base = np.stack([gx.ravel(), gy.ravel()], axis=1)
    for z in zs:
        paths = np.empty((len(base), 3, 3))
        paths[:, 0] = scenario.start
        paths[:, 1, :2] = base
        paths[:, 1, 2] = z
        paths[:, 2] = scenario.goal
        best = min(best, float(evaluate_paths(paths, scenario).min()))
    results = {}
    for algorithm in ALGORITHMS:
        trace = run(algorithm, scenario, SwarmConfig(swarm_size=100, max_iterations=100, seed=11))
        results[algorithm] = trace.final_fitness / best - 1.0
    ok = all(rel <= 0.02 for rel in results.values())
    detail = ", ".join(f"{a}={r * 100:.2f}%" for a, r in results.items())
    assert report(4, ok, f"relative gap to 1 m grid optimum {best:.3f}: {detail} (need <=2%)")


def test_criterion_5_cost_engine_oracle():
    worst_rel = 0.0
    n_checked = n_inf = 0
    agree = True
    for seed in (11, 22, 33):
        scenario = _random_scenario(seed)
        rng = np.random.default_rng(seed)
        for path in random_paths_for(scenario, rng, 334):
            got = total_cost(path, scenario).total
            want = oracle_total_cost(path, scenario)[4]
            if math.isinf(want) or math.isinf(got):
                agree &= math.isinf(want) == math.isinf(got)
                n_inf += 1
                continue
            n_checked += 1
            if want != 0:
                worst_rel = max(worst_rel, abs(got - want) / abs(want))
    ok = agree and worst_rel <= 1e-9 and n_checked + n_inf >= 1000
    assert report(
        5, ok,
        f"{n_checked} finite paths worst rel err {worst_rel:.2e} (need <=1e-9); "
        f"{n_inf} infinite paths classified identically: {agree}",
    )


def test_criterion_6_decode_round_trip(hilly_scenario, flat_scenario):
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(1000):
        path = random_feasibleish_path(hilly_scenario, rng)
        genome = encode_spherical(path)
        back = decode_spherical(genome, hilly_scenario)
        worst = max(worst, float(np.abs(back[1:-1] - path[1:-1]).max()))
    bounds = flat_scenario.axis_bounds
    n = flat_scenario.n_interior
    hi = decode_angle(np.full(3 * n, math.pi / 2), flat_scenario)[1:-1]
    lo = decode_angle(np.full(3 * n, -math.pi / 2), flat_scenario)[1:-1]
    exact = bool(
        np.array_equal(hi, np.tile(bounds[:, 1], (n, 1)))
        and np.array_equal(lo, np.tile(bounds[:, 0], (n, 1)))
    )
    ok = worst < 1e-9 and exact
    assert report(
        6, ok,
        f"worst spherical round-trip error {worst:.2e} m over 1000 paths "
        f"(need <1e-9); angle endpoints exact: {exact}",
    )


def test_criterion_7_statistics_oracle():
    from scipy.integrate import quad

    def pdf(t, df):
        c = math.gamma((df + 1) / 2) / (math.sqrt(df * math.pi) * math.gamma(df / 2))
        return c * (1.0 + t * t / df) ** (-(df + 1) / 2)

    worst = 0.0
    for df in (3, 9, 30):
        for t in np.arange(-10.0, 10.01, 0.5):
            tail, _ = quad(pdf, abs(t), math.inf, args=(df,))
            worst = max(worst, abs(t_two_sided_p(float(t), df) - 2.0 * tail))
    example = paired_t_test([1, 2, 3, 4], [2, 2, 4, 5])
    example_ok = (
        abs(example.t_statistic + 3.0) < 1e-9
        and abs(example.p_value - 0.0577) < 2e-4
        and example.verdict is Verdict.N
    )
    ok = worst <= 1e-6 and example_ok
    assert report(
        7, ok,
        f"max |p - quadrature| = {worst:.2e} for df in (3,9,30), |t|<=10 "
        f"(need <=1e-6); worked example t={example.t_statistic:.1f} "
        f"p={example.p_value:.4f} verdict={example.verdict.value}",
    )


def test_criterion_8_bench_determinism(tmp_path):
    args = [
        "bench", "--suite-seed", str(SUITE_SEED), "--algos", "spso,qpso",
        "--runs", "2", "--swarm", "20", "--iters", "15", "--seed", "7",
    ]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    code1 = main(args + ["--out", str(out1)])
    code2 = main(args + ["--out", str(out2)])
    first = (out1 / "summary.csv").read_bytes()
    second = (out2 / "summary.csv").read_bytes()
    ok = code1 == code2 == 0 and first == second and len(read_summary_rows(out1 / "summary.csv")) == 16
    assert report(
        8, ok,
        f"repeated bench invocations byte-identical: {first == second} "
        f"({len(first)} bytes, exit codes {code1}/{code2})",
    )
