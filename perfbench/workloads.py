"""The benchmark's workloads: the inputs each makes, its timed set-up, and
what one pass over its plans runs.

The workload seed sets every plan's optimizer seed (as ``uavpath bench``
derives them).  The scenarios always come from suite seed 0, the suite of
the acceptance matrix: the suite seed changes how hard the scenarios are,
and with it how long a pass takes, so varying it would make run-to-run
figures spread by the draw of scenarios rather than by the program.

Load model: closed loop with one caller, each plan starting when the
previous one returns.  ``large_dem_bench`` instead goes through
``cli.run_benchmark`` with a two-worker pool (never more workers than
cores), as ``uavpath bench --jobs 2`` would.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from uavpath import cli, optimizers, scenario, suite
from uavpath.optimizers import SwarmConfig, budgeted_config

SWARM = 100
ITERATIONS = 100
JOBS = min(2, os.cpu_count() or 1)
SUITE_SEED = 0
DEM_NODES = 1201  # 600 m site at 0.5 m spacing
DEM_SCENARIOS = ("s2", "s4")
DEM_BLOCK = 64  # grid rows per write


@dataclass
class Plan:
    label: str
    scenario: object
    trace: object | None
    seconds: float
    probe: float | None  # reference-kernel seconds measured around the plan
    error: str | None = None


@dataclass
class Pass:
    wall: float
    plans: list[Plan]
    # Pool workloads only: seconds inside run_benchmark and the matrix outputs.
    matrix_wall: float | None = None
    problems: list[str] = field(default_factory=list)


def plan_config(algo: str, seed: int, scenario_name: str) -> SwarmConfig:
    cell_seed = cli.mix_seed(seed, scenario_name, algo, 0)
    return budgeted_config(algo, SwarmConfig(swarm_size=SWARM, max_iterations=ITERATIONS, seed=cell_seed))


class Workload:
    algorithms: tuple[str, ...]
    uses_pool = False
    setup_repeats = 15  # setup_s is their median

    def warm_up(self, scenarios) -> None:
        """Run each algorithm briefly so lazy set-up is not timed."""
        for algo in self.algorithms:
            optimizers.run(algo, scenarios[0], SwarmConfig(swarm_size=10, max_iterations=3))


class SuiteWorkload(Workload):
    """Every algorithm of the workload on s1-s8 of the suite, one ``run()``
    at a time."""

    def __init__(self, algorithms):
        self.algorithms = algorithms

    def make_inputs(self, seed: int, work_dir: Path):
        return SUITE_SEED

    def setup(self, suite_seed: int):
        return suite.build_benchmark_suite(suite_seed)

    def run_pass(self, scenarios, seed: int, work_dir: Path, probe) -> Pass:
        plans = []
        before = probe()
        for sc in scenarios:
            for algo in self.algorithms:
                config = plan_config(algo, seed, sc.name)
                t0 = time.perf_counter()
                try:
                    trace, error = optimizers.run(algo, sc, config), None
                except Exception as exc:  # a raising plan is counted, not fatal
                    trace, error = None, f"{type(exc).__name__}: {exc}"
                seconds = time.perf_counter() - t0
                after = probe()
                plans.append(Plan(f"{sc.name}/{algo}", sc, trace, seconds, (before + after) / 2, error))
                before = after
        return Pass(math.fsum(p.seconds for p in plans), plans)


class LargeDemWorkload(Workload):
    """s2 and s4 geometry over the same site sampled at 0.5 m, loaded from
    an ESRI grid and planned through the bench harness with a pool."""

    uses_pool = True
    setup_repeats = 3
    algorithms = ("spso", "pso", "theta_pso")

    def make_inputs(self, seed: int, work_dir: Path):
        """Write the 1201x1201 DEM and one scenario file per geometry.

        The fine grid samples the suite terrain's own bilinear surface, so
        it is the same site and every scenario stays valid on it.
        """
        by_name = {sc.name: sc for sc in suite.build_benchmark_suite(SUITE_SEED)}
        coarse = by_name[DEM_SCENARIOS[0]].terrain
        cell = (coarse.x_max - coarse.origin_x) / (DEM_NODES - 1)
        xs = coarse.origin_x + cell * np.arange(DEM_NODES)
        ys = coarse.origin_y + cell * np.arange(DEM_NODES)
        dem_path = work_dir / f"site_{DEM_NODES}.asc"
        with open(dem_path, "w") as fh:
            fh.write(
                f"ncols {DEM_NODES}\nnrows {DEM_NODES}\nxllcorner {coarse.origin_x!r}\n"
                f"yllcorner {coarse.origin_y!r}\ncellsize {cell!r}\nNODATA_value -9999.0\n"
            )
            # North row first, a block of rows at a time so that making the
            # input does not set the process's peak RSS; 17 digits round-trip.
            for top in range(DEM_NODES, 0, -DEM_BLOCK):
                rows = ys[max(0, top - DEM_BLOCK):top][::-1]
                np.savetxt(fh, coarse.heights(xs[None, :], rows[:, None]), fmt="%.17g")
        paths = []
        for name in DEM_SCENARIOS:
            sc = by_name[name]
            cfg = {
                "terrain": {"dem_path": dem_path.name},
                "threats": [
                    {"x": float(t.center_x), "y": float(t.center_y), "r": float(t.radius)}
                    for t in sc.threats
                ],
                "start": dict(zip("xyz", map(float, sc.start))),
                "goal": dict(zip("xyz", map(float, sc.goal))),
                "n_waypoints": sc.n_waypoints,
            }
            path = work_dir / f"{name}_dem{DEM_NODES}.yaml"
            with open(path, "w") as fh:
                yaml.safe_dump(cfg, fh, sort_keys=False)
            paths.append(path)
        return paths

    def setup(self, paths):
        return [scenario.load_scenario(p) for p in paths]

    def run_pass(self, scenarios, seed: int, work_dir: Path, probe) -> Pass:
        """One matrix; ``probe`` is not used (see run.py)."""
        spec = cli.BenchmarkSpec(
            scenarios=tuple(scenarios),
            algorithms=self.algorithms,
            runs_per_cell=1,
            base_config=SwarmConfig(swarm_size=SWARM, max_iterations=ITERATIONS),
            baseline="spso",
            base_seed=seed,
            jobs=JOBS,
        )
        out = work_dir / "bench_out"
        by_name = {sc.name: sc for sc in scenarios}
        t_pass = time.perf_counter()
        try:
            records = cli.run_benchmark(spec, out_dir=out)
            matrix_wall = time.perf_counter() - t_pass
            rows = cli.summarize(records, spec)
            cli.write_runs_csv(records, out / "runs.csv")
            cli.write_summary_csv(rows, out / "summary.csv")
        except Exception as exc:  # the whole matrix fails together
            wall = time.perf_counter() - t_pass
            error = f"{type(exc).__name__}: {exc}"
            plans = [
                Plan(f"{sc.name}/{algo}", sc, None, 0.0, None, error)
                for sc in scenarios
                for algo in self.algorithms
            ]
            return Pass(wall, plans)
        wall = time.perf_counter() - t_pass
        plans = [
            Plan(f"{r.scenario}/{r.algorithm}", by_name[r.scenario], r.trace, r.wall_time, None)
            for r in records
        ]
        problems = []
        if len(rows) != len(scenarios) * len(self.algorithms):
            problems.append(f"summary has {len(rows)} rows")
        with open(out / "runs.csv") as fh:
            if sum(1 for _ in fh) != len(records) + 1:
                problems.append("runs.csv row count differs from the records")
        return Pass(wall, plans, matrix_wall, problems)


WORKLOADS = {
    # The paper's headline comparison and the acceptance-matrix cells:
    # ~100-path batches; per-particle init and the F2 threat term dominate.
    "suite_pso_family": SuiteWorkload(("spso", "pso", "qpso")),
    # Many small cost batches (GA length groups, ABC scouts) and the Python
    # loops of the GA, DE and ABC steps.
    "suite_baselines": SuiteWorkload(("theta_pso", "ga", "de", "abc")),
    # DEM ingestion, grid-size-bound work and per-cell pickling in the pool.
    "large_dem_bench": LargeDemWorkload(),
}
