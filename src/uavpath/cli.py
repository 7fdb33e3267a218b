"""Command-line front door and benchmark harness.

Subcommands:

* ``plan <scenario.yaml> --algo spso``  - one optimization, exporting the
  best path, its cost breakdown and the convergence trace as CSV.
* ``bench --suite-seed 0 --algos spso,pso --runs 10 --out DIR`` - a full
  scenario x algorithm x run matrix with a Mean/Std/t-test summary table.
* ``suite generate --seed 0 --out DIR`` - materialize the built-in
  scenarios as config + DEM files.

Exit codes: 0 success, 1 failed run(s), 2 configuration error (an
unreadable scenario or DEM file included), 3 I/O error writing outputs.
``main`` alone maps errors to codes: the library raises ``ConfigError``
for every bad input, so an ``OSError`` that reaches it comes from writing.
Every run's seed derives from the base seed via SHA-256 over
"base|scenario|algorithm|run", so benchmarks are reproducible cell by
cell and summaries are byte-identical across reruns.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .cost import total_cost
from .optimizers import ALGORITHMS, EvolutionTrace, SwarmConfig, budgeted_config, run, run_lockstep
from .scenario import ConfigError, Scenario, load_scenario, load_scenarios, require_int, save_scenario
from .stats import Verdict, mean_std, paired_t_test
from .suite import build_benchmark_suite

EXIT_OK = 0
EXIT_FAILED_RUN = 1
EXIT_CONFIG = 2
EXIT_IO = 3


# --- CSV exports ---------------------------------------------------------------


def _write_csv(file_path, header, rows) -> None:
    with open(file_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def export_waypoints_csv(waypoints, file_path) -> None:
    """Write `index,x,y,z` rows with fixed 6-decimal formatting."""
    path = np.asarray(waypoints, dtype=float)
    if path.ndim != 2 or path.shape[1] != 3 or path.shape[0] < 3:
        raise ValueError("expected an (n, 3) path with n >= 3")
    rows = ([i, f"{x:.6f}", f"{y:.6f}", f"{z:.6f}"] for i, (x, y, z) in enumerate(path))
    _write_csv(file_path, ["index", "x", "y", "z"], rows)


def export_convergence_csv(trace: EvolutionTrace, file_path) -> None:
    """Write `iteration,best_fitness`, one row per iteration; infinities
    are serialized as the literal ``inf``."""
    rows = ([i, repr(float(v))] for i, v in enumerate(trace.best_fitness, start=1))
    _write_csv(file_path, ["iteration", "best_fitness"], rows)


def export_breakdown_csv(breakdown, file_path) -> None:
    rows = ([name, repr(getattr(breakdown, name))] for name in ("f1", "f2", "f3", "f4", "total"))
    _write_csv(file_path, ["component", "value"], rows)


# --- benchmark harness -----------------------------------------------------------


@dataclass(frozen=True)
class BenchmarkSpec:
    scenarios: tuple[Scenario, ...]
    algorithms: tuple[str, ...]
    runs_per_cell: int = 10
    base_config: SwarmConfig = field(default_factory=SwarmConfig)
    baseline: str = "spso"
    base_seed: int = 0
    jobs: int = 1

    def __post_init__(self):
        for name, minimum in (("runs_per_cell", 1), ("jobs", 1), ("base_seed", None)):
            require_int(name, getattr(self, name), minimum)
        if not self.scenarios or not self.algorithms:
            raise ConfigError("need at least one scenario and one algorithm")
        for a in self.algorithms:
            if a not in ALGORITHMS:
                raise ConfigError(f"unknown algorithm {a!r}")
        if self.baseline not in self.algorithms:
            raise ConfigError(f"baseline {self.baseline!r} is not one of the algorithms")
        # Records, trace files and summary rows are keyed by these names.
        for what, names in (("algorithm", self.algorithms),
                            ("scenario name", [sc.name for sc in self.scenarios])):
            twice = sorted({n for n in names if names.count(n) > 1})
            if twice:
                raise ConfigError(f"{what} listed more than once: {', '.join(twice)}")


@dataclass
class RunRecord:
    scenario: str
    algorithm: str
    run_index: int
    wall_time: float  # seconds attributed to the run in its work unit (run_lockstep)
    trace_path: str
    trace: EvolutionTrace


def mix_seed(base_seed: int, scenario_id: str, algorithm: str, run_index: int) -> int:
    """Deterministic per-cell-run seed: the first 8 bytes of
    SHA-256("base|scenario|algorithm|run")."""
    digest = hashlib.sha256(
        f"{base_seed}|{scenario_id}|{algorithm}|{run_index}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big")


# A pool worker's copy of the benchmark's scenarios, set once when it starts.
_worker_scenarios: tuple[Scenario, ...] = ()


def _init_worker(scenarios: tuple[Scenario, ...]) -> None:
    global _worker_scenarios
    _worker_scenarios = scenarios


def _run_worker_unit(index: int, plans):
    return run_lockstep(_worker_scenarios[index], plans)


def _work_units(n_scenarios: int, runs_per_scenario: int, workers: int) -> list[range]:
    """The cells of each work unit: one unit per scenario, holding its runs
    in cell order.  While there are fewer units than ``workers``, the unit
    with the most runs (the first of them) is split in two, until no unit
    has more than one run."""
    units = [range(i * runs_per_scenario, (i + 1) * runs_per_scenario) for i in range(n_scenarios)]
    while len(units) < workers:
        k = max(range(len(units)), key=lambda u: len(units[u]))
        unit = units[k]
        if len(unit) < 2:
            break
        half = (len(unit) + 1) // 2
        units[k:k + 1] = [unit[:half], unit[half:]]
    return units


def run_benchmark(spec: BenchmarkSpec, out_dir=None) -> list[RunRecord]:
    """Execute the full matrix; per-run trace CSVs land in out_dir/traces.

    The runs of each work unit (``_work_units``) share a scenario and are
    scored together by ``run_lockstep``; a run's trace does not depend on
    which runs share its unit."""
    scenarios = tuple(spec.scenarios)
    cells = [
        (i, algo, k)
        for i in range(len(scenarios))
        for algo in spec.algorithms
        for k in range(spec.runs_per_cell)
    ]
    configs = [
        budgeted_config(
            algo, replace(spec.base_config, seed=mix_seed(spec.base_seed, scenarios[i].name, algo, k))
        )
        for i, algo, k in cells
    ]
    # A forked pool starts all its workers at once: never more than there
    # are units to run or cores to run them on.
    workers = min(spec.jobs, os.cpu_count() or 1)
    units = _work_units(len(scenarios), len(cells) // len(scenarios), workers)
    # A unit ships only its scenario's index and its (algorithm, config)
    # pairs; each worker gets the scenarios once, when it starts.
    indices = [cells[unit[0]][0] for unit in units]
    plans = [[(cells[c][1], configs[c]) for c in unit] for unit in units]
    jobs = min(workers, len(units))
    if jobs > 1:
        with ProcessPoolExecutor(
            max_workers=jobs, initializer=_init_worker, initargs=(scenarios,)
        ) as pool:
            done = list(pool.map(_run_worker_unit, indices, plans))
    else:
        done = [run_lockstep(scenarios[i], unit_plans) for i, unit_plans in zip(indices, plans)]
    results = [result for unit in done for result in unit]
    trace_dir = None
    if out_dir is not None:
        trace_dir = Path(out_dir) / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
    records = []
    for (i, algo, k), (trace, wall) in zip(cells, results):
        sc = scenarios[i]
        trace_path = ""
        if trace_dir is not None:
            trace_path = str(trace_dir / f"{sc.name}_{algo}_run{k}.csv")
            export_convergence_csv(trace, trace_path)
        records.append(
            RunRecord(
                scenario=sc.name,
                algorithm=algo,
                run_index=k,
                wall_time=wall,
                trace_path=trace_path,
                trace=trace,
            )
        )
    return records


def summarize(records: list[RunRecord], spec: BenchmarkSpec) -> list[dict]:
    """Mean/Std per cell plus the paired t-test of every algorithm against
    the baseline; pairs where either side failed are dropped."""
    by_cell: dict[tuple[str, str], list[EvolutionTrace]] = {}
    for r in sorted(records, key=lambda r: r.run_index):
        by_cell.setdefault((r.scenario, r.algorithm), []).append(r.trace)
    rows = []
    for sc in spec.scenarios:
        base_runs = by_cell.get((sc.name, spec.baseline), [])
        for algo in spec.algorithms:
            runs = by_cell.get((sc.name, algo), [])
            finite = [t.final_fitness for t in runs if t.feasible]
            row = {"scenario": sc.name, "algorithm": algo,
                   "mean": "", "std": "", "t": "", "p": "", "verdict": Verdict.NA.value}
            if finite:
                summary = mean_std(finite)
                row["mean"] = f"{summary.mean:.6f}"
                row["std"] = f"{summary.std:.6f}"
            if algo != spec.baseline:
                pairs = [
                    (b.final_fitness, a.final_fitness)
                    for b, a in zip(base_runs, runs)
                    if b.feasible and a.feasible
                ]
                if len(pairs) >= 2:
                    base_vals = [p[0] for p in pairs]
                    algo_vals = [p[1] for p in pairs]
                    # Oriented so D+ means the baseline is statistically better.
                    verdict = paired_t_test(base_vals, algo_vals)
                    row["t"] = f"{verdict.t_statistic:.4f}"
                    row["p"] = f"{verdict.p_value:.6g}"
                    row["verdict"] = verdict.verdict.value
            rows.append(row)
    return rows


def write_summary_csv(rows: list[dict], file_path) -> None:
    header = ["scenario", "algorithm", "mean", "std", "t", "p", "verdict"]
    _write_csv(file_path, header, ([row[name] for name in header] for row in rows))


def write_runs_csv(records: list[RunRecord], file_path) -> None:
    header = ["scenario", "algorithm", "run", "seed", "final_fitness", "feasible",
              "wall_time_s", "trace_path"]
    rows = (
        [r.scenario, r.algorithm, r.run_index, r.trace.seed, repr(r.trace.final_fitness),
         int(r.trace.feasible), f"{r.wall_time:.3f}", r.trace_path]
        for r in records
    )
    _write_csv(file_path, header, rows)


# --- subcommands ------------------------------------------------------------------


def cmd_plan(args) -> int:
    scenario = load_scenario(args.scenario)
    config = SwarmConfig(swarm_size=args.swarm, max_iterations=args.iters, seed=args.seed)
    trace = run(args.algo, scenario, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    export_waypoints_csv(trace.best_path, out / "waypoints.csv")
    export_convergence_csv(trace, out / "convergence.csv")
    breakdown = total_cost(trace.best_path, scenario)
    export_breakdown_csv(breakdown, out / "breakdown.csv")
    print(f"scenario: {scenario.name}  algorithm: {args.algo}  seed: {args.seed}")
    print(f"total cost: {breakdown.total}  (f1={breakdown.f1:.3f} f2={breakdown.f2} "
          f"f3={breakdown.f3:.3f} f4={breakdown.f4:.3f})")
    print(f"feasible: {trace.feasible}  evaluations: {trace.evaluations}")
    print(f"outputs in {out}")
    if not trace.feasible:
        print("failed run: no collision-free path inside the corridor was found",
              file=sys.stderr)
        return EXIT_FAILED_RUN
    return EXIT_OK


def _resolve_scenarios(args) -> tuple[Scenario, ...]:
    if args.scenarios:
        return tuple(load_scenarios(args.scenarios.split(",")))
    return tuple(build_benchmark_suite(args.suite_seed))


def cmd_bench(args) -> int:
    spec = BenchmarkSpec(
        scenarios=_resolve_scenarios(args),
        algorithms=tuple(args.algos.split(",")),
        runs_per_cell=args.runs,
        base_config=SwarmConfig(swarm_size=args.swarm, max_iterations=args.iters),
        baseline=args.baseline,
        base_seed=args.seed,
        jobs=args.jobs,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    records = run_benchmark(spec, out_dir=out)
    for n, r in enumerate(records, start=1):
        flag = "ok" if r.trace.feasible else "FAILED"
        print(f"[{n}/{len(records)}] {r.scenario} {r.algorithm} "
              f"run {r.run_index}: {r.trace.final_fitness:.3f} ({flag})")
    rows = summarize(records, spec)
    write_runs_csv(records, out / "runs.csv")
    write_summary_csv(rows, out / "summary.csv")
    print(f"summary written to {out / 'summary.csv'}")
    n_failed = sum(not r.trace.feasible for r in records)
    if n_failed:
        print(f"{n_failed} failed run(s) recorded in runs.csv and dropped "
              "from the summary statistics", file=sys.stderr)
    # A cell's mean is empty exactly when none of its runs was feasible.
    missing = sorted((row["scenario"], row["algorithm"]) for row in rows if not row["mean"])
    if missing:
        print(f"cells with no feasible run: {missing}", file=sys.stderr)
        return EXIT_FAILED_RUN
    return EXIT_OK


def cmd_suite_generate(args) -> int:
    suite = build_benchmark_suite(args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for scenario in suite:
        save_scenario(scenario, out / f"{scenario.name}.yaml")
        print(f"wrote {out / (scenario.name + '.yaml')}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uavpath", description="Terrain-aware UAV path planning toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="plan one path for a scenario file")
    plan.add_argument("scenario", help="scenario config (YAML)")
    plan.add_argument("--algo", required=True, choices=ALGORITHMS)
    plan.add_argument("--iters", type=int, default=SwarmConfig.max_iterations)
    plan.add_argument("--swarm", type=int, default=SwarmConfig.swarm_size)
    plan.add_argument("--seed", type=int, default=0)
    plan.add_argument("--out", default="plan_out")
    plan.set_defaults(func=cmd_plan)

    bench = sub.add_parser("bench", help="run a benchmark matrix")
    group = bench.add_mutually_exclusive_group()
    group.add_argument("--suite-seed", type=int, default=0,
                       help="use the built-in 8-scenario suite with this seed")
    group.add_argument("--scenarios", help="comma-separated scenario config files")
    bench.add_argument("--algos", required=True,
                       help=f"comma-separated subset of {','.join(ALGORITHMS)}")
    bench.add_argument("--runs", type=int, default=10)
    bench.add_argument("--baseline", default="spso", choices=ALGORITHMS)
    bench.add_argument("--iters", type=int, default=SwarmConfig.max_iterations)
    bench.add_argument("--swarm", type=int, default=SwarmConfig.swarm_size)
    bench.add_argument("--seed", type=int, default=0, help="base seed")
    bench.add_argument("--jobs", type=int, default=1)
    bench.add_argument("--out", default="bench_out")
    bench.set_defaults(func=cmd_bench)

    suite = sub.add_parser("suite", help="suite utilities")
    suite_sub = suite.add_subparsers(dest="suite_command", required=True)
    gen = suite_sub.add_parser("generate", help="materialize the built-in suite")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default="suite_out")
    gen.set_defaults(func=cmd_suite_generate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
