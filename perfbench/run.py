"""uavpath benchmark: plan latency, throughput and path quality.

    python3 perfbench/run.py --workload suite_pso_family --seed 1 --seconds 30 --trace 0

Runs one workload of ``workloads.py`` against the package under ``src/``
of the checkout this file sits in.  ``--seed`` sets the optimizer seed of
every plan; the scenarios are the suite of suite seed 0, and for
``large_dem_bench`` a 1201x1201 DEM and its scenario files made from it,
written without timing to a scratch directory in the checkout that is
deleted on exit.

A run sets up several times, warms up, then repeats passes over the
workload's plans while another pass still fits in ``--seconds`` (at least
three).  Timings of the serial workloads and of set-up are scaled to a
fixed machine speed by ``probe()``, a reference kernel timed around them;
the unscaled figures are printed too.  The pool workload's timings are not
scaled: its passes keep both cores busy, and a probe taken in this process
while the pool is idle does not follow their speed.
End-to-end metrics (``--trace 0``):

* ``wall_s``: one pass, set-up excluded: the sum of each plan's median
  time over the passes; for the pool workload, the median pass.
* ``plan_s_p50``: median over the plans of each plan's median time.
* ``setup_s``: median set-up time (building the suite, or loading the DEM
  scenario files).
* ``feasible_frac``: plans that found a feasible path and passed the gate,
  over plans attempted (1 - failed_frac).
* ``cost_p50``: median final path cost over all plans, an infeasible plan
  counting as infinite.  ``cost_gmean`` over feasible plans is printed
  beside it.
* ``peak_rss_mb``: peak RSS of this process plus the pool workers' peak
  (the largest worker's, once per worker).

Each plan of each pass goes through the correctness gate: re-scoring
``best_path`` with ``total_cost`` gives ``final_fitness`` to a relative
1e-9 and agrees on infinity, and the best-fitness trace never increases.
Every pass must give the same final fitnesses; their digest is printed.

``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics that ``tracer.py`` takes, per traced pass (0 where the
workload does not use the layer, shown as n/a), and the tracing overhead.
The last line of output is one JSON object.  The exit code is 1 when a
plan raised or failed the gate, and 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pickle
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ALGORITHMS = ("pso", "theta_pso", "qpso", "spso", "ga", "de", "abc")
REL_TOL = 1e-9
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
REFERENCE_S = 0.0033  # probe() on an unloaded host of the kind named in CHANGES.md
_PROBE_PATHS = np.random.default_rng(0).random((100, 11, 3))


def import_program():
    """Import uavpath from this checkout's src/, never from elsewhere."""
    if not (SRC / "uavpath" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'uavpath'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import uavpath

    if Path(uavpath.__file__).resolve().parent != (SRC / "uavpath").resolve():
        print(f"perfbench: uavpath imported from {uavpath.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def environment() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


# --- correctness gate ---------------------------------------------------------------


def gate(plan) -> str | None:
    """None when the plan's output checks out, else what is wrong."""
    from uavpath.cost import total_cost

    if plan.error is not None:
        return plan.error
    trace = plan.trace
    best = np.asarray(trace.best_fitness)
    if not np.all(best[1:] <= best[:-1]):
        return "best-fitness trace increases"
    try:
        rescored = total_cost(trace.best_path, plan.scenario).total
    except ValueError as exc:
        return f"best_path does not re-score: {exc}"
    final = trace.final_fitness
    if math.isinf(rescored) != math.isinf(final):
        return f"re-scored cost {rescored!r} disagrees with final fitness {final!r} on infinity"
    if math.isfinite(final) and not math.isclose(rescored, final, rel_tol=REL_TOL, abs_tol=0.0):
        return f"re-scored cost {rescored!r} != final fitness {final!r}"
    return None


def digest(plans) -> str:
    text = "\n".join(f"{p.label}={p.trace.final_fitness!r}" if p.trace else f"{p.label}=error" for p in plans)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# --- metrics -------------------------------------------------------------------------


def probe() -> float:
    """Seconds a fixed reference kernel takes now: the fastest of three runs
    of small-array NumPy calls and a Python loop, the mix the planner runs.

    Load from outside the benchmark on a shared host slows everything in
    this process by a factor that drifts over tens of seconds (by up to
    1.7x); dividing a timing by the probe taken around it removes that
    factor.  The kernel calls no code of the program, so a change to the
    program cannot move it.
    """
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(60):
            d = np.diff(_PROBE_PATHS, axis=1)
            float(np.clip(np.sqrt((d * d).sum(axis=-1)), 0.1, 0.9).sum())
            sum(i * 0.5 for i in range(200))
        best = min(best, time.perf_counter() - t0)
    return best


def scaled(seconds: float, probe_s: float | None) -> float:
    """``seconds`` at the machine speed where the probe takes REFERENCE_S;
    unchanged where no probe was taken."""
    return seconds if probe_s is None else seconds * REFERENCE_S / probe_s


def plan_times(passes) -> list[float]:
    """Each plan's median scaled time across passes."""
    return [
        statistics.median(scaled(p.plans[i].seconds, p.plans[i].probe) for p in passes)
        for i in range(len(passes[0].plans))
    ]


def pass_wall(passes, pooled: bool) -> float:
    """One pass's wall time: for a pool, whose plans overlap, the median
    pass (unscaled); otherwise the sum of the plans' scaled medians."""
    if pooled:
        return statistics.median(p.wall for p in passes)
    return math.fsum(plan_times(passes))


def end_to_end(passes, failed_labels, setup_times, workers: int) -> dict:
    first = passes[0].plans
    # An infeasible or failed plan counts as infinitely costly.
    costs = [
        p.trace.final_fitness if p.label not in failed_labels and p.trace.feasible else math.inf
        for p in first
    ]
    n_ok = sum(map(math.isfinite, costs))
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "wall_s": (pass_wall(passes, workers > 0), "s"),
        "plan_s_p50": (statistics.median(plan_times(passes)), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "feasible_frac": (n_ok / len(first), "frac"),
        "cost_p50": (statistics.median(costs), "cost"),
        "peak_rss_mb": ((self_kb + workers * child_kb) / 1024.0, "MB"),
    }, (self_kb / 1024.0, child_kb / 1024.0)


def cost_gmean(plans) -> float:
    """Geometric mean of the final cost over feasible plans."""
    logs = [math.log(p.trace.final_fitness) for p in plans if p.trace is not None and p.trace.feasible]
    return math.exp(statistics.fmean(logs)) if logs else math.inf


# (name, unit, kind, key, base span that must have run for the metric to apply)
def _layer_specs():
    specs = [
        ("cost.eval_s", "s", "total", "cost.eval", "cost.eval"),
        ("cost.eval_calls", "count", "calls", "cost.eval", "cost.eval"),
        ("cost.eval_paths", "count", "count", "cost.eval_paths", "cost.eval"),
        ("cost.paths_per_call", "paths", "ratio", ("cost.eval_paths", "cost.eval"), "cost.eval"),
        ("cost.finite_frac", "frac", "ratio", ("cost.finite", "cost.eval_paths"), "cost.eval"),
        ("cost.f1_s", "s", "total", "cost.f1", "cost.f1"),
        ("cost.f2_s", "s", "total", "cost.f2", "cost.f2"),
        ("cost.f3_s", "s", "self", "cost.f3", "cost.f3"),
        ("cost.f4_s", "s", "total", "cost.f4", "cost.f4"),
        ("cost.f2_inf", "count", "count", "cost.f2_inf", "cost.f2"),
        ("cost.f3_inf", "count", "count", "cost.f3_inf", "cost.f3"),
        ("encodings.random_genome_calls", "count", "calls", "encodings.random_genome", "encodings.random_genome"),
        ("encodings.random_genome_s", "s", "total", "encodings.random_genome", "encodings.random_genome"),
        ("encodings.axis_bounds_calls", "count", "calls", "encodings.axis_bounds", "encodings.axis_bounds"),
        ("encodings.decode_calls", "count", "calls", "encodings.decode", "encodings.decode"),
        ("encodings.decode_s", "s", "total", "encodings.decode", "encodings.decode"),
        ("encodings.clamp_wrap_s", "s", "total", "encodings.clamp_wrap", "encodings.clamp_wrap"),
        ("terrain.extent_scans", "count", "calls", "terrain.extent", "terrain.extent"),
        ("terrain.extent_s", "s", "total", "terrain.extent", "terrain.extent"),
        ("terrain.heights_calls", "count", "calls", "terrain.heights", "terrain.heights"),
        ("terrain.heights_points", "count", "count", "terrain.heights_points", "terrain.heights"),
        ("terrain.heights_s", "s", "total", "terrain.heights", "terrain.heights"),
        ("optimizers.init_s", "s", "total", "optimizers.init", "optimizers.run"),
        ("optimizers.init_evals", "count", "count", "optimizers.init_evals", "optimizers.run"),
        ("optimizers.loop_evals", "count", "count", "optimizers.loop_evals", "optimizers.run"),
        ("optimizers.step_s", "s", "self", "optimizers.step", "optimizers.step"),
    ]
    for algo in ALGORITHMS:
        for phase in ("init", "loop"):
            key = f"optimizers.{phase}_evals.{algo}"
            specs.append((key, "count", "count", key, f"optimizers.run.{algo}"))
    specs += [
        ("terrain.load_dem_s", "s", "setup_total", "terrain.load_dem", "terrain.load_dem"),
        ("terrain.dem_bytes", "B", "setup_count", "terrain.dem_bytes", "terrain.load_dem"),
        ("scenario.load_s", "s", "setup_self", "scenario.load", "scenario.load"),
        ("suite.build_s", "s", "setup_total", "suite.build", "suite.build"),
        ("cli.run_benchmark_s", "s", "total", "cli.run_benchmark", "cli.run_benchmark"),
        ("cli.pool_efficiency", "frac", "derived", "cli.pool_efficiency", "cli.run_cell"),
        ("cli.scenario_pickle_mb", "MB", "derived", "cli.scenario_pickle_mb", "cli.run_cell"),
        ("cli.csv_write_s", "s", "total", "cli.csv_write", "cli.csv_write"),
        ("stats.summarize_s", "s", "total", "stats.summarize", "stats.summarize"),
        ("bench.trace_overhead_frac", "frac", "derived", "bench.trace_overhead_frac", None),
    ]
    return specs


LAYER_SPECS = _layer_specs()


def per_layer(tracer, setup_snap, n_traced, derived, algos_run) -> dict:
    """Per traced pass; None marks a layer the workload does not use."""
    calls = tracer.calls
    out = {}
    for name, unit, kind, key, base in LAYER_SPECS:
        if base is not None and base.startswith("optimizers.run."):
            used = base.rsplit(".", 1)[1] in algos_run
        elif kind.startswith("setup_"):
            used = setup_snap["calls"].get(base, 0) > 0
        elif base is not None:
            used = calls.get(base, 0) > 0
        else:
            used = True
        if kind == "derived":
            value = derived.get(key)
            used = used and value is not None
        elif not used:
            value = None
        elif kind == "total":
            value = tracer.total[key] / n_traced
        elif kind == "self":
            value = tracer.self_time[key] / n_traced
        elif kind == "calls":
            value = calls[key] / n_traced
        elif kind == "count":
            value = tracer.counts[key] / n_traced
        elif kind == "ratio":
            num, den = key
            num_v = tracer.counts[num]
            den_v = tracer.counts[den] if den in tracer.counts else calls[den]
            value = num_v / den_v if den_v else None
        elif kind == "setup_total":
            value = setup_snap["total"][key]
        elif kind == "setup_self":
            value = setup_snap["self_time"][key]
        elif kind == "setup_count":
            value = setup_snap["counts"][key]
        out[name] = (value if used else None, unit)
    return out


# --- main ------------------------------------------------------------------------------


def run_passes(run_one, seconds: float, minimum: int) -> None:
    """Call ``run_one`` at least ``minimum`` times, then until another call
    would overrun ``seconds``."""
    t0 = time.perf_counter()
    done = 0
    while True:
        run_one()
        done += 1
        elapsed = time.perf_counter() - t0
        if done >= minimum and elapsed + elapsed / done > seconds:
            return


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import tracer as tracing
    from workloads import JOBS, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    env = environment()
    scratch_root = ROOT / ".perfbench_work"
    scratch_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root))
    try:
        inputs = workload.make_inputs(args.seed, work_dir)
        tracer = tracing.Tracer()
        setup_times = []
        setup_snap = None
        if not args.trace:
            before = probe()
            for _ in range(workload.setup_repeats):
                t0 = time.perf_counter()
                scenarios = workload.setup(inputs)
                seconds = time.perf_counter() - t0
                after = probe()
                setup_times.append(scaled(seconds, (before + after) / 2))
                before = after
        else:
            tracer.install()
            try:
                scenarios = workload.setup(inputs)
            finally:
                tracer.uninstall()
            setup_snap = tracer.snapshot()
            tracer.reset()
        workload.warm_up(scenarios)

        untraced, traced = [], []

        def one_pass():
            p = workload.run_pass(scenarios, args.seed, work_dir, probe)
            untraced.append(p)
            if args.trace:
                tracer.install()
                try:
                    q = workload.run_pass(scenarios, args.seed, work_dir, probe)
                finally:
                    tracer.uninstall()
                tracing.merge_cell_layers(tracer, [pl.trace for pl in q.plans if pl.trace])
                traced.append(q)

        run_passes(one_pass, args.seconds, MIN_TRACED_PAIRS if args.trace else MIN_PASSES)
        passes = untraced + traced
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass

    # Correctness: every plan of every pass through the gate, and every pass
    # identical in its final fitnesses.
    first = passes[0].plans
    problems = []
    failed_labels = set()
    for k, p in enumerate(passes):
        problems += [f"pass {k}: {msg}" for msg in p.problems]
        for plan in p.plans:
            why = gate(plan)
            if why is not None:
                problems.append(f"pass {k} {plan.label}: {why}")
                failed_labels.add(plan.label)
    digests = {digest(p.plans) for p in passes}
    if len(digests) != 1:
        problems.append(f"passes disagree on final fitnesses: {sorted(digests)}")
    failed = len(failed_labels)
    infeasible = [p.label for p in first if p.trace is not None and not p.trace.feasible]
    correct = not problems

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"plans={len(first)} passes={len(untraced)}{' traced=' + str(len(traced)) if traced else ''}")
    print("env: " + json.dumps(env))
    print(f"digest: {digests.pop() if len(digests) == 1 else 'MISMATCH'} "
          f"(sha256 over {len(first)} final fitnesses)")
    print(f"gate: {len(first) - failed} of {len(first)} plans pass; infeasible: {infeasible or 'none'}")
    for msg in problems:
        print(f"  FAIL {msg}")

    if args.trace:
        n = len(traced)
        wall_u = pass_wall(untraced, workload.uses_pool)
        wall_t = pass_wall(traced, workload.uses_pool)
        derived = {"bench.trace_overhead_frac": (wall_t - wall_u) / wall_u}
        matrix = [p for p in traced if p.matrix_wall is not None]
        if matrix and tracer.calls.get("cli.run_cell"):
            cell_s = sum(pl.seconds for p in matrix for pl in p.plans)
            derived["cli.pool_efficiency"] = cell_s / (JOBS * sum(p.matrix_wall for p in matrix))
            derived["cli.scenario_pickle_mb"] = (
                sum(len(pickle.dumps(pl.scenario)) for pl in first) / 1e6
            )
        algos_run = {pl.label.split("/")[1] for pl in first}
        metrics = per_layer(tracer, setup_snap, n, derived, algos_run)
        evals = sum(pl.trace.evaluations for p in traced for pl in p.plans if pl.trace)
        split = tracer.counts["optimizers.init_evals"] + tracer.counts["optimizers.loop_evals"]
        print(f"untraced wall_s {wall_u:.3f} s, traced wall_s {wall_t:.3f} s "
              f"(overhead {derived['bench.trace_overhead_frac']:+.1%})")
        print(f"budget audit: init+loop evals {split} "
              f"{'==' if split == evals else '!='} trace.evaluations {evals}")
        # Shares of the time spent in plans, summed over pool workers.
        plan_s = sum(pl.seconds for p in traced for pl in p.plans) / n
        setup_names = {name for name, _, kind, _, _ in LAYER_SPECS if kind.startswith("setup_")}
        print(f"layers per traced pass; shares are of {plan_s:.3f} s spent in plans:")
        for name, (value, unit) in metrics.items():
            if value is None:
                shown = "n/a"
            elif unit == "s" and name not in setup_names:
                shown = f"{value:.4f} s ({value / plan_s:.1%})"
            else:
                shown = f"{value:.6g} {unit}"
            print(f"  {name:36s} {shown}")
        metrics = {k: (0 if v is None else v, u) for k, (v, u) in metrics.items()}
    else:
        metrics, (self_mb, child_mb) = end_to_end(
            untraced, failed_labels, setup_times, JOBS if workload.uses_pool else 0
        )
        for name, (value, unit) in metrics.items():
            print(f"  {name:14s} {value:.6g} {unit}")
        raw = statistics.median(p.wall for p in untraced)
        probes = [pl.probe for p in untraced for pl in p.plans if pl.probe is not None]
        n_ok = round(metrics["feasible_frac"][0] * len(first))
        print(f"  {len(first)} plans, each timed as the median of {len(untraced)} passes; "
              f"setup_s is the median of {len(setup_times)} set-ups")
        print(f"  failed_frac {1 - metrics['feasible_frac'][0]:.4f} ({len(first) - n_ok} of {len(first)} plans); "
              f"cost_gmean {cost_gmean(first):.6g} over the feasible plans")
        if probes:
            print(f"  unscaled: median pass {raw:.6g} s; median probe {statistics.median(probes) * 1e3:.3f} ms "
                  f"against {REFERENCE_S * 1e3:.3f} ms")
        if workload.uses_pool:
            print(f"  peak RSS {self_mb:.1f} MB in this process, {child_mb:.1f} MB in the largest worker")

    result = {
        "correct": correct,
        "attempted": len(first),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
