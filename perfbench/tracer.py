"""Per-layer timings and counts taken from outside the program.

``Tracer.install()`` rebinds the public functions of the ``uavpath``
modules to timing wrappers: every module-level name that refers to one of
them, and every value of a module-level dict (so ``run()`` reaches the
PSO-family steps through its ``_STEP`` table wrapped as well).
``uninstall()`` puts the originals back.  No file of the program changes.

Each wrapped call is a span.  A span's self time is its duration minus the
time of the wrapped calls it made.  Counts are taken at the same
boundaries: paths evaluated, paths each cost term made infinite, query
points, evaluations before and after a run's first step call.

In a process pool the workers are forked children of the traced process,
so they inherit the wrappers; the wrapped ``cli._run_cell`` ships each
cell's spans back on the returned trace object, and ``merge_cell_layers``
adds them up in the parent.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

CELL_ATTR = "_perfbench_layers"


class Tracer:
    def __init__(self):
        self.pid = os.getpid()
        self._patches: list[tuple[object, str, object]] = []
        self._open: list[float] = []  # child time accumulated by each open span
        self.reset()

    def reset(self) -> None:
        self.total: defaultdict[str, float] = defaultdict(float)  # inclusive seconds
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._open.clear()
        self._algo = None
        self._phase = None
        self._run_start = 0.0

    def snapshot(self) -> dict:
        return {
            "total": dict(self.total),
            "self_time": dict(self.self_time),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }

    def merge(self, snap: dict) -> None:
        for key in ("total", "self_time", "calls", "counts"):
            mine = getattr(self, key)
            for name, value in snap[key].items():
                mine[name] += value

    # --- wrapping ------------------------------------------------------------------

    def _wrap(self, name: str, fn, before=None, after=None):
        open_spans = self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            open_spans.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = open_spans.pop()
                if open_spans:
                    open_spans[-1] += dt
                self.total[name] += dt
                self.self_time[name] += dt - child
                self.calls[name] += 1
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def install(self) -> None:
        from uavpath import cli, cost, encodings, optimizers, scenario, suite, terrain

        targets = [
            (cost, "evaluate_paths", "cost.eval", None, self._after_eval),
            (cost, "length_cost_many", "cost.f1", None, None),
            (cost, "threat_cost_many", "cost.f2", None, self._inf_counter("cost.f2_inf")),
            (cost, "altitude_cost_many", "cost.f3", None, self._inf_counter("cost.f3_inf")),
            (cost, "smooth_cost_many", "cost.f4", None, None),
            (encodings, "random_genome", "encodings.random_genome", None, None),
            (encodings, "axis_bounds", "encodings.axis_bounds", None, None),
            (encodings, "decode", "encodings.decode", None, None),
            (encodings, "clamp_wrap", "encodings.clamp_wrap", None, None),
            (terrain, "load_dem", "terrain.load_dem", None, self._after_load_dem),
            (scenario, "load_scenario", "scenario.load", None, None),
            (suite, "build_benchmark_suite", "suite.build", None, None),
            (optimizers, "run", "optimizers.run", self._before_run, self._after_run),
            (cli, "run_benchmark", "cli.run_benchmark", None, None),
            (cli, "summarize", "stats.summarize", None, None),
            (cli, "write_runs_csv", "cli.csv_write", None, None),
            (cli, "write_summary_csv", "cli.csv_write", None, None),
            (cli, "export_convergence_csv", "cli.csv_write", None, None),
        ]
        targets += [
            (optimizers, attr, "optimizers.step", self._before_step, None)
            for attr in sorted(vars(optimizers))
            if attr.endswith("_step") and not attr.startswith("_")
        ]
        replacements = {}
        for module, attr, name, before, after in targets:
            fn = getattr(module, attr, None)
            if callable(fn):
                replacements[id(fn)] = self._wrap(name, fn, before, after)
        cell = getattr(cli, "_run_cell", None)
        if callable(cell):
            replacements[id(cell)] = self._wrap_cell(cell)
        modules = [m for n, m in sys.modules.items() if n == "uavpath" or n.startswith("uavpath.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in replacements:
                    self._patch(module, attr, replacements[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if callable(item) and id(item) in replacements:
                            self._patch(value, key, replacements[id(item)])
        # Methods and properties of the grid class.
        grid = terrain.TerrainMap
        self._patch(grid, "heights", self._wrap("terrain.heights", grid.heights, None, self._after_heights))
        for attr in ("z_min", "z_max"):
            prop = vars(grid)[attr]
            self._patch(grid, attr, property(self._wrap("terrain.extent", prop.fget)))

    def uninstall(self) -> None:
        for container, key, original in reversed(self._patches):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self._patches.clear()

    def _patch(self, container, key, replacement) -> None:
        if isinstance(container, dict):
            self._patches.append((container, key, container[key]))
            container[key] = replacement
        else:
            self._patches.append((container, key, vars(container)[key]))
            setattr(container, key, replacement)

    def _wrap_cell(self, cell):
        """In a pool worker, record each cell on its own and attach the
        spans to the returned trace; in the tracing process, a plain span."""
        span = self._wrap("cli.run_cell", cell)

        @functools.wraps(cell)
        def wrapper(*args, **kwargs):
            if os.getpid() == self.pid:
                return span(*args, **kwargs)
            self.reset()
            trace, wall = span(*args, **kwargs)
            setattr(trace, CELL_ATTR, self.snapshot())
            return trace, wall

        return wrapper

    # --- counters ----------------------------------------------------------------------

    def _before_run(self, args) -> None:
        self._algo = args[0] if args else None
        self._phase = "init"
        self._run_start = time.perf_counter()

    def _after_run(self, args, out) -> None:
        self._phase = None

    def _before_step(self, args) -> None:
        # The first step call of a run ends its initialization.
        if self._phase == "init":
            self.total["optimizers.init"] += time.perf_counter() - self._run_start
            self._phase = "loop"

    def _after_eval(self, args, out) -> None:
        out = np.asarray(out)
        self.counts["cost.eval_paths"] += out.size
        self.counts["cost.finite"] += int(np.isfinite(out).sum())
        if self._phase is not None:
            self.counts[f"optimizers.{self._phase}_evals.{self._algo}"] += out.size
            self.counts[f"optimizers.{self._phase}_evals"] += out.size

    def _inf_counter(self, name: str):
        def after(args, out) -> None:
            self.counts[name] += int(np.isinf(out).sum())

        return after

    def _after_heights(self, args, out) -> None:
        self.counts["terrain.heights_points"] += np.size(out)

    def _after_load_dem(self, args, out) -> None:
        self.counts["terrain.dem_bytes"] += os.path.getsize(args[0])


def merge_cell_layers(tracer: Tracer, traces) -> None:
    """Add the spans that pool workers attached to ``traces``."""
    for trace in traces:
        snap = getattr(trace, CELL_ATTR, None)
        if snap is not None:
            tracer.merge(snap)
