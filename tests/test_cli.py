import copy
import csv
import math
import time
from dataclasses import replace

import numpy as np
import pytest
import yaml

from uavpath import EvolutionTrace, Scenario, SwarmConfig, cli, load_scenario
from uavpath.cli import (
    BenchmarkSpec,
    export_convergence_csv,
    export_waypoints_csv,
    main,
    mix_seed,
    run_benchmark,
)
from uavpath.optimizers import run_lockstep

from test_golden_cli import without_column

FLAT_CFG = {
    "terrain": {"synthetic": {"n_cols": 11, "n_rows": 11, "cell_size": 10.0}},
    "start": {"x": 10.0, "y": 10.0, "z": 70.0},
    "goal": {"x": 90.0, "y": 90.0, "z": 70.0},
    "threats": [{"x": 50.0, "y": 30.0, "r": 8.0}],
    "n_waypoints": 5,
}


def read_summary_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_convergence(path):
    return np.array([float(r["best_fitness"]) for r in read_summary_rows(path)])


def read_waypoints(path):
    return np.array([[float(r[axis]) for axis in "xyz"] for r in read_summary_rows(path)])


@pytest.fixture()
def flat_cfg_path(tmp_path):
    p = tmp_path / "flat.yaml"
    p.write_text(yaml.safe_dump(FLAT_CFG))
    return p


class TestExports:
    def test_waypoints_round_trip(self, tmp_path):
        path = np.array([[0.0, 0.5, 1.25], [10.123456789, -3.0, 70.0], [20.0, 20.0, 80.0]])
        f = tmp_path / "wp.csv"
        export_waypoints_csv(path, f)
        back = read_waypoints(f)
        assert back.shape == path.shape
        assert np.abs(back - path).max() <= 1e-6
        header = f.read_text().splitlines()[0]
        assert header == "index,x,y,z"

    def test_waypoints_too_short_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export_waypoints_csv(np.zeros((2, 3)), tmp_path / "bad.csv")

    def test_convergence_serializes_inf(self, tmp_path):
        trace = EvolutionTrace(
            algorithm="pso", seed=0,
            best_fitness=np.array([math.inf, 5.0, 4.0]),
            best_genome=np.zeros(3), best_path=np.zeros((3, 3)), evaluations=9,
        )
        f = tmp_path / "conv.csv"
        export_convergence_csv(trace, f)
        lines = f.read_text().splitlines()
        assert lines[0] == "iteration,best_fitness"
        assert lines[1] == "1,inf"
        assert len(lines) == 4
        back = read_convergence(f)
        assert math.isinf(back[0]) and back[2] == 4.0


class TestMixSeed:
    def test_deterministic_and_distinct(self):
        a = mix_seed(0, "s1", "spso", 0)
        assert a == mix_seed(0, "s1", "spso", 0)
        others = {
            mix_seed(0, "s1", "spso", 1),
            mix_seed(0, "s2", "spso", 0),
            mix_seed(0, "s1", "pso", 0),
            mix_seed(1, "s1", "spso", 0),
        }
        assert a not in others and len(others) == 4


class TestPlan:
    def test_plan_flat_scenario(self, flat_cfg_path, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "plan", str(flat_cfg_path), "--algo", "spso",
            "--swarm", "40", "--iters", "60", "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "feasible: True" in printed
        waypoints = read_waypoints(out / "waypoints.csv")
        scenario = load_scenario(flat_cfg_path)
        assert np.abs(waypoints[0] - scenario.start).max() <= 1e-6
        rows = {r["component"]: float(r["value"]) for r in read_summary_rows(out / "breakdown.csv")}
        direct = float(np.linalg.norm(scenario.goal - scenario.start))
        assert rows["f1"] <= 1.05 * direct
        conv = read_convergence(out / "convergence.csv")
        assert len(conv) == 60
        assert not np.any(conv[1:] > conv[:-1])

    def test_malformed_scenario_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(dict(FLAT_CFG, constraints={"h_min": 50, "h_max": 10})))
        code = main(["plan", str(bad), "--algo", "pso", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "h_min < h_max" in capsys.readouterr().err

    def test_goal_outside_corridor_fails_fast(self, tmp_path, capsys):
        bad = tmp_path / "bad2.yaml"
        bad.write_text(yaml.safe_dump(dict(FLAT_CFG, goal={"x": 90.0, "y": 90.0, "z": 400.0})))
        code = main(["plan", str(bad), "--algo", "pso", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "goal altitude" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, value, named",
        [
            ("threats", "r", math.nan, "threats[0]: radius"),
            ("threats", "r", math.inf, "threats[0]: radius"),
            ("constraints", "drone_diameter", math.nan, "drone_diameter"),
            ("constraints", "danger_distance", math.nan, "danger_distance"),
            ("constraints", "danger_distance", math.inf, "danger_distance"),
            ("constraints", "h_max", math.inf, "h_max"),
            ("synthetic", "cell_size", math.nan, "cell_size"),
            ("weights", "b2", math.nan, "b2"),
        ],
    )
    def test_non_finite_number_exits_2(self, tmp_path, capsys, section, key, value, named):
        cfg = copy.deepcopy(FLAT_CFG)
        target = {
            "threats": cfg["threats"][0],
            "constraints": cfg.setdefault("constraints", {}),
            "synthetic": cfg["terrain"]["synthetic"],
            "weights": cfg.setdefault("weights", {}),
        }[section]
        target[key] = value
        bad = tmp_path / "nonfinite.yaml"
        bad.write_text(yaml.safe_dump(cfg))
        code = main(["plan", str(bad), "--algo", "pso", "--swarm", "4", "--iters", "1",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"{named} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value, algo_args, named",
        [
            ("terrain.synthetic.seed", math.inf, (), "seed"),
            ("terrain.synthetic.seed", math.nan, (), "seed"),
            ("n_waypoints", math.inf, (), "n_waypoints"),
            ("n_waypoints", "abc", (), "n_waypoints"),
            ("n_waypoints", 4.7, (), "n_waypoints"),
            ("terrain.synthetic.n_cols", 11.5, (), "n_cols"),
            ("terrain.synthetic.n_hills", 2.5, (), "n_hills"),
            ("constraints", 5, (), "constraints"),
            ("threats", 5, (), "threats"),
            ("terrain", {"dem_path": 5}, (), "dem_path"),
            ("terrain", {"dem_path": "a_directory"}, (), "dem_path"),
            ("constraints", {"h_min": "abc"}, (), "h_min"),
            ("constraints", {"h_max": 10**400}, (), "h_max"),
            ("terrain.synthetic.cell_size", "abc", (), "cell_size"),
            (None, None, ("--algo", "de", "--swarm", "3"), "swarm"),
            ("terrain.synthetic.n_cols", 10**30, (), "n_cols"),
            # The smallest n_cols over MAX_GRID_NODES at the table's n_rows: 11.
            ("terrain.synthetic.n_cols", 1525202, (), "n_cols"),
            ("weights", {"a1": -1.0}, (), "a1"),
            ("n_waypoints", 10**13, (), "n_waypoints"),
            ("goal", FLAT_CFG["start"], (), "goal"),
        ],
    )
    def test_malformed_config_exits_2(self, tmp_path, capsys, key, value, algo_args, named):
        cfg = copy.deepcopy(FLAT_CFG)
        if key is not None:
            *parents, leaf = key.split(".")
            target = cfg
            for part in parents:
                target = target[part]
            target[leaf] = value
        (tmp_path / "a_directory").mkdir()
        bad = tmp_path / "malformed.yaml"
        bad.write_text(yaml.safe_dump(cfg))
        code = main(["plan", str(bad), *(algo_args or ("--algo", "pso", "--swarm", "4")),
                     "--iters", "1", "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert named in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "line, named",
        [("cellsize nan", "'cellsize'"), ("ncols 2.7", "'ncols'"), ("NODATA_value inf", "'nodata_value'")],
    )
    def test_bad_dem_header_exits_2(self, tmp_path, capsys, line, named):
        header = {"ncols": "ncols 11", "nrows": "nrows 11", "xllcorner": "xllcorner 0",
                  "yllcorner": "yllcorner 0", "cellsize": "cellsize 10",
                  "nodata_value": "NODATA_value -9999"}
        header[line.split()[0].lower()] = line
        row = " ".join(["0"] * 11)
        (tmp_path / "site.asc").write_text("\n".join([*header.values(), *[row] * 11]) + "\n")
        cfg = dict(FLAT_CFG, terrain={"dem_path": "site.asc"})
        bad = tmp_path / "dem.yaml"
        bad.write_text(yaml.safe_dump(cfg))
        code = main(["plan", str(bad), "--algo", "pso", "--swarm", "4", "--iters", "1",
                     "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert named in err
        assert "Traceback" not in err

    def test_unusable_dem_grid_exits_2(self, tmp_path, capsys):
        # The file parses, but one node is too few to interpolate between.
        (tmp_path / "tiny.asc").write_text("ncols 1\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 10\n0\n")
        cfg = tmp_path / "tiny.yaml"
        cfg.write_text(yaml.safe_dump(dict(FLAT_CFG, terrain={"dem_path": "tiny.asc"})))
        assert main(["plan", str(cfg), "--algo", "pso", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "terrain.dem_path" in err and "2x2" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_non_utf8_scenario_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "latin1.yaml"
        bad.write_bytes(yaml.safe_dump(FLAT_CFG).encode() + "# caf\xe9\n".encode("latin-1"))
        assert main(["plan", str(bad), "--algo", "pso", "--out", str(tmp_path / "o")]) == 2
        assert str(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["plan", "{dir}", "--algo", "pso"],
        ["bench", "--scenarios", "{dir}", "--algos", "pso"],
    ])
    def test_unreadable_scenario_exits_2(self, tmp_path, capsys, command):
        argv = [a.format(dir=tmp_path) for a in command]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        assert str(tmp_path) in capsys.readouterr().err

    def test_failed_run_exits_1(self, tmp_path, capsys):
        ring = [
            {"x": 50.0 + 20.0 * math.cos(a), "y": 50.0 + 20.0 * math.sin(a), "r": 9.0}
            for a in np.linspace(0, 2 * math.pi, 9, endpoint=False)
        ]
        cfg = dict(FLAT_CFG, threats=ring, goal={"x": 50.0, "y": 50.0, "z": 70.0})
        p = tmp_path / "ring.yaml"
        p.write_text(yaml.safe_dump(cfg))
        code = main([
            "plan", str(p), "--algo", "pso", "--swarm", "10", "--iters", "5",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        assert "failed run" in capsys.readouterr().err
        conv = read_convergence(tmp_path / "o" / "convergence.csv")
        assert np.all(np.isinf(conv))


class TestBench:
    def make_two_configs(self, tmp_path):
        paths = []
        for i, goal in enumerate(([90.0, 90.0], [90.0, 10.0])):
            cfg = dict(FLAT_CFG, goal={"x": goal[0], "y": goal[1], "z": 70.0})
            p = tmp_path / f"cfg{i}.yaml"
            p.write_text(yaml.safe_dump(cfg))
            paths.append(str(p))
        return paths

    def test_bench_matrix_and_determinism(self, tmp_path, capsys):
        cfgs = self.make_two_configs(tmp_path)
        args = [
            "bench", "--scenarios", ",".join(cfgs), "--algos", "spso,pso",
            "--runs", "2", "--swarm", "16", "--iters", "10", "--seed", "5",
        ]
        out1, out2 = tmp_path / "b1", tmp_path / "b2"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()
        rows = read_summary_rows(out1 / "summary.csv")
        assert len(rows) == 4  # 2 scenarios x 2 algorithms
        runs = (out1 / "runs.csv").read_text().splitlines()
        assert len(runs) == 1 + 2 * 2 * 2  # header + k*m*r records
        for row in rows:
            if row["algorithm"] == "spso":
                assert row["verdict"] == "NA"
            else:
                assert row["verdict"] in ("D+", "D-", "N")
            assert row["mean"] != ""
        # each run wrote a re-parseable trace
        for rec in read_summary_rows(out1 / "runs.csv"):
            conv = read_convergence(rec["trace_path"])
            assert len(conv) == 10
            assert not np.any(conv[1:] > conv[:-1])
        # evaluation bookkeeping: each of the k*m*r optimizations really ran
        for rec in read_summary_rows(out1 / "runs.csv"):
            assert int(rec["feasible"]) in (0, 1)
            assert float(rec["final_fitness"]) > 0

    def test_bench_prints_runs_and_failed_cells(self, tmp_path, capsys):
        ring = [
            {"x": 50.0 + 20.0 * math.cos(a), "y": 50.0 + 20.0 * math.sin(a), "r": 9.0}
            for a in np.linspace(0, 2 * math.pi, 9, endpoint=False)
        ]
        (tmp_path / "ring.yaml").write_text(yaml.safe_dump(
            dict(FLAT_CFG, threats=ring, goal={"x": 50.0, "y": 50.0, "z": 70.0})))
        (tmp_path / "flat.yaml").write_text(yaml.safe_dump(FLAT_CFG))
        out = tmp_path / "pin"
        code = main([
            "bench", "--scenarios", f"{tmp_path / 'ring.yaml'},{tmp_path / 'flat.yaml'}",
            "--algos", "spso,pso", "--runs", "2", "--swarm", "12", "--iters", "5",
            "--seed", "3", "--out", str(out),
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out.splitlines() == [
            "[1/8] ring spso run 0: inf (FAILED)",
            "[2/8] ring spso run 1: inf (FAILED)",
            "[3/8] ring pso run 0: inf (FAILED)",
            "[4/8] ring pso run 1: inf (FAILED)",
            "[5/8] flat spso run 0: 117.995 (ok)",
            "[6/8] flat spso run 1: 114.040 (ok)",
            "[7/8] flat pso run 0: 162.653 (ok)",
            "[8/8] flat pso run 1: 191.273 (ok)",
            f"summary written to {out / 'summary.csv'}",
        ]
        assert "4 failed run(s)" in captured.err
        assert "cells with no feasible run: [('ring', 'pso'), ('ring', 'spso')]" in captured.err

    def test_single_run_has_na_ttest(self, tmp_path):
        cfgs = self.make_two_configs(tmp_path)
        out = tmp_path / "b3"
        code = main([
            "bench", "--scenarios", cfgs[0], "--algos", "spso,pso", "--runs", "1",
            "--swarm", "16", "--iters", "5", "--out", str(out),
        ])
        assert code == 0
        rows = read_summary_rows(out / "summary.csv")
        assert all(row["verdict"] == "NA" for row in rows)
        assert all(row["std"] in ("", "0.000000") for row in rows)

    def test_unknown_algorithm_exits_2(self, tmp_path, capsys):
        cfgs = self.make_two_configs(tmp_path)
        code = main(["bench", "--scenarios", cfgs[0], "--algos", "nope", "--out", str(tmp_path / "x")])
        assert code == 2

    @pytest.mark.parametrize(
        "files, algos, named",
        [
            # A repeated algorithm would pair the t-test's runs wrongly.
            (["a/s1.yaml"], "spso,pso,spso", "algorithm listed more than once: spso"),
            # Two files with one stem would write to the same trace CSVs.
            (["a/s1.yaml", "b/s1.yaml"], "spso,pso", "scenario name listed more than once: s1"),
        ],
    )
    def test_duplicate_name_exits_2(self, tmp_path, capsys, files, algos, named):
        for f in files:
            (tmp_path / f).parent.mkdir(exist_ok=True)
            (tmp_path / f).write_text(yaml.safe_dump(FLAT_CFG))
        out = tmp_path / "dup"
        code = main([
            "bench", "--scenarios", ",".join(str(tmp_path / f) for f in files),
            "--algos", algos, "--runs", "2", "--swarm", "6", "--iters", "2", "--out", str(out),
        ])
        assert code == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, named",
        [
            # A baseline outside the matrix would leave every t-test empty.
            (("--algos", "spso,pso", "--baseline", "ga"), "baseline 'ga' is not one of"),
            (("--algos", "pso,qpso"), "baseline 'spso' is not one of"),
            (("--algos", "spso", "--jobs", "0"), "jobs must be >= 1"),
        ],
    )
    def test_bad_spec_exits_2(self, tmp_path, capsys, args, named):
        cfgs = self.make_two_configs(tmp_path)
        out = tmp_path / "spec"
        code = main(["bench", "--scenarios", cfgs[0], *args, "--runs", "2",
                     "--swarm", "6", "--iters", "2", "--out", str(out)])
        assert code == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "jobs, cpus, started",
        [(5000, 2, [2]), (5000, 64, [3]), (2, 64, [2]), (5000, 1, [])],
    )
    def test_pool_capped_by_cells_and_cores(self, monkeypatch, flat_scenario, jobs, cpus, started):
        pools = []

        class SerialPool:
            """Records the pool size asked for and maps in this process."""

            def __init__(self, max_workers, initializer=None, initargs=()):
                pools.append(max_workers)
                if initializer is not None:
                    initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return list(map(fn, *iterables))

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        spec = BenchmarkSpec(
            scenarios=(flat_scenario,), algorithms=("pso",), runs_per_cell=3,
            base_config=SwarmConfig(swarm_size=4, max_iterations=1), baseline="pso", jobs=jobs,
        )
        assert len(run_benchmark(spec)) == 3
        assert pools == started

    def test_pool_cells_ship_no_scenario(self, monkeypatch, flat_scenario):
        mapped = []

        class RecordingPool:
            """Starts one in-process worker and records what each unit ships."""

            def __init__(self, max_workers, initializer=None, initargs=()):
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                units = list(zip(*iterables))
                mapped.extend(units)
                return [fn(*unit) for unit in units]

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli, "_worker_scenarios", ())
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        other = replace(flat_scenario, name="other", goal=[90.0, 10.0, 70.0])
        spec = BenchmarkSpec(
            scenarios=(flat_scenario, other), algorithms=("pso",), runs_per_cell=2,
            base_config=SwarmConfig(swarm_size=4, max_iterations=1), baseline="pso", jobs=2,
        )
        records = run_benchmark(spec)
        assert len(mapped) == 2  # one unit per scenario
        shipped = [arg for index, plans in mapped for arg in (index, *(x for plan in plans for x in plan))]
        assert not any(isinstance(arg, Scenario) for arg in shipped)
        # Each unit ran on its own scenario, as in the serial path.
        serial = run_benchmark(replace(spec, jobs=1))
        for got, want in zip(records, serial, strict=True):
            assert got.scenario == want.scenario
            assert np.array_equal(got.trace.best_path, want.trace.best_path)

    def test_parallel_jobs_match_serial(self, tmp_path):
        cfgs = self.make_two_configs(tmp_path)
        args = [
            "bench", "--scenarios", ",".join(cfgs), "--algos", "spso",
            "--runs", "2", "--swarm", "12", "--iters", "6", "--seed", "3",
        ]
        serial, parallel = tmp_path / "ser", tmp_path / "par"
        assert main(args + ["--out", str(serial)]) == 0
        assert main(args + ["--out", str(parallel), "--jobs", "2"]) == 0
        assert (serial / "summary.csv").read_bytes() == (parallel / "summary.csv").read_bytes()

    def test_units_of_several_algorithms_match_serial(self, tmp_path, monkeypatch):
        """A unit holds every algorithm and run of its scenario; at --jobs 2
        the two units run in two workers, at --jobs 1 one after the other,
        and the outputs agree byte for byte but for the run times."""
        cfgs = self.make_two_configs(tmp_path)
        args = [
            "bench", "--scenarios", ",".join(cfgs), "--algos", "spso,ga,de",
            "--runs", "2", "--swarm", "12", "--iters", "6", "--seed", "3", "--out", "bench",
        ]
        outputs = []
        for jobs in ("1", "2"):
            run_dir = tmp_path / f"jobs{jobs}"
            run_dir.mkdir()
            monkeypatch.chdir(run_dir)  # runs.csv holds the trace paths under --out
            assert main(args + ["--jobs", jobs]) == 0
            out = run_dir / "bench"
            outputs.append(((out / "summary.csv").read_bytes(),
                            without_column((out / "runs.csv").read_bytes(), "wall_time_s")))
        assert outputs[0] == outputs[1]
        assert len(read_summary_rows(tmp_path / "jobs1" / "bench" / "runs.csv")) == 2 * 3 * 2

    @pytest.mark.parametrize(
        "scenarios, runs, workers, sizes",
        [
            (2, 3, 2, [3, 3]),
            (2, 3, 4, [2, 1, 2, 1]),
            (1, 3, 64, [1, 1, 1]),
            (1, 5, 3, [2, 1, 2]),
            (3, 4, 1, [4, 4, 4]),
        ],
    )
    def test_work_units_split_the_largest(self, scenarios, runs, workers, sizes):
        units = cli._work_units(scenarios, runs, workers)
        assert [len(u) for u in units] == sizes
        # The units cover the cells in order, each inside one scenario.
        assert [c for u in units for c in u] == list(range(scenarios * runs))
        assert all(u[0] // runs == u[-1] // runs for u in units)

    def test_wall_time_is_attributed_within_each_unit(self, monkeypatch, flat_scenario):
        """Each record's wall_time is its run's share of its unit, which is
        positive, and a unit's records sum to no more than its elapsed time."""
        units = []

        def timed(scenario, plans):
            t0 = time.perf_counter()
            out = run_lockstep(scenario, plans)
            units.append((len(plans), time.perf_counter() - t0))
            return out

        monkeypatch.setattr(cli, "run_lockstep", timed)
        other = replace(flat_scenario, name="other", goal=[90.0, 10.0, 70.0])
        spec = BenchmarkSpec(
            scenarios=(flat_scenario, other), algorithms=("spso", "ga", "abc"), runs_per_cell=2,
            base_config=SwarmConfig(swarm_size=8, max_iterations=5), baseline="spso",
        )
        records = run_benchmark(spec)
        assert [n for n, _ in units] == [6, 6]
        assert all(r.wall_time > 0 for r in records)
        for k, (n, elapsed) in enumerate(units):
            assert math.fsum(r.wall_time for r in records[k * n:(k + 1) * n]) <= elapsed


class TestSuiteGenerate:
    def test_generate_is_loadable_and_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "g1", tmp_path / "g2"
        assert main(["suite", "generate", "--seed", "0", "--out", str(out1)]) == 0
        assert main(["suite", "generate", "--seed", "0", "--out", str(out2)]) == 0
        files = sorted(p.name for p in out1.iterdir())
        assert files == sorted(p.name for p in out2.iterdir())
        assert sum(f.endswith(".yaml") for f in files) == 8
        for f in files:
            assert (out1 / f).read_bytes() == (out2 / f).read_bytes()
        sc = load_scenario(out1 / "s3.yaml")
        assert sc.n_waypoints == 12
        assert len(sc.threats) >= 8

    @pytest.mark.parametrize("command", [
        ["suite", "generate", "--seed", "-1"],
        ["bench", "--suite-seed", "-1", "--algos", "spso"],
    ])
    def test_negative_suite_seed_exits_2(self, tmp_path, capsys, command):
        out = tmp_path / "neg"
        assert main(command + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "suite seed" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestOutputErrors:
    @pytest.mark.parametrize("command", [
        ["plan", "{cfg}", "--algo", "pso", "--swarm", "4", "--iters", "1"],
        ["bench", "--scenarios", "{cfg}", "--algos", "spso,pso", "--baseline", "pso",
         "--runs", "1", "--swarm", "4", "--iters", "1"],
        ["suite", "generate", "--seed", "0"],
    ])
    def test_out_names_a_regular_file_exits_3(self, flat_cfg_path, tmp_path, capsys, command):
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        argv = [a.format(cfg=flat_cfg_path) for a in command]
        assert main(argv + ["--out", str(taken)]) == 3
        err = capsys.readouterr().err
        assert "I/O error" in err
        assert "Traceback" not in err
        assert taken.read_text() == "not a directory\n"
