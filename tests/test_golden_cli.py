"""Golden CLI outputs: the bytes of the files ``plan`` and ``bench`` write,
pinned by SHA-256.

A refactor of the solvers or the CSV writers keeps every hash below.  A
change that alters these outputs on purpose copies the new hashes from
the assertion message and says so in CHANGES.md.  ``runs.csv`` is hashed
without its ``wall_time_s`` column, the one value that differs between
reruns.  Taken with numpy 2.x on x86-64, like ``test_golden.py``.
"""

import csv
import hashlib
import io

import yaml

from uavpath.cli import main

GOLDEN_CFG = {
    "terrain": {"synthetic": {"n_cols": 11, "n_rows": 11, "cell_size": 10.0}},
    "start": {"x": 10.0, "y": 10.0, "z": 70.0},
    "goal": {"x": 90.0, "y": 90.0, "z": 70.0},
    "threats": [{"x": 50.0, "y": 30.0, "r": 8.0}],
    "n_waypoints": 5,
}

SMALL_RUN = ["--swarm", "12", "--iters", "5", "--seed", "3"]

GOLDEN_PLAN = {
    "breakdown.csv": "0f5d01d28ae6f8387d89be30c154796f0c9039355593644d460eed6746e47259",
    "convergence.csv": "b73c27de53024421d135c5721a991963a5f167344fa0701ffb15a4f35abb9ca5",
    "waypoints.csv": "9117eaf8dec323d6bd753ccae8e35f20089a14b6f841cd7c1d96ffe8f86a4267",
}

GOLDEN_BENCH = {
    "runs.csv": "dfe005718cf49e54c6b6370a9d378a903417dfb358c32084675d335114979e87",
    "summary.csv": "127ba49aa552be3cb1f8794c011e00a7f72185f0e6ac10a2827dfc58aedbfaeb",
    "traces/flat_pso_run0.csv": "bf7f90b38c78552368c721755ac30126687e2f4f3cf6391967c60a459b636683",
    "traces/flat_pso_run1.csv": "9bc1842dbedf81bc510b1bc671a057cfb6be64eec1c3005ac9401b75e5ea46bc",
    "traces/flat_spso_run0.csv": "6d426ede7988698a6f4395b97a996431caefc2af13b7452c6d414fcd4638de4d",
    "traces/flat_spso_run1.csv": "970ca81cd67a6aac35da05c996f8c55a5aa625d0f87f59ae7b4e1cce6288402c",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def without_column(data: bytes, column: str) -> bytes:
    rows = list(csv.reader(io.StringIO(data.decode(), newline="")))
    keep = [i for i, name in enumerate(rows[0]) if name != column]
    out = io.StringIO(newline="")
    csv.writer(out).writerows([[row[i] for i in keep] for row in rows])
    return out.getvalue().encode()


def output_digests(out_dir) -> dict[str, str]:
    digests = {}
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        name = path.relative_to(out_dir).as_posix()
        data = path.read_bytes()
        if name == "runs.csv":
            data = without_column(data, "wall_time_s")
        digests[name] = sha256(data)
    return digests


def test_plan_outputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "flat.yaml").write_text(yaml.safe_dump(GOLDEN_CFG))
    assert main(["plan", "flat.yaml", "--algo", "spso", *SMALL_RUN, "--out", "p"]) == 0
    digests = output_digests(tmp_path / "p")
    assert digests == GOLDEN_PLAN, digests


def test_bench_outputs(tmp_path, monkeypatch):
    # Relative paths keep the trace_path column of runs.csv the same in
    # every temporary directory.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "flat.yaml").write_text(yaml.safe_dump(GOLDEN_CFG))
    assert main(["bench", "--scenarios", "flat.yaml", "--algos", "spso,pso",
                 "--runs", "2", *SMALL_RUN, "--out", "b"]) == 0
    digests = output_digests(tmp_path / "b")
    assert digests == GOLDEN_BENCH, digests
