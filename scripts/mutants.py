"""Mutation probe: one hand-written mutant per feasibility edge, input bound,
the cost's row bound and init bookkeeping rule.

Each mutant replaces one exact snippet of a file under ``src/`` in a copy
of ``src/``, ``tests/`` and ``pyproject.toml`` made under a temporary
directory, then runs the Tier-1 suite there, leaving out the acceptance and
demo tests.  A mutant is killed when a test fails.  No mutation package is
needed: the list below is the probe.

Run from anywhere, for every mutant or for the ones named:

    python scripts/mutants.py
    python scripts/mutants.py contains-x-max f2-collide

It prints one line per mutant and the kill rate, and exits 1 when a mutant
survives.  A snippet that no longer occurs exactly once in its file stops
the probe before any test runs.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TERRAIN = "src/uavpath/terrain.py"
SCENARIO = "src/uavpath/scenario.py"
COST = "src/uavpath/cost.py"
ENCODINGS = "src/uavpath/encodings.py"
OPTIMIZERS = "src/uavpath/optimizers.py"
CLI = "src/uavpath/cli.py"

# (name, file, snippet, replacement)
MUTANTS = [
    # The on-map rule, TerrainMap.contains: a closed rectangle.
    ("contains-x-min", TERRAIN, "(xs >= self.origin_x)", "(xs > self.origin_x)"),
    ("contains-x-max", TERRAIN, "(xs <= self.x_max)", "(xs < self.x_max)"),
    ("contains-y-min", TERRAIN, "(ys >= self.origin_y)", "(ys > self.origin_y)"),
    ("contains-y-max", TERRAIN, "(ys <= self.y_max)", "(ys < self.y_max)"),
    # The corridor rule, FlightConstraints.in_corridor: closed at both ends.
    ("corridor-h-min", SCENARIO, "(h >= self.h_min)", "(h > self.h_min)"),
    ("corridor-h-max", SCENARIO, "(h <= self.h_max)", "(h < self.h_max)"),
    # The collision edge, stated by the validator and by F2.
    ("validator-collide", SCENARIO, "cy - y) <= collide)", "cy - y) < collide)"),
    ("f2-collide", COST, "d <= collide_r, np.inf)", "d < collide_r, np.inf)"),
    # F2's danger ring starts at the collision circle, and its penalty is
    # zero beyond the ring.
    ("f2-danger-ring", SCENARIO, "constraints.danger_distance + collide\n",
     "constraints.danger_distance\n"),
    ("f2-clamp-zero", COST, "np.maximum(penalty, 0.0, out=penalty)",
     "np.maximum(penalty, -np.inf, out=penalty)"),
    # F4 gives a degenerate segment no turn and no climb.
    ("f4-turn-mask", COST, "return np.where(ok, ang, 0.0)", "return ang"),
    ("f4-climb-mask", COST, "np.where(lengths > EPS_LEN, np.arctan2(sz, horiz), 0.0)",
     "np.arctan2(sz, horiz)"),
    # A NaN total is infeasible; a zero-weight term rules out no path.
    ("nan-total", COST, "total[np.isnan(total)] = np.inf", "total[np.isnan(total)] = np.nan"),
    ("in-running-zero-weight", COST,
     "return np.isfinite(term) if weight else np.ones(term.shape, dtype=bool)",
     "return np.isfinite(term)"),
    # heights clamps only the last cell's index; wrap_to_pi maps -pi to pi.
    ("heights-last-column", TERRAIN, "np.minimum(ix, self.n_cols - 2, out=ix)",
     "np.minimum(ix, self.n_cols - 1, out=ix)"),
    ("wrap-minus-pi", ENCODINGS, "a[a == -math.pi] = math.pi", "a[a == -math.pi] = -math.pi"),
    # clamp_wrap clips the bounded genes; the spherical step is capped.
    ("clamp-wrap-clip", ENCODINGS, "clipped = np.clip(g, space.lower, space.upper)",
     "clipped = g.copy()"),
    ("spherical-step-cap", ENCODINGS, "upper = np.tile([cap, ", "upper = np.tile([2 * cap, "),
    # The sampler puts each altitude above the node the space decodes.
    ("sampler-through-decode", ENCODINGS, "space.decode(", "decode_cartesian("),
    # A space's bounds and wrap policy are read-only.
    ("space-read-only", ENCODINGS, "arr.setflags(write=False)", "arr.setflags(write=True)"),
    # The input boundary's magnitude bound, closed: a config number, an
    # elevation and an endpoint coordinate may equal MAX_MAGNITUDE, and a
    # hill's width 1 / MAX_MAGNITUDE.
    ("field-bound", TERRAIN, "if not abs(value) <= limit:", "if not abs(value) < limit:"),
    ("elevation-bound", TERRAIN, "if not max(map(abs, z_range)) <= MAX_MAGNITUDE:",
     "if not max(map(abs, z_range)) < MAX_MAGNITUDE:"),
    ("endpoint-bound", SCENARIO, "abs(c) <= MAX_MAGNITUDE for c", "abs(c) < MAX_MAGNITUDE for c"),
    ("hill-width-floor", TERRAIN, "if not 1 / MAX_MAGNITUDE <= self.sigma_min",
     "if not 1 / MAX_MAGNITUDE < self.sigma_min"),
    # A run's size bounds, closed: a swarm, a run's evaluations, a cell's
    # runs and a synthetic build's hill-nodes may equal their bound.  A
    # bound given to require_int is lowered by one, which makes its
    # ``value > maximum`` strict.
    ("swarm-size-bound", OPTIMIZERS, "self.swarm_size, 2, MAX_SWARM_SIZE)",
     "self.swarm_size, 2, MAX_SWARM_SIZE - 1)"),
    ("evaluation-bound", OPTIMIZERS, "self.max_iterations > MAX_EVALUATIONS:",
     "self.max_iterations >= MAX_EVALUATIONS:"),
    ("runs-per-cell-bound", CLI, "self.runs_per_cell, 1, MAX_RUNS_PER_CELL)",
     "self.runs_per_cell, 1, MAX_RUNS_PER_CELL - 1)"),
    ("hill-work-bound", TERRAIN, "self.n_rows > MAX_HILL_NODES:", "self.n_rows >= MAX_HILL_NODES:"),
    # evaluate_paths scores a stack in slices of at most MAX_STACK rows.
    ("slice-bound", COST, "paths[a:a + MAX_STACK]", "paths[a:a + MAX_STACK + 1]"),
    # Init scores a block of tries at once and keeps each particle's first
    # finite try, as drawing one try per round would.
    ("init-first-finite", OPTIMIZERS, "finite.argmax(axis=1)", "tries - 1 - finite[:, ::-1].argmax(axis=1)"),
]

PYTEST = [
    sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
    "--ignore=tests/test_acceptance.py", "--ignore=tests/test_demos.py",
]


def check_snippets(mutants) -> None:
    """Each snippet must occur exactly once in its file."""
    for name, path, old, _ in mutants:
        count = (ROOT / path).read_text().count(old)
        if count != 1:
            sys.exit(f"{name}: snippet occurs {count} times in {path}: {old!r}")


def run_mutant(path: str, old: str, new: str) -> tuple[bool, str]:
    """(killed, pytest's summary line) for one mutant."""
    with tempfile.TemporaryDirectory(prefix="uavpath-mutant-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", work)
        target = work / path
        target.write_text(target.read_text().replace(old, new))
        proc = subprocess.run(
            PYTEST, cwd=work, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(work / "src")},
        )
    lines = proc.stdout.strip().splitlines()
    summary = re.sub(r"^=+ | =+$", "", lines[-1]) if lines else proc.stderr.strip()[-200:]
    return proc.returncode != 0, summary


def main(names: list[str]) -> int:
    known = {m[0] for m in MUTANTS}
    unknown = sorted(set(names) - known)
    if unknown:
        sys.exit(f"unknown mutant(s): {', '.join(unknown)}; known: {', '.join(sorted(known))}")
    mutants = [m for m in MUTANTS if not names or m[0] in names]
    check_snippets(mutants)
    killed = 0
    for name, path, old, new in mutants:
        dead, summary = run_mutant(path, old, new)
        killed += dead
        print(f"{'killed  ' if dead else 'SURVIVED'} {name}: {summary}", flush=True)
    print(f"{killed} of {len(mutants)} killed")
    return 0 if killed == len(mutants) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
