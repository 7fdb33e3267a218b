"""Smoke test: every demo script and the README's library quick start run to
completion from a clean directory, with the library's warnings as errors."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# pyproject.toml's filters for the test suite, with DeprecationWarning an
# error from every module, not only uavpath's.
WARNINGS_AS_ERRORS = ["-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning"]


def quick_start() -> str:
    readme = (ROOT / "README.md").read_text()
    return re.search(r"## Library quick start\s+```python\n(.*?)```", readme, re.S).group(1)


@pytest.mark.parametrize(
    "program", [*DEMOS, "quick start"], ids=lambda p: getattr(p, "name", "README quick start"),
)
def test_demo_runs(program, tmp_path):
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    source = ["-c", quick_start()] if program == "quick start" else [str(program)]
    result = subprocess.run(
        [sys.executable, *WARNINGS_AS_ERRORS, *source], cwd=tmp_path, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=pythonpath), timeout=300,
    )
    assert result.returncode == 0, result.stderr
