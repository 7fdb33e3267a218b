"""Line coverage of ``src/uavpath`` under the Tier-1 suite, standard library
only.

The script runs Tier-1 in this process under ``sys.settrace`` and
``threading.settrace``, recording the lines run in the package's files.
An executable line is one that some code object of a file maps an
instruction to (``co_lines()``).  Lines run only in worker processes are
not seen, so a line that only a worker runs needs a test that runs it in
process too.

Run from anywhere, over Tier-1 or, with pytest arguments, a part of it:

    python scripts/coverage.py
    python scripts/coverage.py tests/test_stats.py

It prints every executable line that never ran and every exemption with
its reason, and exits 1 when a line that is not exempt never ran, or when
Tier-1 fails.  An exemption names one exact snippet of a file, as
``scripts/mutants.py`` does.  A snippet that no longer occurs exactly once
stops the script before any test runs, and one whose lines all ran fails
it, so the list cannot go stale.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "uavpath"

CLI = "cli.py"
TERRAIN = "terrain.py"

# (file under src/uavpath, snippet, reason)
EXEMPT = [
    (CLI, "    sys.exit(main())",
     "the module's __main__ guard; the tests call main() and CI runs the console script"),
    (TERRAIN, '    raise ConfigError("data rows could not be parsed")',
     "_raise_row_error's end-of-scan guard: it is called only after numpy rejected the rows, "
     "and no DEM is known whose rows numpy rejects while each row passes this scan"),
]

PYTEST_ARGS = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]


def executable_lines(path: Path) -> set[int]:
    """Every line some code object of the file maps an instruction to; a
    module's first instruction maps to line 0, which is no source line."""
    lines: set[int] = set()
    pending = [compile(path.read_text(), str(path), "exec")]
    while pending:
        code = pending.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        pending.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def exemption_lines(files: dict[str, Path]) -> list[range]:
    """The lines of each exemption's snippet; exits on a stale snippet."""
    spans = []
    for name, snippet, _ in EXEMPT:
        text = files[name].read_text()
        count = text.count(snippet)
        if count != 1:
            sys.exit(f"exemption snippet occurs {count} times in {name}: {snippet!r}")
        first = text[: text.index(snippet)].count("\n") + 1
        spans.append(range(first, first + snippet.count("\n") + 1))
    return spans


def run_traced(args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """Tier-1's exit code, and the (file, line) pairs it ran in the package."""
    import pytest

    prefix = str(PACKAGE) + os.sep
    ran: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def global_(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            return local
        return None

    sys.path.insert(0, str(PACKAGE.parent))
    os.chdir(ROOT)
    threading.settrace(global_)
    sys.settrace(global_)
    try:
        status = pytest.main(PYTEST_ARGS + args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), {(Path(f).name, line) for f, line in ran}


def main(args: list[str]) -> int:
    files = {path.name: path for path in sorted(PACKAGE.glob("*.py"))}
    spans = exemption_lines(files)
    exempt = {(name, line) for (name, _, _), span in zip(EXEMPT, spans) for line in span}
    status, ran = run_traced(args)
    stale = 0
    for (name, snippet, reason), span in zip(EXEMPT, spans):
        run_all = all((name, line) in ran for line in span)
        stale += run_all
        print(f"{'exempt but run' if run_all else 'exempt'} src/uavpath/{name}:{span[0]}: "
              f"{snippet.strip()}\n    {reason}")
    missed = total = 0
    for name, path in files.items():
        source = path.read_text().splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for line in sorted(lines - {line for (n, line) in ran | exempt if n == name}):
            missed += 1
            print(f"not run src/uavpath/{name}:{line}: {source[line - 1].strip()}")
    print(f"{missed} of {total} executable lines never ran, {len(exempt)} exempt")
    if status != 0:
        print(f"Tier-1 exited {status}")
    return 1 if missed or stale or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
