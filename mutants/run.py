"""Run the committed mutants, one at a time, each in a copy of the tree.

    python3 mutants/run.py

Run it from the repository root.  For each row of table.py it copies
src/, tests/ and pyproject.toml into a temporary directory, replaces the
row's snippet there, and runs the row's tests with `pytest -x`.  It never
edits the checkout.  A mutant is

- killed: a named test fails;
- survived: every named test passes;
- stale: the snippet does not occur exactly once in the checkout;
- error: pytest stopped for another reason (a collection or usage
  error) or ran past the timeout.

First it runs every named test once on an unmodified copy, and stops
with exit code 2 unless they all pass there.

An "equivalent" row is expected to survive; any other outcome of a row
differs from its status and makes the exit code 1.  The report of the
run, a Markdown table of every row, is written to mutants/REPORT.md.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from table import MUTANTS  # noqa: E402

TIMEOUT_S = 600
NO_CACHE = shutil.ignore_patterns("__pycache__")
EXPECTED = {"killed": "killed", "equivalent": "survived"}


def occurrences(row) -> int:
    return (ROOT / row["file"]).read_text(encoding="utf-8").count(row["snippet"])


def run_one(row) -> tuple:
    """(outcome, seconds) of one mutant."""
    if occurrences(row) != 1:
        return "stale", 0.0
    return pytest_on_copy(row["tests"], row)


def pytest_on_copy(tests, row=None) -> tuple:
    """(outcome, seconds) of `tests` on a copy of the tree, with the
    mutant `row` applied unless it is None."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part, ignore=NO_CACHE)
        shutil.copy2(ROOT / "pyproject.toml", work / "pyproject.toml")
        if row is not None:
            target = work / row["file"]
            text = target.read_text(encoding="utf-8")
            mutated = text.replace(row["snippet"], row["replacement"])
            target.write_text(mutated, encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(work / "src")}
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
        start = time.perf_counter()
        try:
            done = subprocess.run(
                command + tests, cwd=work, env=env, capture_output=True,
                timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return "error", time.perf_counter() - start
        seconds = time.perf_counter() - start
    return {0: "survived", 1: "killed"}.get(done.returncode, "error"), seconds


def main() -> int:
    # a kill counts only if the named tests pass on the unmutated tree
    tests = sorted({test for row in MUTANTS for test in row["tests"]})
    outcome, _ = pytest_on_copy(tests)
    if outcome != "survived":
        print(f"the named tests do not pass on the unmutated tree: {outcome}")
        return 2
    lines = [
        "| mutant | file | status | outcome | seconds |",
        "| --- | --- | --- | --- | --- |",
    ]
    mismatches, total = 0, 0.0
    for row in MUTANTS:
        outcome, seconds = run_one(row)
        total += seconds
        mismatches += outcome != EXPECTED[row["status"]]
        cells = (row["id"], row["file"], row["status"], outcome, f"{seconds:.1f}")
        line = "| " + " | ".join(cells) + " |"
        print(line, flush=True)
        lines.append(line)
    lines.append("")
    lines.append(
        f"{len(MUTANTS)} mutants, {mismatches} not as their status says, "
        f"{total:.0f} s of pytest in all."
    )
    (ROOT / "mutants" / "REPORT.md").write_text(
        "# Mutant run\n\n`python3 mutants/run.py`\n\n" + "\n".join(lines) + "\n",
        encoding="utf-8",
    )
    print(lines[-1])
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
