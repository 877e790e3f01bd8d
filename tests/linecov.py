"""Line coverage of src/groupoids under the Tier-1 suite, with pytest and
the standard library only (no coverage package).

    PYTHONPATH=src python tests/linecov.py [pytest arguments]

runs the suite in this process under a sys.settrace line tracer that
records only frames of src/groupoids, and prints, per module, each
statement no test ran (its first line and source), then each module's
count of code lines: lines outside docstrings, comments and blank lines,
and the total of all lines, as `wc -l src/groupoids/*.py` counts them.
Statements are those of each module's source as read before the suite
starts; a module whose file changed during the run is reported as stale,
with no statements, since its traced lines need not match either text.
The tracer is re-armed before each test, because Hypothesis replaces an
installed tracer with its own and drops it.  Extra arguments go to
pytest; with none, the whole suite under tests/ runs.  The file is not a
test module, so the suite does not collect it.

    python tests/linecov.py --count

prints only the line counts, without running anything.
"""

from __future__ import annotations

import ast
import io
import sys
import threading
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "groupoids"


def _docstring_lines(tree: ast.AST) -> set:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if not isinstance(body, list) or not body:
            continue
        first = body[0]
        scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        if isinstance(node, scopes) and (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """Lines holding a token other than a comment, outside docstrings."""
    source = path.read_text()
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in skip:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from _code_objects(const)


def _statements(path: Path, source: str) -> list:
    """(first line, lines owned) of each statement with executable code
    in `source`, the text of path, where a statement owns the lines of
    its span that no statement nested in it spans."""
    executable = {
        line
        for code in _code_objects(compile(source, str(path), "exec"))
        for _, _, line in code.co_lines()
        if line is not None
    }
    owner = {}
    for node in ast.walk(ast.parse(source)):  # outer statements first
        if isinstance(node, ast.stmt):
            for line in range(node.lineno, node.end_lineno + 1):
                owner[line] = node.lineno
    owned: dict = {}
    for line in sorted(executable):
        if line in owner:
            owned.setdefault(owner[line], set()).add(line)
    return sorted(owned.items())


def _tracer(hits: dict):
    prefix = str(PACKAGE) + "/"

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        hits.setdefault(name, set()).add(frame.f_lineno)
        return local

    return tracer


def run(args: list) -> int:
    import pytest

    hits: dict = {}
    tracer = _tracer(hits)
    # the traced line numbers are those of the sources the suite imports,
    # read here, before it starts
    sources = {path: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}

    class Rearm:
        @pytest.hookimpl(tryfirst=True)
        def pytest_runtest_setup(self, item):
            sys.settrace(tracer)

        @pytest.hookimpl(tryfirst=True)
        def pytest_runtest_call(self, item):
            sys.settrace(tracer)

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(
            ["-q", "-p", "no:cacheprovider", *(args or [str(ROOT / "tests")])],
            plugins=[Rearm()],
        )
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for path, source in sources.items():
        if path.read_text() != source:
            print(f"{path.name}: stale, changed during the run; not reported")
            continue
        seen = hits.get(str(path), set())
        text = source.splitlines()
        unrun = [(first, text[first - 1].strip())
                 for first, lines in _statements(path, source) if not lines & seen]
        print(f"{path.name}: {len(unrun)} statements not run")
        for first, text in unrun:
            print(f"  {first}: {text}")
    report_counts()
    return int(status)


def report_counts():
    total = lines = 0
    for path in sorted(PACKAGE.glob("*.py")):
        n = code_lines(path)
        total += n
        lines += len(path.read_text().splitlines())
        print(f"{n:6d} {path.name}")
    print(f"{total:6d} code lines outside docstrings, comments and blank lines")
    print(f"{lines:6d} lines in all, as wc -l counts them")


if __name__ == "__main__":
    if sys.argv[1:] == ["--count"]:
        report_counts()
    else:
        sys.exit(run(sys.argv[1:]))
