"""Print the lines of `src/initalg` that the tier-1 suite never runs.

Usage, from the repository root (extra arguments go to pytest):

    PYTHONPATH=src python tests/line_coverage.py [pytest args]

Standard library only: the suite runs in this process under `sys.settrace`
and `threading.settrace`, and only frames of files under `src/initalg` are
traced.  The executable lines of a module are the lines of the code objects
of its compiled source (`co_lines()`).  For each module the report, on
stdout, lists every executable line that never ran, with its text; pytest's
own output goes to stderr.  The exit code is pytest's: unrun lines gate
nothing.  Subprocesses are not traced, so `__main__.py` and the body of
`cli.main`, which only the subprocess tests run, show as unrun.  The traced
suite runs about four times slower than the plain one.
"""

import contextlib
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "initalg"
ran: dict[str, set[int]] = {}  # resolved path -> line numbers seen
where: dict[str, str | None] = {}  # co_filename -> resolved path, or None outside SRC


def trace(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in where:
        path = Path(name).resolve()
        where[name] = str(path) if path.parent == SRC else None
    if where[name] is None:
        return None
    lines = ran.setdefault(where[name], set())
    lines.add(frame.f_lineno)

    def line(frame, event, arg):
        lines.add(frame.f_lineno)
        return line

    return line


def executable(code) -> set[int]:
    found = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            found |= executable(const)
    return found


def main() -> int:
    sys.settrace(trace)
    threading.settrace(trace)
    with contextlib.redirect_stdout(sys.stderr):
        code = pytest.main(["-q", "--continue-on-collection-errors", str(ROOT / "tests"),
                            *sys.argv[1:]])
    sys.settrace(None)
    threading.settrace(None)
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        unrun = sorted(executable(compile(text, str(path), "exec")) - ran.get(str(path), set()))
        lines = text.splitlines()
        print(f"{path.relative_to(ROOT)}: {len(unrun)} executable lines never ran")
        for n in unrun:
            print(f"  {n:4d}  {lines[n - 1].strip()}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
