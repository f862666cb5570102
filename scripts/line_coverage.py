"""A pytest plugin that lists the statements under src/ a test run never runs.

Usage: PYTHONPATH=src:scripts python -m pytest -q -p line_coverage

A stdlib stand-in for a coverage tool: `sys.settrace` records each line run
in src/, and the terminal summary lists, per module, the lines of its code
objects that never ran.  Child processes the tests start are not traced,
and the tests run several times slower.
"""
import functools
import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
_ran: set[tuple[str, int]] = set()


@functools.cache
def _ours(filename: str) -> bool:
    return Path(filename).resolve().is_relative_to(SRC)


def _line(frame, event, arg):
    if event == "line":
        _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    return _line if _ours(frame.f_code.co_filename) else None


def _statements(code) -> set[int]:
    """The lines of `code` and its nested code objects, less each nested
    object's header, which runs as a statement of the code around it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for inner in code.co_consts:
        if hasattr(inner, "co_lines"):
            lines |= _statements(inner) - {inner.co_firstlineno}
    return lines


sys.settrace(_call)
threading.settrace(_call)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    terminalreporter.section("src/ statements never run")
    ran = {(str(Path(f).resolve()), n) for f, n in _ran}
    for path in sorted(SRC.rglob("*.py")):
        code = compile(path.read_text(), str(path), "exec")
        missed = sorted(_statements(code) - {n for f, n in ran if f == str(path)})
        if missed:
            terminalreporter.write_line(f"{path.relative_to(SRC.parent)}: {' '.join(map(str, missed))}")
