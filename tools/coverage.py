"""Line coverage of src/dynlocrep/ over the tier-1 tests, from the standard
library's tracing hooks and pytest alone (no coverage package).

Runs the tier-1 suite (tests/ and perfbench/tests/, without criterion 8's
end-to-end benchmark) in this process under sys.settrace and
threading.settrace, then prints each executable line of src/dynlocrep/ that
no test reached, as path:line: source. A line is executable when the
compiled module maps bytecode to it. Exits 1 if any line is unreached, or
with pytest's status if the suite fails. Extra arguments go to pytest.

    python tools/coverage.py
"""

from __future__ import annotations

import os
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dynlocrep"
CRITERION_8 = "tests/test_acceptance.py::test_criterion_8_synthetic_end_to_end_benchmark"


def executable_lines(path: Path) -> set[int]:
    """The lines to which the compiled module at ``path`` maps bytecode."""
    lines: set[int] = set()
    codes = [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit status and the lines reached per file of the package."""
    reached: dict[str, set[int]] = {}
    inside: dict[str, set[int] | None] = {}  # per code filename: its line set, or None

    def lines_of(filename: str) -> set[int] | None:
        if filename not in inside:
            path = Path(os.path.realpath(filename))
            ours = path.parent == PACKAGE
            inside[filename] = reached.setdefault(str(path), set()) if ours else None
        return inside[filename]

    def trace_calls(frame, event, arg):
        found = lines_of(frame.f_code.co_filename)
        if found is None:
            return None
        found.add(frame.f_lineno)  # a function's first line has no line event

        def trace_lines(frame, event, arg):
            if event == "line":
                found.add(frame.f_lineno)
            return trace_lines

        return trace_lines

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--deselect", CRITERION_8, *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), reached


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    if any(name == "dynlocrep" or name.startswith("dynlocrep.") for name in sys.modules):
        raise SystemExit("dynlocrep is already imported: its module-level lines would be missed")
    status, reached = run_traced(argv)
    unreached = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - reached.get(str(path), set())):
            unreached.append(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print("\n".join(unreached) or "every executable line of src/dynlocrep/ was reached")
    if status != 0:
        return status
    return 1 if unreached else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
