#!/usr/bin/env python3
"""Line coverage of the package under its test suite, with the standard
library only: run pytest under ``sys.settrace`` and list every executable
line of ``src/blowup_lab`` that never ran.

Executable lines are those the compiled modules map bytecode to
(``co_lines``), nested code objects included.  Extra arguments go to pytest;
without any it runs the whole suite, e.g.

    python scripts/line_coverage.py            # the whole suite
    python scripts/line_coverage.py tests/test_pde2d.py -k Escalation

Exits with pytest's exit code.  Tracing about doubles the suite's run time.
"""
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "blowup_lab"


def executable_lines(path: Path) -> set[int]:
    """The line numbers that some code object compiled from ``path`` maps to."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    prefix = str(PACKAGE)
    hit: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            hit.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def global_(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            hit.add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    sys.settrace(global_)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[1:]])
    finally:
        sys.settrace(None)

    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        misses = sorted(n for n in lines if (str(path), n) not in hit)
        total += len(lines)
        missed += len(misses)
        source = path.read_text().splitlines()
        for n in misses:
            print(f"{path.relative_to(ROOT)}:{n}: {source[n - 1].strip()}")
    print(f"{missed} of {total} executable lines never ran "
          f"({total - missed} ran)")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
