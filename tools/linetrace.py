"""List the statements of ``src/robust_scatter/`` that a test run never executes.

    python tools/linetrace.py [pytest arguments ...]

Runs ``pytest.main`` in this process under a ``sys.settrace`` line tracer
that follows only frames whose code lives in the package's source files,
then prints every statement (found with ``ast``) on none of whose lines a
line event fired, as ``path:line: source``, grouped by file in line order.
A compound statement (``if``, ``for``, ``try``, ``def`` ...) counts as run
when any line of it ran; docstrings are not statements here.  It needs
only the standard library and pytest: a stand-in for ``coverage`` where
that is not installed.  The package must
not be imported before the tracer starts, so run this as a script.  pytest
runs in the repository root, so paths among its arguments are relative to
that; the suite runs about 1.3 times slower under the tracer.  The exit
code is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "robust_scatter"


def statement_spans(source: str):
    """(first line, last line) of every statement of ``source`` except
    docstrings, the first line counting decorators."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        yield first, node.end_lineno


class LineRecorder:
    """Local trace function of one source file: records its line events.

    One instance per file serves every frame of that file.  It is an
    object, not a closure that returns itself, so tracing creates no
    reference cycle for the suite's garbage-collection checks to find.
    """

    def __init__(self):
        self.lines: set[int] = set()

    def __call__(self, frame, event, arg):
        if event == "line":
            self.lines.add(frame.f_lineno)
        return self


def main(argv: list[str]) -> int:
    import pytest

    prefix = str(PACKAGE) + os.sep
    hits: dict[str, LineRecorder] = {}  # source file -> its recorder
    seen: dict[str, LineRecorder | None] = {}  # co_filename -> recorder, None outside

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in seen:
            path = os.path.abspath(name)
            seen[name] = hits.setdefault(path, LineRecorder()) if path.startswith(prefix) else None
        return seen[name]

    os.chdir(ROOT)
    sys.settrace(tracer)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)

    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        ran = hits.get(str(path), LineRecorder()).lines
        source = path.read_text()
        text = source.splitlines()
        missed = sorted(first for first, last in statement_spans(source)
                        if ran.isdisjoint(range(first, last + 1)))
        for line in missed:
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
        total += len(missed)
    print(f"{total} statement(s) never ran; pytest exit code {int(code)}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
