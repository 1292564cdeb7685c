"""List the library statements that Tier-1 never executes.

Runs the Tier-1 suite in this process under a ``sys.settrace`` line tracer
(standard library only), then prints ``path:line  source`` for each
statement of ``src/doublewell`` that no test reached, and their count.  A
statement is one ``ast`` statement or ``except`` clause; it counts as run
when any line of it that holds bytecode fires a line event.  Tests that
run the CLI in a subprocess are not traced, so the ``__main__`` lines show
up, as do the imports under ``if TYPE_CHECKING:``, which never run.

Not a test module, so pytest does not collect it.  Run it from the
repository root as::

    PYTHONPATH=src python tests/uncovered.py [extra pytest arguments]

The exit status is pytest's.  The tracer makes the suite about twice as
slow (47 s against 23 s on a 2-vCPU machine with Python 3.11).
"""

from __future__ import annotations

import ast
import importlib.util
import os
import sys
from collections import defaultdict
from pathlib import Path

import pytest


def package_dir() -> Path:
    """The doublewell package directory, found without importing it."""
    return Path(importlib.util.find_spec("doublewell").origin).resolve().parent


def code_lines(code) -> set[int]:
    """Every line that holds bytecode in ``code`` and its nested code objects."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def statements(path: Path) -> dict[int, int]:
    """Map each bytecode line of ``path`` to the first line of the innermost
    statement (or ``except`` clause) that holds it."""
    source = path.read_text(encoding="utf-8")
    owner = {}
    # ast.walk visits parents before children, so the innermost owner wins.
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.stmt, ast.ExceptHandler)):
            first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
            for line in range(first, node.end_lineno + 1):
                owner[line] = first
    return {line: owner[line] for line in code_lines(compile(source, str(path), "exec"))}


def trace_suite(root: Path, pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with ``pytest_args`` and record the lines run in ``root``."""
    hits: dict[str, set[int]] = defaultdict(set)
    inside: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = Path(os.path.realpath(name)).parent == root
        return local if inside[name] else None

    sys.settrace(calls)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", *pytest_args])
    finally:
        sys.settrace(None)
    lines: dict[str, set[int]] = defaultdict(set)
    for name, run in hits.items():
        lines[os.path.realpath(name)] |= run
    return int(status), lines


def main(argv: list[str]) -> int:
    root = package_dir()
    status, lines = trace_suite(root, argv)
    missed = []
    for path in sorted(root.glob("*.py")):
        owner = statements(path)
        run = {owner[line] for line in lines.get(str(path), ()) if line in owner}
        source = path.read_text(encoding="utf-8").splitlines()
        missed += [(path, s, source[s - 1].strip()) for s in sorted(set(owner.values()) - run)]
    print()
    for path, line, text in missed:
        print(f"{path.relative_to(root.parents[1])}:{line}  {text}")
    print(f"{len(missed)} statements in {root.name} not run by the suite")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
