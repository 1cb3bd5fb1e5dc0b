"""List the lines of prymcert that no test runs.

Usage: python tools/line_coverage.py SRC [pytest args]

SRC is the `src/` directory of the checkout under test, and the tool runs
from that checkout's root, where pytest finds its tests.  It puts SRC first
on sys.path, runs pytest in this process with `-p no:cacheprovider`
(and `tests` when no pytest argument is given) under `sys.settrace`, and
records the lines executed in frames whose code lies under SRC/prymcert.
It then prints, per module, the executable lines that never ran, with the
function that holds each; the executable lines are those of every code
object's `co_lines()`.  Tests that run prymcert in a child process are not
traced, so the lines only they reach are listed too.  Nothing is written
into the tree.  The pytest exit code is the tool's exit code.
"""

from __future__ import annotations

import os
import sys
import threading
from collections import defaultdict


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from _code_objects(const)


def executable_lines(path: str) -> dict[int, str]:
    """Line -> qualified name of the innermost function holding it."""
    with open(path, encoding="utf-8") as f:
        module = compile(f.read(), path, "exec", dont_inherit=True)
    lines: dict[int, str] = {}
    for code in _code_objects(module):
        name = "<module>" if code is module else getattr(code, "co_qualname", code.co_name)
        for _, _, line in code.co_lines():
            if line:  # None: no source line; 0: the module's prologue
                lines[line] = name
    return lines


def main(argv: list[str]) -> int:
    if not argv or not os.path.isdir(os.path.join(argv[0], "prymcert")):
        print("usage: python tools/line_coverage.py SRC [pytest args]", file=sys.stderr)
        return 2
    package = os.path.join(os.path.abspath(argv[0]), "prymcert")
    sys.path.insert(0, os.path.dirname(package))
    sys.dont_write_bytecode = True
    ran: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(package + os.sep):
            return None
        ran[filename].add(frame.f_lineno)  # the def line, which fires no line event
        return local

    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-p", "no:cacheprovider", *(argv[1:] or ["tests"])])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    loaded = getattr(sys.modules.get("prymcert"), "__file__", None) or ""
    if not loaded.startswith(package + os.sep):
        print(f"the tests imported prymcert from {loaded or 'nowhere'}, not {package}; "
              "run the tool from the root of the checkout that SRC belongs to", file=sys.stderr)
        return 2

    total = 0
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(package, name)
        lines = executable_lines(path)
        missed = sorted(set(lines) - ran[path])
        total += len(missed)
        print(f"{name}: {len(missed)} of {len(lines)} lines not run")
        by_function: dict[str, list[int]] = defaultdict(list)
        for line in missed:
            by_function[lines[line]].append(line)
        for function, numbers in by_function.items():
            print(f"  {function}: {', '.join(map(str, numbers))}")
    print(f"total: {total} lines not run")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
