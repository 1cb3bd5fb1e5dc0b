"""List the lines of prymcert that no test runs, or the functions no command enters.

Usage: python tools/line_coverage.py SRC [pytest args]
       python tools/line_coverage.py --corpus SRC

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

With --corpus, the tool instead runs `certcli.main` in this process on every
command of `tools/cli_corpus.CORPUS`, under `sys.setprofile`, and prints,
per pipeline module (every module of SRC/prymcert but `reference`, which no
command imports), the module-level functions and the methods that no
command entered.  Nothing is written into the tree here either.  The exit
code is 2 if a command imported `reference`, else 0.
"""

from __future__ import annotations

import ast
import contextlib
import io
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


def _definitions(path: str):
    """(qualified name, first line) of each module-level function and method.

    The first line is that of the code object: the first decorator's, if any.
    """
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), path)
    for node in tree.body:
        is_class = isinstance(node, ast.ClassDef)
        for fn in node.body if is_class else [node]:
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{node.name}.{fn.name}" if is_class else fn.name
                yield name, min([fn.lineno] + [d.lineno for d in fn.decorator_list])


def corpus(package: str) -> int:
    """Print the functions and methods of the pipeline modules that no corpus command enters."""
    from cli_corpus import CORPUS

    from prymcert import certcli

    entered: set[tuple[str, int]] = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for argv in CORPUS:
                certcli.main(argv)
    finally:
        sys.setprofile(None)
    if "prymcert.reference" in sys.modules:
        print("a corpus command imported prymcert.reference", file=sys.stderr)
        return 2

    total = 0
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py") or name == "reference.py":
            continue
        path = os.path.join(package, name)
        missed = [qualname for qualname, line in _definitions(path) if (path, line) not in entered]
        total += len(missed)
        print(f"{name}: {len(missed)} functions not entered")
        for qualname in missed:
            print(f"  {qualname}")
    print(f"total: {total} functions not entered")
    return 0


def main(argv: list[str]) -> int:
    mode_corpus = bool(argv) and argv[0] == "--corpus"
    if mode_corpus:
        argv = argv[1:]
    if not argv or not os.path.isdir(os.path.join(argv[0], "prymcert")) or (mode_corpus and len(argv) != 1):
        print("usage: python tools/line_coverage.py SRC [pytest args]\n"
              "       python tools/line_coverage.py --corpus SRC", file=sys.stderr)
        return 2
    package = os.path.join(os.path.abspath(argv[0]), "prymcert")
    sys.path.insert(0, os.path.dirname(package))
    sys.dont_write_bytecode = True
    if mode_corpus:
        return corpus(package)
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
