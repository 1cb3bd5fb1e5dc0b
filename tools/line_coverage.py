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

Each module's executable lines (or, with --corpus, its functions) and its
sha256 are read before the run.  If a module of SRC/prymcert changed, was
added or was removed while the run went on, the recorded lines no longer
match its text: the tool names each such file and exits 2 without a list.

With --corpus, the tool instead runs `certcli.main` in this process on every
command of `tools/cli_corpus.CORPUS`, under `sys.setprofile`, and prints,
per pipeline module (every module of SRC/prymcert but `reference`, which no
command imports), the module-level functions and the methods that no
command entered.  Its last line is the total line count of the pipeline
modules the commands imported: the lines a `verify` or `galois` child
compiles.  Nothing is written into the tree here either.  The exit code is
2 if a command imported `reference` or a module was edited mid-run, else 0.
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
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


def executable_lines(source: str, path: str) -> dict[int, str]:
    """Line -> qualified name of the innermost function holding it."""
    module = compile(source, path, "exec", dont_inherit=True)
    lines: dict[int, str] = {}
    for code in _code_objects(module):
        name = "<module>" if code is module else getattr(code, "co_qualname", code.co_name)
        for _, _, line in code.co_lines():
            if line:  # None: no source line; 0: the module's prologue
                lines[line] = name
    return lines


def _definitions(source: str, path: str):
    """(qualified name, first line) of each module-level function and method.

    The first line is that of the code object: the first decorator's, if any.
    """
    for node in ast.parse(source, path).body:
        is_class = isinstance(node, ast.ClassDef)
        for fn in node.body if is_class else [node]:
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{node.name}.{fn.name}" if is_class else fn.name
                yield name, min([fn.lineno] + [d.lineno for d in fn.decorator_list])


def _snapshot(package: str, read) -> dict[str, tuple[str, object]]:
    """Path -> (sha256, read(source, path)) of each module of the package."""
    snapshot = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            path = os.path.join(package, name)
            with open(path, "rb") as f:
                data = f.read()
            snapshot[path] = hashlib.sha256(data).hexdigest(), read(data.decode("utf-8"), path)
    return snapshot


def _edited(package: str, before: dict) -> bool:
    """Whether a module changed, came or went since `before`; names each on stderr."""
    after = _snapshot(package, lambda source, path: None)
    edited = sorted(path for path in before.keys() | after.keys()
                    if before.get(path, ("",))[0] != after.get(path, ("",))[0])
    for path in edited:
        print(f"{path} changed during the run, so the lines recorded no longer match it; "
              "rerun on a tree that stays unedited", file=sys.stderr)
    return bool(edited)


def corpus(package: str) -> int:
    """Print the functions and methods of the pipeline modules that no corpus command enters."""
    # read before the import below loads the modules
    modules = _snapshot(package, lambda source, path: (list(_definitions(source, path)),
                                                        len(source.splitlines())))
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
    if _edited(package, modules):
        return 2
    if "prymcert.reference" in sys.modules:
        print("a corpus command imported prymcert.reference", file=sys.stderr)
        return 2

    total = compiled = 0
    for path, (_, (definitions, lines)) in modules.items():
        name = os.path.basename(path)
        if name == "reference.py":
            continue
        missed = [qualname for qualname, line in definitions if (path, line) not in entered]
        total += len(missed)
        print(f"{name}: {len(missed)} functions not entered")
        for qualname in missed:
            print(f"  {qualname}")
        module = "prymcert" if name == "__init__.py" else f"prymcert.{name[:-3]}"
        compiled += lines if module in sys.modules else 0
    print(f"total: {total} functions not entered")
    print(f"compiled: {compiled} lines of pipeline modules")
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
    modules = _snapshot(package, executable_lines)
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
    if _edited(package, modules):
        return 2

    total = 0
    for path, (_, lines) in modules.items():
        name = os.path.basename(path)
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
