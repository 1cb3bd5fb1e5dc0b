"""Run a fixed corpus of prymcert CLI commands and print one line per run.

Usage: python tools/cli_corpus.py SRC

SRC is the `src/` directory of the checkout under test.  Each command runs
as `python -m prymcert.certcli` in a child process with SRC first on
PYTHONPATH.  Each line holds the sha256 of stdout, the sha256 of stderr, the
exit code and the argv.  Run it on two checkouts and diff the outputs: equal
lines mean byte-identical output and exit codes for every command.
`tests/cli_corpus.expected` holds these lines, and a test compares the
corpus run in process with it, so a deliberate byte change edits that file.
"""

from __future__ import annotations

import hashlib
import os
import shlex
import subprocess
import sys

VERIFY = [
    *[["verify", "--p", p, "--r", r] for p, r in [
        ("3", "2"), ("5", "2"), ("3", "4"), ("7", "2"), ("11", "2"),
        ("3", "8"), ("5", "4"), ("3", "3"), ("7", "8"), ("3", "10"),
        ("13", "8"), ("17", "6"),  # condition (3) fails, as at (5, 4)
    ]],
    ["verify", "--p", "3", "--r", "2", "--prime-budget", "1"],
]
GALOIS_CERTIFY = [
    *[["galois", "--m", m] for m in ("3", "5", "7", "9", "11", "13", "29", "45", "55", "61")],
    *[["galois", "--m", "9", "--c", c] for c in ("9", "3", "-1")],
    ["galois", "--m", "5", "--c", "3", "--samples", "50"],
    *[["galois", "--m", m, "--prime-budget", b]
      for m, b in (("11", "5"), ("9", "3"), ("13", "17"), ("27", "200"))],
    ["galois", "--m", "11", "--c", "25", "--prime-budget", "7"],
]
SAMPLING = [
    ["galois", "--m", "7", "--mode", "sample", "--samples", "2000"],
    ["galois", "--poly", "x^6 - x^2 - 1", "--mode", "sample", "--samples", "100"],
    ["galois", "--poly", "x^14 - x - 1", "--mode", "sample"],
]
FORMATTED = VERIFY + GALOIS_CERTIFY + SAMPLING  # each runs in JSON and in text

CORPUS = [
    *FORMATTED,
    *[[*argv, "--format", "text"] for argv in FORMATTED],
    ["galois", "--poly", "x^22 - x^2 - 1"],
    # census budget errors, the last two with orders of 708 and 6341 digits
    ["galois", "--m", "9", "--mode", "sample", "--samples", "20"],
    ["galois", "--poly", "x^602 - x^2 - 1", "--mode", "sample", "--samples", "20"],
    ["galois", "--poly", "x^4002 - x^2 - 1", "--mode", "sample", "--samples", "20"],
    # refused by the census budget before disc(h), repeated factor or not
    ["galois", "--poly", "x^18", "--mode", "sample", "--samples", "20"],
    ["galois", "--poly", "x^20002 - x^2 - 1", "--mode", "sample", "--samples", "20"],
    ["galois", "--m", "4"],
    ["galois", "--poly", "bad(", "--mode", "sample"],
    ["verify", "--p", "4", "--r", "2"],
    *[["scan", "--p-max", "13", "--r-max", "8", "--format", f] for f in ("json", "csv", "text")],
    ["scan", "--p-max", "1", "--r-max", "4"],
    *[["invariants", "--p", "5", "--r", "4", "--format", f] for f in ("json", "text")],
    ["invariants", "--p", "2", "--r", "2"],
    # the trace route for an odd polynomial (u itself, n = 11), and the
    # repeated-factor refusal of the prime walk
    ["galois", "--m", "11", "--c", "25"],
    ["galois", "--poly", "x^6 - 2x^4 + x^2", "--mode", "sample", "--samples", "10"],
    # p is a strong pseudoprime to the bases <= 37; integers past an index
    ["verify", "--p", "318665857834031151167461", "--r", "2"],
    *[["galois", "--m", "100000000000000000000001", "--mode", mode]
      for mode in ("certify", "sample")],
    ["galois", "--poly", "x^100000000000000000000000 - x^2 - 1",
     "--mode", "sample", "--samples", "10"],
    # the commutant at m = 119; W(D_8) at the edge of the census budget, with
    # lone factors in the s = 2 DDF at n = 8; an order of 5866745 digits
    ["verify", "--p", "3", "--r", "40"],
    ["galois", "--poly", "x^16 - x^2 + 1", "--mode", "sample", "--samples", "200"],
    ["galois", "--poly", "x^2000002 - x^2 - 1", "--mode", "sample", "--samples", "20"],
]


def corpus_line(args: list[str], stdout: bytes, stderr: bytes, code: int) -> str:
    """One output line: the sha256 of stdout and of stderr, the exit code, the argv."""
    out, err = (hashlib.sha256(b).hexdigest() for b in (stdout, stderr))
    return f"{out} {err} {code} {shlex.join(args)}"


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not os.path.isdir(argv[0]):
        print("usage: python tools/cli_corpus.py SRC", file=sys.stderr)
        return 2
    src = os.path.abspath(argv[0])
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        "PYTHONDONTWRITEBYTECODE": "1",  # leave the tree under test as it is
    }
    for args in CORPUS:
        res = subprocess.run(
            [sys.executable, "-m", "prymcert.certcli", *args], env=env, capture_output=True
        )
        print(corpus_line(args, res.stdout, res.stderr, res.returncode), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
