"""Certify the 40-point (p, r) grid in process and print one line per point.

Usage: python tools/grid_corpus.py SRC

SRC is the `src/` directory of the checkout under test.  The tool puts SRC
first on sys.path and exits 2 if `prymcert` then resolves anywhere else, or
nowhere.  It runs `certify_prym(p, r)` for the odd primes p <= 13 (outer
loop) and the even r <= 16 (inner loop), and prints `p r verdict sha256`
per point, the sha256 being that of the canonical certificate document.
The last line gives the count of each verdict and the sha256 of the 40
canonical documents joined by newlines.  Run it on two checkouts and diff
the outputs: a moved point is named by its line.  Nothing is written into
the tree.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import sys
from collections import Counter

P_VALUES = (3, 5, 7, 11, 13)
R_VALUES = tuple(range(2, 17, 2))


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not os.path.isdir(argv[0]):
        print("usage: python tools/grid_corpus.py SRC", file=sys.stderr)
        return 2
    src = os.path.realpath(argv[0])
    sys.dont_write_bytecode = True  # leave the tree under test as it is
    sys.path.insert(0, src)
    spec = importlib.util.find_spec("prymcert")
    home = spec and os.path.dirname(os.path.dirname(os.path.realpath(spec.origin)))
    if home != src:
        print(f"prymcert resolves to {home}, not to {src}", file=sys.stderr)
        return 2
    from prymcert.galoiscert import certify_prym

    documents, verdicts = [], Counter()
    for p in P_VALUES:
        for r in R_VALUES:
            cert = certify_prym(p, r)
            documents.append(cert.canonical())
            verdicts[cert.verdict] += 1
            digest = hashlib.sha256(documents[-1].encode()).hexdigest()
            print(f"{p} {r} {cert.verdict} {digest}", flush=True)
    counts = " ".join(f"{kind}={n}" for kind, n in sorted(verdicts.items()))
    grid = hashlib.sha256("\n".join(documents).encode()).hexdigest()
    print(f"{counts} grid={grid}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
