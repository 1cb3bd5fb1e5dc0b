"""Command-line front end: verify, scan, galois, invariants.

JSON is the machine interface; the text format is rendered from the JSON
document, never computed separately.  Exit codes: 0 = deterministic verdict,
1 = refuted, 2 = probabilistic or inconclusive, 3 = usage error.  Every
command is deterministic given its flags and seed, and repeated runs emit
byte-identical JSON.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from ._primes import primes
from .galoiscert import (
    DETERMINISTIC,
    INCONCLUSIVE,
    PROBABILISTIC,
    REFUTED,
    SCHEMA_VERSION,
    TOOL_NAME,
    TOOL_VERSION,
    certify_prym,
    certify_wdm_over_Q,
    chebotarev_verdict,
)
from .intpoly import compose_x2, condition_p_r, parse_poly, trinomial
from .prymcalc import (
    FamilyParams,
    dim_prym,
    genus_curve,
    multiplicities_coprime,
    multiplicities_distinct,
    multiplicity_table,
    non_jacobian_inequality,
)
from .signedperm import GroupDescriptor

EXIT_DETERMINISTIC = 0
EXIT_REFUTED = 1
EXIT_PROBABILISTIC = 2
EXIT_USAGE = 3

_VERDICT_EXIT = {
    DETERMINISTIC: EXIT_DETERMINISTIC,
    REFUTED: EXIT_REFUTED,
    PROBABILISTIC: EXIT_PROBABILISTIC,
    INCONCLUSIVE: EXIT_PROBABILISTIC,
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog=TOOL_NAME,
        description="Exact-arithmetic certification of signed-permutation "
        "Galois groups and Prym-variety invariants for the trinomial family "
        "u = x^m - x - c, h = u(x^2), f = x h with m = pr - 1.",
    )
    parser.add_argument("--version", action="version", version=f"{TOOL_NAME} {TOOL_VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, samples=True):
        sp.add_argument("--samples", type=int, default=2000)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--prime-budget", type=_positive_int, default=500)

    v = sub.add_parser("verify", help="run the full certificate pipeline for (p, r)")
    v.add_argument("--p", type=int, required=True)
    v.add_argument("--r", type=int, required=True)
    common(v)
    v.add_argument("--output", type=str, default=None)
    v.add_argument("--format", choices=("json", "text"), default="json")

    s = sub.add_parser("scan", help="tabulate the descent conditions over a (p, r) grid")
    s.add_argument("--p-max", type=int, required=True)
    s.add_argument("--r-max", type=int, required=True)
    s.add_argument("--output", type=str, default=None)
    s.add_argument("--format", choices=("json", "csv", "text"), default="json")

    g = sub.add_parser("galois", help="certify or sample the Galois group of an even trinomial")
    g.add_argument("--poly", type=str, default=None, help='e.g. "x^10 - x^2 - 1"')
    g.add_argument("--m", type=int, default=None)
    g.add_argument("--c", type=int, default=1)
    g.add_argument("--mode", choices=("certify", "sample"), default="certify")
    common(g)
    g.add_argument("--output", type=str, default=None)
    g.add_argument("--format", choices=("json", "text"), default="json")

    i = sub.add_parser("invariants", help="genus, Prym dimension and multiplicity table for (p, r)")
    i.add_argument("--p", type=int, required=True)
    i.add_argument("--r", type=int, required=True)
    i.add_argument("--output", type=str, default=None)
    i.add_argument("--format", choices=("json", "text"), default="json")

    return parser


def _emit(doc_text: str, output: str | None) -> None:
    if output:
        try:
            with open(output, "w") as fh:
                fh.write(doc_text)
        except OSError as exc:
            raise UsageError(f"cannot write {output}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(doc_text)


def _canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    cert = certify_prym(args.p, args.r, args.samples, args.seed, args.prime_budget)
    doc = cert.to_json()
    text = _canonical(doc) if args.format == "json" else _render_certificate(doc)
    _emit(text, args.output)
    return _VERDICT_EXIT[cert.verdict]


def _render_certificate(doc: dict) -> str:
    lines = [
        f"{doc['tool']['name']} {doc['tool']['version']}  schema {doc['version']}",
        f"params: {json.dumps(doc['params'], sort_keys=True)}",
        f"claim:  {doc['claim']}",
        f"verdict: {doc['verdict']['kind']}",
    ]
    detail = doc["verdict"]["detail"]
    if "failed_premise" in detail:
        lines.append(f"failed premise: {detail['failed_premise']}")
    if "sampling" in detail:
        samp = detail["sampling"]
        lines.append(
            f"sampling: {samp['samples']} primes, chi_square = {samp['chi_square']}"
            f" on {samp['dof']} dof ({samp['note']})"
        )
    lines.append("steps:")
    for step in doc["steps"]:
        lines.append(f"  [{step['rule']}] {step['conclusion']}")
        for prem in step["premises"]:
            lines.append(f"      - {prem['fact']}: {prem['value']}")
    if doc["claims"]:
        lines.append("claims:")
        for cl in doc["claims"]:
            tag = "checked" if cl["checked"] else f"attributed via {cl['via']}"
            lines.append(f"  * {cl['statement']}  [{tag}]")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def cmd_scan(args) -> int:
    if args.p_max < 3 or args.r_max < 2:
        raise UsageError("scan needs --p-max >= 3 (the smallest odd prime) and --r-max >= 2")
    rows = []
    for p in primes(3):
        if p > args.p_max:
            break
        for r in range(2, args.r_max + 1, 2):
            cond = condition_p_r(p, r)
            m = p * r - 1
            rows.append(
                {
                    "p": p,
                    "r": r,
                    "m": m,
                    "cond1_r_mod": cond.shortcut_r_mod,
                    "cond2_small": cond.shortcut_small,
                    "cond3_pass": cond.passed,
                    "det_eligible": m >= 9,
                    "dim_prym": dim_prym(p, m),
                }
            )
    doc = {"version": SCHEMA_VERSION, "command": "scan", "rows": rows}
    if args.format == "json":
        text = _canonical(doc)
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        header = f"{'p':>3} {'r':>3} {'m':>4} {'cond1':>6} {'cond2':>6} {'cond3':>6} {'det':>4} {'dim':>5}"
        body = [header, "-" * len(header)]
        for row in rows:
            body.append(
                f"{row['p']:>3} {row['r']:>3} {row['m']:>4} "
                f"{str(row['cond1_r_mod']):>6} {str(row['cond2_small']):>6} "
                f"{str(row['cond3_pass']):>6} {str(row['det_eligible']):>4} "
                f"{row['dim_prym']:>5}"
            )
        text = "\n".join(body) + "\n"
    _emit(text, args.output)
    return EXIT_DETERMINISTIC


# ---------------------------------------------------------------------------
# galois
# ---------------------------------------------------------------------------


def _family_shape(h) -> tuple[int, int] | None:
    """Recover (m, c) when h = x^(2m) - x^2 - c, else None."""
    d = h.degree
    if d < 6 or d % 2:
        return None
    m = d // 2
    c = -h.coeff(0)
    expect = {0: -c, 2: -1, d: 1}
    for k in range(d + 1):
        if h.coeff(k) != expect.get(k, 0):
            return None
    return m, c


def cmd_galois(args) -> int:
    if args.poly is None and args.m is None:
        raise UsageError("galois needs either --poly or --m")
    if args.poly is not None:
        try:
            h = parse_poly(args.poly)
        except ValueError as exc:
            raise UsageError(f"cannot parse polynomial: {exc}") from exc
        if h.degree < 2 or h.degree % 2:
            raise UsageError("polynomial must have even degree >= 2")
        m = h.degree // 2
    else:
        if args.m < 3 or args.m % 2 == 0:
            raise UsageError("--m must be odd and >= 3")
        h = compose_x2(trinomial(args.m, args.c))
        m = args.m

    if args.mode == "certify":
        shape = _family_shape(h)
        if shape is None:
            raise UsageError(
                "certify mode needs the family shape x^(2m) - x^2 - c "
                "(pass --m/--c or a matching --poly)"
            )
        cert = certify_wdm_over_Q(
            shape[0], shape[1], args.samples, args.seed, args.prime_budget
        )
        doc = cert.to_json()
        text = _canonical(doc) if args.format == "json" else _render_certificate(doc)
        _emit(text, args.output)
        return _VERDICT_EXIT[cert.verdict]

    report = chebotarev_verdict(h, GroupDescriptor.wdm(m), args.samples, args.seed)
    doc = {
        "version": SCHEMA_VERSION,
        "command": "galois-sample",
        "polynomial": str(h),
        "report": report.to_json(),
    }
    if args.format == "json":
        text = _canonical(doc)
    else:
        rep = doc["report"]
        lines = [
            f"polynomial: {doc['polynomial']}",
            f"target: W(D_{m}) of order {rep['group_order']}",
            f"consistent: {rep['consistent']}",
        ]
        if rep["consistent"]:
            lines.append(
                f"samples: {rep['samples']}, chi_square = {rep['chi_square']} "
                f"on {rep['dof']} dof"
            )
        else:
            lines.append(
                f"refuted at q = {rep['refuting_prime']} by cycle type "
                f"{rep['refuting_type']}"
            )
        lines.append(rep["note"])
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    return EXIT_REFUTED if not report.consistent else EXIT_PROBABILISTIC


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def cmd_invariants(args) -> int:
    family = FamilyParams(args.p, args.r)  # validates; ValueError -> exit 3
    p, r, m, n = family.p, family.r, family.m, family.n
    table = multiplicity_table(p, r)
    doc = {
        "version": SCHEMA_VERSION,
        "command": "invariants",
        "params": family.to_json(),
        "genus": genus_curve(n, p),
        "dim_prym": dim_prym(p, m),
        "multiplicities": table.to_json(),
        "gcd": table.gcd(),
        "coprime": multiplicities_coprime(p, r),
        "distinct": multiplicities_distinct(p, r),
        "non_jacobian_inequality": non_jacobian_inequality(p, r),
    }
    if r % 2:
        doc["note"] = "r odd: coprimality fails"
    if args.format == "json":
        text = _canonical(doc)
    else:
        lines = [
            f"(p, r) = ({p}, {r}):  m = {m}, n = {n}",
            f"genus of the covering curve: {doc['genus']}",
            f"dim Prym: {doc['dim_prym']}",
            "eigenvalue multiplicities (j: mult):",
        ]
        for j in sorted(table.mult):
            lines.append(f"  {j}: {table.mult[j]}")
        lines.append(f"gcd: {doc['gcd']}  distinct: {doc['distinct']}")
        lines.append(f"non-jacobian inequality: {doc['non_jacobian_inequality']}")
        if "note" in doc:
            lines.append(doc["note"])
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    return EXIT_DETERMINISTIC


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "scan":
            return cmd_scan(args)
        if args.command == "galois":
            return cmd_galois(args)
        return cmd_invariants(args)
    except UsageError as exc:
        print(f"{TOOL_NAME}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"{TOOL_NAME}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
