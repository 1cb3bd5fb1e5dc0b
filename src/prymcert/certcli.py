"""Command-line front end: verify, scan, galois, invariants.

Each command returns its JSON document, exit code and renderer; `main`
writes the document through one output path, as canonical JSON or as
render(document, format), which reads the document alone (text, or csv for
`scan`).  Exit codes: 0 = deterministic verdict, 1 = refuted, 2 =
probabilistic or inconclusive, 3 = usage error, including an input too
large to hold in memory or to index a list.  Every command is deterministic
given its flags, and repeated runs emit byte-identical JSON.

Each command imports the modules it runs, after its arguments are parsed
and checked: `verify` and `galois` load the certificate engine (galoiscert,
and through it intpoly, signedperm and fpmodule); `scan` and `invariants`
load only prymcalc; `--version`, `--help` and argument errors load none of
them, except that `galois --poly` reads its polynomial with intpoly.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import (
    DET_MIN_M,
    DETERMINISTIC,
    INCONCLUSIVE,
    PRIME_BUDGET,
    PROBABILISTIC,
    REFUTED,
    SAMPLES,
    SCHEMA_VERSION,
    TOOL_NAME,
    TOOL_VERSION,
    canonical_json as _canonical,
)

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

    def common(sp):
        sp.add_argument("--samples", type=_positive_int, default=SAMPLES)
        sp.add_argument("--prime-budget", type=_positive_int, default=None)

    def output(sp, run, formats=("json", "text")):
        """Declare --output and --format, last, and the command's function."""
        sp.add_argument("--output", type=str, default=None)
        sp.add_argument("--format", choices=formats, default="json")
        sp.set_defaults(run=run)

    v = sub.add_parser("verify", help="run the full certificate pipeline for (p, r)")
    v.add_argument("--p", type=int, required=True)
    v.add_argument("--r", type=int, required=True)
    common(v)
    output(v, cmd_verify)

    s = sub.add_parser("scan", help="tabulate the descent conditions over a (p, r) grid")
    s.add_argument("--p-max", type=int, required=True)
    s.add_argument("--r-max", type=int, required=True)
    output(s, cmd_scan, ("json", "csv", "text"))

    g = sub.add_parser("galois", help="certify or sample the Galois group of an even trinomial")
    g.add_argument("--poly", type=str, default=None, help='e.g. "x^10 - x^2 - 1"')
    g.add_argument("--m", type=int, default=None)
    g.add_argument("--c", type=int, default=None, help="default 1, with --m")
    g.add_argument("--mode", choices=("certify", "sample"), default="certify")
    common(g)
    output(g, cmd_galois)

    i = sub.add_parser("invariants", help="genus, Prym dimension and multiplicity table for (p, r)")
    i.add_argument("--p", type=int, required=True)
    i.add_argument("--r", type=int, required=True)
    output(i, cmd_invariants)

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


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args):
    from .prymcalc import FamilyParams

    FamilyParams(args.p, args.r)  # validates before the engine loads; ValueError -> exit 3
    from .galoiscert import certify_prym

    cert = certify_prym(
        args.p, args.r, args.samples, prime_budget=args.prime_budget or PRIME_BUDGET
    )
    return cert.to_json(), _VERDICT_EXIT[cert.verdict], _render_certificate


def _render_certificate(doc: dict, fmt: str) -> str:
    lines = [
        f"{doc['tool']['name']} {doc['tool']['version']}  schema {doc['version']}",
        f"params: {json.dumps(doc['params'], sort_keys=True)}",
        f"claim:  {doc['claim']}",
        f"verdict: {doc['verdict']['kind']}",
    ]
    detail = doc["verdict"]["detail"]
    if "failed_premise" in detail:
        lines.append(f"failed premise: {detail['failed_premise']}")
    if "prime_budget" in detail:
        lines.append(f"prime budget exhausted: {detail['prime_budget']}")
    for key in sorted(detail.keys() - {"failed_premise", "prime_budget", "sampling"}):
        lines.append(f"{key.replace('_', ' ')}: {detail[key]}")
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


def cmd_scan(args):
    if args.p_max < 3 or args.r_max < 2:
        raise UsageError("scan needs --p-max >= 3 (the smallest odd prime) and --r-max >= 2")
    from ._primes import primes
    from .prymcalc import condition_p_r, dim_prym

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
                    "det_eligible": m >= DET_MIN_M,
                    "dim_prym": dim_prym(p, m),
                }
            )
    doc = {"version": SCHEMA_VERSION, "command": "scan", "rows": rows}
    return doc, EXIT_DETERMINISTIC, _render_scan


def _render_scan(doc: dict, fmt: str) -> str:
    rows = doc["rows"]
    if fmt == "csv":
        import csv
        import io

        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        return buf.getvalue()
    header = f"{'p':>3} {'r':>3} {'m':>4} {'cond1':>6} {'cond2':>6} {'cond3':>6} {'det':>4} {'dim':>5}"
    body = [header, "-" * len(header)]
    for row in rows:
        body.append(
            f"{row['p']:>3} {row['r']:>3} {row['m']:>4} "
            f"{str(row['cond1_r_mod']):>6} {str(row['cond2_small']):>6} "
            f"{str(row['cond3_pass']):>6} {str(row['det_eligible']):>4} "
            f"{row['dim_prym']:>5}"
        )
    return "\n".join(body) + "\n"


# ---------------------------------------------------------------------------
# galois
# ---------------------------------------------------------------------------


def _family_shape(h) -> tuple[int, int] | None:
    """Recover (m, c) when h = x^(2m) - x^2 - c with m >= 3, else None."""
    from .intpoly import compose_x2, trinomial

    m, c = h.degree // 2, -h.coeff(0)
    return (m, c) if m >= 3 and h == compose_x2(trinomial(m, c)) else None


def cmd_galois(args):
    if args.poly is None and args.m is None:
        raise UsageError("galois needs either --poly or --m")
    if args.mode == "sample" and args.prime_budget is not None:
        raise UsageError("--mode sample takes no --prime-budget (it samples --samples primes)")
    if args.poly is not None:
        if args.m is not None or args.c is not None:
            raise UsageError("--poly takes no --m or --c (the polynomial fixes both)")
        from .intpoly import parse_poly

        try:
            h = parse_poly(args.poly)
        except ValueError as exc:
            raise UsageError(f"cannot parse polynomial: {exc}") from exc
        if h.degree < 2 or h.degree % 2:
            raise UsageError("polynomial must have even degree >= 2")
    else:
        if args.m < 3 or args.m % 2 == 0:
            raise UsageError("--m must be odd and >= 3")
        from .intpoly import compose_x2, trinomial

        h = compose_x2(trinomial(args.m, 1 if args.c is None else args.c))

    if args.mode == "certify":
        shape = _family_shape(h)
        if shape is None:
            raise UsageError(
                "certify mode needs the family shape x^(2m) - x^2 - c "
                "(pass --m/--c or a matching --poly)"
            )
        from .galoiscert import certify_wdm_over_Q

        cert = certify_wdm_over_Q(
            *shape, args.samples, prime_budget=args.prime_budget or PRIME_BUDGET
        )
        return cert.to_json(), _VERDICT_EXIT[cert.verdict], _render_certificate

    from .galoiscert import chebotarev_verdict
    from .signedperm import GroupDescriptor

    report = chebotarev_verdict(h, GroupDescriptor.wdm(h.degree // 2), args.samples)
    doc = {
        "version": SCHEMA_VERSION,
        "command": "galois-sample",
        "polynomial": str(h),
        "report": report.to_json(),
    }
    return doc, EXIT_REFUTED if not report.consistent else EXIT_PROBABILISTIC, _render_sample


def _render_sample(doc: dict, fmt: str) -> str:
    rep = doc["report"]
    lines = [
        f"polynomial: {doc['polynomial']}",
        f"target: W(D_{rep['target']['m']}) of order {rep['group_order']}",
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
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def cmd_invariants(args):
    from .prymcalc import (
        FamilyParams,
        dim_prym,
        genus_curve,
        multiplicities_coprime,
        multiplicities_distinct,
        multiplicity_table,
        non_jacobian_inequality,
    )

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
    return doc, EXIT_DETERMINISTIC, _render_invariants


def _render_invariants(doc: dict, fmt: str) -> str:
    params = doc["params"]
    lines = [
        f"(p, r) = ({params['p']}, {params['r']}):  m = {params['m']}, n = {params['n']}",
        f"genus of the covering curve: {doc['genus']}",
        f"dim Prym: {doc['dim_prym']}",
        "eigenvalue multiplicities (j: mult):",
    ]
    for j, mult in doc["multiplicities"].items():  # in increasing j
        lines.append(f"  {j}: {mult}")
    lines.append(f"gcd: {doc['gcd']}  distinct: {doc['distinct']}")
    lines.append(f"non-jacobian inequality: {doc['non_jacobian_inequality']}")
    if "note" in doc:
        lines.append(doc["note"])
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        doc, code, render = args.run(args)
        _emit(_canonical(doc) if args.format == "json" else render(doc, args.format), args.output)
        return code
    except (UsageError, ValueError) as exc:
        print(f"{TOOL_NAME}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MemoryError, OverflowError) as exc:  # not Refuted (exit 1): too large an input
        what = "out of memory" if isinstance(exc, MemoryError) else "overflow"
        print(f"{TOOL_NAME}: error: {what}: the input is too large", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
