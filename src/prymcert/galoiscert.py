"""The certificate engine: machine-checked premises, typed deduction steps.

A certificate is an ordered list of rule applications whose premises are the
outputs of primitive computations (discriminants, factor degrees mod q,
orbit counts, commutant dimensions).  Replaying a certificate recomputes
every leaf and must reproduce the verdict bit for bit.

Verdicts are kept strictly apart:

* Deterministic  - every premise of the deduction chain holds exactly;
* Probabilistic  - the chain bottoms out in Frobenius cycle-type sampling,
  whose consistency is evidence, never proof (the refutation direction,
  by contrast, is unconditional);
* Refuted        - a computed fact contradicts the claim;
* Inconclusive   - a premise failed or could not be established.

The rule table: _RULES states each rule once, in strings and values: its
conclusion template and its ordered (fact, required) premises, required
being None for a value the step only reports.  _step, the one builder,
appends a step from the table and returns the first premise whose value is
not its required value; the chain ends there, Inconclusive with that fact
as failed_premise (Refuted at EvenContainment, an equivalence).  The
document records the values, the table the requirements.  IrredX2, u(x^2)
irreducible by u's shape and a witness prime, is stated only in _RULES and
judged only by _step; reference's oracle reads its facts there.  Every exit
is a _RULES row too, which _exit judges as _step judges a premise, so each
failed premise, reason and conclusion a document carries is a table text.
A refused descent also records the verdict of its base over Q.

Conclusions about the Prym variety itself (endomorphism ring, simplicity,
not being a jacobian) are emitted as claims with checked=false: the engine
verifies their arithmetic premises and names the bridging rule, it does not
re-prove the geometry.

Certificate JSON schema "prym-cert/1":
{version, tool, params: {p, r, m, n, c}, config, claim,
 steps: [{rule, premises: [{fact, value}], conclusion}],
 verdict: {kind, detail}, claims: [{statement, checked, via}]}
"""

from __future__ import annotations

import enum
import functools
import random
import sys
from itertools import islice

from . import (  # the shared constants, re-exported
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
    canonical_json,
)
from ._record import Record
from .intpoly import (
    CycleType,
    IntPoly,
    _validate_odd,
    compose_x2,
    disc_of_even_composite,
    discriminant,
    format_poly,
    is_square,
    trinomial,
    unramified_factor_degrees,
)
from .fpmodule import _heart_is_irreducible, commutant_dim, odd_space
from .prymcalc import (
    FamilyParams,
    condition_p_r,
    dim_prym,
    multiplicities_coprime,
    multiplicities_distinct,
    multiplicity_table,
    non_jacobian_inequality,
)
from .signedperm import (
    GroupDescriptor,
    IsSm,
    census,
    roots_u,
    sm_certificate,
    sm_normal_index_condition,
    transitivity_degree,
)

# the config keys of each command's document, in its function's argument order:
# the certify functions emit them and replay reads them back
_REPLAY_KEYS = {
    "verify": ("p", "r", "samples", "seed", "prime_budget"),
    "galois-certify": ("m", "c", "samples", "seed", "prime_budget"),
}
_REPLAY_KEYS["galois-descent"] = (*_REPLAY_KEYS["galois-certify"], "p", "r")


def _config(command: str, *values) -> dict:
    return {"command": command, **dict(zip(_REPLAY_KEYS[command], values, strict=True))}


class Containment(enum.Enum):
    """Outcome of the sign-group containment test."""

    CONTAINED = "Contained"
    NOT_CONTAINED = "NotContained"
    INAPPLICABLE = "Inapplicable"
    NOT_CONCLUDED = "NotConcluded"


class RuleStep(Record, frozen=False):
    """One rule application: checked premises with provenance, one conclusion."""

    rule: str
    conclusion: str
    premises: list[dict] = []


# facts that two premises, or a premise and an exit, share
_SM = "Gal(u/Q) = S_m"
_WITNESS = "u irreducible over Q (witness prime)"
_DISTINCT = "multiplicities pairwise distinct"
_R_EVEN = "r is even"

# Each row is a (text, premises) pair.  A rule's text is its conclusion
# template, formatted with the premise values ({0}, {1}, ...) and the builder's
# keywords; its premises are ordered (fact, required), required None for a value
# the step only reports.  A key's text before ":" is the rule name the document
# records; a "<rule>:refused" row, with no premises, concludes that rule's failed
# step.  Three required premises restate what the chain established before
# their step, so only a flipped table entry reaches their failure: IrredDelta's
# and TwoGroup's _SM (the walk keeps a Jordan verdict only as IsSm) and SmCert's
# "disc(u) is a square" (a square disc(u) exits first); a checker reads them as
# cross-references.  An "exit:" row's text is what its verdict detail carries
# besides the failed premise (witness: under "detail"; probabilistic, with no
# premise: a Probabilistic verdict's reason), its one premise the failed one.
# An exit that a step's own premise decides (EvenContainment's refutation,
# ChebotarevVerdict's) carries required None: it is taken wherever reached.
_RULES = {
    "EvenContainment": ("Gal(u(x^2)/Q) is {neg}contained in W(D_{m})",
                        (("-u(0)", None), ("-u(0) is a rational square", True))),
    "SmCert": ("Gal({u} / Q) = S_{m}", (
        (_WITNESS, None), ("disc(u)", None), ("disc(u) is a square", False),
        ("cycle type observed mod q", None), ("witness prime q", None),
        ("prime cycle length L with m/2 < L < m-2 (Jordan)", None),
    )),
    "IrredX2": ("{h} is irreducible over Q", (
        ("deg u odd and >= 3", None), ("u monic", True), ("coefficient of x^2 is 0", True),
        ("coefficient of x is -1", True), ("constant term -c, c nonzero", None), (_WITNESS, None),
    )),
    "ChebotarevVerdict": ("all {0} sampled Frobenius cycle types are possible in W(D_{m}) "
                          "(statistical evidence, not proof)", (
        ("samples", None), ("census classes", None), ("chi_square (advisory)", None),
    )),
    "ChebotarevVerdict:refuting": ("cycle type {1} observed at q = {0} is impossible in W(D_{m})",
                                   (("refuting prime", None), ("refuting cycle type", None))),
    "IrredDelta": ("u(x^2) is irreducible over the quadratic field Q(sqrt(disc(u)))", (
        ("m odd and >= 7", None), ("c odd", None), (_SM, True),
        ("disc(u) odd, so the quadratic field is unramified at 2", True),
    )),
    "SquareRoot": ("no square root of a root of u lies in the splitting "
                   "field of u; the splitting fields of u and u(x^2) differ", (
        (f"m odd and >= {DET_MIN_M}", None),
        ("2m < m(m-1)/2, so A_m has no subgroup of index 2m", True),
    )),
    "TwoGroup": ("{claim}", (
        ("c is a square in Q", True), ("Gal(u(x^2)/Q) contained in W(D_m)", True),
        # SquareRoot concludes that the splitting fields of u and u(x^2) differ,
        # which is exactly a nontrivial kernel of Gal(h/Q) -> Gal(u/Q)
        ("kernel of the sign projection is nontrivial", True),
        ("sum-zero F_2-module of A_m is irreducible (weight-2 spin "
         "and one 3-cycle per even weight)", True),
        (_SM, True),
    )),
    "CyclotomicDescent": ("{claim}", (
        ("(1 + 2^(r-2)) mod p", None),
        ("p does not divide 1 + 2^(r-2) (condition (3))", True),
        ("shortcut: r = 2 (mod p-1)", None), ("shortcut: 2^(r-2) < p-1", None),
        ("disc(u(x^2))", None), ("disc route", None),
        ("p does not divide disc(u(x^2))", True),
    )),
    "CyclotomicDescent:refused": ("descent to Q(zeta_{p}) refused; the claim over Q "
                                  "is unaffected", ()),
    "EndomorphismRing": ("End(Prym) = Z[zeta_{p}]; Prym is absolutely simple", (
        (_R_EVEN, True),
        ("S_m is doubly transitive on the roots of u", True),
        ("S_m has no proper normal subgroup of index dividing m", True),
        ("p does not divide 2m", True),
        ("commutant of W(D_m) on the odd function space mod p has dim", 1),
        ("Gal over Q(zeta_{p}) established", None),
    )),
    "EigenvalueMultiplicities": ("the automorphism eigenvalue multiplicities on the "
                                 "anti-invariant differentials are rj (j even) and rj-1 (j odd); "
                                 "they are pairwise distinct and coprime", (
        ("multiplicity table", None), (_DISTINCT, True), ("gcd of multiplicities is 1", True),
        ("multiplicities sum to dim Prym", True), ("dim Prym", None),
    )),
    "NonJacobian": ("Prym is isomorphic neither to the jacobian of a smooth "
                    "projective curve nor to a product of jacobians", (
        ("r - 1 < (2 dim Prym)/(p(p-1)) - (p-2)/p (exact rationals)", True),
        (_DISTINCT, True), ("smallest multiplicity", None),
    )),
    "exit:squarefree": ("", (("u is squarefree", True),)),
    "exit:containment": ("the containment criterion is an equivalence, so the group is not even "
                         "contained in W(D_m)", (("-u(0) is a square in Q", None),)),
    "exit:witness": ("Inconclusive()", (("u is irreducible over Q", True),)),
    "exit:sampling": ("", (("all sampled cycle types possible in W(D_m)", None),)),
    "exit:probabilistic": (f"m = {{m}} < {DET_MIN_M}: the deterministic chain does not apply", ()),
    "exit:disc-square": ("", (("disc(u) is not a square", True),)),
    "exit:jordan": ("", (("a qualifying prime-length cycle was observed", True),)),
    "exit:odd-r": ("odd r makes m even and every eigenvalue multiplicity even",
                   ((_R_EVEN, True),)),
}


def _step(steps: list[RuleStep], key: str, *values, **fmt) -> str | None:
    """Append the step of _RULES[key] with these premise values, in the table's
    order; return the fact of its first premise off its required value.  A step
    that fails concludes with its key's ":refused" row, where the table has one."""
    conclusion, premises = _RULES[key]
    facts = [fact.format(**fmt) for fact, _ in premises]
    prems = [{"fact": f, "value": v} for f, v in zip(facts, values, strict=True)]
    failed = next((fact for fact, (_, req), value in zip(facts, premises, values)
                   if req is not None and value != req), None)
    conclusion = _RULES.get(f"{key}:refused", (conclusion,))[0] if failed else conclusion
    steps.append(RuleStep(key.partition(":")[0], conclusion.format(*values, **fmt), prems))
    return failed


def _exit(key: str, value=None, text: str = "reason", **detail) -> dict | None:
    """Judge the exit _RULES[key] as _step judges a premise: None when value is
    its required value, else the verdict detail naming its fact as the failed
    premise, with the row's text (if any) under `text`, then `detail`."""
    reason, ((fact, required),) = _RULES[key]
    if required is None or value != required:
        return {"failed_premise": fact, **({text: reason} if reason else {}), **detail}


class Certificate(Record, frozen=False):
    """A sealed deduction chain with parameters, steps, verdict and claims.

    A chain that establishes nothing omits claims and gets its own [].
    """

    params: dict
    config: dict
    claim: str
    steps: list[RuleStep]
    verdict: str
    verdict_detail: dict
    claims: list[dict] = []

    def to_json(self) -> dict:
        return {
            "version": SCHEMA_VERSION,
            "tool": {"name": TOOL_NAME, "version": TOOL_VERSION},
            "params": self.params,
            "config": self.config,
            "claim": self.claim,
            "steps": [s.to_json() for s in self.steps],
            "verdict": {"kind": self.verdict, "detail": self.verdict_detail},
            "claims": self.claims,
        }

    def canonical(self) -> str:
        return canonical_json(self.to_json())


def _claim(via: str, statement: str, checked: bool = False) -> dict:
    """A document's claim, checked or only bridged by the rule it names (`via`)."""
    return {"statement": statement, "checked": checked, "via": via}


class SamplingReport(Record):
    """Frobenius cycle-type sampling against an exact census.

    A refutation (some observed type impossible in the target group) is
    sound and unconditional; consistency is statistical evidence only.
    """

    target: dict
    group_order: int
    samples: int
    seed: int
    consistent: bool
    refuting_prime: int | None
    refuting_type: list | None
    classes: list[dict]
    chi_square: float | None
    dof: int | None
    prime_range: list[int]

    def to_json(self) -> dict:
        note = (
            "consistency is statistical evidence, not proof; refutation would be unconditional"
            if self.consistent
            else "refutation is unconditional (factor degrees mod q are "
            "the cycle type of a Frobenius element)"
        )
        return {**super().to_json(), "note": note}


def find_refutation(types, support) -> CycleType | None:
    """First cycle type not realizable in the target group, or None.

    Soundness: the factor-degree multiset of an unramified reduction is the
    cycle type of an actual group element, so a type outside the census
    support contradicts the claimed group unconditionally.
    """
    return next((ct for ct in map(CycleType, types) if ct not in support), None)


def unramified_frobenius_samples(h: IntPoly, samples: int):
    """Iterator over (q, cycle type) for the first `samples` unramified primes q.

    Primes divide neither the leading coefficient nor the discriminant, in
    increasing order, so the stream is deterministic.  A polynomial with a
    repeated factor has no unramified prime: the first prime requested
    raises unramified_factor_degrees's ValueError, which names the factor.
    """
    return islice(unramified_factor_degrees(h, discriminant(h)), samples)


def chebotarev_verdict(
    h: IntPoly,
    target: GroupDescriptor,
    samples: int,
    seed: int = 0,
    pool: int | None = None,
) -> SamplingReport:
    """Sample Frobenius cycle types of h and compare with the target census.

    One stream of (q, cycle type) is read once: the lazy walk over the first
    `samples` unramified primes in increasing order, the seed playing no role,
    or with pool > samples a seeded sample of the first `pool` of them, all
    factored first.  The first impossible type refutes at once, as the
    report's (refuting prime, refuting type), and no later prime of the walk
    is factored.  Consistent samples are reported with observed vs expected
    counts per census class (expected = samples * class size / group order)
    and an advisory chi-square statistic.  An over-budget target group, then a
    polynomial with a repeated factor (no unramified prime), raise ValueError.
    """
    if samples < 10:
        raise ValueError("at least 10 unramified primes are required")
    if max(samples, pool or 0) > sys.maxsize:
        raise ValueError(f"samples and pool must be at most {sys.maxsize}")
    if h.degree != 2 * target.m:
        raise ValueError(
            f"degree {h.degree} polynomial cannot match a group on {2 * target.m} points"
        )
    # an over-budget census is refused before disc(h) is computed for the sampler
    cens = census(target)
    support = set(cens)
    order = sum(cens.values())
    # lazy, so a refuting prime ends the factoring
    stream = unramified_frobenius_samples(h, max(samples, pool or 0))
    if pool and pool > samples:
        stream = sorted(random.Random(seed).sample(list(stream), samples))

    observed: dict[CycleType, int] = {}
    qs: list[int] = []
    refuting = None  # (q, cycle type)
    for q, ct in stream:
        qs.append(q)
        if find_refutation([ct], support) is not None:
            refuting = q, list(ct)
            break
        observed[ct] = observed.get(ct, 0) + 1

    n = sum(observed.values())  # the samples before any refuting one
    chi = dof = None
    if refuting is None:
        chi = 0.0
        for ct, cnt in cens.items():
            expected = n * cnt / order
            chi += (observed.get(ct, 0) - expected) ** 2 / expected
        chi, dof = round(chi, 6), len(cens) - 1
    classes = [{"type": list(ct), "count": observed.get(ct, 0),
                "expected": round(n * cens[ct] / order, 6)} for ct in sorted(cens)]
    return SamplingReport(target.to_json(), order, len(qs), seed, refuting is None,
                          *(refuting or (None, None)), classes, chi, dof, [qs[0], qs[-1]])


# ---------------------------------------------------------------------------
# rules
# ---------------------------------------------------------------------------


def even_containment(
    u: IntPoly, cyclotomic_p: int | None = None, disc: int | None = None
) -> Containment:
    """Whether the Galois group of u(x^2) lies in the even-sign group W(D_m).

    For odd deg u the containment over the base field K holds iff -u(0) is a
    square in K.  Over Q the integer square test decides both directions.
    Over Q(zeta_p) only the positive direction is modeled: a rational square
    is a square in every extension, so Contained; a non-square rational is
    conservatively reported NotConcluded (it could become a square in the
    cyclotomic field) rather than guessed.  disc is disc(u) when the caller
    already holds it; otherwise it is computed for the squarefree guard.
    """
    m = u.degree
    if m < 1 or m % 2 == 0:
        return Containment.INAPPLICABLE
    if u.coeff(0) == 0:
        raise ValueError("u(0) must be nonzero")
    if (discriminant(u) if disc is None else disc) == 0:
        raise ValueError("u must be squarefree")
    v = -u.coeff(0)
    if is_square(v):
        return Containment.CONTAINED
    if cyclotomic_p is None:
        return Containment.NOT_CONTAINED
    return Containment.NOT_CONCLUDED


def _witness_walk(u: IntPoly, disc_u: int, prime_budget: int):
    """One walk over the unramified primes <= budget for u's two S_m witnesses.

    Returns (irreducibility witness, (Jordan prime, IsSm)): the first q with
    u irreducible mod q and the first q whose cycle type has a prime cycle
    certifying S_m by Jordan, each None when the budget runs out first.  The
    Jordan search assumes u irreducible, so its verdict counts only together
    with the irreducibility witness.  The walk looks for a Jordan prime
    exactly when the chain reads one, m >= DET_MIN_M and disc(u) not a
    square; for odd m < DET_MIN_M no prime lies in sm_certificate's window
    (m/2, m - 2), and the walk ends at the irreducibility witness.
    """
    m = u.degree
    want_jordan = m >= DET_MIN_M and not is_square(disc_u)
    witness = jordan = None
    for q, ct in unramified_factor_degrees(u, disc_u, prime_budget):
        if witness is None and ct == CycleType([m]):
            witness = q
        if jordan is None and want_jordan:
            verdict = sm_certificate([ct], False, True, m)
            if isinstance(verdict, IsSm):
                jordan = q, verdict
        if witness is not None and (jordan is not None or not want_jordan):
            break
    return witness, jordan


def certify_wdm_over_Q(
    m: int,
    c: int,
    samples: int = SAMPLES,
    seed: int = 0,
    prime_budget: int = PRIME_BUDGET,
) -> Certificate:
    """Certify Gal(u(x^2)/Q) = W(D_m) for u = x^m - x - c.

    For m >= DET_MIN_M and c an odd perfect square the verdict is
    Deterministic via the full lemma chain (S_m certification for u,
    irreducibility of the even composite, sign containment, the
    quadratic-subfield and square-root steps, and the 2-group argument).
    For m in {3, 5, 7} the chain falls through to cycle-type sampling
    against the exact W(D_m) census and the verdict is at best
    Probabilistic.  Every m needs a prime witnessing u irreducible within
    the budget (IrredX2).  Failed premises are named; the containment test
    can refute the claim outright.  Steps are appended in rule order.
    """
    _validate_odd(m, c)
    u = trinomial(m, c)
    h = compose_x2(u)
    claim = f"Gal({format_poly(h)} / Q) = W(D_{m})"
    cert = functools.partial(Certificate, {"p": None, "r": None, "m": m, "n": 2 * m + 1, "c": c},
                             _config("galois-certify", m, c, samples, seed, prime_budget), claim)

    disc_u = discriminant(u)
    if detail := _exit("exit:squarefree", disc_u != 0):
        return cert([], INCONCLUSIVE, detail)

    # -u(0) = c: every non-square c is refuted here, so c is a square below
    contained = even_containment(u, disc=disc_u) is Containment.CONTAINED
    containment = []
    if _step(containment, "EvenContainment", -u.coeff(0), contained,
             m=m, neg="" if contained else "not "):
        return cert(containment, REFUTED, _exit("exit:containment"))

    # one walk for both of u's witnesses; IrredX2 serves every m from it
    witness, jordan = _witness_walk(u, disc_u, prime_budget)
    # with no witness, the walk saw what irreducible_over_Q(u) would walk, disc(u) != 0
    # and u has no integer root (a^m - a is even, c odd): the primes ran out
    if detail := _exit("exit:witness", witness is not None, "detail", prime_budget=prime_budget):
        return cert(containment, INCONCLUSIVE, detail)
    irred_x2 = []
    failed = _step(irred_x2, "IrredX2", m, u.is_monic, u.coeff(2) == 0, u.coeff(1) == -1, c,
                   witness, h=format_poly(h))

    if m < DET_MIN_M:  # m in {3, 5, 7}: sampling fallback
        steps = [*containment, *irred_x2]
        if failed:
            return cert(steps, INCONCLUSIVE, {"failed_premise": failed})
        report = chebotarev_verdict(h, GroupDescriptor.wdm(m), samples, seed)
        if not report.consistent:
            _step(steps, "ChebotarevVerdict:refuting", report.refuting_prime,
                  report.refuting_type, m=m)
            return cert(steps, REFUTED, _exit("exit:sampling", sampling=report.to_json()))
        _step(steps, "ChebotarevVerdict", report.samples, len(report.classes),
              report.chi_square, m=m)
        reason = _RULES["exit:probabilistic"][0].format(m=m)
        return cert(steps, PROBABILISTIC, {"sampling": report.to_json(), "reason": reason},
                    [_claim("ChebotarevVerdict", claim)])

    # m >= DET_MIN_M: the deterministic chain
    disc_square = is_square(disc_u)
    if detail := (_exit("exit:disc-square", not disc_square)
                  or _exit("exit:jordan", jordan is not None, prime_budget=prime_budget)):
        return cert(containment, INCONCLUSIVE, detail)
    q_cycle, sm = jordan
    is_sm = isinstance(sm, IsSm)
    steps = []
    # SmCert's or IrredX2's failure ends the chain before IrredDelta
    failed = _step(steps, "SmCert", witness, disc_u, disc_square, list(sm.witness_type),
                   q_cycle, sm.cycle_length, u=format_poly(u), m=m) or failed
    steps += [*irred_x2, *containment]
    side_condition = 2 * m < m * (m - 1) // 2
    failed = failed or (
        _step(steps, "IrredDelta", m, c, is_sm, disc_u % 2 != 0)
        or _step(steps, "SquareRoot", m, side_condition)
        or _step(steps, "TwoGroup", contained, contained, side_condition,
                 _heart_is_irreducible(m), is_sm, claim=claim)
    )
    if failed:
        return cert(steps, INCONCLUSIVE, {"failed_premise": failed})
    return cert(steps, DETERMINISTIC, {}, [_claim("TwoGroup", claim, True)])


def cyclotomic_descent(cert_q: Certificate, p: int, r: int) -> Certificate:
    """Extend a rational W(D_m) certificate to the p-th cyclotomic field.

    Requires the base certificate to establish (deterministically or
    probabilistically) the claim over Q for the family member m = pr - 1,
    c = 1.  The descent premises are that p does not divide 1 + 2^(r-2) and
    that p does not divide disc(u(x^2)): then the splitting field of h and
    Q(zeta_p) have coprime ramification, hence are linearly disjoint, and
    the Galois group is unchanged.  A Probabilistic base stays Probabilistic.
    The two are equivalent, as m = -1 (mod p) and Fermat give disc(u) =
    -(-1)^(m(m-1)/2) (1 + 2^(r-2)) (mod p) and disc(u(x^2)) = 4^m disc(u)^2.
    """
    family = FamilyParams(p, r)  # validates p, r
    m = family.m
    if cert_q.params.get("m") != m or cert_q.params.get("c") != 1:
        raise ValueError(
            f"base certificate is for (m={cert_q.params.get('m')}, "
            f"c={cert_q.params.get('c')}), descent needs (m={m}, c=1)"
        )
    if cert_q.verdict not in (DETERMINISTIC, PROBABILISTIC):
        raise ValueError("base certificate does not establish the claim over Q")

    h = compose_x2(trinomial(m, 1))
    cond = condition_p_r(p, r)
    disc_h = discriminant(h)
    if disc_h != disc_of_even_composite(m, 1):  # an explicit check: it must survive python -O
        raise AssertionError("closed form disagrees with subresultants")
    claim = f"Gal({format_poly(h)} / Q(zeta_{p})) = W(D_{m})"
    steps = list(cert_q.steps)
    failed = _step(steps, "CyclotomicDescent", cond.residue, cond.passed, cond.shortcut_r_mod,
                   cond.shortcut_small, disc_h,
                   "subresultant PRS, cross-checked against the closed form",
                   disc_h % p != 0, claim=claim, p=p)
    cert = functools.partial(Certificate, family.to_json(),
                             {**cert_q.config, "command": "galois-descent", "p": p, "r": r},
                             claim, steps)
    if failed:
        return cert(INCONCLUSIVE, {"failed_premise": failed, "base_verdict": cert_q.verdict})
    return cert(cert_q.verdict, dict(cert_q.verdict_detail),
                [_claim("CyclotomicDescent", claim, cert_q.verdict == DETERMINISTIC)])


def certify_prym(
    p: int,
    r: int,
    samples: int = SAMPLES,
    seed: int = 0,
    prime_budget: int = PRIME_BUDGET,
) -> Certificate:
    """Full pipeline for the family member (p, r, c=1).

    Establishes Gal(u(x^2) / Q(zeta_p)) = W(D_m) (deterministically for
    m >= DET_MIN_M, by sampling for m = 5, the only smaller m with r even),
    then checks every arithmetic premise of the endomorphism-ring and
    non-jacobian conclusions: r even, double transitivity of S_m, the
    normal-subgroup index condition, the eigenvalue multiplicity table
    (distinct, coprime, summing to dim Prym), the exact non-jacobian
    inequality, and the one-dimensionality of the commutant of W(D_m) on the
    odd function space mod p.  The geometric conclusions are attached as
    attributed claims, never as locally proved facts.
    """
    family = FamilyParams(p, r, 1)  # validates p, r
    m = family.m
    h = compose_x2(trinomial(m, 1))
    claim = f"Gal({format_poly(h)} / Q(zeta_{p})) = W(D_{m})"
    cert = functools.partial(Certificate, family.to_json(),
                             _config("verify", p, r, samples, seed, prime_budget), claim)

    if detail := _exit("exit:odd-r", r % 2 == 0):
        return cert([], INCONCLUSIVE, detail)

    base = certify_wdm_over_Q(m, 1, samples, seed, prime_budget)
    ext = base if base.verdict in (REFUTED, INCONCLUSIVE) else cyclotomic_descent(base, p, r)
    if ext.verdict in (REFUTED, INCONCLUSIVE):  # the claim over Q(zeta_p) is not established
        return cert(ext.steps, ext.verdict, ext.verdict_detail)

    steps = ext.steps
    table = multiplicity_table(p, r)
    distinct = multiplicities_distinct(p, r)
    d = dim_prym(p, m)
    failed = _step(
        steps, "EndomorphismRing", r % 2 == 0,
        transitivity_degree(GroupDescriptor.symmetric(m), roots_u(m)) >= 2,
        sm_normal_index_condition(m), (2 * m) % p != 0,
        commutant_dim(GroupDescriptor.wdm(m).generators(), odd_space(m, p)), ext.verdict, p=p,
    ) or _step(
        steps, "EigenvalueMultiplicities", table.to_json(), distinct,
        multiplicities_coprime(p, r), table.total() == d, d,
    ) or _step(steps, "NonJacobian", non_jacobian_inequality(p, r), distinct, table.values()[0])
    if failed:
        return cert(steps, INCONCLUSIVE, {"failed_premise": failed})

    claims = [
        *ext.claims,
        _claim("EigenvalueMultiplicities", f"dim Prym = {d}", True),
        _claim("EndomorphismRing", f"End(Prym) = Z[zeta_{p}]"),
        _claim("EndomorphismRing", "Prym is an absolutely simple abelian variety"),
        _claim("NonJacobian",
               "Prym is not isomorphic to the jacobian of a smooth projective curve"),
        _claim("NonJacobian", "Prym is not isomorphic to a product of jacobians"),
    ]
    return cert(steps, ext.verdict, ext.verdict_detail, claims)


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


def replay(doc: dict) -> Certificate:
    """Re-run the pipeline recorded in a certificate document from scratch.

    A document without a usable `config` (not an object, an unknown command,
    a missing key or a non-integer value) is rejected with a ValueError that
    names what is wrong.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"certificate must be an object, got {type(doc).__name__}")
    cfg = doc.get("config")
    if not isinstance(cfg, dict):
        raise ValueError(f"certificate config must be an object, got {type(cfg).__name__}")
    command = cfg.get("command")
    keys = _REPLAY_KEYS.get(command) if isinstance(command, str) else None
    if keys is None:
        raise ValueError(f"unknown certificate command {command!r}")
    for key in keys:
        if key not in cfg:
            raise ValueError(f"certificate config has no {key!r}")
        if type(cfg[key]) is not int:
            raise ValueError(
                f"certificate config {key!r} must be an integer, got {type(cfg[key]).__name__}"
            )
    args = [cfg[key] for key in keys]
    if command == "verify":
        return certify_prym(*args)
    base = certify_wdm_over_Q(*args[:5])
    return base if command == "galois-certify" else cyclotomic_descent(base, *args[5:])


def verify_replay(doc: dict) -> bool:
    """Whether recomputing every leaf reproduces the document bit for bit."""
    fresh = replay(doc)
    return fresh.canonical() == canonical_json(doc)
