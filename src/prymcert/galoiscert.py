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
import json
import random
from dataclasses import dataclass, field
from itertools import islice

from ._primes import is_prime
from .intpoly import (
    Certified,
    CycleType,
    IntPoly,
    Irreducible,
    _composite_rule,
    compose_x2,
    condition_p_r,
    disc_of_even_composite,
    discriminant,
    format_poly,
    irreducible_composite_rule,
    irreducible_over_Q,
    is_square,
    poly_gcd,
    trinomial,
    unramified_factor_degrees,
)
from .fpmodule import commutant_dim, heart_f2_irreducible, odd_space
from .prymcalc import (
    FamilyParams,
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

TOOL_NAME = "prymcert"
TOOL_VERSION = "0.1.0"
SCHEMA_VERSION = "prym-cert/1"

DETERMINISTIC = "Deterministic"
PROBABILISTIC = "Probabilistic"
REFUTED = "Refuted"
INCONCLUSIVE = "Inconclusive"

# spinning budget of heart_f2_irreducible
_HEART_MAX_M = 13


class Containment(enum.Enum):
    """Outcome of the sign-group containment test."""

    CONTAINED = "Contained"
    NOT_CONTAINED = "NotContained"
    INAPPLICABLE = "Inapplicable"
    NOT_CONCLUDED = "NotConcluded"


@dataclass
class RuleStep:
    """One rule application: checked premises with provenance, one conclusion."""

    rule: str
    conclusion: str
    premises: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "premises": self.premises,
            "conclusion": self.conclusion,
        }


def _prem(fact: str, value) -> dict:
    return {"fact": fact, "value": value}


@dataclass
class Certificate:
    """A sealed deduction chain with parameters, steps, verdict and claims."""

    params: dict
    config: dict
    claim: str
    steps: list[RuleStep]
    verdict: str
    verdict_detail: dict
    claims: list[dict]

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
        return json.dumps(self.to_json(), sort_keys=True, indent=2) + "\n"

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.canonical())


@dataclass
class SamplingReport:
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
        return {
            "target": self.target,
            "group_order": self.group_order,
            "samples": self.samples,
            "seed": self.seed,
            "consistent": self.consistent,
            "refuting_prime": self.refuting_prime,
            "refuting_type": self.refuting_type,
            "classes": self.classes,
            "chi_square": self.chi_square,
            "dof": self.dof,
            "prime_range": self.prime_range,
            "note": (
                "consistency is statistical evidence, not proof; "
                "refutation would be unconditional"
                if self.consistent
                else "refutation is unconditional (factor degrees mod q are "
                "the cycle type of a Frobenius element)"
            ),
        }


def find_refutation(types, support) -> CycleType | None:
    """First cycle type not realizable in the target group, or None.

    Soundness: the factor-degree multiset of an unramified reduction is the
    cycle type of an actual group element, so a type outside the census
    support contradicts the claimed group unconditionally.
    """
    for t in types:
        if CycleType(t) not in support:
            return CycleType(t)
    return None


def unramified_frobenius_samples(h: IntPoly, samples: int):
    """Iterator over (q, cycle type) for the first `samples` unramified primes q.

    Primes divide neither the leading coefficient nor the discriminant, in
    increasing order, so the stream is deterministic.  A polynomial with a
    repeated factor has no unramified prime and is rejected with a
    ValueError on the call, before any prime is tried.
    """
    disc = discriminant(h)
    if disc == 0:
        raise ValueError(
            f"{format_poly(h)} is not squarefree: it shares the factor "
            f"{format_poly(poly_gcd(h, h.derivative()))} with its derivative, "
            "so every prime is ramified"
        )
    return islice(unramified_factor_degrees(h, disc), samples)


def chebotarev_verdict(
    h: IntPoly,
    target: GroupDescriptor,
    samples: int,
    seed: int = 0,
    pool: int | None = None,
) -> SamplingReport:
    """Sample Frobenius cycle types of h and compare with the target census.

    Consistent samples are reported with observed vs expected class counts
    (expected = samples * class size / group order) and an advisory
    chi-square statistic.  The first impossible type refutes immediately.
    With pool > samples, the sampled primes are a seed-shuffled subset of the
    first `pool` unramified primes; otherwise the seed plays no role and the
    first `samples` unramified primes are used in increasing order.  A
    polynomial with a repeated factor has no unramified prime and is
    rejected with a ValueError.
    """
    if samples < 10:
        raise ValueError("at least 10 unramified primes are required")
    if h.degree != 2 * target.m:
        raise ValueError(
            f"degree {h.degree} polynomial cannot match a group on {2 * target.m} points"
        )
    frobenius = unramified_frobenius_samples(h, pool if pool else samples)  # checks h first
    cens = census(target)
    support = set(cens)
    order = sum(cens.values())
    tj = target.to_json()

    stream = list(frobenius)
    if pool and pool > samples:
        rng = random.Random(seed)
        stream = sorted(rng.sample(stream, samples))

    observed: dict[CycleType, int] = {}
    qs: list[int] = []
    for q, ct in stream:
        qs.append(q)
        if ct not in support:
            return SamplingReport(
                target=tj,
                group_order=order,
                samples=len(qs),
                seed=seed,
                consistent=False,
                refuting_prime=q,
                refuting_type=list(ct),
                classes=_class_table(observed, cens, len(qs) - 1),
                chi_square=None,
                dof=None,
                prime_range=[qs[0], qs[-1]],
            )
        observed[ct] = observed.get(ct, 0) + 1

    n = len(qs)
    chi = 0.0
    for ct, cnt in cens.items():
        expected = n * cnt / order
        obs = observed.get(ct, 0)
        chi += (obs - expected) ** 2 / expected
    return SamplingReport(
        target=tj,
        group_order=order,
        samples=n,
        seed=seed,
        consistent=True,
        refuting_prime=None,
        refuting_type=None,
        classes=_class_table(observed, cens, n),
        chi_square=round(chi, 6),
        dof=len(cens) - 1,
        prime_range=[qs[0], qs[-1]],
    )


def _class_table(observed, cens, n) -> list[dict]:
    rows = []
    for ct in sorted(cens):
        rows.append(
            {
                "type": list(ct),
                "count": observed.get(ct, 0),
                "expected": round(n * cens[ct] / sum(cens.values()), 6),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# rules
# ---------------------------------------------------------------------------


def even_containment(u: IntPoly, cyclotomic_p: int | None = None) -> Containment:
    """Whether the Galois group of u(x^2) lies in the even-sign group W(D_m).

    For odd deg u the containment over the base field K holds iff -u(0) is a
    square in K.  Over Q the integer square test decides both directions.
    Over Q(zeta_p) only the positive direction is modeled: a rational square
    is a square in every extension, so Contained; a non-square rational is
    conservatively reported NotConcluded (it could become a square in the
    cyclotomic field) rather than guessed.
    """
    m = u.degree
    if m < 1 or m % 2 == 0:
        return Containment.INAPPLICABLE
    if u.coeff(0) == 0:
        raise ValueError("u(0) must be nonzero")
    if discriminant(u) == 0:
        raise ValueError("u must be squarefree")
    v = -u.coeff(0)
    if is_square(v):
        return Containment.CONTAINED
    if cyclotomic_p is None:
        return Containment.NOT_CONTAINED
    return Containment.NOT_CONCLUDED


def _containment_step(u: IntPoly, m: int, result: Containment) -> RuleStep:
    v = -u.coeff(0)
    if result is Containment.CONTAINED:
        conclusion = f"Gal(u(x^2)/Q) is contained in W(D_{m})"
    else:
        conclusion = f"Gal(u(x^2)/Q) is not contained in W(D_{m})"
    return RuleStep(
        rule="EvenContainment",
        conclusion=conclusion,
        premises=[
            _prem("-u(0)", v),
            _prem("-u(0) is a rational square", result is Containment.CONTAINED),
        ],
    )


def _witness_walk(u: IntPoly, disc_u: int, prime_budget: int):
    """One walk over the unramified primes <= budget for u's two S_m witnesses.

    Returns (irreducibility witness, (Jordan prime, IsSm)): the first q with
    u irreducible mod q and the first q whose cycle type has a prime cycle
    certifying S_m by Jordan, each None when the budget runs out first.  The
    Jordan search assumes u irreducible, so its verdict counts only together
    with the irreducibility witness; it is skipped when disc(u) is a square,
    where no cycle type certifies S_m.
    """
    m = u.degree
    want_jordan = not is_square(disc_u)
    witness = jordan = None
    for q, ct in unramified_factor_degrees(u, disc_u):
        if q > prime_budget:
            break
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
    samples: int = 2000,
    seed: int = 0,
    prime_budget: int = 500,
) -> Certificate:
    """Certify Gal(u(x^2)/Q) = W(D_m) for u = x^m - x - c.

    For m >= 9 and c an odd perfect square the verdict is Deterministic via
    the full lemma chain (S_m certification for u, irreducibility of the
    even composite, sign containment, the quadratic-subfield and square-root
    steps, and the 2-group argument).  For m in {3, 5, 7} the chain falls
    through to cycle-type sampling against the exact W(D_m) census and the
    verdict is at best Probabilistic.  Failed premises are named; the
    containment test can refute the claim outright.
    """
    if m < 3 or m % 2 == 0:
        raise ValueError(f"m must be odd and >= 3, got {m}")
    if c == 0 or c % 2 == 0:
        raise ValueError(f"c must be odd and nonzero, got {c}")
    u = trinomial(m, c)
    h = compose_x2(u)
    claim = f"Gal({format_poly(h)} / Q) = W(D_{m})"
    params = {"p": None, "r": None, "m": m, "n": 2 * m + 1, "c": c}
    config = {
        "command": "galois-certify",
        "m": m,
        "c": c,
        "samples": samples,
        "seed": seed,
        "prime_budget": prime_budget,
    }

    def cert(steps, verdict, detail, claims=None):
        return Certificate(params, config, claim, steps, verdict, detail, claims or [])

    steps: list[RuleStep] = []
    disc_u = discriminant(u)
    if disc_u == 0:
        return cert(steps, INCONCLUSIVE, {"failed_premise": "u is squarefree"})

    containment = even_containment(u)
    steps.append(_containment_step(u, m, containment))
    if containment is Containment.NOT_CONTAINED:
        return cert(
            steps,
            REFUTED,
            {
                "failed_premise": "-u(0) is a square in Q",
                "reason": "the containment criterion is an equivalence, so the "
                "group is not even contained in W(D_m)",
            },
        )

    if m >= 9:
        return _deterministic_chain(cert, steps, u, m, c, disc_u, prime_budget, claim)

    # m in {3, 5, 7}: sampling fallback
    composite = irreducible_composite_rule(u, prime_budget)
    if isinstance(composite, Certified):
        steps.append(
            RuleStep(
                rule="IrredX2",
                conclusion=f"{format_poly(h)} is irreducible over Q",
                premises=[_prem(fact, value) for fact, value in composite.premises],
            )
        )
    report = chebotarev_verdict(h, GroupDescriptor.wdm(m), samples, seed)
    if not report.consistent:
        steps.append(
            RuleStep(
                rule="ChebotarevVerdict",
                conclusion=f"cycle type {report.refuting_type} observed at "
                f"q = {report.refuting_prime} is impossible in W(D_{m})",
                premises=[
                    _prem("refuting prime", report.refuting_prime),
                    _prem("refuting cycle type", report.refuting_type),
                ],
            )
        )
        return cert(
            steps,
            REFUTED,
            {"failed_premise": "all sampled cycle types possible in W(D_m)",
             "sampling": report.to_json()},
        )
    steps.append(
        RuleStep(
            rule="ChebotarevVerdict",
            conclusion=f"all {report.samples} sampled Frobenius cycle types are "
            f"possible in W(D_{m}) (statistical evidence, not proof)",
            premises=[
                _prem("samples", report.samples),
                _prem("census classes", len(report.classes)),
                _prem("chi_square (advisory)", report.chi_square),
            ],
        )
    )
    return cert(
        steps,
        PROBABILISTIC,
        {"sampling": report.to_json(),
         "reason": f"m = {m} < 9: the deterministic chain does not apply"},
        claims=[{"statement": claim, "checked": False, "via": "ChebotarevVerdict"}],
    )


def _deterministic_chain(cert, steps, u, m, c, disc_u, prime_budget, claim):
    side_condition = 2 * m < m * (m - 1) // 2

    if not is_square(c):
        return cert(
            steps, INCONCLUSIVE, {"failed_premise": "c is an odd perfect square"}
        )
    if not side_condition:
        return cert(
            steps,
            INCONCLUSIVE,
            {"failed_premise": "2m < m(m-1)/2 (subgroup index side condition)"},
        )

    witness, jordan = _witness_walk(u, disc_u, prime_budget)
    if witness is None:
        # the walk saw what irreducible_over_Q sees; it names Reducible or Inconclusive
        return cert(
            steps,
            INCONCLUSIVE,
            {"failed_premise": "u is irreducible over Q",
             "detail": repr(irreducible_over_Q(u, prime_budget))},
        )
    if is_square(disc_u):
        return cert(
            steps, INCONCLUSIVE, {"failed_premise": "disc(u) is not a square"}
        )
    if jordan is None:
        return cert(
            steps,
            INCONCLUSIVE,
            {"failed_premise": "a qualifying prime-length cycle was observed "
             f"within the prime budget {prime_budget}"},
        )
    q_cycle, sm = jordan
    steps.insert(
        0,
        RuleStep(
            rule="SmCert",
            conclusion=f"Gal({format_poly(u)} / Q) = S_{m}",
            premises=[
                _prem("u irreducible over Q (witness prime)", witness),
                _prem("disc(u)", disc_u),
                _prem("disc(u) is a square", False),
                _prem("cycle type observed mod q", list(sm.witness_type)),
                _prem("witness prime q", q_cycle),
                _prem(
                    "prime cycle length L with m/2 < L < m-2 (Jordan)",
                    sm.cycle_length,
                ),
            ],
        ),
    )
    composite = _composite_rule(u, lambda: Irreducible(witness))
    if not isinstance(composite, Certified):
        return cert(
            steps,
            INCONCLUSIVE,
            {"failed_premise": "the composite irreducibility rule applies",
             "detail": composite.failed},
        )
    steps.insert(
        1,
        RuleStep(
            rule="IrredX2",
            conclusion=f"{format_poly(compose_x2(u))} is irreducible over Q",
            premises=[_prem(fact, value) for fact, value in composite.premises],
        ),
    )
    steps.append(
        RuleStep(
            rule="IrredDelta",
            conclusion="u(x^2) is irreducible over the quadratic field "
            "Q(sqrt(disc(u)))",
            premises=[
                _prem("m odd and >= 7", m),
                _prem("c odd", c),
                _prem("Gal(u/Q) = S_m", True),
                _prem(
                    "disc(u) odd, so the quadratic field is unramified at 2",
                    disc_u % 2 != 0,
                ),
            ],
        )
    )
    steps.append(
        RuleStep(
            rule="SquareRoot",
            conclusion="no square root of a root of u lies in the splitting "
            "field of u; the splitting fields of u and u(x^2) differ",
            premises=[
                _prem("m odd and >= 9", m),
                _prem("2m < m(m-1)/2, so A_m has no subgroup of index 2m", True),
            ],
        )
    )
    if m <= _HEART_MAX_M:
        heart = heart_f2_irreducible(m, "A_m")
        heart_premise = _prem(
            "sum-zero F_2-module of A_m is irreducible (spun exhaustively)", heart
        )
        if not heart:
            return cert(
                steps,
                INCONCLUSIVE,
                {"failed_premise": "heart irreducibility over F_2"},
            )
    else:
        heart_premise = _prem(
            "sum-zero F_2-module of A_m is irreducible", "cited (beyond spinning budget)"
        )
    steps.append(
        RuleStep(
            rule="TwoGroup",
            conclusion=claim,
            premises=[
                _prem("c is a square in Q", True),
                _prem("Gal(u(x^2)/Q) contained in W(D_m)", True),
                _prem("kernel of the sign projection is nontrivial", True),
                heart_premise,
                _prem("Gal(u/Q) = S_m", True),
            ],
        )
    )
    return cert(
        steps,
        DETERMINISTIC,
        {},
        claims=[{"statement": claim, "checked": True, "via": "TwoGroup"}],
    )


def cyclotomic_descent(cert_q: Certificate, p: int, r: int) -> Certificate:
    """Extend a rational W(D_m) certificate to the p-th cyclotomic field.

    Requires the base certificate to establish (deterministically or
    probabilistically) the claim over Q for the family member m = pr - 1,
    c = 1.  The descent premises are that p does not divide 1 + 2^(r-2) and
    that p does not divide disc(u(x^2)): then the splitting field of h and
    Q(zeta_p) have coprime ramification, hence are linearly disjoint, and
    the Galois group is unchanged.  A Probabilistic base stays Probabilistic.
    """
    if p == 2 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    if r < 2:
        raise ValueError(f"r must be >= 2, got {r}")
    m = p * r - 1
    if cert_q.params.get("m") != m or cert_q.params.get("c") != 1:
        raise ValueError(
            f"base certificate is for (m={cert_q.params.get('m')}, "
            f"c={cert_q.params.get('c')}), descent needs (m={m}, c=1)"
        )
    if cert_q.verdict not in (DETERMINISTIC, PROBABILISTIC):
        raise ValueError("base certificate does not establish the claim over Q")

    u = trinomial(m, 1)
    h = compose_x2(u)
    cond = condition_p_r(p, r)
    disc_h = discriminant(h)
    assert disc_h == disc_of_even_composite(m, 1), "closed form disagrees with subresultants"
    disc_coprime = disc_h % p != 0

    params = {"p": p, "r": r, "m": m, "n": 2 * m + 1, "c": 1}
    config = dict(cert_q.config)
    config.update({"command": "galois-descent", "p": p, "r": r})
    claim = f"Gal({format_poly(h)} / Q(zeta_{p})) = W(D_{m})"
    step = RuleStep(
        rule="CyclotomicDescent",
        conclusion=claim,
        premises=[
            _prem("(1 + 2^(r-2)) mod p", cond.residue),
            _prem("p does not divide 1 + 2^(r-2) (condition (3))", cond.passed),
            _prem("shortcut: r = 2 (mod p-1)", cond.shortcut_r_mod),
            _prem("shortcut: 2^(r-2) < p-1", cond.shortcut_small),
            _prem("disc(u(x^2))", disc_h),
            _prem("disc route", "subresultant PRS, cross-checked against the closed form"),
            _prem("p does not divide disc(u(x^2))", disc_coprime),
        ],
    )
    steps = list(cert_q.steps) + [step]
    if not cond.passed or not disc_coprime:
        failed = (
            "condition (3): p does not divide 1 + 2^(r-2)"
            if not cond.passed
            else "p does not divide disc(u(x^2))"
        )
        step.conclusion = (
            f"descent to Q(zeta_{p}) refused; the claim over Q is unaffected"
        )
        return Certificate(
            params,
            config,
            claim,
            steps,
            INCONCLUSIVE,
            {"failed_premise": failed, "base_verdict": cert_q.verdict},
            [],
        )
    detail = dict(cert_q.verdict_detail)
    claims = [
        {
            "statement": claim,
            "checked": cert_q.verdict == DETERMINISTIC,
            "via": "CyclotomicDescent",
        }
    ]
    return Certificate(params, config, claim, steps, cert_q.verdict, detail, claims)


def certify_prym(
    p: int,
    r: int,
    samples: int = 2000,
    seed: int = 0,
    prime_budget: int = 500,
) -> Certificate:
    """Full pipeline for the family member (p, r, c=1).

    Establishes Gal(u(x^2) / Q(zeta_p)) = W(D_m) (deterministically for
    m >= 9, by sampling for m in {5, 7}), then checks every arithmetic
    premise of the endomorphism-ring and non-jacobian conclusions: r even,
    double transitivity of S_m, the normal-subgroup index condition, the
    eigenvalue multiplicity table (distinct, coprime, summing to dim Prym),
    the exact non-jacobian inequality, and the one-dimensionality of the
    commutant of W(D_m) on the odd function space mod p.  The geometric
    conclusions are attached as attributed claims, never as locally proved
    facts.
    """
    family = FamilyParams(p, r, 1)  # validates p, r
    m = family.m
    u = trinomial(m, 1)
    h = compose_x2(u)
    params = family.to_json()
    config = {
        "command": "verify",
        "p": p,
        "r": r,
        "samples": samples,
        "seed": seed,
        "prime_budget": prime_budget,
    }
    claim = f"Gal({format_poly(h)} / Q(zeta_{p})) = W(D_{m})"

    def cert(steps, verdict, detail, claims=None):
        return Certificate(params, config, claim, steps, verdict, detail, claims or [])

    if r % 2 != 0:
        return cert(
            [],
            INCONCLUSIVE,
            {"failed_premise": "r is even",
             "reason": "odd r makes m even and every eigenvalue multiplicity even"},
        )

    base = certify_wdm_over_Q(m, 1, samples, seed, prime_budget)
    if base.verdict in (REFUTED, INCONCLUSIVE):
        return cert(list(base.steps), base.verdict, dict(base.verdict_detail))

    ext = cyclotomic_descent(base, p, r)
    if ext.verdict == INCONCLUSIVE:
        return cert(list(ext.steps), INCONCLUSIVE, dict(ext.verdict_detail))

    steps = list(ext.steps)

    # arithmetic premises of the endomorphism-ring conclusion
    doubly_transitive = transitivity_degree(GroupDescriptor.symmetric(m), roots_u(m)) >= 2
    normal_ok = sm_normal_index_condition(m)
    p_coprime_2m = (2 * m) % p != 0
    cdim = commutant_dim(GroupDescriptor.wdm(m).generators(), odd_space(m, p))
    end_checks = [
        ("r is even", True, True),
        ("S_m is doubly transitive on the roots of u", doubly_transitive, True),
        ("S_m has no proper normal subgroup of index dividing m", normal_ok, True),
        ("p does not divide 2m", p_coprime_2m, True),
        ("commutant of W(D_m) on the odd function space mod p has dim", cdim, 1),
    ]
    end_premises = [_prem(fact, value) for fact, value, _ in end_checks]
    end_premises.append(_prem(f"Gal over Q(zeta_{p}) established", ext.verdict))
    for fact, value, expected in end_checks:
        if value != expected:
            return cert(steps, INCONCLUSIVE, {"failed_premise": fact})
    steps.append(
        RuleStep(
            rule="EndomorphismRing",
            conclusion=f"End(Prym) = Z[zeta_{p}]; Prym is absolutely simple",
            premises=end_premises,
        )
    )

    table = multiplicity_table(p, r)
    distinct = multiplicities_distinct(p, r)
    coprime = multiplicities_coprime(p, r)
    d = dim_prym(p, m)
    sum_ok = table.total() == d
    steps.append(
        RuleStep(
            rule="EigenvalueMultiplicities",
            conclusion="the automorphism eigenvalue multiplicities on the "
            "anti-invariant differentials are rj (j even) and rj-1 (j odd); "
            "they are pairwise distinct and coprime",
            premises=[
                _prem("multiplicity table", table.to_json()),
                _prem("multiplicities pairwise distinct", distinct),
                _prem("gcd of multiplicities is 1", coprime),
                _prem("multiplicities sum to dim Prym", sum_ok),
                _prem("dim Prym", d),
            ],
        )
    )
    if not (distinct and coprime and sum_ok):
        failed = (
            "multiplicities pairwise distinct"
            if not distinct
            else "gcd of multiplicities is 1" if not coprime
            else "multiplicities sum to dim Prym"
        )
        return cert(steps, INCONCLUSIVE, {"failed_premise": failed})

    inequality = non_jacobian_inequality(p, r)
    steps.append(
        RuleStep(
            rule="NonJacobian",
            conclusion="Prym is isomorphic neither to the jacobian of a smooth "
            "projective curve nor to a product of jacobians",
            premises=[
                _prem(
                    "r - 1 < (2 dim Prym)/(p(p-1)) - (p-2)/p (exact rationals)",
                    inequality,
                ),
                _prem("multiplicities pairwise distinct", distinct),
                _prem("smallest multiplicity", table.values()[0]),
            ],
        )
    )
    if not inequality:
        return cert(
            steps, INCONCLUSIVE, {"failed_premise": "non-jacobian inequality"}
        )

    checked_galois = ext.verdict == DETERMINISTIC
    claims = [
        {"statement": claim, "checked": checked_galois, "via": "CyclotomicDescent"},
        {"statement": f"dim Prym = {d}", "checked": True, "via": "EigenvalueMultiplicities"},
        {
            "statement": f"End(Prym) = Z[zeta_{p}]",
            "checked": False,
            "via": "EndomorphismRing",
        },
        {
            "statement": "Prym is an absolutely simple abelian variety",
            "checked": False,
            "via": "EndomorphismRing",
        },
        {
            "statement": "Prym is not isomorphic to the jacobian of a smooth "
            "projective curve",
            "checked": False,
            "via": "NonJacobian",
        },
        {
            "statement": "Prym is not isomorphic to a product of jacobians",
            "checked": False,
            "via": "NonJacobian",
        },
    ]
    detail = {}
    if ext.verdict == PROBABILISTIC:
        detail = dict(ext.verdict_detail)
    return cert(steps, ext.verdict, detail, claims)


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


def replay(doc: dict) -> Certificate:
    """Re-run the pipeline recorded in a certificate document from scratch."""
    cfg = doc["config"]
    command = cfg.get("command")
    if command == "verify":
        return certify_prym(
            cfg["p"], cfg["r"], cfg["samples"], cfg["seed"], cfg["prime_budget"]
        )
    if command == "galois-certify":
        return certify_wdm_over_Q(
            cfg["m"], cfg["c"], cfg["samples"], cfg["seed"], cfg["prime_budget"]
        )
    if command == "galois-descent":
        base = certify_wdm_over_Q(
            cfg["m"], cfg["c"], cfg["samples"], cfg["seed"], cfg["prime_budget"]
        )
        return cyclotomic_descent(base, cfg["p"], cfg["r"])
    raise ValueError(f"unknown certificate command {command!r}")


def verify_replay(doc: dict) -> bool:
    """Whether recomputing every leaf reproduces the document bit for bit."""
    fresh = replay(doc)
    return fresh.canonical() == json.dumps(doc, sort_keys=True, indent=2) + "\n"
