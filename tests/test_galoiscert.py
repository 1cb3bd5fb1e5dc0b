"""Certificate engine: rules, sampling soundness, descent, replay."""

import functools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import prymcert
from prymcert import intpoly
from prymcert.galoiscert import (
    Containment,
    _witness_walk,
    certify_prym,
    certify_wdm_over_Q,
    chebotarev_verdict,
    cyclotomic_descent,
    even_containment,
    find_refutation,
    replay,
    unramified_frobenius_samples,
    verify_replay,
)
from prymcert.intpoly import (
    RAMIFIED,
    CycleType,
    Irreducible,
    compose_x2,
    disc_of_even_composite,
    discriminant,
    irreducible_over_Q,
    is_square,
    parse_poly,
    primes,
    trinomial,
)
from prymcert.signedperm import (
    GroupDescriptor,
    IsSm,
    SignedPerm,
    census,
    in_wdm,
    induced_cycle_type,
    sm_certificate,
)


# ---------------------------------------------------------------------------
# containment
# ---------------------------------------------------------------------------


def test_even_containment():
    assert even_containment(trinomial(5, 1)) is Containment.CONTAINED
    assert even_containment(parse_poly("x^5 - x - 2")) is Containment.NOT_CONTAINED
    assert even_containment(parse_poly("x^4 - x - 1")) is Containment.INAPPLICABLE
    # over the cyclotomic field only the positive direction is modeled
    assert even_containment(trinomial(5, 1), cyclotomic_p=3) is Containment.CONTAINED
    assert even_containment(parse_poly("x^5 - x - 2"), cyclotomic_p=3) is Containment.NOT_CONCLUDED
    with pytest.raises(ValueError):
        even_containment(parse_poly("x^3 - x"))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sampler_skips_ramified_primes():
    h = parse_poly("x^6 - x^2 - 1")
    qs = [q for q, _ in unramified_frobenius_samples(h, 30)]
    assert len(qs) == 30 and sorted(qs) == qs
    # disc(h) = 33856 = 2^9 * ... : 2 must be skipped
    assert 2 not in qs


def test_chebotarev_consistent():
    rep = chebotarev_verdict(parse_poly("x^6 - x^2 - 1"), GroupDescriptor.wdm(3), 200)
    assert rep.consistent and rep.samples == 200
    assert rep.chi_square is not None and rep.dof == 3
    assert sum(row["count"] for row in rep.classes) == 200


def test_chebotarev_refutes_control_polynomial():
    rep = chebotarev_verdict(parse_poly("x^6 - x - 1"), GroupDescriptor.wdm(3), 50)
    assert not rep.consistent
    assert rep.refuting_prime is not None and rep.samples <= 50
    assert CycleType(rep.refuting_type) not in census(GroupDescriptor.wdm(3))


def test_chebotarev_guards():
    with pytest.raises(ValueError):
        chebotarev_verdict(parse_poly("x^6 - x^2 - 1"), GroupDescriptor.wdm(3), 0)
    with pytest.raises(ValueError):
        chebotarev_verdict(parse_poly("x^6 - x^2 - 1"), GroupDescriptor.wdm(4), 50)


def test_chebotarev_rejects_repeated_factor():
    # every prime is ramified, so the sampler would never yield
    for h, m in ((compose_x2(trinomial(3, 0)), 3), (parse_poly("x^4"), 2)):
        with pytest.raises(ValueError, match="not squarefree"):
            chebotarev_verdict(h, GroupDescriptor.wdm(m), 10)


def test_chebotarev_subsampling_is_seed_deterministic():
    h = parse_poly("x^6 - x^2 - 1")
    a = chebotarev_verdict(h, GroupDescriptor.wdm(3), 50, seed=1, pool=120)
    b = chebotarev_verdict(h, GroupDescriptor.wdm(3), 50, seed=1, pool=120)
    c = chebotarev_verdict(h, GroupDescriptor.wdm(3), 50, seed=2, pool=120)
    assert a.to_json() == b.to_json()
    assert a.prime_range != c.prime_range or a.classes != c.classes


def test_refutation_soundness_on_injected_types():
    # types of elements outside the census support must always refute
    rng = random.Random(77)
    m = 4
    support = set(census(GroupDescriptor.wdm(m)))
    injected = []
    while len(injected) < 50:
        g = SignedPerm.random(m, rng)
        if in_wdm(g):
            continue
        t = induced_cycle_type(g)
        if t not in support:
            injected.append(t)
    for t in injected:
        assert find_refutation([t], support) == t
    # and a stream of in-support types never refutes
    good = list(census(GroupDescriptor.wdm(m)))
    assert find_refutation(good, support) is None


# ---------------------------------------------------------------------------
# rational certification
# ---------------------------------------------------------------------------


def test_deterministic_certificate_m11():
    cert = certify_wdm_over_Q(11, 1)
    assert cert.verdict == "Deterministic"
    assert cert.claim == "Gal(x^22 - x^2 - 1 / Q) = W(D_11)"
    rules = [s.rule for s in cert.steps]
    assert rules == ["SmCert", "IrredX2", "EvenContainment", "IrredDelta", "SquareRoot", "TwoGroup"]


def test_deterministic_certificate_m9_c9():
    cert = certify_wdm_over_Q(9, 9)
    assert cert.verdict == "Deterministic"


def test_probabilistic_certificate_m5():
    cert = certify_wdm_over_Q(5, 1, samples=150)
    assert cert.verdict == "Probabilistic"
    samp = cert.verdict_detail["sampling"]
    assert samp["consistent"] and samp["samples"] == 150
    assert "ChebotarevVerdict" in [s.rule for s in cert.steps]


def test_probabilistic_never_deterministic_below_nine():
    for m, c in ((3, 1), (5, 9), (7, 1)):
        cert = certify_wdm_over_Q(m, c, samples=60)
        assert cert.verdict != "Deterministic", (m, c)


def test_refuted_when_containment_fails():
    cert = certify_wdm_over_Q(5, 3, samples=60)
    assert cert.verdict == "Refuted"
    assert cert.verdict_detail["failed_premise"] == "-u(0) is a square in Q"


def test_input_validation_rejects_even_parameters():
    with pytest.raises(ValueError):
        certify_wdm_over_Q(4, 1)
    with pytest.raises(ValueError):
        certify_wdm_over_Q(5, 2)
    with pytest.raises(ValueError):
        certify_wdm_over_Q(5, 0)


# ---------------------------------------------------------------------------
# descent
# ---------------------------------------------------------------------------


def test_descent_success():
    base = certify_wdm_over_Q(11, 1)
    ext = cyclotomic_descent(base, 3, 4)
    assert ext.verdict == "Deterministic"
    assert ext.claim == "Gal(x^22 - x^2 - 1 / Q(zeta_3)) = W(D_11)"
    assert ext.steps[-1].rule == "CyclotomicDescent"


def test_descent_refused_when_condition_fails():
    base = certify_wdm_over_Q(19, 1)
    assert base.verdict == "Deterministic"
    ext = cyclotomic_descent(base, 5, 4)  # 5 divides 1 + 2^2
    assert ext.verdict == "Inconclusive"
    assert "condition (3)" in ext.verdict_detail["failed_premise"]
    assert ext.verdict_detail["base_verdict"] == "Deterministic"


def test_descent_never_upgrades_probabilistic():
    base = certify_wdm_over_Q(5, 1, samples=100)
    ext = cyclotomic_descent(base, 3, 2)
    assert ext.verdict == "Probabilistic"


def test_descent_preconditions():
    base = certify_wdm_over_Q(11, 1)
    with pytest.raises(ValueError):
        cyclotomic_descent(base, 3, 2)  # m mismatch: 3*2-1 = 5 != 11
    with pytest.raises(ValueError):
        cyclotomic_descent(base, 4, 3)
    refuted = certify_wdm_over_Q(5, 3, samples=60)
    with pytest.raises(ValueError):
        cyclotomic_descent(refuted, 3, 2)


# ---------------------------------------------------------------------------
# the full pipeline
# ---------------------------------------------------------------------------


def test_prym_pipeline_deterministic():
    cert = certify_prym(3, 4)
    assert cert.verdict == "Deterministic"
    assert cert.params == {"p": 3, "r": 4, "m": 11, "n": 23, "c": 1}
    rules = [s.rule for s in cert.steps]
    assert rules[-3:] == ["EndomorphismRing", "EigenvalueMultiplicities", "NonJacobian"]
    statements = [c["statement"] for c in cert.claims]
    assert "End(Prym) = Z[zeta_3]" in statements
    assert "dim Prym = 11" in statements
    checked = {c["statement"]: c["checked"] for c in cert.claims}
    assert checked["Gal(x^22 - x^2 - 1 / Q(zeta_3)) = W(D_11)"] is True
    assert checked["End(Prym) = Z[zeta_3]"] is False  # attributed, not re-proved


def test_prym_pipeline_requires_even_r():
    cert = certify_prym(3, 3)
    assert cert.verdict == "Inconclusive"
    assert cert.verdict_detail["failed_premise"] == "r is even"


def test_prym_pipeline_descent_failure():
    cert = certify_prym(5, 4)
    assert cert.verdict == "Inconclusive"
    assert "condition (3)" in cert.verdict_detail["failed_premise"]


def test_prym_pipeline_rejects_bad_parameters():
    with pytest.raises(ValueError):
        certify_prym(4, 2)
    with pytest.raises(ValueError):
        certify_prym(3, 1)


def test_prym_probabilistic_branch():
    cert = certify_prym(3, 2, samples=100)
    assert cert.verdict == "Probabilistic"
    assert cert.verdict_detail["sampling"]["consistent"]
    statements = [c["statement"] for c in cert.claims]
    assert "End(Prym) = Z[zeta_3]" in statements


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


def test_replay_reproduces_deterministic_certificate():
    cert = certify_prym(3, 4)
    doc = json.loads(cert.canonical())
    assert verify_replay(doc)


def test_replay_reproduces_wdm_certificate():
    cert = certify_wdm_over_Q(5, 1, samples=60)
    doc = json.loads(cert.canonical())
    fresh = replay(doc)
    assert fresh.canonical() == cert.canonical()


def test_replay_descent_document():
    base = certify_wdm_over_Q(5, 1, samples=60)
    ext = cyclotomic_descent(base, 3, 2)
    doc = json.loads(ext.canonical())
    assert verify_replay(doc)


def test_replay_detects_tampering():
    cert = certify_wdm_over_Q(5, 1, samples=60)
    doc = json.loads(cert.canonical())
    doc["verdict"]["kind"] = "Deterministic"
    assert not verify_replay(doc)


def test_certificate_schema():
    doc = certify_prym(3, 4).to_json()
    assert doc["version"] == "prym-cert/1"
    assert set(doc) == {"version", "tool", "params", "config", "claim", "steps", "verdict", "claims"}
    for step in doc["steps"]:
        assert set(step) == {"rule", "premises", "conclusion"}
        for prem in step["premises"]:
            assert set(prem) == {"fact", "value"}


def test_frobenius_sampler_rejects_repeated_factor():
    # every prime is ramified, so an unguarded stream would never yield; the
    # subprocess timeout turns a hang into a failure instead of a stuck suite
    code = (
        "from prymcert.galoiscert import unramified_frobenius_samples\n"
        "from prymcert.intpoly import compose_x2, parse_poly, trinomial\n"
        "for h in (parse_poly('x^4'), compose_x2(trinomial(3, 0))):\n"
        "    try:\n"
        "        next(unramified_frobenius_samples(h, 10))\n"
        "    except ValueError as exc:\n"
        "        assert 'not squarefree' in str(exc), exc\n"
        "    else:\n"
        "        raise SystemExit('no ValueError')\n"
    )
    src = str(Path(prymcert.__file__).resolve().parents[1])  # the package under test
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=60)
    assert res.returncode == 0, res.stderr.decode()


# ---------------------------------------------------------------------------
# one prime walk per polynomial
# ---------------------------------------------------------------------------


def _separate_scans(u, budget):
    """First irreducibility witness and first Jordan prime, each by its own loop."""
    disc = discriminant(u)
    witness = jordan = None
    for q in primes():
        if q > budget:
            break
        if u.lc % q == 0:
            continue
        ct = intpoly.reduce_and_factor_degrees(u, q)
        if ct is RAMIFIED:
            continue
        if witness is None and ct == CycleType([u.degree]):
            witness = q
        if jordan is None and isinstance(
            sm_certificate([ct], is_square(disc), True, u.degree), IsSm
        ):
            jordan = q
        if witness and jordan:
            break
    return witness, jordan


def test_witness_walk_matches_separate_scans(monkeypatch):
    # the walk's bookkeeping is under test, not the kernel (checked against
    # sympy elsewhere): every scan here shares one memo of the factor degrees
    memo = functools.lru_cache(maxsize=None)(intpoly.reduce_and_factor_degrees)
    monkeypatch.setattr(intpoly, "reduce_and_factor_degrees", memo)
    members = [(m, 1) for m in range(9, 62, 2)] + [(9, 9), (11, 25)]
    cut = [0, 0]  # budgets that cut off the irreducibility / the Jordan witness
    for m, c in members:
        u = trinomial(m, c)
        disc = discriminant(u)
        full = _separate_scans(u, 500)
        # the default budget, then budgets that cut off each witness in turn
        budgets = {500, 2} | {q - 1 for q in full if q is not None}
        for budget in sorted(budgets):
            witness, jordan = _witness_walk(u, disc, budget)
            expected = _separate_scans(u, budget)
            assert (witness, jordan and jordan[0]) == expected, (m, c, budget)
            verdict = irreducible_over_Q(u, budget)
            assert witness == (verdict.witness if isinstance(verdict, Irreducible) else None)
            if jordan is not None:
                sm = sm_certificate([memo(u, jordan[0])], False, True, m)
                assert jordan[1] == sm
            cut = [k + (q is None) for k, q in zip(cut, expected)]
    assert _separate_scans(trinomial(9, 1), 3) == (2, None)
    assert _separate_scans(trinomial(13, 1), 5) == (3, None)
    assert min(cut) >= len(members)


def test_chain_requests_each_factorization_once(monkeypatch):
    original = intpoly.reduce_and_factor_degrees
    requests = []

    def counted(f, q):
        requests.append((f.coeffs, q))
        return original(f, q)

    sites = [
        (module, name)
        for module_name, module in sorted(sys.modules.items())
        if module_name == "prymcert" or module_name.startswith("prymcert.")
        for name, value in vars(module).items()
        if value is original
    ]
    assert (intpoly, "reduce_and_factor_degrees") in sites
    for module, name in sites:
        monkeypatch.setattr(module, name, counted)
    for run in (lambda: certify_prym(3, 8), lambda: certify_wdm_over_Q(29, 1)):
        requests.clear()
        assert run().verdict == "Deterministic"
        assert requests and len(set(requests)) == len(requests)


def test_descent_disc_route_at_m29():
    step = cyclotomic_descent(certify_wdm_over_Q(29, 1), 3, 10).steps[-1]
    premises = {prem["fact"]: prem["value"] for prem in step.premises}
    assert premises["disc route"] == "subresultant PRS, cross-checked against the closed form"
    disc_h = discriminant(compose_x2(trinomial(29, 1)))
    assert premises["disc(u(x^2))"] == disc_h == disc_of_even_composite(29, 1)
