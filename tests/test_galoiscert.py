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
from prymcert import galoiscert, intpoly
from prymcert.galoiscert import (
    _REPLAY_KEYS,
    DET_MIN_M,
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
    is_prime,
    is_square,
    parse_poly,
    primes,
    trinomial,
    trinomial_disc,
)
from prymcert.prymcalc import ConditionPR
from prymcert.signedperm import (
    EnumerationBudgetError,
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


def test_sampling_refuses_an_over_budget_census_before_the_discriminant(monkeypatch):
    def no_disc(f):
        raise AssertionError("disc(h) computed before the census budget was checked")

    monkeypatch.setattr(galoiscert, "discriminant", no_disc)
    with pytest.raises(EnumerationBudgetError):
        chebotarev_verdict(parse_poly("x^18 - x^2 - 1"), GroupDescriptor.wdm(9), 10)


def test_chebotarev_subsampling_is_seed_deterministic():
    h = parse_poly("x^6 - x^2 - 1")
    a = chebotarev_verdict(h, GroupDescriptor.wdm(3), 50, seed=1, pool=120)
    b = chebotarev_verdict(h, GroupDescriptor.wdm(3), 50, seed=1, pool=120)
    c = chebotarev_verdict(h, GroupDescriptor.wdm(3), 50, seed=2, pool=120)
    assert a.to_json() == b.to_json()
    assert a.prime_range != c.prime_range or a.classes != c.classes


def test_a_lone_2m_cycle_is_refuted():
    # one m-cycle of sign -1 lifts to one 2m-cycle, whose sign product is odd:
    # no element of W(D_m) has type [2m], through find_refutation or sampling
    for m in (3, 5):
        support = set(census(GroupDescriptor.wdm(m)))
        lone = CycleType([2 * m])
        assert find_refutation([lone], support) == lone
        assert find_refutation([CycleType([m, m]), lone], support) == lone


def test_chebotarev_verdict_refutes_a_lone_2m_cycle(monkeypatch):
    for m in (3, 5):
        stream = [(q, CycleType([2 * m])) for q in (101, 103)]
        monkeypatch.setattr(galoiscert, "unramified_frobenius_samples", lambda h, n: iter(stream))
        report = chebotarev_verdict(compose_x2(trinomial(m, 1)), GroupDescriptor.wdm(m), 10)
        assert not report.consistent
        assert (report.refuting_prime, report.refuting_type, report.samples) == (101, [2 * m], 1)


def test_jordan_window_holds_a_prime_exactly_from_det_min_m():
    # _witness_walk looks for a Jordan prime from DET_MIN_M on (disc(u) not a
    # square): for odd m that is where sm_certificate's window (m/2, m - 2)
    # first holds a prime
    for m in range(3, 400, 2):
        assert any(map(is_prime, range(m // 2 + 1, m - 2))) == (m >= DET_MIN_M), m


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


def test_every_premise_is_computed_with_no_cited_heart():
    certs = [certify_prym(p, r) for p, r in ((5, 2), (3, 4), (7, 2), (11, 2), (3, 8), (5, 4))]
    certs += [certify_wdm_over_Q(m, 1) for m in (15, 29)]
    for cert in certs:
        values = [(s.rule, pr["fact"], pr["value"]) for s in cert.steps for pr in s.premises]
        assert not [v for v in values if "cited" in str(v[2])], cert.params
        heart = [v for rule, fact, v in values if rule == "TwoGroup" and "F_2-module" in fact]
        assert heart == [True], cert.params


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


def test_descent_validates_p_and_r_as_the_family_does():
    base = certify_wdm_over_Q(5, 1, samples=60)
    with pytest.raises(ValueError, match="r must be an integer >= 2, got 1"):
        cyclotomic_descent(base, 3, 1)
    with pytest.raises(ValueError, match="p must be an odd prime, got 2"):
        cyclotomic_descent(base, 2, 3)
    assert cyclotomic_descent(base, 3, 2).params == {"p": 3, "r": 2, "m": 5, "n": 11, "c": 1}


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


def test_replay_reproduces_failure_path_certificates():
    # the Inconclusive and Refuted documents replay bit for bit, each with
    # the rules its run applied, and a config of exactly the keys replay reads
    chain = ["SmCert", "IrredX2", "EvenContainment", "IrredDelta", "SquareRoot", "TwoGroup"]
    cases = [
        (lambda: certify_prym(3, 3), "Inconclusive", []),  # r odd
        (lambda: certify_prym(5, 4), "Inconclusive", [*chain, "CyclotomicDescent"]),
        (lambda: certify_prym(7, 8), "Inconclusive", ["EvenContainment"]),  # no witness
        (lambda: certify_wdm_over_Q(9, 3), "Refuted", ["EvenContainment"]),
        (lambda: certify_wdm_over_Q(11, 1, prime_budget=5), "Inconclusive", ["EvenContainment"]),
        (lambda: certify_wdm_over_Q(9, 1, prime_budget=3), "Inconclusive", ["EvenContainment"]),
        (lambda: cyclotomic_descent(certify_wdm_over_Q(19, 1), 5, 4), "Inconclusive",
         [*chain, "CyclotomicDescent"]),  # 5 divides 1 + 2^2
    ]
    for run, verdict, rules in cases:
        cert = run()
        assert (cert.verdict, [step.rule for step in cert.steps]) == (verdict, rules)
        doc = json.loads(cert.canonical())
        assert set(doc["config"]) == {"command", *_REPLAY_KEYS[doc["config"]["command"]]}
        assert verify_replay(doc), cert.config


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
    original = intpoly._factor_degrees
    kernel = functools.lru_cache(maxsize=None)(lambda f, q, s: original(list(f), q, s))
    monkeypatch.setattr(intpoly, "_factor_degrees", lambda f, q, s: kernel(tuple(f), q, s))
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


def _log_factorizations(monkeypatch):
    """The list of (f, q, s) that the factor-degree kernel is asked for.

    Every factorization, by reduce_and_factor_degrees or by the prime walk,
    runs the one kernel, so the log sees them all.
    """
    original = intpoly._factor_degrees
    requests = []

    def counted(f, q, s):
        requests.append((tuple(f), q, s))
        return original(f, q, s)

    sites = [
        (module, name)
        for module_name, module in sorted(sys.modules.items())
        if module_name == "prymcert" or module_name.startswith("prymcert.")
        for name, value in list(vars(module).items())
        if value is original
    ]
    assert (intpoly, "_factor_degrees") in sites
    for module, name in sites:
        monkeypatch.setattr(module, name, counted)
    return requests


def test_chain_requests_each_factorization_once(monkeypatch):
    requests = _log_factorizations(monkeypatch)
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


def test_failure_path_requests_each_factorization_once(monkeypatch):
    requests = _log_factorizations(monkeypatch)
    # budgets below the first irreducibility witness (q = 7, 19, 269, 11), and
    # (9, 1, 3), which has its witness q = 2 but no Jordan prime below 5
    for m, c, budget in ((11, 1, 5), (19, 1, 17), (27, 1, 200), (11, 25, 7), (9, 1, 3)):
        requests.clear()
        cert = certify_wdm_over_Q(m, c, prime_budget=budget)
        assert cert.verdict == "Inconclusive"
        assert requests and len(set(requests)) == len(requests), (m, c, budget)
        if m != 9:
            # the detail is what irreducible_over_Q would have said
            assert cert.verdict_detail["failed_premise"] == "u is irreducible over Q"
            expected = repr(irreducible_over_Q(trinomial(m, c), budget))
            assert cert.verdict_detail["detail"] == expected == "Inconclusive()"
        # no walk factors a prime past the budget, not even the first one
        assert max(q for _, q, _ in requests) <= budget, (m, c, budget)


def test_small_m_chain_takes_irred_x2_from_the_walk(monkeypatch):
    # for m <= 7 the IrredX2 witness comes from the one walk over u: no
    # irreducible_over_Q (a second rational-root test, disc(u) and walk),
    # and u is factored only at primes up to its witness, each once
    requests = _log_factorizations(monkeypatch)
    original = intpoly.irreducible_over_Q
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module_name, module in sorted(sys.modules.items()):
        if module_name == "prymcert" or module_name.startswith("prymcert."):
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, counted)
    cert = certify_prym(3, 2)
    assert cert.verdict == "Probabilistic"
    assert calls == []
    (irred_x2,) = [step for step in cert.steps if step.rule == "IrredX2"]
    premises = {prem["fact"]: prem["value"] for prem in irred_x2.premises}
    witness = premises["u irreducible over Q (witness prime)"]
    u_primes = [q for f, q, s in requests if s == 1 and len(f) == 6]  # u = x^5 - x - 1
    assert u_primes == sorted(set(u_primes)) and u_primes[-1] == witness


def test_refuted_sampling_stops_at_the_refuting_prime(monkeypatch):
    # x^14 - x - 1 is not even, so its type at q = 2 is outside W(D_7): the
    # run ends there, and no later prime of the 2000 requested is factored
    requests = _log_factorizations(monkeypatch)
    h = parse_poly("x^14 - x - 1")
    report = chebotarev_verdict(h, GroupDescriptor.wdm(7), 2000)
    assert not report.consistent and report.refuting_prime == 2
    assert [q for _, q, _ in requests] == [2]
    assert report.to_json() == chebotarev_verdict(h, GroupDescriptor.wdm(7), 20).to_json()


def test_sampling_runs_factor_only_primes_up_to_2n(monkeypatch):
    # the two sampling runs of the benchmark's ddf-mix (m = 5 and 7, 2000
    # primes): a prime q > 2n = 2m takes its type from the traces of its
    # batch's Frobenius map, so only the primes q <= 2m reach the DDF kernel.
    # For m = 7 the batch [11, 13, 17, 19] straddles 2m = 14.
    requests = _log_factorizations(monkeypatch)
    original = intpoly._Frobenius
    batches = []

    def logged(f, batch, s):
        batches.append(list(batch))
        return original(f, batch, s)

    monkeypatch.setattr(intpoly, "_Frobenius", logged)
    for m, small in ((5, [3, 5, 7]), (7, [3, 5, 7, 11, 13])):
        requests.clear()
        report = chebotarev_verdict(compose_x2(trinomial(m, 1)), GroupDescriptor.wdm(m), 2000)
        assert report.consistent and report.samples == 2000
        assert [(q, s) for _, q, s in requests] == [(q, 2) for q in small]
    assert [11, 13, 17, 19] in batches


def _mutated(doc, mutate):
    doc = json.loads(json.dumps(doc))
    mutate(doc)
    return doc


def test_replay_rejects_malformed_config_by_name():
    docs = {
        "verify": json.loads(certify_prym(5, 2).canonical()),
        "galois-descent": json.loads(
            cyclotomic_descent(certify_wdm_over_Q(5, 1, samples=60), 3, 2).canonical()
        ),
    }
    mutations = [
        ("verify", lambda d: d.pop("config"), "config must be an object, got NoneType"),
        ("verify", lambda d: d.update(config=5), "config must be an object, got int"),
        ("verify", lambda d: d["config"].pop("p"), "config has no 'p'"),
        ("verify", lambda d: d["config"].pop("prime_budget"), "config has no 'prime_budget'"),
        ("verify", lambda d: d["config"].update(p="x"), "'p' must be an integer, got str"),
        ("verify", lambda d: d["config"].update(samples=2.5), "'samples' must be an integer, got float"),
        ("verify", lambda d: d["config"].update(seed=None), "'seed' must be an integer, got NoneType"),
        ("verify", lambda d: d["config"].update(command="x"), "unknown certificate command 'x'"),
        ("verify", lambda d: d["config"].update(command=[1]), r"unknown certificate command \[1\]"),
        ("galois-descent", lambda d: d["config"].pop("m"), "config has no 'm'"),
        ("galois-descent", lambda d: d["config"].pop("r"), "config has no 'r'"),
        ("galois-descent", lambda d: d["config"].update(c=True), "'c' must be an integer, got bool"),
    ]
    for command, mutate, message in mutations:
        assert docs[command]["config"]["command"] == command
        with pytest.raises(ValueError, match=message.replace("(", r"\(")):
            replay(_mutated(docs[command], mutate))
    with pytest.raises(ValueError, match="certificate must be an object, got list"):
        replay([])
    assert verify_replay(docs["verify"])  # the unmutated documents still replay


def test_walk_powers_no_prime_past_the_budget_or_the_refuting_prime(monkeypatch):
    # the walk shares one Frobenius map per batch of primes; log the batches
    original = intpoly._Frobenius
    batches = []

    def logged(f, batch, s):
        batches.append(list(batch))
        return original(f, batch, s)

    monkeypatch.setattr(intpoly, "_Frobenius", logged)
    assert certify_wdm_over_Q(11, 1, prime_budget=5).verdict == "Inconclusive"
    assert batches and max(max(batch) for batch in batches) <= 5
    batches.clear()
    report = chebotarev_verdict(parse_poly("x^14 - x - 1"), GroupDescriptor.wdm(7), 2000)
    assert report.refuting_prime == 2 and batches == [[2]]


# ---------------------------------------------------------------------------
# the guard rule: every exit of the two certify functions
# ---------------------------------------------------------------------------

_HEART = ("sum-zero F_2-module of A_m is irreducible (weight-2 spin "
          "and one 3-cycle per even weight)")
_FORCED_GUARDS = [
    ("_heart_is_irreducible", lambda m: False, "TwoGroup", _HEART),
    ("transitivity_degree", lambda group, roots: 1, "EndomorphismRing",
     "S_m is doubly transitive on the roots of u"),
    ("sm_normal_index_condition", lambda m: False, "EndomorphismRing",
     "S_m has no proper normal subgroup of index dividing m"),
    ("commutant_dim", lambda gens, space: 2, "EndomorphismRing",
     "commutant of W(D_m) on the odd function space mod p has dim"),
    ("multiplicities_distinct", lambda p, r: False, "EigenvalueMultiplicities",
     "multiplicities pairwise distinct"),
    ("multiplicities_coprime", lambda p, r: False, "EigenvalueMultiplicities",
     "gcd of multiplicities is 1"),
    ("non_jacobian_inequality", lambda p, r: False, "NonJacobian",
     "r - 1 < (2 dim Prym)/(p(p-1)) - (p-2)/p (exact rationals)"),
]


@pytest.mark.parametrize("leaf, forced, rule, fact", _FORCED_GUARDS,
                         ids=[case[0] for case in _FORCED_GUARDS])
def test_a_failed_premise_ends_the_chain_at_its_step(monkeypatch, leaf, forced, rule, fact):
    monkeypatch.setattr(galoiscert, leaf, forced)
    cert = certify_prym(3, 4)
    assert cert.verdict == "Inconclusive"
    assert cert.verdict_detail == {"failed_premise": fact}
    assert cert.steps[-1].rule == rule  # the failing step is in the chain
    assert fact in [prem["fact"] for prem in cert.steps[-1].premises]
    assert cert.claims == []
    assert verify_replay(json.loads(cert.canonical()))


def _census_without_observed_types(target):
    return {CycleType([1] * (2 * target.m)): 1}


_OTHER_EXITS = [
    # (name, leaf, replacement, certify call, verdict, failed premise, last rule)
    ("squarefree", "discriminant", lambda f: 0, (certify_prym, 3, 4),
     "Inconclusive", "u is squarefree", None),
    ("disc-odd", "discriminant", lambda f: 2 * discriminant(f), (certify_prym, 3, 4),
     "Inconclusive", "disc(u) odd, so the quadratic field is unramified at 2", "IrredDelta"),
    ("disc-square", "is_square", lambda n: True, (certify_prym, 3, 4),
     "Inconclusive", "disc(u) is not a square", "EvenContainment"),
    ("composite", "_composite_rule", lambda u, irreducibility: intpoly.NotApplicable("forced"),
     (certify_prym, 3, 4), "Inconclusive", "the composite irreducibility rule applies",
     "EvenContainment"),
    ("sampling", "census", _census_without_observed_types, (certify_wdm_over_Q, 5, 1),
     "Refuted", "all sampled cycle types possible in W(D_m)", "ChebotarevVerdict"),
]


@pytest.mark.parametrize("leaf, forced, call, verdict, fact, rule",
                         [case[1:] for case in _OTHER_EXITS],
                         ids=[case[0] for case in _OTHER_EXITS])
def test_every_other_exit_names_its_premise(monkeypatch, leaf, forced, call, verdict, fact, rule):
    monkeypatch.setattr(galoiscert, leaf, forced)
    certify, *args = call
    cert = certify(*args)
    assert cert.verdict == verdict
    assert cert.verdict_detail["failed_premise"] == fact
    assert (cert.steps[-1].rule if cert.steps else None) == rule
    assert cert.claims == []
    assert verify_replay(json.loads(cert.canonical()))


def test_deterministic_certificates_hold_every_boolean_premise():
    for p, r in ((5, 2), (3, 4), (7, 2), (11, 2), (3, 8)):
        cert = certify_prym(p, r)
        assert cert.verdict == "Deterministic", (p, r)
        for step in cert.steps:
            for prem in step.premises:
                if type(prem["value"]) is not bool or prem["fact"].startswith("shortcut:"):
                    continue  # the descent's shortcuts are reported, not required
                expected = prem["fact"] != "disc(u) is a square"  # SmCert needs a non-square
                assert prem["value"] is expected, (p, r, step.rule, prem["fact"])


def test_a_pool_below_samples_samples_the_first_samples_primes():
    h = parse_poly("x^6 - x^2 - 1")
    plain = chebotarev_verdict(h, GroupDescriptor.wdm(3), 100, seed=1).to_json()
    assert plain["samples"] == 100
    for pool in (50, -1):
        report = chebotarev_verdict(h, GroupDescriptor.wdm(3), 100, seed=1, pool=pool)
        assert report.to_json() == plain


# ---------------------------------------------------------------------------
# the descent's second premise: equivalent to condition (3), reached only forced
# ---------------------------------------------------------------------------


def test_descent_congruence_makes_the_disc_premise_condition_3():
    # m = pr - 1 = -1 (mod p) and Fermat: p | disc(u) exactly when p | 1 + 2^(r-2)
    for p in primes(3):
        if p > 61:
            break
        for r in range(2, 41, 2):
            m = p * r - 1
            sign = (-1) ** (m * (m - 1) // 2)
            assert trinomial_disc(m, 1) % p == -sign * (1 + 2 ** (r - 2)) % p, (p, r)


def _passing_condition(p, r):
    return ConditionPR(p, r, 1, True, False, False)


_FORCED_DESCENTS = {
    "certify_prym": lambda: certify_prym(5, 4),
    "cyclotomic_descent": lambda: cyclotomic_descent(certify_wdm_over_Q(19, 1), 5, 4),
}


@pytest.mark.parametrize("name", list(_FORCED_DESCENTS))
def test_a_failed_disc_premise_ends_the_descent(monkeypatch, name):
    monkeypatch.setattr(galoiscert, "condition_p_r", _passing_condition)
    cert = _FORCED_DESCENTS[name]()
    assert cert.verdict == "Inconclusive"
    assert cert.verdict_detail == {"failed_premise": "p does not divide disc(u(x^2))",
                                   "base_verdict": "Deterministic"}
    assert cert.steps[-1].rule == "CyclotomicDescent"
    assert cert.claims == []
    assert verify_replay(json.loads(cert.canonical()))


def test_a_refuted_base_ends_verify_before_the_descent(monkeypatch):
    monkeypatch.setattr(galoiscert, "census", _census_without_observed_types)
    cert = certify_prym(3, 2, samples=100)
    assert cert.verdict == "Refuted"
    assert cert.steps[-1].rule == "ChebotarevVerdict"
    assert cert.claims == []
    assert verify_replay(json.loads(cert.canonical()))


def test_descent_refuses_an_inconclusive_base():
    base = certify_wdm_over_Q(11, 1, prime_budget=5)
    assert base.verdict == "Inconclusive"
    with pytest.raises(ValueError, match="does not establish the claim over Q"):
        cyclotomic_descent(base, 3, 4)


def test_even_containment_rejects_a_repeated_factor():
    with pytest.raises(ValueError, match="u must be squarefree"):
        even_containment(parse_poly("x^3 - x^2 - x + 1"))  # (x - 1)^2 (x + 1)


# ---------------------------------------------------------------------------
# the rule table: every step is built from _RULES and judged by it
# ---------------------------------------------------------------------------

_TABLE_CERTIFICATES = {
    **{f"prym({p},{r})": functools.partial(certify_prym, p, r)
       for p, r in ((5, 2), (3, 4), (7, 2), (11, 2), (3, 8), (3, 2), (5, 4), (7, 8))},
    "wdm(9,3)": functools.partial(certify_wdm_over_Q, 9, 3),
    "wdm(11,1,budget 5)": functools.partial(certify_wdm_over_Q, 11, 1, prime_budget=5),
}


def _table_premises(cert, step):
    """The (fact, required) premises of the one _RULES entry that built the step."""
    facts = [prem["fact"] for prem in step.premises]
    entries = [
        [(fact.format(**cert.params), req) for fact, req in premises]
        for key, (_, premises) in galoiscert._RULES.items()
        if key.partition(":")[0] == step.rule
    ]
    matches = [premises for premises in entries if [fact for fact, _ in premises] == facts]
    assert len(matches) == 1, (step.rule, facts)
    return matches[0]


@pytest.mark.parametrize("name", list(_TABLE_CERTIFICATES))
def test_every_step_comes_from_the_table_and_meets_it(name):
    cert = _TABLE_CERTIFICATES[name]()
    for step in cert.steps:
        premises = _table_premises(cert, step)
        if cert.verdict == "Deterministic":
            for (fact, req), prem in zip(premises, step.premises):
                assert req is None or prem["value"] == req, (name, step.rule, fact)


def test_the_table_tells_a_reported_false_from_a_required_one():
    rules = galoiscert._RULES
    assert dict(rules["CyclotomicDescent"][1])["shortcut: 2^(r-2) < p-1"] is None
    assert dict(rules["SmCert"][1])["disc(u) is a square"] is False
    values = {prem["fact"]: prem["value"] for step in certify_prym(3, 4).steps
              for prem in step.premises}
    assert values["shortcut: 2^(r-2) < p-1"] is False  # reported in a Deterministic chain
    assert values["disc(u) is a square"] is False  # required


def _first_unmet(cert):
    step = cert.steps[-1]
    return next(fact for (fact, req), prem in zip(_table_premises(cert, step), step.premises)
                if req is not None and prem["value"] != req)


@pytest.mark.parametrize("leaf, forced, p, r",
                         [(*case[:2], 3, 4) for case in _FORCED_GUARDS] + [(None, None, 5, 4)],
                         ids=[case[0] for case in _FORCED_GUARDS] + ["descent(5,4)"])
def test_a_guarded_exit_names_the_first_unmet_premise_of_its_last_step(
    monkeypatch, leaf, forced, p, r
):
    if leaf is not None:
        monkeypatch.setattr(galoiscert, leaf, forced)
    cert = certify_prym(p, r)
    assert cert.verdict == "Inconclusive"
    assert cert.verdict_detail["failed_premise"] == _first_unmet(cert)


_REQUIRED = [(key, i) for key, (_, premises) in galoiscert._RULES.items()
             for i, (_, req) in enumerate(premises) if req is not None]


def _flip_required(monkeypatch, key, index):
    """Require a value no premise can have at one table premise; return its fact."""
    conclusion, premises = galoiscert._RULES[key]
    flipped = list(premises)
    flipped[index] = (premises[index][0], object())
    monkeypatch.setitem(galoiscert._RULES, key, (conclusion, tuple(flipped)))
    return premises[index][0]


@pytest.mark.parametrize("key, index", _REQUIRED,
                         ids=[f"{key}[{index}]" for key, index in _REQUIRED])
def test_flipping_a_required_value_ends_the_chain(monkeypatch, key, index):
    _flip_required(monkeypatch, key, index)
    cert = certify_prym(3, 4)
    assert cert.verdict != "Deterministic"
    assert cert.claims == []


@pytest.mark.parametrize("index", [i for key, i in _REQUIRED if key == "IrredX2"])
def test_flipping_an_irred_x2_required_ends_the_sampling_chain(monkeypatch, index):
    fact = _flip_required(monkeypatch, "IrredX2", index)
    cert = certify_wdm_over_Q(5, 1, samples=100)
    assert cert.verdict == "Inconclusive"
    assert cert.steps[-1].rule == "IrredX2"
    assert cert.verdict_detail == {"failed_premise": fact}
    assert cert.claims == []


def test_the_descent_cross_check_survives_python_O(monkeypatch):
    monkeypatch.setattr(galoiscert, "disc_of_even_composite", lambda m, c: 12345)
    with pytest.raises(AssertionError, match="closed form disagrees with subresultants"):
        certify_prym(3, 4)
    code = (
        "from prymcert import galoiscert\n"
        "galoiscert.disc_of_even_composite = lambda m, c: 12345\n"
        "print(galoiscert.certify_prym(3, 4).verdict)\n"
    )
    src = str(Path(prymcert.__file__).resolve().parents[1])  # the package under test
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    res = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                         timeout=60)
    assert res.returncode != 0, res.stdout.decode()
    assert b"closed form disagrees with subresultants" in res.stderr


@pytest.mark.parametrize("call", [
    functools.partial(certify_wdm_over_Q, 3, 1, prime_budget=1),
    functools.partial(certify_wdm_over_Q, 5, 1, prime_budget=2),
    functools.partial(certify_wdm_over_Q, 7, 1, prime_budget=1),
    functools.partial(certify_prym, 3, 2, prime_budget=1),
], ids=["m=3,b=1", "m=5,b=2", "m=7,b=1", "verify(3,2),b=1"])
def test_no_irreducibility_witness_ends_every_m_inconclusive(call):
    # below u's witness prime IrredX2 has no premise to stand on, so m < DET_MIN_M
    # ends as m >= DET_MIN_M does, before any sampling
    cert = call()
    assert cert.verdict == "Inconclusive"
    assert cert.verdict_detail["failed_premise"] == "u is irreducible over Q"
    assert cert.verdict_detail["prime_budget"] == call.keywords["prime_budget"]
    assert [step.rule for step in cert.steps] == ["EvenContainment"]
    assert cert.claims == []
    assert verify_replay(json.loads(cert.canonical()))
