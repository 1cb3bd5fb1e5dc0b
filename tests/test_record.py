"""Record semantics: construction, defaults, equality, hashing, freezing, repr."""

import pytest

from prymcert._record import Record
from prymcert.galoiscert import Certificate, RuleStep, SamplingReport
from prymcert.intpoly import (
    CycleType,
    Inconclusive,
    Irreducible,
    Reducible,
    condition_p_r,
    parse_poly,
)
from prymcert.prymcalc import FamilyParams, multiplicity_table
from prymcert.signedperm import GroupDescriptor, IsSm, LabeledRoots, SignedPerm


def test_constructor_arguments_and_defaults():
    assert FamilyParams(3, 2) == FamilyParams(p=3, r=2) == FamilyParams(3, r=2, c=1)
    assert FamilyParams(3, 2).c == 1 and FamilyParams(3, 2, -3).c == -3
    assert GroupDescriptor("Sm", 4).gens == ()
    for bad in ((), (3, 2, 1, 5)):
        with pytest.raises(TypeError):
            FamilyParams(*bad)
    with pytest.raises(TypeError):
        FamilyParams(3, 2, q=1)
    with pytest.raises(TypeError):
        FamilyParams(3, 2, p=3)
    with pytest.raises(TypeError):
        Inconclusive(1)


def test_default_list_is_fresh_per_instance():
    a, b = RuleStep("R", "c"), RuleStep("R", "c")
    a.premises.append({"fact": "x", "value": 1})
    assert b.premises == [] and RuleStep("R", "c").premises == []
    premises = [{"fact": "y", "value": 2}]
    assert RuleStep("R", "c", premises).premises is premises


def test_post_init_validation():
    with pytest.raises(ValueError):
        FamilyParams(2, 2)
    with pytest.raises(ValueError):
        FamilyParams(3, 1)
    with pytest.raises(ValueError):
        LabeledRoots(3, "bad")
    assert LabeledRoots(3, "R_u").labels() == (1, 2, 3)


def test_equality_and_hashing():
    assert Irreducible(7) == Irreducible(witness=7) != Irreducible(11)
    assert Inconclusive() == Inconclusive()
    assert Irreducible(7) != (7,) and FamilyParams(3, 2) != condition_p_r(3, 2)
    sm = IsSm(5, CycleType([5, 1]))
    assert len({sm, IsSm(5, CycleType([1, 5])), Inconclusive(), Inconclusive()}) == 2
    assert hash(GroupDescriptor("Sm", 4)) == hash(GroupDescriptor("Sm", 4, ()))
    # a record of an unhashable value is not hashable, as with a tuple
    with pytest.raises(TypeError):
        hash(multiplicity_table(5, 2))
    # mutable records compare by value and are unhashable
    assert RuleStep("R", "c") == RuleStep("R", "c") != RuleStep("R", "d")
    with pytest.raises(TypeError):
        hash(RuleStep("R", "c"))


def test_frozen_records_refuse_assignment():
    fp = FamilyParams(3, 2)
    for record, name in ((fp, "p"), (fp, "extra"), (Inconclusive(), "x"), (IsSm(5, CycleType([5])), "cycle_length")):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert fp.p == 3
    step = RuleStep("R", "c")
    step.conclusion = "d"
    cert = Certificate({}, {}, "claim", [step], "Inconclusive", {}, [])
    cert.verdict = "Refuted"
    assert cert.steps[0].conclusion == "d" and cert.verdict == "Refuted"


def test_repr_is_the_dataclass_form():
    # galoiscert writes these into a certificate's detail, so the bytes matter
    assert repr(Inconclusive()) == "Inconclusive()"
    assert repr(Reducible(parse_poly("x - 1"))) == "Reducible(factor=IntPoly('x - 1'))"
    assert repr(IsSm(5, CycleType([5, 1]))) == "IsSm(cycle_length=5, witness_type=CycleType([1, 5]))"
    assert repr(GroupDescriptor("Sm", 3)) == "GroupDescriptor(kind='Sm', m=3, gens=())"
    two_m = GroupDescriptor.two_m([SignedPerm.full_cycle(3)])
    assert repr(two_m) == (
        "GroupDescriptor(kind='TwoM_G', m=3, gens=(SignedPerm(s=(2, 3, 1), eps=(1, 1, 1)),))"
    )
    assert repr(RuleStep("R", "c")) == "RuleStep(rule='R', conclusion='c', premises=[])"


def test_to_json_returns_the_fields_by_name():
    class Pair(Record):
        a: int
        b: list = []

    assert Pair(1).to_json() == {"a": 1, "b": []}
    assert list(Pair(b=[2], a=1).to_json()) == ["a", "b"]
    assert RuleStep("R", "c").to_json() == {"rule": "R", "conclusion": "c", "premises": []}
    report = SamplingReport({}, 1, 10, 0, True, None, None, [], 0.0, 0, [3, 37])
    assert list(report.to_json()) == [*SamplingReport._fields, "note"]


def test_certificate_claims_default_to_a_fresh_list():
    a, b = (Certificate({}, {}, "claim", [], "Inconclusive", {}) for _ in range(2))
    a.claims.append({"statement": "s", "checked": False, "via": "R"})
    assert b.claims == [] and Certificate({}, {}, "c", [], "Refuted", {}).claims == []
    assert Certificate({}, {}, "c", [], "Refuted", {}).to_json()["claims"] == []


def test_sampling_report_is_frozen():
    report = SamplingReport({}, 1, 10, 0, True, None, None, [], 0.0, 0, [3, 37])
    for name in ("consistent", "refuting_prime", "extra"):
        with pytest.raises(AttributeError):
            setattr(report, name, False)
        with pytest.raises(AttributeError):
            delattr(report, name)
    assert report.consistent and report.refuting_prime is None
