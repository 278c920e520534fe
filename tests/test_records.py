"""The nine report and result records compare, print and construct as the
dataclasses they replaced did: fields in declaration order, positional and
keyword construction, a fresh default list or dict per instance, equality
field by field within one class (``NotImplemented`` across classes), the
Name(field=value, ...) repr, and no hash."""

from fractions import Fraction

import pytest

from mpla.bigraded import (Decomposition, MCBracket, MCReport, StructureElement,
                           decompose, mc_check)
from mpla.catalog import mp_double
from mpla.cohomology import MPCochain
from mpla.deform import (AbelianExtension, DeformationCandidate, DeformReport,
                         cocycle_to_extension, deformation_check)
from mpla.matched import bicrossed_product
from mpla.report import Check, ValidationReport, Witness
from mpla.reps import adjoint_representation
from mpla.skeletal import SkeletalTriple

FIELDS = {
    Witness: ("where", "residual"),
    Check: ("name", "witnesses"),
    ValidationReport: ("subject", "checks"),
    Decomposition: ("dim_g", "dim_h", "arity", "components"),
    MCBracket: ("name", "vanishes", "witnesses"),
    MCReport: ("brackets",),
    DeformReport: ("cocycle_route", "ring_route"),
    AbelianExtension: ("total", "base", "rep", "split"),
    SkeletalTriple: ("mp", "rep", "cocycle"),
}


def witnessed_report():
    report = ValidationReport.of("demo", ("first", "second"))
    report.checks[1].add([0, 2], [0, Fraction(-3, 1), Fraction(1, 2)])
    report.checks[1].add((1,), "nonzero differential")
    return report


def records():
    """One record of each class, the six result records from the library."""
    mp = mp_double()
    rep = adjoint_representation(mp)
    mc = mc_check(StructureElement.from_matched_pair(mp))
    report = witnessed_report()
    return [
        report.checks[1].witnesses[0], report.checks[1], report,
        decompose(bicrossed_product(mp).bracket_map(), mp.dim_g, mp.dim_h),
        mc.brackets[0], mc,
        deformation_check(mp, DeformationCandidate.zero(mp)),
        cocycle_to_extension(mp, rep, MPCochain.zero(2, (mp.dim_g, mp.dim_h), rep.dims)),
        SkeletalTriple(mp, rep, MPCochain.zero(3, (mp.dim_g, mp.dim_h), rep.dims)),
    ]


def test_every_record_class_is_covered():
    assert sorted(type(r).__name__ for r in records()) == sorted(c.__name__ for c in FIELDS)


def test_report_reprs_are_those_of_the_dataclasses():
    report = witnessed_report()
    witness = "Witness(where=(0, 2), residual=[0, Fraction(-3, 1), Fraction(1, 2)])"
    assert repr(report.checks[1].witnesses[0]) == witness
    assert repr(report.checks[0]) == "Check(name='first', witnesses=[])"
    assert repr(report) == (
        "ValidationReport(subject='demo', checks=[Check(name='first', witnesses=[]), "
        f"Check(name='second', witnesses=[{witness}, "
        "Witness(where=(1,), residual='nonzero differential')])])")


def test_every_repr_lists_the_fields_in_order():
    for record in records():
        cls = type(record)
        fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in FIELDS[cls])
        assert repr(record) == f"{cls.__name__}({fields})"


def test_records_rebuild_positionally_and_by_keyword():
    for record in records():
        cls = type(record)
        values = [getattr(record, name) for name in FIELDS[cls]]
        assert cls(*values) == record
        assert cls(**dict(zip(FIELDS[cls], values))) == record


def test_equality_is_field_by_field_within_one_class():
    assert witnessed_report() == witnessed_report()
    other = witnessed_report()
    other.checks[1].witnesses[0].residual = [0, -3, Fraction(1, 3)]
    assert other != witnessed_report()
    assert Check("a") != Check("b")
    assert Decomposition(2, 1, 3) == Decomposition(2, 1, 3, {})
    assert MCReport([]) != MCReport([MCBracket("b", True, [])])
    for record in records():
        assert record == record
        assert record.__eq__(object()) is NotImplemented
        assert record != tuple(getattr(record, name) for name in FIELDS[type(record)])
    # classes with the same fields still differ
    assert Witness("x", []).__eq__(Check("x", [])) is NotImplemented
    assert Witness("x", []) != Check("x", [])


def test_records_are_unhashable():
    for record in records():
        assert type(record).__hash__ is None
        with pytest.raises(TypeError):
            hash(record)


def test_defaults_are_fresh_per_instance():
    first, second = Check("a"), Check("a")
    first.add((0,), [1])
    assert second.witnesses == [] and first.witnesses is not second.witnesses
    first, second = ValidationReport("s"), ValidationReport("s")
    first.new_check("c")
    assert second.checks == [] and first.checks is not second.checks
    first, second = Decomposition(1, 1, 2), Decomposition(1, 1, 2)
    first.components[(0, 1)] = None
    assert second.components == {} and first.components is not second.components
    assert ValidationReport.of("s", ("a",)).checks[0].witnesses == []


def test_records_hold_only_their_fields():
    for record in records():
        with pytest.raises(AttributeError):
            record.extra = 1
        assert not hasattr(record, "__dict__")
