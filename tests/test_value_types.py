"""The exported value types: immutable, compared by value, and built only
through constructors that keep their keywords, defaults and refusals.

``ZPolynomial``, ``MixedSum`` (exported by ``khabcheck.termalgebra``),
``PositivityVerdict`` and ``QuadConfig`` sit on ``exact.Value``; the plain
result records are ``typing.NamedTuple``s.
"""

import copy
import math
import pickle
from fractions import Fraction as F
from inspect import Parameter, signature

import pytest

from khabcheck import (ChainReport, DensityFunction, OracleAgreement,
                       PhiFamily, PositivityVerdict, QuadConfig, QuadResult, ScanReport,
                       Status, ZPolynomial, oracle_equiv_check, region_scan)
from khabcheck.termalgebra import MixedSum

EMPTY = Parameter.empty
NONNEG = PositivityVerdict(Status.NONNEGATIVE, "all-coefficients-nonnegative")


def instances():
    """One instance of every exported value type, by type."""
    return {
        ZPolynomial: ZPolynomial([[1, 2], [3]], 4),
        MixedSum: MixedSum([((1, -1, 0), (0, -2))]),
        PositivityVerdict: NONNEG,
        QuadConfig: QuadConfig(),
        QuadResult: QuadResult(1.0, 1e-12, True, 3, 21),
        DensityFunction: DensityFunction(math.exp),
        ScanReport: region_scan([1], [F(1, 2)]),
        ChainReport: ChainReport(1, 0, F(1, 2), NONNEG, False),
        OracleAgreement: oracle_equiv_check(1, [F(1, 2)], [1.0]),
        PhiFamily: PhiFamily.build(F(1, 2), 2),
    }


@pytest.mark.parametrize("cls", list(instances()), ids=lambda cls: cls.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    value = instances()[cls]
    assert type(value) is cls
    name = next(iter(signature(cls).parameters))
    before = getattr(value, name)
    with pytest.raises(AttributeError):
        setattr(value, name, before)
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert getattr(value, name) is before


#: each exported constructor's keywords in order, with their defaults
SIGNATURES = {
    ZPolynomial: [("rows", ()), ("den", 1)],
    MixedSum: [("rows", ()), ("den", 1)],
    PositivityVerdict: [("status", EMPTY), ("certificate", None), ("witness", None),
                        ("witness_value", None)],
    QuadConfig: [("abs_tol", 1e-10), ("rel_tol", 1e-9)],
    QuadResult: [("value", EMPTY), ("error_estimate", EMPTY), ("converged", EMPTY),
                 ("subdivisions_used", EMPTY), ("evaluations", 0)],
    DensityFunction: [("evaluator", EMPTY), ("power_at_zero", None),
                      ("power_at_infinity", None)],
    ScanReport: [("cells", EMPTY)],
    ChainReport: [("conjecture_n", EMPTY), ("poly_index", EMPTY), ("alpha", EMPTY),
                  ("positivity", EMPTY), ("applicable", EMPTY), ("premise", ()),
                  ("conclusion", None), ("rhs_pi_coefficient", None),
                  ("rhs_value", None), ("premise_tol", 1e-6)],
    OracleAgreement: [("max_deviation", EMPTY), ("checked", EMPTY), ("failures", EMPTY),
                      ("inconclusive", EMPTY), ("identity_failures", EMPTY)],
    PhiFamily: [("alpha", EMPTY), ("max_n", EMPTY), ("polys", EMPTY)],
}


def test_every_exported_value_type_is_pinned():
    assert set(SIGNATURES) == set(instances())


@pytest.mark.parametrize("cls", list(SIGNATURES), ids=lambda cls: cls.__name__)
def test_constructor_keywords_and_defaults_are_unchanged(cls):
    params = signature(cls).parameters.values()
    assert [(p.name, p.default) for p in params] == SIGNATURES[cls]
    assert all(p.kind is Parameter.POSITIONAL_OR_KEYWORD for p in params)
    # the fields are the constructor's keywords, read back as given
    value = instances()[cls]
    assert cls(**{name: getattr(value, name) for name, _ in SIGNATURES[cls]}) == value


@pytest.mark.parametrize("a, b, c", [
    (ZPolynomial([[1, 2], [3]], 4), ZPolynomial([[2, 4], [6]], 8),
     ZPolynomial([[1, 2], [3]], 5)),
    (MixedSum([((0, 1, 0), (1, 2)), ((1, 0, 1), (3,))], 4),
     MixedSum([((1, 0, 1), (6,)), ((0, 1, 0), (2, 4))], 8),
     MixedSum([((0, 1, 0), (1, 2)), ((1, 0, 1), (3,))], 5)),
], ids=["ZPolynomial", "MixedSum"])
def test_exact_types_compare_and_hash_by_value(a, b, c):
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != c
    # another type holding the same fields is a different value
    assert a != (a.rows, a.den)
    assert a != NONNEG
    assert ZPolynomial() != MixedSum() and MixedSum() != ZPolynomial()


def test_exact_types_keep_their_repr():
    assert repr(ZPolynomial([[1, 2], [3]], 4)) == "ZPolynomial(rows=((1, 2), (3,)), den=4)"
    assert repr(MixedSum([((1, -1, 0), (0, -2))])) == \
        "MixedSum(rows=(((1, -1, 0), (0, -2)),), den=1)"
    assert repr(QuadConfig()) == "QuadConfig(abs_tol=1e-10, rel_tol=1e-09)"
    # the family's polynomials are left out of its repr
    assert repr(PhiFamily.build(F(1, 2), 2)) == "PhiFamily(alpha=Fraction(1, 2), max_n=2)"


@pytest.mark.parametrize("cls", [ZPolynomial, MixedSum, PositivityVerdict, QuadConfig],
                         ids=lambda cls: cls.__name__)
def test_copies_and_pickles_are_equal_values(cls):
    value = instances()[cls]
    for made in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(made) is cls
        assert made == value and hash(made) == hash(value)


def test_quad_results_add_field_by_field():
    a = QuadResult(1.0, 1e-12, True, 3, 21)
    b = QuadResult(2.5, 2e-12, False, 4, 42)
    total = a + b
    assert type(total) is QuadResult
    assert total == QuadResult(3.5, 3e-12, False, 7, 63)
    assert QuadResult(1.0, 0.0, True, 1) + QuadResult(1.0, 0.0, True, 1) == \
        QuadResult(2.0, 0.0, True, 2, 0)


@pytest.mark.parametrize("kwargs, message", [
    ({"status": Status.NEGATIVE}, "Negative verdict requires a witness"),
    ({"status": Status.NEGATIVE, "witness": F(1)}, "Negative verdict requires a witness"),
    ({"status": Status.NEGATIVE, "witness": F(0), "witness_value": F(-1)},
     "witness must be positive with negative value"),
    ({"status": Status.NEGATIVE, "witness": F(1), "witness_value": F(0)},
     "witness must be positive with negative value"),
    ({"status": Status.NONNEGATIVE}, "Nonnegative verdict requires a certificate"),
    ({"status": Status.NONNEGATIVE, "certificate": ""},
     "Nonnegative verdict requires a certificate"),
])
def test_verdict_refusals_keep_their_messages(kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        PositivityVerdict(**kwargs)


@pytest.mark.parametrize("kwargs", [
    {"abs_tol": 0.0}, {"abs_tol": -1e-10}, {"abs_tol": math.inf}, {"abs_tol": math.nan},
    {"rel_tol": 0.0}, {"rel_tol": math.inf}, {"rel_tol": math.nan},
])
def test_quad_config_refusals_keep_their_message(kwargs):
    with pytest.raises(ValueError, match="^tolerances must be positive and finite$"):
        QuadConfig(**kwargs)


@pytest.mark.parametrize("cls", [PositivityVerdict, QuadConfig], ids=lambda cls: cls.__name__)
def test_validated_types_have_no_unvalidated_constructor(cls):
    # a NamedTuple's _replace and _make would skip the refusals above
    assert not hasattr(cls, "_replace") and not hasattr(cls, "_make")
    assert not isinstance(instances()[cls], tuple)
