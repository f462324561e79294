"""The value records keep the semantics of the dataclasses they replaced:
construction by position and keyword, equality, hash, repr, immutability,
pickling, copying and the normalisation their constructors apply."""

import copy
import pickle
from fractions import Fraction

import pytest

from divfact.bundles import DegreeVector, MainTheoremReport, Mismatch
from divfact.covers import CoverSpec, DegenerationData
from divfact.invariants import PointConfiguration, RestrictionReport, Tableau
from divfact.strata import BoundaryCut, SetPartition4
from divfact.weights import Linearization, WeightVector

F = SetPartition4(4, ({1}, {2}, {3}, {4}))
F_REPR = "SetPartition4(n=4, blocks=(frozenset({1}), frozenset({2}), frozenset({3}), frozenset({4})))"
REPORT_FIELDS = (
    "d1", "d2", "n1", "n2", "k", "alpha", "beta", "dim_ambient", "dim_left", "dim_right",
    "decomposable", "zero_restrictions", "nonbasis_images", "surjective", "failures",
)

# (class, field names, field values, other values, repr at the dataclass version)
CASES = [
    (WeightVector, ("r", "entries"), (3, (1, 2, 0)), (3, (1, 2, 1)),
     "WeightVector(r=3, entries=(1, 2, 0))"),
    (Linearization, ("entries", "d"), ((Fraction(1, 2), 1, Fraction(1, 2)), 1),
     ((1, Fraction(1, 2), Fraction(1, 2)), 1),
     "Linearization(entries=(Fraction(1, 2), Fraction(1, 1), Fraction(1, 2)), d=1)"),
    (BoundaryCut, ("n", "members"), (5, frozenset({2, 3})), (5, frozenset({1, 2})),
     "BoundaryCut(n=5, members=frozenset({1, 4, 5}))"),
    (SetPartition4, ("n", "blocks"), (5, ({3}, {1, 2}, {5}, {4})), (5, ({1}, {2, 3}, {4}, {5})),
     "SetPartition4(n=5, blocks=(frozenset({1, 2}), frozenset({3}), frozenset({4}), frozenset({5})))"),
    (DegreeVector, ("n", "r", "degrees"), (4, 2, {F: 1}), (4, 2, {F: 0}),
     f"DegreeVector(n=4, r=2, degrees={{{F_REPR}: 1}})"),
    (Mismatch, ("c", "partition", "cb", "git", "cyc"), ((1, 1, 0, 0), F, 1, 0, 1),
     ((1, 1, 0, 0), F, 1, 1, 1),
     f"Mismatch(c=(1, 1, 0, 0), partition={F_REPR}, cb=1, git=0, cyc=1)"),
    (MainTheoremReport,
     ("r", "n", "vectors_checked", "fcurves_per_vector", "mismatches"),
     (2, 4, 8, 1, []), (2, 4, 8, 2, []),
     "MainTheoremReport(r=2, n=4, vectors_checked=8, fcurves_per_vector=1, mismatches=[])"),
    (CoverSpec, ("r", "entries"), (4, [2, 1, 3, 3, 1, 2]), (4, [2, 2]),
     "CoverSpec(r=4, entries=(2, 1, 3, 3, 1, 2))"),
    (DegenerationData, ("c_prime", "c_double_prime", "s", "g", "g1", "g2"),
     ((2, 1, 3, 2), (3, 1, 2, 2), 2, 5, 2, 2), ((2, 1, 3, 2), (3, 1, 2, 2), 2, 5, 2, 1),
     "DegenerationData(c_prime=(2, 1, 3, 2), c_double_prime=(3, 1, 2, 2), s=2, g=5, g1=2, g2=2)"),
    (Tableau, ("d", "k", "columns"), (1, 2, ([1, 2], [3, 4])), (1, 2, ([1, 2], [2, 4])),
     "Tableau(d=1, k=2, columns=((1, 2), (3, 4)))"),
    (PointConfiguration, ("d", "points"), (1, ((2, 4), (0, 3))), (1, ((2, 4), (1, 3))),
     "PointConfiguration(d=1, points=((Fraction(1, 1), Fraction(2, 1)), "
     "(Fraction(0, 1), Fraction(1, 1))))"),
    (RestrictionReport, REPORT_FIELDS,
     (1, 1, 2, 2, 1, 1, 1, 2, 1, 1, 1, 0, 0, True, []),
     (1, 1, 2, 2, 1, 1, 1, 2, 1, 1, 1, 0, 0, False, []),
     "RestrictionReport(d1=1, d2=1, n1=2, n2=2, k=1, alpha=1, beta=1, dim_ambient=2, "
     "dim_left=1, dim_right=1, decomposable=1, zero_restrictions=0, nonbasis_images=0, "
     "surjective=True, failures=[])"),
]
MUTABLE = {Mismatch, MainTheoremReport, RestrictionReport}
IDS = [case[0].__name__ for case in CASES]

per_record = pytest.mark.parametrize("cls, names, values, other, text", CASES, ids=IDS)


@per_record
def test_positional_and_keyword_construction(cls, names, values, other, text):
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    assert by_position == by_keyword
    assert not by_position != by_keyword
    assert by_position != cls(*other)
    assert by_position != values
    assert [name for name in names if not hasattr(by_position, name)] == []


@per_record
def test_repr(cls, names, values, other, text):
    assert repr(cls(*values)) == text


@per_record
def test_hash_and_mutability(cls, names, values, other, text):
    record, twin = cls(*values), cls(*values)
    if cls in MUTABLE:
        with pytest.raises(TypeError):
            hash(record)
        setattr(record, names[0], getattr(cls(*other), names[0]))
        return
    if cls is DegreeVector:
        with pytest.raises(TypeError):  # its degrees are a dict
            hash(record)
    else:
        assert hash(record) == hash(twin)
        assert hash(record) == hash(tuple(getattr(record, name) for name in names))
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == twin


@per_record
def test_pickle_and_copy(cls, names, values, other, text):
    record = cls(*values)
    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert repr(pickle.loads(pickle.dumps(record))) == text


def test_normalisation():
    assert BoundaryCut(5, {2, 3}).members == frozenset({1, 4, 5})
    assert BoundaryCut(5, {2, 3}) == BoundaryCut(5, [1, 4, 5])
    assert SetPartition4(5, [[4], [5], [3, 2], [1]]).blocks == (
        frozenset({1}), frozenset({2, 3}), frozenset({4}), frozenset({5})
    )
    assert WeightVector(3, [1, 2, 0]).entries == (1, 2, 0)
    assert CoverSpec(2, [1, 1]).entries == (1, 1)
    assert Linearization([1, 1], 1).entries == (Fraction(1), Fraction(1))
    assert PointConfiguration(1, [[3, 6]]).points == ((Fraction(1), Fraction(2)),)
    assert Tableau(1, 1, [[1, 2]]).columns == ((1, 2),)
    first, second = MainTheoremReport(2, 4, 8, 1), MainTheoremReport(2, 4, 8, 1)
    first.mismatches.append(Mismatch((1, 1, 0, 0), F, 1, 0, 1))
    assert second.mismatches == []


def test_validation_messages():
    cases = [
        (lambda: WeightVector(3, (4,)), "need 0 <= weight <= 3, got 4"),
        (lambda: WeightVector(0, ()), "need r >= 1, got 0"),
        (lambda: BoundaryCut(5, {1}), "need 2 <= cut size <= 3, got 1"),
        (lambda: SetPartition4(5, ({1}, {2}, {3}, {4})), "blocks do not partition {1, ..., 5}"),
        (lambda: CoverSpec(2, (1,)), "r=2 must divide the total branch weight 1"),
        (lambda: Tableau(1, 1, ((2, 1),)), "column (2, 1) is not strictly increasing"),
        (lambda: PointConfiguration(1, ((0, 0),)), "zero column is not a projective point"),
        (lambda: Linearization((1,), 1),
         "weights 1 are not in the hypersimplex Delta(2, 1)"),
    ]
    for build, message in cases:
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message
