"""The value records: immutable, validated on construction, arithmetic of their own."""

from __future__ import annotations

from fractions import Fraction

import pytest

from hurwitzdiv import (
    InputError,
    Partition,
    boundary_index_set,
    canonical_class_m0b,
    hodge_class,
    scan,
    second_hilbert_divisor,
    space_mg,
    verify_stack,
    weierstrass_class,
)
from hurwitzdiv.lowslope import DivisorRecipe
from hurwitzdiv.partitions import OracleReport, partition_table, transposition_power_vector
from hurwitzdiv.pushpull import QuadraticClass, multiply
from hurwitzdiv.spaces import DivisorClass, Space, space_mg_pointed

F = Fraction


def _certificate():
    return verify_stack(10, 4, second_hilbert_divisor(10))


RECORDS = {
    "Partition": lambda: Partition((2, 1)),
    "PartitionRow": lambda: partition_table(3)[0],
    "CycleTypeVector": lambda: transposition_power_vector(3, 2),
    "OracleReport": lambda: OracleReport(Partition((3,)), 2, 3, True),
    "Space": lambda: space_mg(4),
    "DivisorClass": lambda: canonical_class_m0b(6),
    "QuadraticClass": lambda: multiply(weierstrass_class(3), weierstrass_class(3)),
    "BoundaryIndex": lambda: boundary_index_set(2, 3)[0],
    "HurwitzClass": lambda: hodge_class(2, 3),
    "DivisorRecipe": lambda: second_hilbert_divisor(6),
    "IndexMargin": lambda: _certificate().per_index[0],
    "BignessCertificate": _certificate,
    "ScanRow": lambda: scan(3, 3, 8, 8).rows[0],
    "ScanTable": lambda: scan(3, 3, 8, 8),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_fields_are_read_only(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None


def _recipe_fields() -> dict:
    recipe = second_hilbert_divisor(6)
    return dict(zip(recipe._fields, recipe), slope=recipe.slope + 1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Partition(()),
        lambda: Partition(parts=()),
        lambda: Space("bogus"),
        lambda: Space(kind="bogus"),
        lambda: DivisorRecipe(*_recipe_fields().values()),
        lambda: DivisorRecipe(**_recipe_fields()),
    ],
    ids=["partition", "partition-keyword", "space", "space-keyword", "recipe", "recipe-keyword"],
)
def test_checked_records_reject_bad_fields_by_position_and_keyword(build):
    with pytest.raises(InputError):
        build()


@pytest.mark.parametrize(
    "cls",
    [lambda: hodge_class(3, 4), lambda: weierstrass_class(3)],
    ids=["HurwitzClass", "DivisorClass"],
)
def test_class_arithmetic_is_not_tuple_arithmetic(cls):
    c = cls()
    for result in (2 * c, c * F(1, 2), -c, c - c):
        assert type(result) is type(c)
    assert (2 * c).coeffs == tuple((key, 2 * value) for key, value in c.coeffs)
    assert (c - c).coeffs == ()
    with pytest.raises(TypeError):
        c + (1,)
    with pytest.raises(TypeError):
        c * 1.5


def test_sparse_classes_of_two_types_are_never_equal():
    # both are (space, ()) as tuples; a class equals only a class of its own type
    q = QuadraticClass.make(space_mg_pointed(3), {})
    d = DivisorClass.zero(space_mg_pointed(3))
    assert tuple(q) == tuple(d)
    assert q != d and not q == d
    assert len({q, d}) == 2
    same = DivisorClass.zero(space_mg_pointed(3))
    assert d == same and not d != same
    assert d != tuple(d) and tuple(d) != d
    for c in (q, d, hodge_class(3, 4)):
        assert hash(c) == hash(tuple(c))
