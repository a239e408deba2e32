"""Divisor-class spaces, standard classes, slope, and the genus-0 bigness test."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hurwitzdiv import (
    DivisorClass,
    InputError,
    canonical_class_m0b,
    is_big_boundary_positive,
    kappa1_m0b,
    pseudostable_pullback,
    slope,
    space_m0b,
    space_mg,
    space_mg_pointed,
    space_mg_pseudostable,
    weierstrass_class,
)

F = Fraction

rationals = st.fractions(
    min_value=F(-50), max_value=F(50), max_denominator=40
)


def test_space_bases():
    assert space_m0b(8).basis() == ("B_2", "B_3", "B_4")
    assert space_mg(5).basis() == ("lambda", "delta_0", "delta_1", "delta_2")
    assert space_mg_pseudostable(7).basis() == (
        "lambda_ps",
        "delta_0_ps",
        "delta_2_ps",
        "delta_3_ps",
    )
    assert space_mg_pointed(3).basis() == ("lambda", "psi", "delta_0", "delta_1", "delta_2")


def test_space_validation():
    with pytest.raises(InputError):
        space_m0b(3)
    with pytest.raises(InputError):
        space_mg(1)
    with pytest.raises(InputError):
        space_mg_pseudostable(2)


def test_divisor_class_rejects_foreign_labels():
    with pytest.raises(InputError):
        DivisorClass.make(space_mg(4), {"psi": 1})
    with pytest.raises(InputError):
        DivisorClass.make(space_mg_pseudostable(6), {"delta_1_ps": 1})


def test_divisor_class_rejects_floats():
    # 0.1 would otherwise be stored as 3602879701896397/36028797018963968
    with pytest.raises(InputError):
        DivisorClass.make(space_mg(4), {"lambda": 0.1})
    with pytest.raises(InputError):
        DivisorClass.make(space_mg(4), {"lambda": 1.0})


def test_divisor_class_sums_repeated_terms_in_basis_order():
    space = space_mg(4)
    built = DivisorClass.make(space, [("delta_2", 1), ("lambda", F(1, 2)), ("delta_2", -1),
                                      ("delta_0", 3), ("lambda", F(1, 2))])
    assert built.coeffs == (("lambda", F(1)), ("delta_0", F(3)))
    assert all(type(value) is Fraction for _, value in built.coeffs)


def test_divisor_class_arithmetic_stays_on_space():
    a = DivisorClass.make(space_mg(4), {"lambda": 1})
    b = DivisorClass.make(space_mg(5), {"lambda": 1})
    with pytest.raises(InputError):
        a + b


def test_canonical_m0b_values():
    assert canonical_class_m0b(6).coefficient("B_2") == F(-2, 5)
    assert canonical_class_m0b(6).coefficient("B_3") == F(-1, 5)
    assert canonical_class_m0b(4).coefficient("B_2") == F(-2, 3)
    with pytest.raises(InputError):
        canonical_class_m0b(7)


def test_canonical_m0b_sign_pattern():
    # the B_i coefficient is negative exactly when i(b-i) < 2(b-1)
    for g in range(2, 8):
        for k in range(3, 7):
            b = 2 * g + 2 * k - 2
            cls = canonical_class_m0b(b)
            for i in range(2, b // 2 + 1):
                assert (cls.coefficient(f"B_{i}") < 0) == (i * (b - i) < 2 * (b - 1))


def test_kappa1_values_and_positivity():
    assert kappa1_m0b(6).coefficient("B_2") == F(3, 5)
    assert kappa1_m0b(6).coefficient("B_3") == F(4, 5)
    assert kappa1_m0b(20).coefficient("B_2") == F(17, 19)
    for b in range(6, 42, 2):
        cls = kappa1_m0b(b)
        assert all(cls.coefficient(label) > 0 for label in cls.space.basis())


def test_is_big_boundary_positive():
    kappa = kappa1_m0b(6)
    assert is_big_boundary_positive(kappa) == (True, F(1))
    missing = DivisorClass.make(space_m0b(6), {"B_2": 1})
    assert is_big_boundary_positive(missing) == (False, F(0))
    bumped = 2 * kappa + DivisorClass.make(space_m0b(6), {"B_2": 1})
    assert is_big_boundary_positive(bumped) == (True, F(2))


def test_slope_examples():
    eight = DivisorClass.make(
        space_mg(6), {"lambda": 8, "delta_0": -1, "delta_1": -1, "delta_2": -1, "delta_3": -1}
    )
    assert slope(eight) == 8
    syzygy = DivisorClass.make(
        space_mg(7),
        {"lambda": F(54, 7), "delta_0": -1, "delta_1": -1, "delta_2": -1, "delta_3": -1},
    )
    assert slope(syzygy) == F(54, 7)
    mixed = DivisorClass.make(space_mg(2), {"lambda": 7, "delta_0": -2, "delta_1": -1})
    assert slope(mixed) == 7


def test_slope_undefined_cases():
    assert slope(DivisorClass.make(space_mg(3), {"lambda": 5, "delta_0": -1})) is None
    assert slope(DivisorClass.make(space_mg(2), {"lambda": -1, "delta_0": -1, "delta_1": -1})) is None
    assert slope(DivisorClass.make(space_mg(2), {"lambda": 3, "delta_0": 1, "delta_1": -1})) is None


@given(scale=st.fractions(min_value=F(1, 40), max_value=F(40), max_denominator=40))
def test_slope_invariant_under_positive_rescaling(scale):
    base = DivisorClass.make(
        space_mg(4), {"lambda": F(15, 2), "delta_0": -1, "delta_1": -3, "delta_2": -2}
    )
    assert slope(scale * base) == slope(base)


def test_weierstrass_values():
    w2 = weierstrass_class(2)
    assert w2.coefficient("psi") == 3
    assert w2.coefficient("delta_1") == -1
    assert w2.coefficient("lambda") == -1
    assert w2.coefficient("delta_0") == 0
    assert weierstrass_class(13).coefficient("psi") == 91
    for g in range(2, 12):
        assert weierstrass_class(g).coefficient(f"delta_{g - 1}") == -1


def test_pseudostable_pullback_generators():
    g = 6
    lam = DivisorClass.make(space_mg_pseudostable(g), {"lambda_ps": 1})
    assert pseudostable_pullback(lam) == DivisorClass.make(
        space_mg(g), {"lambda": 1, "delta_1": 1}
    )
    d0 = DivisorClass.make(space_mg_pseudostable(g), {"delta_0_ps": 1})
    assert pseudostable_pullback(d0) == DivisorClass.make(
        space_mg(g), {"delta_0": 1, "delta_1": 12}
    )
    d2 = DivisorClass.make(space_mg_pseudostable(g), {"delta_2_ps": 1})
    assert pseudostable_pullback(d2) == DivisorClass.make(space_mg(g), {"delta_2": 1})


def test_pseudostable_pullback_slope_shape():
    g = 8
    s = F(15, 2)
    cls = DivisorClass.make(space_mg_pseudostable(g), {"lambda_ps": s, "delta_0_ps": -1})
    pulled = pseudostable_pullback(cls)
    assert pulled == DivisorClass.make(
        space_mg(g), {"lambda": s, "delta_0": -1, "delta_1": s - 12}
    )
    zero = DivisorClass.zero(space_mg_pseudostable(g))
    assert pseudostable_pullback(zero) == DivisorClass.zero(space_mg(g))


@given(a=rationals, b=rationals, x=rationals, y=rationals)
def test_pseudostable_pullback_is_linear(a, b, x, y):
    g = 7
    space = space_mg_pseudostable(g)
    d1 = DivisorClass.make(space, {"lambda_ps": x, "delta_2_ps": y})
    d2 = DivisorClass.make(space, {"delta_0_ps": y, "delta_3_ps": x})
    lhs = pseudostable_pullback(a * d1 + b * d2)
    rhs = a * pseudostable_pullback(d1) + b * pseudostable_pullback(d2)
    assert lhs == rhs
