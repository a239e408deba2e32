"""Pullback along the elliptic-tail map, products, and the forgetful pushforward."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hurwitzdiv import (
    DivisorClass,
    InputError,
    QuadraticClass,
    elliptic_tail_pullback,
    forgetful_pushforward,
    multiply,
    space_mg,
    space_mg_pointed,
    weierstrass_class,
)

F = Fraction

rationals = st.fractions(min_value=F(-30), max_value=F(30), max_denominator=24)


def _one(space, label):
    return DivisorClass.make(space, {label: 1})


def test_elliptic_tail_pullback_generators():
    g = 5  # classes pulled back from genus 6
    source = space_mg(g + 1)
    target = space_mg_pointed(g)
    assert elliptic_tail_pullback(_one(source, "lambda")) == _one(target, "lambda")
    assert elliptic_tail_pullback(_one(source, "delta_0")) == _one(target, "delta_0")
    assert elliptic_tail_pullback(_one(source, "delta_1")) == DivisorClass.make(
        target, {"psi": -1, "delta_4": 1}
    )
    assert elliptic_tail_pullback(_one(source, "delta_2")) == DivisorClass.make(
        target, {"delta_1": 1, "delta_3": 1}
    )


def test_elliptic_tail_pullback_index_collision():
    # genus 6 = 2*3: delta_3 hits delta_2 twice on the genus-5 pointed space
    cls = elliptic_tail_pullback(_one(space_mg(6), "delta_3"))
    assert cls == DivisorClass.make(space_mg_pointed(5), {"delta_2": 2})


def test_elliptic_tail_pullback_rejects_wrong_space():
    with pytest.raises(InputError):
        elliptic_tail_pullback(_one(space_mg_pointed(5), "lambda"))
    with pytest.raises(InputError):
        elliptic_tail_pullback(_one(space_mg(2), "lambda"))  # target genus would be 1


def test_multiply_examples():
    space = space_mg_pointed(4)
    lam, psi = _one(space, "lambda"), _one(space, "psi")
    assert multiply(lam, psi).as_dict() == {("lambda", "psi"): F(1)}
    square = multiply(lam + psi, lam + psi)
    assert square.as_dict() == {
        ("lambda", "lambda"): F(1),
        ("lambda", "psi"): F(2),
        ("psi", "psi"): F(1),
    }
    zero = DivisorClass.zero(space)
    assert multiply(zero, psi).as_dict() == {}


def test_quadratic_class_rejects_foreign_labels():
    space = space_mg_pointed(4)
    with pytest.raises(InputError):
        QuadraticClass.make(space, {("psi", "delta_4"): 1})
    with pytest.raises(InputError):
        QuadraticClass.make(space, {("lambda_ps", "psi"): 1})


def test_quadratic_class_rejects_floats():
    with pytest.raises(InputError):
        QuadraticClass.make(space_mg_pointed(4), {("psi", "psi"): 0.5})


def test_quadratic_class_unordered_pairs_sum():
    space = space_mg_pointed(4)
    q = QuadraticClass.make(space, [(("delta_1", "psi"), 2), (("psi", "delta_1"), F(1, 3))])
    assert q.coeffs == ((("psi", "delta_1"), F(7, 3)),)
    assert q.coefficient("delta_1", "psi") == F(7, 3)


def test_multiply_space_mismatch():
    with pytest.raises(InputError):
        multiply(_one(space_mg_pointed(4), "psi"), _one(space_mg_pointed(5), "psi"))


def test_pushforward_monomial_table():
    g = 5
    space = space_mg_pointed(g)
    target = space_mg(g)

    def push(x, y):
        return forgetful_pushforward(QuadraticClass.make(space, {(x, y): F(1)}))

    assert push("psi", "psi") == DivisorClass.make(
        target, {"lambda": 12, "delta_0": -1, "delta_1": -1, "delta_2": -1}
    )
    assert push("psi", "lambda") == DivisorClass.make(target, {"lambda": 2 * g - 2})
    assert push("psi", "delta_0") == DivisorClass.make(target, {"delta_0": 2 * g - 2})
    assert push("psi", "delta_1") == DivisorClass.zero(target)  # coefficient 2*1-2
    assert push("psi", "delta_2") == DivisorClass.make(target, {"delta_2": 2})
    # indices above g/2 fold down to delta_{g-i} with the coefficient unchanged
    assert push("psi", "delta_3") == DivisorClass.make(target, {"delta_2": 4})
    assert push("psi", "delta_4") == DivisorClass.make(target, {"delta_1": 6})
    assert push("lambda", "lambda") == DivisorClass.zero(target)
    assert push("lambda", "delta_2") == DivisorClass.zero(target)
    assert push("delta_1", "delta_3") == DivisorClass.zero(target)
    assert push("delta_0", "delta_0") == DivisorClass.zero(target)


@given(a=rationals, b=rationals)
def test_pushforward_is_linear(a, b):
    space = space_mg_pointed(4)
    q1 = QuadraticClass.make(space, {("psi", "psi"): F(1), ("psi", "delta_2"): F(3)})
    q2 = QuadraticClass.make(space, {("lambda", "psi"): F(1), ("delta_1", "delta_1"): F(5)})
    lhs = forgetful_pushforward(a * q1 + b * q2)
    rhs = a * forgetful_pushforward(q1) + b * forgetful_pushforward(q2)
    assert lhs == rhs


@given(a=rationals, x=rationals, y=rationals)
def test_multiply_is_bilinear_and_symmetric(a, x, y):
    space = space_mg_pointed(4)
    d1 = DivisorClass.make(space, {"lambda": x, "psi": 1})
    d2 = DivisorClass.make(space, {"delta_1": y, "psi": -2})
    d3 = DivisorClass.make(space, {"delta_0": 1, "delta_3": x})
    assert multiply(d1, d2) == multiply(d2, d1)
    lhs = multiply(a * d1 + d3, d2)
    rhs = a * multiply(d1, d2) + multiply(d3, d2)
    assert lhs == rhs


def test_end_to_end_slope_for_one_odd_genus():
    # the full pipeline is exercised over 5..49 in the acceptance suite;
    # here the genus-5 value is frozen from a hand expansion
    from hurwitzdiv import slope

    g = 5
    even = DivisorClass.make(
        space_mg(6),
        {"lambda": 8, "delta_0": -1, "delta_1": -4, "delta_2": -1, "delta_3": -1},
    )
    pushed = forgetful_pushforward(multiply(elliptic_tail_pullback(even), weierstrass_class(g)))
    assert pushed == DivisorClass.make(
        space_mg(5), {"lambda": 1648, "delta_0": -180, "delta_1": -444, "delta_2": -276}
    )
    assert slope(pushed) == F(412, 45)
