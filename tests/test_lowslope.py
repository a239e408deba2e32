"""Low-slope divisor recipes and their closed-form slopes."""

from __future__ import annotations

from fractions import Fraction

import pytest

import hurwitzdiv.lowslope as lowslope
from hurwitzdiv import (
    InputError,
    InvariantError,
    best_recipe,
    elliptic_tail_pullback,
    forgetful_pushforward,
    multiply,
    odd_genus_divisor,
    odd_genus_slope,
    scan,
    second_hilbert_divisor,
    slope,
    syzygy_divisor_g7,
    third_hilbert_divisor,
    user_divisor,
    verify_stack,
    weierstrass_class,
)
from hurwitzdiv.lowslope import DivisorRecipe, genus_recipe, recipe_for_degree

F = Fraction


def closed_form(g: int) -> Fraction:
    return F(2 * (7 * g**4 + 43 * g**3 + 7 * g**2 - 7 * g - 2), g * (g + 1) * (g + 3) * (2 * g - 1))


def test_second_hilbert_examples():
    assert second_hilbert_divisor(8).slope == F(31, 4)
    rec6 = second_hilbert_divisor(6)
    assert rec6.slope == 8
    scale = F(6 * 7, 2)
    assert rec6.divisor_class.coefficient("delta_1") / scale == -4
    # pipeline and displayed class agree (the constructor asserts it); spot-check g=10
    rec10 = second_hilbert_divisor(10)
    scale10 = F(10 * 11, 2)
    assert rec10.divisor_class.coefficient("lambda") == scale10 * (7 + F(6, 10))
    assert rec10.divisor_class.coefficient("delta_0") == -scale10
    for j in range(2, 6):
        assert rec10.divisor_class.coefficient(f"delta_{j}") == -scale10


def test_second_hilbert_errors():
    with pytest.raises(InputError):
        second_hilbert_divisor(7)
    with pytest.raises(InputError):
        second_hilbert_divisor(4)


def test_odd_divisor_examples():
    assert odd_genus_divisor(15).slope == F(62621, 7830)
    assert F(62621, 7830) < 8
    assert odd_genus_slope(13) > 8
    assert odd_genus_slope(5) == F(412, 45)
    with pytest.raises(InputError):
        odd_genus_divisor(8)
    with pytest.raises(InputError):
        odd_genus_divisor(3)


def test_odd_divisor_equals_the_full_pushforward_of_the_product():
    # the psi-row construction against pushforward(multiply(A, W)) over all of A*W
    for g in range(5, 42, 2):
        h = g + 1
        even = F(2, h * (h + 1)) * second_hilbert_divisor(h).divisor_class
        full = forgetful_pushforward(multiply(elliptic_tail_pullback(even), weierstrass_class(g)))
        recipe = odd_genus_divisor(g)
        assert recipe.divisor_class == full, g
        assert recipe.slope == odd_genus_slope(g)


def test_odd_divisor_undefined_slope_is_an_invariant_error(monkeypatch):
    monkeypatch.setattr(lowslope, "slope", lambda divisor: None)
    with pytest.raises(InvariantError, match="undefined slope"):
        odd_genus_divisor(15)


def test_odd_divisor_delta0_structure():
    # the delta_0 coefficient collects -g(g^2-1) from the even-genus delta_0
    # term plus the psi^2 contribution of the delta_1 term
    for g in (5, 7, 11):
        rec = odd_genus_divisor(g)
        b1 = 5 - F(6, g + 1)
        expected = -(g * (g**2 - 1) + F(g * (g + 1), 2) * b1)
        assert rec.divisor_class.coefficient("delta_0") == expected


def test_odd_slope_closed_forms_agree():
    for g in range(5, 50, 2):
        assert odd_genus_slope(g) == closed_form(g)
        assert slope(odd_genus_divisor(g).divisor_class) == closed_form(g)


def test_odd_slope_minimum_is_delta0():
    for g in range(5, 50, 2):
        cls = odd_genus_divisor(g).divisor_class
        b0 = -cls.coefficient("delta_0")
        for i in range(1, g // 2 + 1):
            assert -cls.coefficient(f"delta_{i}") >= b0


def test_odd_slope_threshold():
    for g in range(5, 100, 2):
        assert (odd_genus_slope(g) < 8) == (g >= 15)


def test_even_slope_threshold():
    for g in range(6, 62, 2):
        assert (second_hilbert_divisor(g).slope < 8) == (g >= 8)


def test_syzygy_divisor():
    rec = syzygy_divisor_g7()
    assert rec.slope == F(54, 7)
    assert rec.slope == 7 + F(5, 7)
    assert rec.slope < 8
    assert rec.g == 7
    assert rec.avoided_gonality == 4


def test_third_hilbert_conditional():
    rec = third_hilbert_divisor(9)
    assert rec.slope == F(22, 3) + F(5, 9)
    assert "UNPROVEN" in rec.hypotheses[0]


def test_recipe_hypotheses_nonempty_and_parse():
    for rec in (second_hilbert_divisor(8), odd_genus_divisor(15), syzygy_divisor_g7()):
        assert rec.hypotheses
    assert second_hilbert_divisor(8).avoided_gonality == 3
    assert user_divisor(6, F(54, 7), 4).avoided_gonality == 4


def test_best_recipe_selection():
    assert best_recipe(8, 5).name == "Hilbert2Even"
    assert best_recipe(8, 5).slope == F(31, 4)
    assert best_recipe(13, 3) is None
    assert best_recipe(7, 4).name == "SyzygyG7"
    assert best_recipe(7, 3) is None
    assert best_recipe(7, 5) is None
    assert best_recipe(6, 3) is None  # slope exactly 8
    assert best_recipe(15, 3).name == "OddPushforward"
    assert best_recipe(4, 3) is None
    with pytest.raises(InputError):
        best_recipe(3, 3)
    with pytest.raises(InputError):
        best_recipe(8, 2)


def test_best_recipe_records_k_gonal_avoidance():
    rec = best_recipe(8, 5)
    assert rec.avoided_gonality == 3
    assert any("5-gonal" in h for h in verify_stack(8, 5, rec).hypotheses)


def test_recipe_for_degree_returns_the_genus_recipe():
    for g, k in ((8, 5), (15, 3), (15, 10), (7, 4), (10, 3)):
        base = genus_recipe(g)
        assert recipe_for_degree(base, k) is base
    assert recipe_for_degree(syzygy_divisor_g7(), 5) is None
    assert recipe_for_degree(syzygy_divisor_g7(), 3) is None
    assert recipe_for_degree(None, 3) is None


def test_recipe_rejects_an_avoided_gonality_its_prose_does_not_state():
    rec = second_hilbert_divisor(8)
    for m in (4, "3", True, 1, None):
        with pytest.raises(InputError):
            DivisorRecipe(rec.name, rec.g, rec.divisor_class, rec.slope, rec.hypotheses, m)


def test_scan_checks_each_distinct_class_once(monkeypatch):
    checks = []
    post_init = DivisorRecipe.__post_init__

    def counted(self):
        checks.append((self.name, self.g))
        post_init(self)

    monkeypatch.setattr(DivisorRecipe, "__post_init__", counted)
    table = scan(3, 10, 6, 60)
    served = {(row.recipe, row.g) for row in table.rows if row.recipe != "none"}
    assert len(served) == 51
    assert sorted(checks) == sorted(served)


def test_best_recipe_conditional_opt_in():
    assert best_recipe(9, 3) is None
    conditional = best_recipe(9, 3, allow_conditional=True)
    assert conditional is not None
    assert conditional.name == "Hilbert3Conditional"
    assert conditional.slope == F(22, 3) + F(5, 9)
    assert conditional.slope < 8
    # cells with an unconditional recipe are unaffected
    assert best_recipe(8, 3, allow_conditional=True).name == "Hilbert2Even"
