"""Constructors for the low-slope effective divisors on the genus-g space.

Three families are built, each packaged as a :class:`DivisorRecipe` carrying
the exact class, its slope, and the geometric hypotheses it rests on (which
are assumed, never verified here):

* even genus g >= 6: the hyperplane pullback through the second-Hilbert-point
  model, of slope 7 + 6/g; below 8 exactly for g >= 8.  The class is built
  through the pseudo-stable pipeline ((7+6/g) lambda_ps - delta_ps, pulled
  back and scaled by g(g+1)/2) and checked against its direct expansion.
* odd genus g >= 5: the pushforward of the even-genus divisor in genus g+1,
  pulled back along the elliptic-tail map and multiplied against the
  Weierstrass divisor before pushing down.  Its slope has the closed form

      2 (7g^4 + 43g^3 + 7g^2 - 7g - 2) / (g (g+1) (g+3) (2g-1)),

  below 8 exactly for g >= 15.
* genus 7: the hyperplane pullback through the first-syzygy-point model, of
  slope 54/7, avoiding the 4-gonal locus.

Each recipe records the m whose m-gonal locus it is assumed to miss as the
integer `avoided_gonality`; its hypothesis line is rendered from m, never
parsed.  `_recipe` is the one place where a built-in recipe's hypotheses are
formed, from its effectivity line and m, so each builder states m once.
`best_recipe` is `genus_recipe`, the divisor of the genus (built once per
genus by a scan), followed by `recipe_for_degree`, the one rule for which k
that divisor serves.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import InputError, InvariantError, Validated
from .pushpull import elliptic_tail_pullback, forgetful_pushforward, multiply
from .spaces import (
    DivisorClass,
    Space,
    _basis_positions,
    pseudostable_pullback,
    slope,
    space_mg,
    space_mg_pointed,
    space_mg_pseudostable,
    weierstrass_class,
)

RECIPE_HILBERT2 = "Hilbert2Even"
RECIPE_ODD_PUSHFORWARD = "OddPushforward"
RECIPE_SYZYGY_G7 = "SyzygyG7"
RECIPE_HILBERT3_CONDITIONAL = "Hilbert3Conditional"
RECIPE_USER = "UserSupplied"

RECIPE_NAMES = (
    RECIPE_HILBERT2,
    RECIPE_ODD_PUSHFORWARD,
    RECIPE_SYZYGY_G7,
    RECIPE_HILBERT3_CONDITIONAL,
    RECIPE_USER,
)


class DivisorRecipe(Validated, namedtuple(
        "DivisorRecipe", "name g divisor_class slope hypotheses avoided_gonality")):
    """An effective divisor class on the genus-g space plus its provenance.

    `hypotheses` lists the geometric inputs (effectivity, gonality-locus
    avoidance) that this package takes as given.  `avoided_gonality` is the
    m whose m-gonal locus the divisor is assumed to miss, and `hypotheses`
    must contain the avoidance line rendered from it.
    """

    __slots__ = ()
    name: str
    g: int
    divisor_class: DivisorClass
    slope: Fraction
    hypotheses: tuple[str, ...]
    avoided_gonality: int

    def __post_init__(self) -> None:
        if self.name not in RECIPE_NAMES:
            raise InputError(f"unknown recipe name {self.name!r}")
        if self.divisor_class.space != space_mg(self.g):
            raise InputError(f"the class is on {self.divisor_class.space}, not genus {self.g!r}")
        m = self.avoided_gonality
        if not isinstance(m, int) or isinstance(m, bool) or m < 2:
            raise InputError(f"the avoided gonality must be an integer >= 2, got {m!r}")
        if _avoidance_line(m) not in self.hypotheses:
            raise InputError(f"the hypotheses do not state avoidance of the {m}-gonal locus")
        recomputed = slope(self.divisor_class)
        if recomputed is None:
            raise InputError("the class has no slope (it needs lambda > 0 and every delta_i < 0)")
        if recomputed != self.slope:
            raise InputError(f"stored slope {self.slope} != recomputed {recomputed}")


def _avoidance_line(m: int) -> str:
    return f"does not contain the {m}-gonal locus (assumed)"


def _containment_lines(m: int, k: int) -> tuple[str, ...]:
    """Why a divisor that misses the m-gonal locus misses the k-gonal one; () when k == m."""
    if k == m:
        return ()
    return (f"does not contain the {k}-gonal locus (the {m}-gonal locus lies inside it)",)


def _recipe(
    name: str, divisor_class: DivisorClass, slope: Fraction, m: int, effective: str
) -> DivisorRecipe:
    """The recipe whose hypotheses are `effective` and the avoidance of the m-gonal locus."""
    g = divisor_class.space.g
    return DivisorRecipe(name, g, divisor_class, slope, (effective, _avoidance_line(m)), m)


def _slope_recipe(name: str, g: int, s: Fraction, m: int, effective: str) -> DivisorRecipe:
    """The recipe whose class is the stand-in s lambda - delta of genus g."""
    return _recipe(name, _slope_class(space_mg(g), s), s, m, effective)


def _slope_class(space: Space, s: Fraction) -> DivisorClass:
    """s lambda minus every delta of the basis, on the genus-g space or its pseudo-stable model."""
    lambda_label, *delta_labels = _basis_positions(space)
    return DivisorClass.make(space, [(lambda_label, s)] + [(x, -1) for x in delta_labels])


def second_hilbert_divisor(g: int) -> DivisorRecipe:
    """Even-genus divisor of slope 7 + 6/g through the second Hilbert point.

    The class equals g(g+1)/2 times
    (7+6/g) lambda - delta_0 - (5-6/g) delta_1 - delta_2 - ... and is
    produced by pulling (7+6/g) lambda_ps - delta_ps back from the
    pseudo-stable space; both routes are compared coefficient for
    coefficient before returning.
    """
    if not isinstance(g, int) or g < 6 or g % 2 != 0:
        raise InputError(f"the second-Hilbert divisor needs even g >= 6, got {g!r}")
    return _recipe(
        RECIPE_HILBERT2, _second_hilbert_class(g), 7 + Fraction(6, g), 3,
        "effective: hyperplane pullback through the second-Hilbert-point model "
        "(semistability assumed)",
    )


def _second_hilbert_class(g: int) -> DivisorClass:
    """The class of `second_hilbert_divisor(g)`, checked against the pseudo-stable route."""
    scale = Fraction(g * (g + 1), 2)
    s = 7 + Fraction(6, g)
    pipeline = scale * pseudostable_pullback(_slope_class(space_mg_pseudostable(g), s))

    direct_coeffs: dict[str, Fraction] = {
        "lambda": scale * s,
        "delta_0": -scale,
        "delta_1": -scale * (5 - Fraction(6, g)),
    }
    for j in range(2, g // 2 + 1):
        direct_coeffs[f"delta_{j}"] = -scale
    direct = DivisorClass.make(space_mg(g), direct_coeffs)
    if pipeline != direct:
        raise InvariantError("pseudo-stable pipeline disagrees with the direct expansion")
    return direct


def odd_genus_slope(g: int) -> Fraction:
    """Closed-form slope of the odd-genus pushforward divisor.

    Two equivalent closed forms exist; both are evaluated and compared before
    one is returned.
    """
    if not isinstance(g, int) or g < 5 or g % 2 != 1:
        raise InputError(f"the odd-genus slope needs odd g >= 5, got {g!r}")
    first = Fraction(
        2 * (7 * g**4 + 43 * g**3 + 7 * g**2 - 7 * g - 2),
        g * (g + 1) * (g + 3) * (2 * g - 1),
    )
    second = (
        7
        + Fraction(6, g + 1)
        + Fraction((5 * g - 1) * (5 * g**2 - 5 * g + 4), g * (g + 3) * (2 * g - 1) * (g + 1))
    )
    if first != second:
        raise InvariantError("the two closed forms for the odd-genus slope disagree")
    return first


def odd_genus_divisor(g: int) -> DivisorRecipe:
    """Odd-genus divisor: push the even-genus divisor down from genus g+1.

    Start from the even-genus class in genus h = g+1, normalised by
    2/(h(h+1)) to lambda coefficient 7 + 6/h, pull back along the
    elliptic-tail map, multiply by the Weierstrass divisor, and push forward
    along the forgetful map.  The pushforward kills every monomial without
    psi, so with a and w the psi coefficients of the pulled-back class A and
    of the Weierstrass class W only the psi terms of A*W are built:
    a psi*W + w psi*(A - a psi), O(g) terms instead of O(g^2).
    """
    if not isinstance(g, int) or g < 5 or g % 2 != 1:
        raise InputError(f"the odd-genus divisor needs odd g >= 5, got {g!r}")
    h = g + 1
    pulled = elliptic_tail_pullback(Fraction(2, h * (h + 1)) * _second_hilbert_class(h))
    weierstrass = weierstrass_class(g)
    psi = DivisorClass.make(space_mg_pointed(g), {"psi": 1})
    a, w = pulled.coefficient("psi"), weierstrass.coefficient("psi")
    pushed = forgetful_pushforward(
        a * multiply(psi, weierstrass) + w * multiply(psi, pulled - a * psi)
    )
    s = slope(pushed)
    if s is None:
        raise InvariantError("the pushforward divisor has an undefined slope")
    return _recipe(
        RECIPE_ODD_PUSHFORWARD, pushed, s, 3,
        "effective: pushforward of an even-genus hyperplane pullback against "
        "the Weierstrass divisor (semistability in genus g+1 assumed)",
    )


def syzygy_divisor_g7() -> DivisorRecipe:
    """Genus-7 divisor of slope 54/7 through the first-syzygy-point model."""
    return _slope_recipe(
        RECIPE_SYZYGY_G7, 7, Fraction(54, 7), 4,
        "effective: hyperplane pullback through the first-syzygy-point model "
        "(semistability assumed)",
    )


def third_hilbert_divisor(g: int) -> DivisorRecipe:
    """Conditional divisor of slope 22/3 + 5/g through the third Hilbert point.

    Rests on an unproven semistability statement; excluded from default
    recipe selection and scans, available only on explicit opt-in.
    """
    if not isinstance(g, int) or g < 4:
        raise InputError(f"the third-Hilbert divisor needs g >= 4, got {g!r}")
    return _slope_recipe(
        RECIPE_HILBERT3_CONDITIONAL, g, Fraction(22, 3) + Fraction(5, g), 3,
        "effective: hyperplane pullback through the third-Hilbert-point model "
        "(UNPROVEN semistability assumed)",
    )


def user_divisor(g: int, s: Fraction, k: int) -> DivisorRecipe:
    """Recipe for a user-supplied effective divisor of slope s on genus g.

    The class s*lambda - delta stands in for the asserted divisor; only the
    slope and the avoidance hypothesis enter any verification.
    """
    if not isinstance(g, int) or g < 2:
        raise InputError(f"g must be an integer >= 2, got {g!r}")
    s = Fraction(s)
    if s <= 0:
        raise InputError(f"a user-supplied slope must be positive, got {s}")
    return _slope_recipe(
        RECIPE_USER, g, s, k,
        "user-supplied effective divisor of the given slope (existence assumed)",
    )


def genus_recipe(g: int, allow_conditional: bool = False) -> DivisorRecipe | None:
    """The built-in divisor of genus g, whichever k it serves.

    Even g >= 8 use the second-Hilbert divisor, odd g >= 15 the pushforward
    divisor and g = 7 the syzygy divisor; with `allow_conditional`, the
    third-Hilbert divisor covers the remaining g >= 8.  Any other genus >= 2
    has no unconditional divisor of slope below 8 here and gets None.
    """
    if not isinstance(g, int) or g < 2:
        raise InputError(f"g must be an integer >= 2, got {g!r}")
    if g % 2 == 0 and g >= 8:
        return second_hilbert_divisor(g)
    if g % 2 == 1 and g >= 15:
        return odd_genus_divisor(g)
    if g == 7:
        return syzygy_divisor_g7()
    if allow_conditional and g >= 8:
        return third_hilbert_divisor(g)
    return None


def recipe_for_degree(recipe: DivisorRecipe | None, k: int) -> DivisorRecipe | None:
    """`recipe` if it serves the (g, k) cell, else None.

    This is the one rule for which k a recipe serves: those at least its
    avoided gonality, since the k-gonal locus then contains the avoided one.
    The syzygy divisor is used only at k = 4.
    """
    if not isinstance(k, int) or k < 3:
        raise InputError(f"k must be an integer >= 3, got {k!r}")
    if recipe is None or recipe.avoided_gonality > k:
        return None
    if recipe.name == RECIPE_SYZYGY_G7 and k != 4:
        return None
    return recipe


def best_recipe(g: int, k: int, allow_conditional: bool = False) -> DivisorRecipe | None:
    """The built-in divisor serving the (g, k) cell, if any.

    `genus_recipe` followed by `recipe_for_degree`; `allow_conditional` lets
    the third-Hilbert divisor fill cells with g >= 8 under its unproven
    hypothesis.
    """
    return recipe_for_degree(genus_recipe(g, allow_conditional), k)
