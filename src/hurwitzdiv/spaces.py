"""Exact-rational divisor classes on the moduli spaces of the construction.

Four spaces carry a named divisor-class basis here:

* ``GenusZeroPointed(b)`` -- genus-0 curves with b ordered points, basis
  ``B_2, ..., B_{floor(b/2)}`` of boundary divisors (B_i = both points split
  off i of the markings; B_i and B_{b-i} coincide).
* ``Mg(g)`` -- stable curves of genus g, basis ``lambda, delta_0, ...,
  delta_{floor(g/2)}``.
* ``MgPseudoStable(g)`` -- pseudo-stable curves (cusps allowed, no elliptic
  tails), basis ``lambda_ps, delta_0_ps, delta_2_ps, ...``; there is no
  delta_1 because the contraction of elliptic tails kills it.
* ``MgOnePointed(g)`` -- one-pointed stable curves, basis ``lambda, psi,
  delta_0, ..., delta_{g-1}``.

A :class:`DivisorClass` is a sparse map from basis labels to exact rationals
(absent = 0); addition and scaling never leave the space, and no floating
point enters any computation.

:class:`DivisorClass`, ``pushpull.QuadraticClass`` and ``hurwitz.HurwitzClass``
share one core: `_ordered_terms` turns the (key, value) terms of `make` into
stored coefficients, and :class:`SparseClass` holds their arithmetic.  A
linear operator such as `pseudostable_pullback` yields the terms of its image
straight into `make`; the cover-space tables, already in index order, call
the constructor.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from operator import itemgetter

from .errors import InputError

KIND_M0B = "GenusZeroPointed"
KIND_MG = "Mg"
KIND_MG_PSEUDOSTABLE = "MgPseudoStable"
KIND_MG_POINTED = "MgOnePointed"

Rational = Fraction | int
# what `make` takes: a dict or an iterable of (key, value) terms
Terms = dict | Iterable[tuple[Hashable, Rational]]


@dataclass(frozen=True)
class Space:
    """Descriptor of a moduli space together with its divisor basis."""

    kind: str
    g: int | None = None
    b: int | None = None

    def __post_init__(self) -> None:
        if self.kind == KIND_M0B:
            if self.g is not None or not isinstance(self.b, int) or self.b < 4:
                raise InputError(f"{self.kind} needs b >= 4, got b={self.b!r}")
        elif self.kind in (KIND_MG, KIND_MG_POINTED):
            if self.b is not None or not isinstance(self.g, int) or self.g < 2:
                raise InputError(f"{self.kind} needs g >= 2, got g={self.g!r}")
        elif self.kind == KIND_MG_PSEUDOSTABLE:
            if self.b is not None or not isinstance(self.g, int) or self.g < 3:
                raise InputError(f"{self.kind} needs g >= 3, got g={self.g!r}")
        else:
            raise InputError(f"unknown space kind {self.kind!r}")

    def basis(self) -> tuple[str, ...]:
        if self.kind == KIND_M0B:
            return tuple(f"B_{i}" for i in range(2, self.b // 2 + 1))
        if self.kind == KIND_MG:
            return ("lambda",) + tuple(f"delta_{i}" for i in range(self.g // 2 + 1))
        if self.kind == KIND_MG_PSEUDOSTABLE:
            return ("lambda_ps", "delta_0_ps") + tuple(
                f"delta_{j}_ps" for j in range(2, self.g // 2 + 1)
            )
        return ("lambda", "psi") + tuple(f"delta_{i}" for i in range(self.g))

    def basis_position(self, label: str) -> int:
        try:
            return _basis_positions(self)[label]
        except KeyError:
            raise InputError(f"{label!r} is not a basis label of {self}") from None

    def __str__(self) -> str:
        param = f"b={self.b}" if self.kind == KIND_M0B else f"g={self.g}"
        return f"{self.kind}({param})"


# A divisor recipe or a cover-space class works on three spaces at most.
@lru_cache(maxsize=8)
def _basis_positions(space: Space) -> dict[str, int]:
    """Position of each label in `space.basis()`, in basis order; built once per space."""
    return {label: n for n, label in enumerate(space.basis())}


def space_m0b(b: int) -> Space:
    return Space(KIND_M0B, b=b)


def space_mg(g: int) -> Space:
    return Space(KIND_MG, g=g)


def space_mg_pseudostable(g: int) -> Space:
    return Space(KIND_MG_PSEUDOSTABLE, g=g)


def space_mg_pointed(g: int) -> Space:
    return Space(KIND_MG_POINTED, g=g)


def _ordered_terms(terms: Terms, rank: Callable[[Hashable], object], where: object) -> tuple:
    """The canonical coefficients of a sparse class on the basis of `where`.

    `terms` is a dict or an iterable of (key, value) pairs; repeated keys are
    summed.  Each value must be an int or a Fraction, and each key must have a
    `rank(key)`, its position in the basis (KeyError for a foreign key);
    either fault raises InputError.  Returns the nonzero sums as (key,
    Fraction) pairs in basis order.
    """
    sums: dict = {}
    for key, value in terms.items() if isinstance(terms, dict) else terms:
        if not isinstance(value, (int, Fraction)):
            raise InputError(f"the coefficient of {key!r} must be an int or a Fraction, "
                             f"got {value!r}")
        sums[key] = sums[key] + value if key in sums else value
    ranked = []
    for key, value in sums.items():
        try:
            position = rank(key)
        except KeyError:
            raise InputError(f"{key!r} is not a basis key of {where}") from None
        if value:
            ranked.append((position, key, value))
    ranked.sort(key=itemgetter(0))
    return tuple(
        (key, value if isinstance(value, Fraction) else Fraction(value))
        for _, key, value in ranked
    )


class SparseClass:
    """Arithmetic shared by the sparse classes.

    A subclass is a frozen dataclass whose `coeffs` field holds (key,
    Fraction) pairs as `_ordered_terms` returns them, and whose `_basis`
    returns its space, which `+` must match, and the rank of its keys.  Sums,
    negatives and multiples go through `_ordered_terms` again, so every key
    is checked on every build.
    """

    def _with_terms(self, terms: Iterable, other: "SparseClass | None" = None) -> "SparseClass":
        """A class on the same space with the given terms; `other` is the second summand."""
        where, rank = self._basis()
        return replace(self, coeffs=_ordered_terms(terms, rank, where))

    def as_dict(self) -> dict:
        return dict(self.coeffs)

    def __add__(self, other: "SparseClass") -> "SparseClass":
        if not isinstance(other, type(self)):
            return NotImplemented
        where, other_where = self._basis()[0], other._basis()[0]
        if where != other_where:
            raise InputError(f"cannot add classes on {where} and {other_where}")
        return self._with_terms(chain(self.coeffs, other.coeffs), other)

    def __neg__(self) -> "SparseClass":
        return self * -1

    def __sub__(self, other: "SparseClass") -> "SparseClass":
        return self + -other

    def __mul__(self, scalar: Rational) -> "SparseClass":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return self._with_terms((key, scalar * value) for key, value in self.coeffs)

    __rmul__ = __mul__


@dataclass(frozen=True)
class DivisorClass(SparseClass):
    """Sparse exact-rational combination of the basis divisors of a space.

    `coeffs` is kept in canonical form: pairs sorted by basis position, zero
    values dropped, all values `Fraction`.  Use :meth:`make` rather than the
    raw constructor.
    """

    space: Space
    coeffs: tuple[tuple[str, Fraction], ...]

    @classmethod
    def make(cls, space: Space, coefficients: Terms) -> "DivisorClass":
        return cls(space, _ordered_terms(coefficients, _basis_positions(space).__getitem__, space))

    @classmethod
    def zero(cls, space: Space) -> "DivisorClass":
        return cls(space, ())

    def coefficient(self, label: str) -> Fraction:
        self.space.basis_position(label)
        return self.as_dict().get(label, Fraction(0))

    def _basis(self) -> tuple[Space, Callable[[str], int]]:
        return self.space, _basis_positions(self.space).__getitem__


def canonical_class_m0b(b: int) -> DivisorClass:
    """Canonical class of the space of b ordered points on a line.

    The coefficient of B_i is i(b-i)/(b-1) - 2.
    """
    _check_even_b(b)
    space = space_m0b(b)
    return DivisorClass.make(
        space,
        {f"B_{i}": Fraction(i * (b - i), b - 1) - 2 for i in range(2, b // 2 + 1)},
    )


def kappa1_m0b(b: int) -> DivisorClass:
    """First kappa class, ample here; coefficient of B_i is (i-1)(b-i-1)/(b-1)."""
    _check_even_b(b)
    space = space_m0b(b)
    return DivisorClass.make(
        space,
        {f"B_{i}": Fraction((i - 1) * (b - i - 1), b - 1) for i in range(2, b // 2 + 1)},
    )


def _check_even_b(b: int) -> None:
    if not isinstance(b, int) or b < 4 or b % 2 != 0:
        raise InputError(f"b must be an even integer >= 4, got {b!r}")


def is_big_boundary_positive(divisor: DivisorClass) -> tuple[bool, Fraction]:
    """Bigness test on the genus-0 space: all boundary coefficients positive.

    Returns ``(verdict, alpha)`` where alpha is the largest rational with
    ``divisor - alpha * kappa1`` coefficient-wise non-negative; the verdict
    holds exactly when alpha > 0, since kappa1 is ample with strictly
    positive coefficients everywhere.
    """
    if divisor.space.kind != KIND_M0B:
        raise InputError(f"bigness test applies to {KIND_M0B} classes, got {divisor.space}")
    values = divisor.as_dict()
    kappa = kappa1_m0b(divisor.space.b).as_dict()
    alpha: Fraction | None = None
    for label in divisor.space.basis():
        c = values.get(label, 0)
        if c <= 0:
            return (False, Fraction(0))
        ratio = c / kappa[label]
        alpha = ratio if alpha is None else min(alpha, ratio)
    return (True, alpha if alpha is not None else Fraction(0))


def slope(divisor: DivisorClass) -> Fraction | None:
    """Slope a / min_i b_i of a class a*lambda - sum b_i*delta_i on Mg.

    Returns None ("undefined") unless a > 0 and every b_i > 0.  The formula
    is evaluated regardless of whether the class is effective; effectivity is
    tracked separately as a hypothesis on the recipes that use it.
    """
    if divisor.space.kind != KIND_MG:
        raise InputError(f"slope is defined for {KIND_MG} classes, got {divisor.space}")
    values = divisor.as_dict()
    a = values.get("lambda", 0)
    if a <= 0:
        return None
    negated = [-values.get(f"delta_{i}", 0) for i in range(divisor.space.g // 2 + 1)]
    if any(bi <= 0 for bi in negated):
        return None
    return a / min(negated)


def weierstrass_class(g: int) -> DivisorClass:
    """Closure of the Weierstrass-point divisor on the one-pointed space.

    -lambda + C(g+1,2) psi - sum_{i=1}^{g-1} C(g-i+1,2) delta_i, with no
    delta_0 term.
    """
    if not isinstance(g, int) or g < 2:
        raise InputError(f"g must be an integer >= 2, got {g!r}")
    coeffs: dict[str, Rational] = {
        "lambda": -1,
        "psi": Fraction(g * (g + 1), 2),
    }
    for i in range(1, g):
        coeffs[f"delta_{i}"] = -Fraction((g - i + 1) * (g - i), 2)
    return DivisorClass.make(space_mg_pointed(g), coeffs)


def pseudostable_pullback(divisor: DivisorClass) -> DivisorClass:
    """Pull a pseudo-stable class back along the elliptic-tail contraction.

    lambda_ps -> lambda + delta_1, delta_0_ps -> delta_0 + 12 delta_1, and
    delta_j_ps -> delta_j for j >= 2, extended linearly.
    """
    if divisor.space.kind != KIND_MG_PSEUDOSTABLE:
        raise InputError(
            f"pullback applies to {KIND_MG_PSEUDOSTABLE} classes, got {divisor.space}"
        )

    def terms() -> Iterable[tuple[str, Fraction]]:
        for label, value in divisor.coeffs:
            if label == "lambda_ps":
                yield "lambda", value
                yield "delta_1", value
            elif label == "delta_0_ps":
                yield "delta_0", value
                yield "delta_1", 12 * value
            else:
                yield label.removesuffix("_ps"), value

    return DivisorClass.make(space_mg(divisor.space.g), terms())
