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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import InputError

KIND_M0B = "GenusZeroPointed"
KIND_MG = "Mg"
KIND_MG_PSEUDOSTABLE = "MgPseudoStable"
KIND_MG_POINTED = "MgOnePointed"

Rational = Fraction | int


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


@dataclass(frozen=True)
class DivisorClass:
    """Sparse exact-rational combination of the basis divisors of a space.

    `coeffs` is kept in canonical form: pairs sorted by basis position, zero
    values dropped, all values `Fraction`.  Use :meth:`make` rather than the
    raw constructor.
    """

    space: Space
    coeffs: tuple[tuple[str, Fraction], ...]

    @classmethod
    def make(cls, space: Space, coefficients: dict[str, Rational]) -> "DivisorClass":
        positions = _basis_positions(space)
        cleaned: dict[str, Fraction] = {}
        for label, value in coefficients.items():
            if label not in positions:
                raise InputError(f"{label!r} is not a basis label of {space}")
            value = Fraction(value)
            if value:
                cleaned[label] = value
        ordered = tuple(sorted(cleaned.items(), key=lambda item: positions[item[0]]))
        return cls(space, ordered)

    @classmethod
    def zero(cls, space: Space) -> "DivisorClass":
        return cls(space, ())

    def coefficient(self, label: str) -> Fraction:
        self.space.basis_position(label)
        return self.as_dict().get(label, Fraction(0))

    def as_dict(self) -> dict[str, Fraction]:
        return dict(self.coeffs)

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        if not isinstance(other, DivisorClass):
            return NotImplemented
        if other.space != self.space:
            raise InputError(f"cannot add classes on {self.space} and {other.space}")
        merged = self.as_dict()
        for label, value in other.coeffs:
            merged[label] = merged.get(label, Fraction(0)) + value
        return DivisorClass.make(self.space, merged)

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(self.space, tuple((label, -value) for label, value in self.coeffs))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return self + (-other)

    def __mul__(self, scalar: Rational) -> "DivisorClass":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        scalar = Fraction(scalar)
        if scalar == 0:
            return DivisorClass.zero(self.space)
        return DivisorClass(
            self.space, tuple((label, scalar * value) for label, value in self.coeffs)
        )

    __rmul__ = __mul__


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
    b = divisor.space.b
    kappa = kappa1_m0b(b)
    alpha: Fraction | None = None
    for label in divisor.space.basis():
        c = divisor.coefficient(label)
        if c <= 0:
            return (False, Fraction(0))
        ratio = c / kappa.coefficient(label)
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
    a = divisor.coefficient("lambda")
    if a <= 0:
        return None
    negated = [-divisor.coefficient(f"delta_{i}") for i in range(divisor.space.g // 2 + 1)]
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
    g = divisor.space.g
    target = space_mg(g)
    out: dict[str, Fraction] = {}

    def accumulate(label: str, value: Fraction) -> None:
        out[label] = out.get(label, Fraction(0)) + value

    for label, value in divisor.coeffs:
        if label == "lambda_ps":
            accumulate("lambda", value)
            accumulate("delta_1", value)
        elif label == "delta_0_ps":
            accumulate("delta_0", value)
            accumulate("delta_1", 12 * value)
        else:
            j = int(label.split("_")[1])
            accumulate(f"delta_{j}", value)
    return DivisorClass.make(target, out)
