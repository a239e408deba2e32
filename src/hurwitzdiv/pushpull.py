"""Operators between the moduli spaces: pullback, product, pushforward.

Three maps are implemented, all as exact linear (or bilinear) operators on
sparse coefficient vectors:

* `elliptic_tail_pullback` -- pullback along the map that attaches a fixed
  one-pointed elliptic curve at the marked point, from classes on the
  genus-(g+1) space to classes on the one-pointed genus-g space:

      lambda -> lambda,   delta_0 -> delta_0,
      delta_1 -> -psi + delta_{g-1},
      delta_i -> delta_{i-1} + delta_{g-i}   for i >= 2.

* `multiply` -- the formal symmetric product of two divisor classes on the
  one-pointed space, recorded as a :class:`QuadraticClass` over unordered
  pairs of basis labels.

* `forgetful_pushforward` -- pushforward along forgetting the marked point,
  determined on monomials by

      psi*psi     -> 12 lambda - delta_0 - ... - delta_{floor(g/2)},
      psi*lambda  -> (2g-2) lambda,
      psi*delta_0 -> (2g-2) delta_0,
      psi*delta_i -> (2i-2) delta_{min(i, g-i)}   for 1 <= i <= g-1,

  and zero on every monomial not involving psi.  The non-psi rules follow
  from the projection formula: lambda and delta_0 are pullbacks from the
  unpointed space, the fibre degree of psi is 2g-2, and boundary classes
  push forward to zero in this codimension.  The delta-index fold
  min(i, g-i) is forced because the unpointed space only carries delta_i for
  i <= g/2; the whole table is validated end-to-end by the closed-form slope
  identity for the odd-genus divisors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .spaces import (
    KIND_MG,
    KIND_MG_POINTED,
    DivisorClass,
    Space,
    _basis_positions,
    space_mg,
    space_mg_pointed,
)

PairKey = tuple[str, str]


@dataclass(frozen=True)
class QuadraticClass:
    """Formal symmetric degree-2 combination of divisor generators.

    Keys are unordered pairs of basis labels of a one-pointed space, stored
    with the earlier basis label first; values are exact rationals.
    """

    space: Space
    coeffs: tuple[tuple[PairKey, Fraction], ...]

    @classmethod
    def make(cls, space: Space, coefficients: dict[PairKey, Fraction | int]) -> "QuadraticClass":
        if space.kind != KIND_MG_POINTED:
            raise InputError(f"quadratic classes live on {KIND_MG_POINTED}, got {space}")
        positions = _basis_positions(space)
        cleaned: dict[PairKey, Fraction] = {}
        for pair, value in coefficients.items():
            x, y = pair
            if x not in positions or y not in positions:
                raise InputError(f"{pair!r} is not a pair of basis labels of {space}")
            if positions[x] > positions[y]:
                x, y = y, x
            value = Fraction(value)
            if value:
                cleaned[(x, y)] = cleaned.get((x, y), Fraction(0)) + value
        ordered = tuple(
            sorted(
                ((pair, value) for pair, value in cleaned.items() if value),
                key=lambda item: (positions[item[0][0]], positions[item[0][1]]),
            )
        )
        return cls(space, ordered)

    def coefficient(self, x: str, y: str) -> Fraction:
        if self.space.basis_position(x) > self.space.basis_position(y):
            x, y = y, x
        return self.as_dict().get((x, y), Fraction(0))

    def as_dict(self) -> dict[PairKey, Fraction]:
        return dict(self.coeffs)

    def __add__(self, other: "QuadraticClass") -> "QuadraticClass":
        if not isinstance(other, QuadraticClass):
            return NotImplemented
        if other.space != self.space:
            raise InputError(f"cannot add classes on {self.space} and {other.space}")
        merged = self.as_dict()
        for pair, value in other.coeffs:
            merged[pair] = merged.get(pair, Fraction(0)) + value
        return QuadraticClass.make(self.space, merged)

    def __mul__(self, scalar: Fraction | int) -> "QuadraticClass":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return QuadraticClass.make(
            self.space, {pair: Fraction(scalar) * value for pair, value in self.coeffs}
        )

    __rmul__ = __mul__


def elliptic_tail_pullback(divisor: DivisorClass) -> DivisorClass:
    """Pull a genus-(g+1) class back to the one-pointed genus-g space."""
    if divisor.space.kind != KIND_MG:
        raise InputError(f"pullback applies to {KIND_MG} classes, got {divisor.space}")
    h = divisor.space.g
    g = h - 1
    if g < 2:
        raise InputError(f"target genus must be >= 2, got g = {g}")
    target = space_mg_pointed(g)
    out: dict[str, Fraction] = {}

    def accumulate(label: str, value: Fraction) -> None:
        out[label] = out.get(label, Fraction(0)) + value

    for label, value in divisor.coeffs:
        if label == "lambda":
            accumulate("lambda", value)
        elif label == "delta_0":
            accumulate("delta_0", value)
        elif label == "delta_1":
            accumulate("psi", -value)
            accumulate(f"delta_{g - 1}", value)
        else:
            i = int(label.split("_")[1])
            accumulate(f"delta_{i - 1}", value)
            accumulate(f"delta_{g - i}", value)
    return DivisorClass.make(target, out)


def multiply(left: DivisorClass, right: DivisorClass) -> QuadraticClass:
    """Formal symmetric product of two classes on the same one-pointed space."""
    if left.space.kind != KIND_MG_POINTED or right.space.kind != KIND_MG_POINTED:
        raise InputError("both factors must live on a one-pointed space")
    if left.space != right.space:
        raise InputError(f"space mismatch: {left.space} vs {right.space}")
    out: dict[PairKey, Fraction] = {}
    for x, a in left.coeffs:
        for y, b in right.coeffs:
            key = (x, y)
            out[key] = out.get(key, Fraction(0)) + a * b
    return QuadraticClass.make(left.space, out)


def forgetful_pushforward(quadratic: QuadraticClass) -> DivisorClass:
    """Push a quadratic class on the one-pointed space down to the unpointed one."""
    g = quadratic.space.g
    target = space_mg(g)
    out: dict[str, Fraction] = {}

    def accumulate(label: str, value: Fraction) -> None:
        out[label] = out.get(label, Fraction(0)) + value

    for (x, y), value in quadratic.coeffs:
        if x == "psi" and y == "psi":
            accumulate("lambda", 12 * value)
            for i in range(g // 2 + 1):
                accumulate(f"delta_{i}", -value)
        elif "psi" in (x, y):
            other = y if x == "psi" else x
            if other == "lambda":
                accumulate("lambda", (2 * g - 2) * value)
            elif other == "delta_0":
                accumulate("delta_0", (2 * g - 2) * value)
            else:
                i = int(other.split("_")[1])
                accumulate(f"delta_{min(i, g - i)}", (2 * i - 2) * value)
        # monomials without psi push forward to zero
    return DivisorClass.make(target, out)
