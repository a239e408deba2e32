"""Operators between the moduli spaces: pullback, product, pushforward.

Three maps are implemented, all as exact linear (or bilinear) operators on
sparse coefficient vectors.  Each yields the (key, value) terms of its image
straight into the `make` of the target class, which sums and checks them in
the sparse-class core of :mod:`.spaces`; :class:`QuadraticClass` shares that
core with the divisor classes.

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

from collections import namedtuple
from collections.abc import Callable, Iterable
from fractions import Fraction

from .errors import InputError
from .spaces import (
    KIND_MG,
    KIND_MG_POINTED,
    DivisorClass,
    Space,
    SparseClass,
    Terms,
    _basis_positions,
    _ordered_terms,
    space_mg,
    space_mg_pointed,
)

PairKey = tuple[str, str]


class QuadraticClass(SparseClass, namedtuple("QuadraticClass", "space coeffs")):
    """Formal symmetric degree-2 combination of divisor generators.

    Keys are unordered pairs of basis labels of a one-pointed space, stored
    with the earlier basis label first; values are exact rationals.
    """

    __slots__ = ()
    space: Space
    coeffs: tuple[tuple[PairKey, Fraction], ...]

    @classmethod
    def make(cls, space: Space, coefficients: Terms) -> "QuadraticClass":
        if space.kind != KIND_MG_POINTED:
            raise InputError(f"quadratic classes live on {KIND_MG_POINTED}, got {space}")
        if isinstance(coefficients, dict):
            coefficients = coefficients.items()
        positions = _basis_positions(space)
        # earlier basis label first; a foreign label is left for the rank to reject
        terms = (
            ((y, x) if positions.get(y, -1) < positions.get(x, -1) else (x, y), value)
            for (x, y), value in coefficients
        )
        return cls(space, _ordered_terms(terms, _pair_rank(space), space))

    def coefficient(self, x: str, y: str) -> Fraction:
        if self.space.basis_position(x) > self.space.basis_position(y):
            x, y = y, x
        return self.as_dict().get((x, y), Fraction(0))

    def _basis(self) -> tuple[Space, Callable[[PairKey], tuple[int, int]]]:
        return self.space, _pair_rank(self.space)


def _pair_rank(space: Space) -> Callable[[PairKey], tuple[int, int]]:
    """Rank of a pair of basis labels; KeyError for a foreign label."""
    positions = _basis_positions(space)
    return lambda pair: (positions[pair[0]], positions[pair[1]])


def elliptic_tail_pullback(divisor: DivisorClass) -> DivisorClass:
    """Pull a genus-(g+1) class back to the one-pointed genus-g space."""
    if divisor.space.kind != KIND_MG:
        raise InputError(f"pullback applies to {KIND_MG} classes, got {divisor.space}")
    h = divisor.space.g
    g = h - 1
    if g < 2:
        raise InputError(f"target genus must be >= 2, got g = {g}")

    def terms() -> Iterable[tuple[str, Fraction]]:
        for label, value in divisor.coeffs:
            if label in ("lambda", "delta_0"):
                yield label, value
            elif label == "delta_1":
                yield "psi", -value
                yield f"delta_{g - 1}", value
            else:
                i = int(label.split("_")[1])
                yield f"delta_{i - 1}", value
                yield f"delta_{g - i}", value

    return DivisorClass.make(space_mg_pointed(g), terms())


def multiply(left: DivisorClass, right: DivisorClass) -> QuadraticClass:
    """Formal symmetric product of two classes on the same one-pointed space."""
    if left.space.kind != KIND_MG_POINTED or right.space.kind != KIND_MG_POINTED:
        raise InputError("both factors must live on a one-pointed space")
    if left.space != right.space:
        raise InputError(f"space mismatch: {left.space} vs {right.space}")
    return QuadraticClass.make(
        left.space, (((x, y), a * b) for x, a in left.coeffs for y, b in right.coeffs)
    )


def forgetful_pushforward(quadratic: QuadraticClass) -> DivisorClass:
    """Push a quadratic class on the one-pointed space down to the unpointed one."""
    g = quadratic.space.g

    def terms() -> Iterable[tuple[str, Fraction]]:
        for (x, y), value in quadratic.coeffs:
            if x == "psi" and y == "psi":
                yield "lambda", 12 * value
                for i in range(g // 2 + 1):
                    yield f"delta_{i}", -value
            elif "psi" in (x, y):
                other = y if x == "psi" else x
                if other in ("lambda", "delta_0"):
                    yield other, (2 * g - 2) * value
                else:
                    i = int(other.split("_")[1])
                    yield f"delta_{min(i, g - i)}", (2 * i - 2) * value
            # monomials without psi push forward to zero

    return DivisorClass.make(space_mg(g), terms())
