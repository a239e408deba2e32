"""Divisor classes on the compactified space of degree-k covers of a line.

The parameter space of genus-g, degree-k covers of the projective line with
b = 2g + 2k - 2 ordered simple branch points carries one boundary divisor
E_{i:mu} for each feasible pair (i, mu): the target degenerates into two
rational components with i branch points on one side, and the fibre over the
node has partition type mu.  Feasibility demands that a permutation of cycle
type mu factor into i transpositions on one side and b - i on the other.

Classes here are sparse exact-rational vectors over that index set, built
on the sparse-class core of :mod:`.spaces`: the position of each key in the
cached index set ranks it, so a class keeps the order of
``boundary_index_set``, and a key outside the set is rejected.  Every
class built here is affine in q = i(b-i)/(b-1) on each partition: its
coefficient at (i, mu) is a q + c, with (a, c) read from one table per k.
With m = m(mu) the lcm of the parts and 1/mu the harmonic sum:

    class                      a       c
    Hodge                      m/8     -m (k - 1/mu)/12
    canonical class (stack)    m       -m - 1
    ramification               0       m - 1
    coarse correction          0       -sharp(mu)
    kappa1 pullback            m       -m

Each constructor expands its row of the table over the index set.
``canonical_class_stack`` also checks its expansion against the branch
pullback of the genus-0 canonical class plus the ramification class on every
call (``InvariantError`` otherwise).  ``branch_pullback`` pulls any genus-0
boundary class back along the branch-point map, which is ramified with order
m(mu) along E_{i:mu}; the kappa1 row, read by the bigness margins, is the
pullback of kappa1.  The coarse moduli space loses one unit along each
boundary divisor whose generic cover has a component mapping 2:1 onto the
degenerate target (mu containing a part 2); those indices carry the
branch-component marker.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

from .errors import InputError, InvariantError
from .partitions import Partition, partition_table, transposition_feasible
from .spaces import (
    KIND_M0B,
    DivisorClass,
    Rational,
    SparseClass,
    Terms,
    _ordered_terms,
    canonical_class_m0b,
    space_m0b,
)

IndexKey = tuple[int, tuple[int, ...]]


@dataclass(frozen=True)
class BoundaryIndex:
    """A feasible boundary label (i, mu); its key (i, mu-parts) names E_{i:mu} in a class."""

    i: int
    mu: Partition

    @property
    def key(self) -> IndexKey:
        return (self.i, self.mu.parts)


def _check_gk(g: int, k: int) -> int:
    if not isinstance(g, int) or g < 2:
        raise InputError(f"g must be an integer >= 2, got {g!r}")
    if not isinstance(k, int) or k < 3:
        raise InputError(f"k must be an integer >= 3, got {k!r}")
    return 2 * g + 2 * k - 2


def boundary_index_set(g: int, k: int) -> list[BoundaryIndex]:
    """All feasible boundary labels (i, mu), sorted by (i, reverse-lex mu).

    A pair is feasible when mu factors into i transpositions and also into
    b - i transpositions (both sides of the degenerate target must be
    realised).  i runs from 2 to b/2 = g + k - 1; the set is symmetric under
    i <-> b - i by construction.  Feasibility is class-level: connectedness
    of the cover is not imposed, so this is a conservative superset of the
    nonempty boundary divisors.
    """
    _check_gk(g, k)
    return list(_boundary_indices(g, k))


def boundary_index(g: int, k: int, i: int, parts: tuple[int, ...]) -> BoundaryIndex:
    """The boundary index (i, mu) of (g, k); InputError unless it is in `boundary_index_set`.

    Membership is tested directly, so the cost does not grow with g.
    """
    b = _check_gk(g, k)
    mu = Partition(parts)
    if not isinstance(i, int) or not _is_index(b, k, i, mu):
        raise InputError(
            f"(i, mu) = ({i!r}, {mu}) is not a boundary index of (g, k) = ({g}, {k})"
        )
    return BoundaryIndex(i, mu)


def _is_index(b: int, k: int, i: int, mu: Partition) -> bool:
    """Is (i, mu) a boundary label of degree k with b branch points?

    Feasibility is checked for i alone: k >= 3, b is even and b - i >= i, so
    the condition for i implies the one for b - i.
    """
    return 2 <= i <= b // 2 and mu.weight == k and transposition_feasible(mu, i)


# A scan visits each (g, k) once, so only the last few index sets are kept.
_INDEX_CACHE_SIZE = 8


def _first_index(drop: int) -> int:
    """The least boundary index i of a partition with k - l(mu) = drop.

    It is the least i >= 2 of the parity of drop; the partition's indices
    are i0, i0 + 2, ..., up to b/2, which `_is_index` accepts.
    """
    return drop if drop >= 2 else drop + 2


@lru_cache(maxsize=_INDEX_CACHE_SIZE)
def _boundary_indices(g: int, k: int) -> tuple[BoundaryIndex, ...]:
    b = 2 * g + 2 * k - 2
    # the indices of a partition are i0, i0 + 2, ...: each i takes the
    # partitions of its parity with i0 <= i
    starts = [(row.mu, _first_index(row.drop)) for row in partition_table(k)]
    by_parity = [[(mu, i0) for mu, i0 in starts if i0 % 2 == parity] for parity in (0, 1)]
    return tuple(
        BoundaryIndex(i, mu)
        for i in range(2, b // 2 + 1)
        for mu, i0 in by_parity[i % 2]
        if i0 <= i
    )


@lru_cache(maxsize=_INDEX_CACHE_SIZE)
def _index_positions(g: int, k: int) -> dict[IndexKey, int]:
    """Position of each index key in `_boundary_indices(g, k)`; built once per (g, k)."""
    return {index.key: n for n, index in enumerate(_boundary_indices(g, k))}


def _cover_space(g: int, k: int) -> str:
    return f"the cover space (g, k) = ({g}, {k})"


def _marks_on(coeffs: tuple, marks: Iterable[IndexKey]) -> frozenset[IndexKey]:
    """The branch marks that fall on the support of `coeffs`."""
    return frozenset(marks).intersection(key for key, _ in coeffs) if marks else frozenset()


@dataclass(frozen=True)
class HurwitzClass(SparseClass):
    """Sparse exact-rational class over the boundary basis of a cover space.

    `coeffs` maps index keys (i, mu-parts) to nonzero rationals, in the order
    of `boundary_index_set`: by i, then reverse-lex mu.  `branch_marks` flags
    the indices whose coefficient includes a contribution carried on the 2:1
    branch components (the coarse correction); it is bookkeeping metadata and
    does not affect arithmetic.  A sum keeps the marks of both summands and a
    multiple those of its class, as far as they fall on the new support.
    """

    g: int
    k: int
    coeffs: tuple[tuple[IndexKey, Fraction], ...]
    branch_marks: frozenset[IndexKey] = frozenset()

    @classmethod
    def make(
        cls,
        g: int,
        k: int,
        coefficients: Terms,
        branch_marks: frozenset[IndexKey] | set[IndexKey] = frozenset(),
    ) -> "HurwitzClass":
        _check_gk(g, k)
        rank = _index_positions(g, k).__getitem__
        coeffs = _ordered_terms(coefficients, rank, _cover_space(g, k))
        return cls(g, k, coeffs, _marks_on(coeffs, branch_marks))

    def coefficient(self, i: int, mu: Partition) -> Fraction:
        return self.as_dict().get((i, mu.parts), Fraction(0))

    def support(self) -> tuple[IndexKey, ...]:
        return tuple(key for key, _ in self.coeffs)

    def _basis(self) -> tuple[str, Callable[[IndexKey], int]]:
        return _cover_space(self.g, self.k), _index_positions(self.g, self.k).__getitem__

    def _with_terms(self, terms: Iterable, other: "HurwitzClass | None" = None) -> "HurwitzClass":
        result = super()._with_terms(terms)
        marks = self.branch_marks | other.branch_marks if other is not None else self.branch_marks
        return replace(result, branch_marks=_marks_on(result.coeffs, marks))


@lru_cache(maxsize=16)
def _class_terms(k: int) -> dict[str, dict[tuple[int, ...], tuple[Rational, Rational]]]:
    """table[class][mu] = (a, c) for every partition mu of k; see the module docstring.

    Integral terms stay ints, which have a numerator and a denominator too.
    """
    table: dict = {"hodge": {}, "stack": {}, "ramification": {}, "coarse": {}, "kappa1": {}}
    for row in partition_table(k):
        m, mu = row.lcm, row.mu.parts
        table["hodge"][mu] = (Fraction(m, 8), -m * (k - row.harmonic) / 12)
        table["stack"][mu] = (m, -m - 1)
        table["ramification"][mu] = (0, m - 1)
        # every boundary index has i >= 2, where the sharp rule depends on mu alone
        table["coarse"][mu] = (0, -sharp_indicator(2, row.mu))
        table["kappa1"][mu] = (m, -m)
    return table


def _affine(a: Rational, c: Rational, b: int) -> tuple[int, int, int]:
    """Integers (P, R, D) with a q + c = (P i(b-i) + R) / D for q = i(b-i)/(b-1)."""
    return (
        a.numerator * c.denominator,
        c.numerator * a.denominator * (b - 1),
        a.denominator * c.denominator * (b - 1),
    )


def _expand(g: int, k: int, name: str) -> dict[IndexKey, Fraction]:
    """The coefficients of one row of the table at every boundary index.

    The keys are those of the cached index positions, and a partition with
    a = 0 shares one Fraction among its indices.
    """
    b = _check_gk(g, k)
    rows = {
        mu: (*_affine(a, c, b), None if a else Fraction(c))
        for mu, (a, c) in _class_terms(k)[name].items()
    }
    coeffs: dict[IndexKey, Fraction] = {}
    for key in _index_positions(g, k):
        i, parts = key
        p, r, d, constant = rows[parts]
        coeffs[key] = constant if constant is not None else Fraction(p * i * (b - i) + r, d)
    return coeffs


def hodge_class(g: int, k: int) -> HurwitzClass:
    """The Hodge class in boundary coordinates."""
    return HurwitzClass.make(g, k, _expand(g, k, "hodge"))


def branch_pullback_boundary(g: int, k: int, i: int) -> HurwitzClass:
    """Pullback of the single genus-0 boundary divisor B_i: sum_mu m(mu) E_{i:mu}."""
    b = _check_gk(g, k)
    if not isinstance(i, int) or i < 2 or i > b // 2:
        raise InputError(f"i must be an integer in [2, {b // 2}], got {i!r}")
    return branch_pullback(g, k, DivisorClass.make(space_m0b(b), {f"B_{i}": 1}))


def branch_pullback(g: int, k: int, divisor: DivisorClass) -> HurwitzClass:
    """Pullback of a genus-0 boundary class along the branch-point map."""
    b = _check_gk(g, k)
    if divisor.space.kind != KIND_M0B or divisor.space.b != b:
        raise InputError(
            f"the class must live on {KIND_M0B}(b={b}) for (g, k) = ({g}, {k}), "
            f"got {divisor.space}"
        )
    values = divisor.as_dict()
    weights = [values.get(f"B_{i}") for i in range(b // 2 + 1)]
    lcms = {row.mu.parts: row.lcm for row in partition_table(k)}
    coeffs: dict[IndexKey, Fraction] = {}
    for key in _index_positions(g, k):
        i, parts = key
        c = weights[i]
        if c:
            coeffs[key] = c * lcms[parts]
    return HurwitzClass.make(g, k, coeffs)


def ramification_class(g: int, k: int) -> HurwitzClass:
    """Ramification divisor of the branch-point map: sum (m(mu) - 1) E_{i:mu}."""
    return HurwitzClass.make(g, k, _expand(g, k, "ramification"))


def canonical_class_stack(g: int, k: int) -> HurwitzClass:
    """Canonical class of the cover stack in boundary coordinates.

    Checked equal to branch pullback of the genus-0 canonical class plus the
    ramification class; a mismatch raises InvariantError.
    """
    b = _check_gk(g, k)
    table = HurwitzClass.make(g, k, _expand(g, k, "stack"))
    pipeline = branch_pullback(g, k, canonical_class_m0b(b)) + ramification_class(g, k)
    if table != pipeline:
        raise InvariantError("canonical class disagrees with pullback + ramification")
    return table


def sharp_indicator(i: int, mu: Partition) -> int:
    """1 iff (i, mu) supports a 2:1 branch component: some (2^a) <= mu with 1 <= a <= i."""
    return 1 if i >= 1 and 2 in mu.parts else 0


def coarse_correction(g: int, k: int) -> HurwitzClass:
    """Stack-to-coarse canonical correction: -1 on each branch-marked index."""
    coeffs = _expand(g, k, "coarse")
    marks = {key for key, value in coeffs.items() if value}
    return HurwitzClass.make(g, k, coeffs, marks)


def canonical_class_coarse(g: int, k: int) -> HurwitzClass:
    """Canonical class of the coarse moduli space: stack class plus correction."""
    return canonical_class_stack(g, k) + coarse_correction(g, k)
