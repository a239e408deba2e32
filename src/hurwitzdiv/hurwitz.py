"""Divisor classes on the compactified space of degree-k covers of a line.

The parameter space of genus-g, degree-k covers of the projective line with
b = 2g + 2k - 2 ordered simple branch points carries one boundary divisor
E_{i:mu} for each feasible pair (i, mu): the target degenerates into two
rational components with i branch points on one side, and the fibre over the
node has partition type mu.  Feasibility demands that a permutation of cycle
type mu factor into i transpositions on one side and b - i on the other.

Classes here are sparse exact-rational vectors over that index set, built
on the sparse-class core of :mod:`.spaces`: a key is ranked by (i, position
of mu in the partition table), with no table per g, so a class keeps the
order of ``boundary_index_set``, and a key outside the set is rejected.  Every
class built here is affine in q = i(b-i)/(b-1) on each partition: its
coefficient at (i, mu) is a q + c, with (a, c) read from one table per k.
With m = m(mu) the lcm of the parts and 1/mu the harmonic sum:

    class                      a       c
    Hodge                      m/8     -m (k - 1/mu)/12
    canonical class (stack)    m       -m - 1
    canonical class (coarse)   m       -m - 1 - sharp(mu)
    ramification               0       m - 1
    coarse correction          0       -sharp(mu)
    kappa1 pullback            m       -m

Each constructor streams its row over the index set in one pass; the kappa1
row, read by the bigness margins, is the pullback of kappa1.  The coarse
moduli space loses one unit along each boundary divisor whose generic cover
has a component mapping 2:1 onto the degenerate target (sharp(mu) = 1: mu has
a part 2); those indices carry the branch-component marker.  Both canonical
classes are checked on every call against the branch pullback of the genus-0
canonical class plus ramification, worked out without the table
(``InvariantError`` otherwise).  ``branch_pullback`` pulls any genus-0 class
back along the branch-point map, ramified with order m(mu) along E_{i:mu}.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest

from .errors import InputError, InvariantError
from .partitions import Partition, partition_table
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


class BoundaryIndex(namedtuple("BoundaryIndex", "i mu")):
    """A feasible boundary label (i, mu); its key (i, mu-parts) names E_{i:mu} in a class."""

    __slots__ = ()
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
    return _boundary_indices(g, k)


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
    """Is (i, mu) a boundary label of degree k with b branch points?"""
    return mu.weight == k and i in _index_range(b, k - mu.length)


def _index_range(b: int, drop: int) -> range:
    """The boundary indices i of a partition with k - l(mu) = drop, for b branch points.

    They are i0, i0 + 2, ..., up to b/2, with i0 the least i >= max(2, drop)
    of the parity of drop: the i at which mu factors into i transpositions.
    That implies a factorization into b - i, as k >= 3, b is even and
    b - i >= i.  The index set and `_is_index` read this one rule.
    """
    return range(drop if drop >= 2 else drop + 2, b // 2 + 1, 2)


def _boundary_indices(g: int, k: int) -> list[BoundaryIndex]:
    b = _check_gk(g, k)
    # the indices of a partition are i0, i0 + 2, ...: each i takes the
    # partitions of its parity with i0 <= i
    starts = [(row.mu, _index_range(b, row.drop)[0]) for row in partition_table(k)]
    by_parity = [[(mu, i0) for mu, i0 in starts if i0 % 2 == parity] for parity in (0, 1)]
    return [
        BoundaryIndex(i, mu)
        for i in range(2, b // 2 + 1)
        for mu, i0 in by_parity[i % 2]
        if i0 <= i
    ]


def _index_rank(g: int, k: int) -> Callable[[IndexKey], tuple[int, int]]:
    """(i, position of mu in `partition_table(k)`): the index order of a key (i, mu-parts).

    KeyError unless the key is an index of (g, k); nothing is built per g.
    """
    b, rows = _check_gk(g, k), {r.mu.parts: (n, r.mu) for n, r in enumerate(partition_table(k))}

    def rank(key: IndexKey) -> tuple[int, int]:
        if type(key) is tuple and len(key) == 2 and type(key[0]) is int and key[1] in rows:
            n, mu = rows[key[1]]
            if _is_index(b, k, key[0], mu) and all(type(p) is int for p in key[1]):
                return key[0], n
        raise KeyError(key)

    return rank


def _cover_space(g: int, k: int) -> str:
    return f"the cover space (g, k) = ({g}, {k})"


def _marks_on(coeffs: tuple, marks: Iterable[IndexKey]) -> frozenset[IndexKey]:
    """The branch marks that fall on the support of `coeffs`."""
    return frozenset(marks).intersection(key for key, _ in coeffs) if marks else frozenset()


class HurwitzClass(SparseClass, namedtuple("HurwitzClass", "g k coeffs branch_marks",
                                            defaults=(frozenset(),))):
    """Sparse exact-rational class over the boundary basis of a cover space.

    `coeffs` maps index keys (i, mu-parts) to nonzero rationals, in the order
    of `boundary_index_set`: by i, then reverse-lex mu.  `branch_marks` flags
    the indices whose coefficient includes a contribution carried on the 2:1
    branch components (the coarse correction); it is bookkeeping metadata and
    does not affect arithmetic.  A sum keeps the marks of both summands and a
    multiple those of its class, as far as they fall on the new support.
    """

    __slots__ = ()
    g: int
    k: int
    coeffs: tuple[tuple[IndexKey, Fraction], ...]
    branch_marks: frozenset[IndexKey]

    @classmethod
    def make(
        cls,
        g: int,
        k: int,
        coefficients: Terms,
        branch_marks: frozenset[IndexKey] | set[IndexKey] = frozenset(),
    ) -> "HurwitzClass":
        coeffs = _ordered_terms(coefficients, _index_rank(g, k), _cover_space(g, k))
        return cls(g, k, coeffs, _marks_on(coeffs, branch_marks))

    def coefficient(self, i: int, mu: Partition) -> Fraction:
        return self.as_dict().get((i, mu.parts), Fraction(0))

    def support(self) -> tuple[IndexKey, ...]:
        return tuple(key for key, _ in self.coeffs)

    def _basis(self) -> tuple[str, Callable[[IndexKey], tuple[int, int]]]:
        return _cover_space(self.g, self.k), _index_rank(self.g, self.k)

    def _with_terms(self, terms: Iterable, other: "HurwitzClass | None" = None) -> "HurwitzClass":
        result = super()._with_terms(terms)
        marks = self.branch_marks | other.branch_marks if other is not None else self.branch_marks
        return result._replace(branch_marks=_marks_on(result.coeffs, marks))


@lru_cache(maxsize=16)
def _class_terms(k: int) -> dict[str, dict[tuple[int, ...], tuple[Rational, Rational, int]]]:
    """table[class][mu] = (a, c, sharp) for every partition mu of k; see the module docstring.

    sharp is 1 where the row subtracts sharp(mu), 0 elsewhere.  Integral
    terms stay ints, which have a numerator and a denominator too.
    """
    names = ("hodge", "stack", "coarse", "ramification", "correction", "kappa1")
    table: dict = {name: {} for name in names}
    for row in partition_table(k):
        m, mu = row.lcm, row.mu.parts
        # every boundary index has i >= 2, where the sharp rule depends on mu alone
        sharp = sharp_indicator(2, row.mu)
        table["hodge"][mu] = (Fraction(m, 8), -m * (k - row.harmonic) / 12, 0)
        table["stack"][mu] = (m, -m - 1, 0)
        table["coarse"][mu] = (m, -m - 1 - sharp, sharp)
        table["ramification"][mu] = (0, m - 1, 0)
        table["correction"][mu] = (0, -sharp, sharp)
        table["kappa1"][mu] = (m, -m, 0)
    return table


def _row_values(b: int, rows: dict, keys: Iterable[IndexKey]) -> Iterator[Fraction]:
    """The value a q + c of the row of mu at each key (i, mu), q = i(b-i)/(b-1).

    `rows[mu]` starts with (a, c).  This is the one place where a row becomes
    a value: the class tables here and the margins of :mod:`.bigness` read
    it.  On first use a row becomes integers (P, R, D) with
    a q + c = (P i(b-i) + R) / D, and a partition with a = 0 shares one
    Fraction among its keys.  Nothing is stored per key.
    """
    kernels: dict = {}
    for i, parts in keys:
        kernel = kernels.get(parts)
        if kernel is None:
            row = rows[parts]
            (an, ad), (cn, cd) = row[0].as_integer_ratio(), row[1].as_integer_ratio()
            kernel = kernels[parts] = (
                an * cd,
                cn * ad * (b - 1),
                ad * cd * (b - 1),
                None if an else Fraction(cn, cd),
            )
        p, r, d, constant = kernel
        yield constant if constant is not None else Fraction(p * i * (b - i) + r, d)


def _table_class(g: int, k: int, name: str) -> HurwitzClass:
    """One row of the table as a class: its nonzero values in index order, sharp keys marked."""
    b = _check_gk(g, k)
    rows, keys = _class_terms(k)[name], [(i, mu.parts) for i, mu in _boundary_indices(g, k)]
    coeffs = tuple(term for term in zip(keys, _row_values(b, rows, keys)) if term[1])
    return HurwitzClass(g, k, coeffs, frozenset(key for key, _ in coeffs if rows[key[1]][2]))


def hodge_class(g: int, k: int) -> HurwitzClass:
    """The Hodge class in boundary coordinates."""
    return _table_class(g, k, "hodge")


def branch_pullback_boundary(g: int, k: int, i: int) -> HurwitzClass:
    """Pullback of the single genus-0 boundary divisor B_i: sum_mu m(mu) E_{i:mu}."""
    b = _check_gk(g, k)
    if not isinstance(i, int) or i < 2 or i > b // 2:
        raise InputError(f"i must be an integer in [2, {b // 2}], got {i!r}")
    return branch_pullback(g, k, DivisorClass.make(space_m0b(b), {f"B_{i}": 1}))


def _pullback_terms(g: int, k: int, divisor: DivisorClass) -> Iterator[tuple]:
    """(key, m(mu), B_i weight of `divisor`) at every index (i, mu), in index order."""
    b = _check_gk(g, k)
    if divisor.space.kind != KIND_M0B or divisor.space.b != b:
        raise InputError(f"the class must live on {KIND_M0B}(b={b}) for (g, k) = ({g}, {k}), "
                         f"got {divisor.space}")
    values = divisor.as_dict()
    weights = [values.get(f"B_{i}", 0) for i in range(b // 2 + 1)]
    lcms = {row.mu.parts: row.lcm for row in partition_table(k)}
    return (((i, mu.parts), lcms[mu.parts], weights[i]) for i, mu in _boundary_indices(g, k))


def branch_pullback(g: int, k: int, divisor: DivisorClass) -> HurwitzClass:
    """Pullback of a genus-0 boundary class along the branch-point map."""
    terms = _pullback_terms(g, k, divisor)
    return HurwitzClass(g, k, tuple((key, m * w) for key, m, w in terms if w))


def ramification_class(g: int, k: int) -> HurwitzClass:
    """Ramification divisor of the branch-point map: sum (m(mu) - 1) E_{i:mu}."""
    return _table_class(g, k, "ramification")


def _canonical_class(g: int, k: int, name: str) -> HurwitzClass:
    """The canonical class of table row `name`, checked without the table in one pass.

    At (i, mu) the stack class is m(mu) w_i + m(mu) - 1, with w_i the B_i weight
    of `canonical_class_m0b(b)`, and the coarse class sharp(mu) less.  As
    W_i = (b - 1) w_i is an integer, (b - 1) times each value is compared in integers.
    """
    cls, b = _table_class(g, k, name), _check_gk(g, k)
    drops = {r.mu.parts: name == "coarse" and sharp_indicator(2, r.mu) for r in partition_table(k)}
    terms = _pullback_terms(g, k, (b - 1) * canonical_class_m0b(b))
    expected = ((key, m * w.numerator + (m - 1 - drops[key[1]]) * (b - 1)) for key, m, w in terms)
    pairs = zip_longest(cls.coeffs, (term for term in expected if term[1]), fillvalue=(None,))
    if any(x[0] != y[0] or x[1].numerator * (b - 1) != y[1] * x[1].denominator for x, y in pairs):
        raise InvariantError("canonical class disagrees with pullback + ramification")
    return cls


def canonical_class_stack(g: int, k: int) -> HurwitzClass:
    """Canonical class of the cover stack in boundary coordinates; see `_canonical_class`."""
    return _canonical_class(g, k, "stack")


def sharp_indicator(i: int, mu: Partition) -> int:
    """1 iff (i, mu) supports a 2:1 branch component: some (2^a) <= mu with 1 <= a <= i."""
    return 1 if i >= 1 and 2 in mu.parts else 0


def coarse_correction(g: int, k: int) -> HurwitzClass:
    """Stack-to-coarse canonical correction: -1 on each branch-marked index."""
    return _table_class(g, k, "correction")


def canonical_class_coarse(g: int, k: int) -> HurwitzClass:
    """Canonical class of the coarse moduli space: the stack class plus the correction."""
    return _canonical_class(g, k, "coarse")
