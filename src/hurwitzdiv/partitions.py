"""Partitions of an integer and transposition products in the symmetric group.

A partition mu = (m_1 >= ... >= m_l) of weight k plays two roles here: it is
the cycle type of a permutation in S_k, and it labels the fibre of a degree-k
cover over a node of the target curve.  Two derived quantities recur in every
divisor-class formula: the least common multiple lcm(m_1, ..., m_l) and the
harmonic sum 1/m_1 + ... + 1/m_l, both exact.

The enumeration of the partitions of k fixes their order, largest part
first (reverse-lexicographic): (4), (3,1), (2,2), (2,1,1), (1,1,1,1).  Every
table and vector over them is built by walking it; nothing here sorts them.

The feasibility predicate `transposition_feasible` decides whether a
permutation of cycle type mu is a product of i transpositions, using the
standard criterion

    i >= k - l(mu)   and   i == k - l(mu)  (mod 2),

with the degenerate case k = 1 handled separately (S_1 has no
transpositions, so only the empty product exists).  The predicate is
cross-validated against an exact counting oracle,
`count_transposition_factorizations`, which convolves the class algebra of
S_k with the transposition class: the state is an integer count per cycle
type, and one convolution step applies the classical cut-and-join moves (a
transposition either splits one cycle or merges two).
`transposition_power_vector` returns that state as (cycle type, count)
pairs.  A tuple-enumeration fallback is kept for very small k as a second,
independent check.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .errors import InputError, ResourceError, Validated

MAX_PARTITION_WEIGHT = 64
MAX_ORACLE_WEIGHT = 20
MAX_ORACLE_STEPS = 64


class Partition(Validated, namedtuple("Partition", "parts")):
    """A weakly decreasing tuple of positive integers.

    >>> Partition((3, 2))
    Partition(parts=(3, 2))
    >>> Partition((3, 2)).weight, Partition((3, 2)).length
    (5, 2)
    """

    __slots__ = ()
    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise InputError("a partition needs at least one part")
        for p in self.parts:
            if not isinstance(p, int) or isinstance(p, bool) or p < 1:
                raise InputError(f"parts must be positive integers, got {self.parts!r}")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise InputError(f"parts must be weakly decreasing, got {self.parts!r}")

    @classmethod
    def of(cls, parts) -> "Partition":
        """Build a partition from any iterable of positive integers."""
        return cls(tuple(sorted((int(p) for p in parts), reverse=True)))

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def multiplicity(self, part: int) -> int:
        return self.parts.count(part)

    def __str__(self) -> str:
        return "[" + ",".join(str(p) for p in self.parts) + "]"


def _check_weight(k: int) -> None:
    if not isinstance(k, int) or k < 1 or k > MAX_PARTITION_WEIGHT:
        raise InputError(f"k must be an integer in [1, {MAX_PARTITION_WEIGHT}], got {k!r}")


def partitions_of(k: int) -> list[Partition]:
    """All partitions of k in reverse-lexicographic order.

    The Partition objects are shared with `partition_table(k)`.

    >>> [p.parts for p in partitions_of(4)]
    [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    """
    return [row.mu for row in partition_table(k)]


def lcm_of(mu: Partition) -> int:
    """Least common multiple of the parts of mu."""
    return math.lcm(*mu.parts)


def harmonic_inverse(mu: Partition) -> Fraction:
    """Exact harmonic sum 1/m_1 + ... + 1/m_l over the parts of mu."""
    return sum((Fraction(1, m) for m in mu.parts), Fraction(0))


class PartitionRow(namedtuple("PartitionRow", "mu lcm harmonic drop")):
    """A partition of k together with the invariants every class formula reads.

    `drop` is k - l(mu), the fewest transpositions with a product of type mu.
    """

    __slots__ = ()
    mu: Partition
    lcm: int
    harmonic: Fraction
    drop: int


@lru_cache(maxsize=16)
def _partition_table(k: int) -> tuple[PartitionRow, ...]:
    rows: list[PartitionRow] = []

    def descend(remaining: int, cap: int, prefix: tuple[int, ...]) -> None:
        if remaining == 0:
            mu = Partition(prefix)
            rows.append(PartitionRow(mu, lcm_of(mu), harmonic_inverse(mu), k - mu.length))
            return
        for part in range(min(cap, remaining), 0, -1):
            descend(remaining - part, part, prefix + (part,))

    descend(k, k, ())
    return tuple(rows)


def partition_table(k: int) -> tuple[PartitionRow, ...]:
    """One row per partition of k, largest part first (the module docstring's order)."""
    _check_weight(k)
    return _partition_table(k)


def transposition_feasible(mu: Partition, i: int) -> bool:
    """Is a permutation of cycle type mu in S_k a product of i transpositions?

    Decided by i >= k - l(mu) together with parity i == k - l(mu) (mod 2).
    For k = 1 there are no transpositions at all, so only i = 0 works.
    """
    if not isinstance(i, int) or i < 0:
        raise InputError(f"the number of transpositions must be a non-negative integer, got {i!r}")
    k = mu.weight
    if k == 1:
        return i == 0
    drop = k - mu.length
    return i >= drop and (i - drop) % 2 == 0


def conjugacy_class_size(mu: Partition) -> int:
    """Number of permutations in S_k with cycle type mu (k!/z_mu)."""
    k = mu.weight
    centralizer = 1
    for r in set(mu.parts):
        a = mu.multiplicity(r)
        centralizer *= r**a * math.factorial(a)
    return math.factorial(k) // centralizer


@lru_cache(maxsize=None)
def _cut_and_join_table(k: int) -> dict[tuple[int, ...], tuple[tuple[tuple[int, ...], int], ...]]:
    """For each cycle type nu, the types reachable by one transposition.

    Multiplying a fixed permutation of type nu by a transposition either
    splits one of its cycles (both endpoints inside the cycle) or joins two
    of them.  A cycle of length L contributes L transpositions splitting it
    into (d, L-d) for each d < L/2 and, for even L, L/2 transpositions
    splitting it into (L/2, L/2); two distinct cycle slots of lengths L1 and
    L2 contribute L1*L2 merging transpositions.  The multiplicities over all
    k(k-1)/2 transpositions are returned alongside the resulting types.
    """
    table: dict[tuple[int, ...], tuple[tuple[tuple[int, ...], int], ...]] = {}
    for row in partition_table(k):
        parts = row.mu.parts
        moves: dict[tuple[int, ...], int] = {}

        def record(new_parts: tuple[int, ...], mult: int) -> None:
            key = tuple(sorted(new_parts, reverse=True))
            moves[key] = moves.get(key, 0) + mult

        for j, length in enumerate(parts):
            rest = parts[:j] + parts[j + 1 :]
            for d in range(1, (length - 1) // 2 + 1):
                record(rest + (d, length - d), length)
            if length % 2 == 0 and length >= 2:
                half = length // 2
                record(rest + (half, half), half)
        for j1 in range(len(parts)):
            for j2 in range(j1 + 1, len(parts)):
                rest = parts[:j1] + parts[j1 + 1 : j2] + parts[j2 + 1 :]
                record(rest + (parts[j1] + parts[j2],), parts[j1] * parts[j2])
        table[parts] = tuple(moves.items())
    return table


def transposition_power_vector(k: int, i: int) -> tuple[tuple[Partition, int], ...]:
    """Distribution of products of i transpositions in S_k over cycle types.

    The (nu, count) pairs, in the order of `partitions_of(k)` with zero
    counts dropped: count is the number of ordered i-tuples of transpositions
    whose product equals one fixed permutation of cycle type nu.

    >>> [(nu.parts, n) for nu, n in transposition_power_vector(3, 2)]
    [((3,), 3), ((1, 1, 1), 3)]
    """
    if not isinstance(i, int) or i < 0:
        raise InputError(f"the number of transpositions must be a non-negative integer, got {i!r}")
    if not isinstance(k, int) or k < 1:
        raise InputError(f"k must be a positive integer, got {k!r}")
    if k > MAX_ORACLE_WEIGHT or i > MAX_ORACLE_STEPS:
        raise ResourceError(
            f"counting oracle limited to k <= {MAX_ORACLE_WEIGHT} and i <= {MAX_ORACLE_STEPS}"
        )
    table, mus = _cut_and_join_table(k), partitions_of(k)
    state: dict[tuple[int, ...], int] = {(1,) * k: 1}
    for _ in range(i):
        new_state: dict[tuple[int, ...], int] = {}
        for parts, moves in table.items():
            total = 0
            for neighbour, mult in moves:
                n = state.get(neighbour)
                if n:
                    total += mult * n
            if total:
                new_state[parts] = total
        state = new_state
    return tuple((mu, state[mu.parts]) for mu in mus if mu.parts in state)


def count_transposition_factorizations(mu: Partition, i: int) -> int:
    """Number of ordered i-tuples of transpositions multiplying to type mu.

    The product is compared against one fixed permutation of cycle type mu;
    the count is the same for every representative of the class.

    >>> count_transposition_factorizations(Partition((3,)), 2)
    3
    """
    return dict(transposition_power_vector(mu.weight, i)).get(mu, 0)


class OracleReport(namedtuple("OracleReport", "mu i count feasible")):
    """The factorization count of (mu, i) beside the feasibility criterion."""

    __slots__ = ()
    mu: Partition
    i: int
    count: int
    feasible: bool

    @classmethod
    def of(cls, mu: Partition, i: int) -> "OracleReport":
        """The oracle's count of (mu, i) and the criterion's verdict on it.

        A classmethod, not a module function: the benchmark tracer wraps the
        module functions of each layer and times the oracle only on a call
        from another layer, which a wrapped builder here would hide.
        """
        return cls(mu, i, count_transposition_factorizations(mu, i), transposition_feasible(mu, i))

    @property
    def agree(self) -> bool:
        return (self.count > 0) == self.feasible


MAX_NAIVE_WEIGHT = 5
MAX_NAIVE_TUPLES = 2_000_000


def _compose(outer: tuple[int, ...], inner: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(outer[inner[x]] for x in range(len(outer)))


def _canonical_permutation(mu: Partition) -> tuple[int, ...]:
    image = list(range(mu.weight))
    start = 0
    for length in mu.parts:
        for offset in range(length):
            image[start + offset] = start + (offset + 1) % length
        start += length
    return tuple(image)


def count_factorizations_naive(mu: Partition, i: int) -> int:
    """Tuple-enumeration oracle for tiny symmetric groups.

    Walks every i-tuple of transpositions in S_k (k <= 5) and counts the
    tuples whose product is the canonical permutation of cycle type mu.
    Independent of the class-algebra convolution and therefore useful as a
    second-tier check of it.
    """
    if not isinstance(i, int) or i < 0:
        raise InputError(f"the number of transpositions must be a non-negative integer, got {i!r}")
    k = mu.weight
    if k > MAX_NAIVE_WEIGHT:
        raise InputError(f"naive enumeration limited to k <= {MAX_NAIVE_WEIGHT}, got k = {k}")
    transpositions = []
    for a in range(k):
        for b in range(a + 1, k):
            image = list(range(k))
            image[a], image[b] = b, a
            transpositions.append(tuple(image))
    if len(transpositions) ** i > MAX_NAIVE_TUPLES:
        raise ResourceError(f"{len(transpositions)}^{i} tuples exceed the enumeration budget")
    target = _canonical_permutation(mu)
    identity = tuple(range(k))
    count = 0
    for tup in itertools.product(transpositions, repeat=i):
        product = identity
        for t in tup:
            product = _compose(product, t)
        if product == target:
            count += 1
    return count
