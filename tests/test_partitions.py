"""Partition combinatorics and the transposition-counting oracle."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from hurwitzdiv import (
    InputError,
    Partition,
    ResourceError,
    conjugacy_class_size,
    count_factorizations_naive,
    count_transposition_factorizations,
    harmonic_inverse,
    lcm_of,
    partitions_of,
    transposition_feasible,
    transposition_power_vector,
)

P = Partition


# -- independent oracles used to freeze expected values ----------------------


def partition_count(n: int) -> int:
    """Partition function via the pentagonal-number recurrence."""
    values = [1]
    for m in range(1, n + 1):
        total = 0
        j = 1
        while True:
            g1 = j * (3 * j - 1) // 2
            g2 = j * (3 * j + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = 1 if j % 2 == 1 else -1
            if g1 <= m:
                total += sign * values[m - g1]
            if g2 <= m:
                total += sign * values[m - g2]
            j += 1
        values.append(total)
    return values[n]


def cycle_type(perm: tuple[int, ...]) -> tuple[int, ...]:
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def all_transpositions(k: int) -> list[tuple[int, ...]]:
    out = []
    for a in range(k):
        for b in range(a + 1, k):
            image = list(range(k))
            image[a], image[b] = b, a
            out.append(tuple(image))
    return out


def compose(outer: tuple[int, ...], inner: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(outer[inner[x]] for x in range(len(outer)))


# -- Partition basics ---------------------------------------------------------


def test_partition_validation():
    with pytest.raises(InputError):
        P(())
    with pytest.raises(InputError):
        P((1, 2))
    with pytest.raises(InputError):
        P((2, 0))
    for parts in ((True,), (2, True)):  # True == 1, but a JSON true is no part
        with pytest.raises(InputError):
            P(parts)
    assert P.of([1, 3, 2]).parts == (3, 2, 1)
    assert P((3, 2)).weight == 5
    assert P((3, 2)).length == 2
    assert str(P((2, 1, 1))) == "[2,1,1]"


def test_partitions_of_examples():
    assert [p.parts for p in partitions_of(1)] == [(1,)]
    assert [p.parts for p in partitions_of(4)] == [
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]
    assert len(partitions_of(6)) == 11


def test_partitions_of_counts_match_pentagonal_recurrence():
    for k in range(1, 13):
        assert len(partitions_of(k)) == partition_count(k)


def test_partitions_of_order_and_uniqueness():
    for k in range(1, 11):
        parts_list = [p.parts for p in partitions_of(k)]
        assert len(set(parts_list)) == len(parts_list)
        assert parts_list == sorted(parts_list, reverse=True)
        assert all(sum(parts) == k for parts in parts_list)


def test_partitions_of_range_errors():
    with pytest.raises(InputError):
        partitions_of(0)
    with pytest.raises(InputError):
        partitions_of(65)


def test_lcm_of():
    assert lcm_of(P((1, 1, 1))) == 1
    assert lcm_of(P((3, 2))) == 6
    assert lcm_of(P((2, 2, 1))) == 2
    assert lcm_of(P((3,))) == 3
    assert lcm_of(P((6, 4))) == 12


def test_harmonic_inverse():
    assert harmonic_inverse(P((1,) * 7)) == 7
    assert harmonic_inverse(P((3, 2))) == Fraction(5, 6)
    # (2^a, 1^(k-2a)) has harmonic sum k - 3a/2
    k, a = 5, 2
    mu = P((2,) * a + (1,) * (k - 2 * a))
    assert harmonic_inverse(mu) == k - Fraction(3 * a, 2) == 2


# -- feasibility --------------------------------------------------------------


def test_transposition_feasible_basics():
    assert transposition_feasible(P((1, 1, 1)), 2)
    assert not transposition_feasible(P((2, 1)), 2)
    assert transposition_feasible(P((2, 1)), 1)
    assert not transposition_feasible(P((3,)), 1)
    with pytest.raises(InputError):
        transposition_feasible(P((2, 1)), -1)


def test_transposition_feasible_k1_has_no_transpositions():
    assert transposition_feasible(P((1,)), 0)
    assert not transposition_feasible(P((1,)), 2)


def test_feasible_set_for_s4_i2_matches_brute_force():
    # independent enumeration over the 36 ordered transposition pairs of S_4
    reachable = set()
    for t1, t2 in itertools.product(all_transpositions(4), repeat=2):
        reachable.add(cycle_type(compose(t1, t2)))
    assert reachable == {(1, 1, 1, 1), (2, 2), (3, 1)}
    for mu in partitions_of(4):
        assert transposition_feasible(mu, 2) == (mu.parts in reachable)


def test_feasibility_monotone_in_steps_of_two():
    for k in range(2, 7):
        for mu in partitions_of(k):
            for i in range(0, 11):
                if transposition_feasible(mu, i):
                    assert transposition_feasible(mu, i + 2)


# -- counting oracle ----------------------------------------------------------


def test_count_empty_product():
    for k in range(1, 7):
        assert count_transposition_factorizations(P((1,) * k), 0) == 1
        for mu in partitions_of(k):
            if mu.parts != (1,) * k:
                assert count_transposition_factorizations(mu, 0) == 0


def test_count_examples():
    # 9 ordered pairs of transpositions in S_3; 3 of them multiply to a 3-cycle
    assert count_transposition_factorizations(P((3,)), 2) == 3
    assert count_transposition_factorizations(P((2, 1)), 2) == 0
    assert count_transposition_factorizations(P((2, 1)), 1) == 1


def test_count_minimal_cycle_factorizations_classical_value():
    # a k-cycle has exactly k^(k-2) minimal factorizations into k-1 transpositions
    for k in range(3, 8):
        assert count_transposition_factorizations(P((k,)), k - 1) == k ** (k - 2)


def test_count_matches_naive_enumeration():
    for k in range(2, 6):
        max_i = {2: 8, 3: 6, 4: 5, 5: 4}[k]
        for i in range(max_i + 1):
            for mu in partitions_of(k):
                assert count_transposition_factorizations(mu, i) == count_factorizations_naive(
                    mu, i
                )


def test_feasibility_equals_positive_count():
    for k in range(1, 7):
        for mu in partitions_of(k):
            for i in range(13):
                assert transposition_feasible(mu, i) == (
                    count_transposition_factorizations(mu, i) > 0
                )


def test_weighted_totals_count_all_tuples():
    for k in range(2, 7):
        transposition_count = k * (k - 1) // 2
        for i in range(13):
            total = sum(
                conjugacy_class_size(mu) * count_transposition_factorizations(mu, i)
                for mu in partitions_of(k)
            )
            assert total == transposition_count**i


def test_conjugacy_class_sizes_sum_to_group_order():
    import math

    for k in range(1, 9):
        assert sum(conjugacy_class_size(mu) for mu in partitions_of(k)) == math.factorial(k)


def test_power_vector_type():
    # the nonzero counts as (Partition, count) pairs, in the order of the enumeration
    for i in range(4):
        pairs = transposition_power_vector(4, i)
        naive = [(mu, count_factorizations_naive(mu, i)) for mu in partitions_of(4)]
        assert pairs == tuple((mu, n) for mu, n in naive if n)
        assert all(type(mu) is Partition for mu, _ in pairs)


def test_count_resource_limits():
    with pytest.raises(ResourceError):
        count_transposition_factorizations(P((21,)), 2)
    with pytest.raises(ResourceError):
        count_transposition_factorizations(P((3,)), 65)
    with pytest.raises(InputError):
        count_transposition_factorizations(P((3,)), -1)
    with pytest.raises(InputError):
        count_factorizations_naive(P((6,)), 2)
    with pytest.raises(ResourceError):
        count_factorizations_naive(P((5,)), 40)
