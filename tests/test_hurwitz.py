"""Boundary divisor classes on the compactified cover space."""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hurwitzdiv
from hurwitzdiv import (
    InputError,
    Partition,
    boundary_index_set,
    branch_pullback,
    branch_pullback_boundary,
    canonical_class_coarse,
    canonical_class_stack,
    coarse_correction,
    hodge_class,
    kappa1_m0b,
    partitions_of,
    ramification_class,
    sharp_indicator,
    transposition_feasible,
)
from hurwitzdiv.hurwitz import (
    BoundaryIndex,
    HurwitzClass,
    _boundary_indices,
    _index_range,
    _is_index,
    boundary_index,
)
from hurwitzdiv.partitions import partition_table

F = Fraction
P = Partition


def test_boundary_index_set_g2_k3():
    indices = [(x.i, x.mu.parts) for x in boundary_index_set(2, 3)]
    assert indices == [
        (2, (3,)),
        (2, (1, 1, 1)),
        (3, (2, 1)),
        (4, (3,)),
        (4, (1, 1, 1)),
    ]
    # the parity-infeasible pair (2, (2,1)) is excluded
    assert (2, (2, 1)) not in indices


def test_boundary_index_set_top_index():
    for g, k in ((2, 3), (3, 4), (5, 3), (4, 6)):
        indices = boundary_index_set(g, k)
        assert max(x.i for x in indices) == g + k - 1


def test_boundary_index_set_symmetric_under_reflection():
    for g, k in ((2, 3), (3, 4), (2, 5)):
        b = 2 * g + 2 * k - 2
        for index in boundary_index_set(g, k):
            assert transposition_feasible(index.mu, index.i)
            assert transposition_feasible(index.mu, b - index.i)


def test_boundary_index_set_validation():
    with pytest.raises(InputError):
        boundary_index_set(1, 3)
    with pytest.raises(InputError):
        boundary_index_set(2, 2)


def test_boundary_index_accepts_exactly_the_index_set():
    # the direct membership test agrees with the enumerated set, on a grid of
    # (i, mu) with i outside 2..b/2 and mu of weight k - 1, k and k + 1
    for g, k in ((2, 3), (3, 4), (5, 5), (4, 6), (7, 7)):
        b = 2 * g + 2 * k - 2
        keys = {index.key for index in boundary_index_set(g, k)}
        shapes = [mu.parts for weight in (k - 1, k, k + 1) for mu in partitions_of(weight)]
        for i in range(-1, b + 3):
            for parts in shapes:
                if (i, parts) in keys:
                    assert boundary_index(g, k, i, parts).key == (i, parts)
                else:
                    with pytest.raises(InputError, match="not a boundary index"):
                        boundary_index(g, k, i, parts)


def test_index_set_enumeration_equals_the_predicate():
    # enumerating by partition gives the candidates that `_is_index` accepts, in order
    for g in range(2, 26):
        for k in range(3, 11):
            b = 2 * g + 2 * k - 2
            filtered = [
                BoundaryIndex(i, mu)
                for i in range(2, b // 2 + 1)
                for mu in partitions_of(k)
                if _is_index(b, k, i, mu)
            ]
            assert list(_boundary_indices(g, k)) == filtered, (g, k)


def test_first_index_is_the_least_feasible_index():
    # the whole index range of each partition, not only its first index
    for k in range(3, 11):
        for g in (2, 3, 4, 9, 30):
            b = 2 * g + 2 * k - 2
            for row in partition_table(k):
                feasible = [i for i in range(2, b // 2 + 1) if transposition_feasible(row.mu, i)]
                assert list(_index_range(b, row.drop)) == feasible, (b, row.mu)


@pytest.mark.parametrize(
    "g, k, key",
    [
        (2, 3, (2, (2, 1))),
        (2, 3, (5, (3,))),
        # a float i or part hashes like the int, but is not an index
        (3, 3, (3.0, (2, 1))),
        (3, 3, (3, (2.0, 1))),
        (3, 3, (3, (2, 1), 0)),
        (3, 3, "ab"),
    ],
    ids=repr,
)
def test_hurwitz_class_rejects_stray_indices(g, k, key):
    with pytest.raises(InputError):
        HurwitzClass.make(g, k, {key: F(1)})


def test_hodge_class_g2_k3_table():
    # independent substitution: b = 8, coefficient
    # lcm(mu) * ( i(8-i)/56 - (3 - harmonic(mu))/12 )
    expected = {}
    for i, parts in [(2, (3,)), (2, (1, 1, 1)), (3, (2, 1)), (4, (3,)), (4, (1, 1, 1))]:
        m = math.lcm(*parts)
        harmonic = sum(F(1, p) for p in parts)
        expected[(i, parts)] = m * (F(i * (8 - i), 56) - F(1, 12) * (3 - harmonic))
    assert hodge_class(2, 3).as_dict() == expected
    assert expected[(2, (3,))] == F(-1, 42)
    assert expected[(3, (2, 1))] == F(2, 7)
    assert expected[(4, (3,))] == F(4, 21)


def test_hodge_class_unramified_rows_are_quadratic_term_only():
    for g, k in ((2, 3), (3, 4), (4, 5)):
        b = 2 * g + 2 * k - 2
        cls = hodge_class(g, k)
        ones = P((1,) * k)
        for index in boundary_index_set(g, k):
            if index.mu == ones:
                value = cls.coefficient(index.i, ones)
                assert value == F(index.i * (b - index.i), 8 * (b - 1))
                assert value > 0


def test_branch_pullback_boundary_values():
    cls = branch_pullback_boundary(2, 3, 2)
    assert cls.as_dict() == {(2, (3,)): F(3), (2, (1, 1, 1)): F(1)}
    assert cls.coefficient(2, P((2, 1))) == 0
    cls5 = branch_pullback_boundary(3, 5, 4)
    assert cls5.coefficient(4, P((3, 1, 1))) == 3
    assert cls5.coefficient(4, P((1, 1, 1, 1, 1))) == 1
    with pytest.raises(InputError):
        branch_pullback_boundary(2, 3, 1)
    with pytest.raises(InputError):
        branch_pullback_boundary(2, 3, 5)


def test_branch_pullback_linearity_and_positivity():
    for g, k in ((2, 3), (3, 4)):
        b = 2 * g + 2 * k - 2
        kappa = kappa1_m0b(b)
        pulled = branch_pullback(g, k, kappa)
        support = pulled.support()
        assert support == tuple(x.key for x in boundary_index_set(g, k))
        assert all(value > 0 for _, value in pulled.coeffs)
        single = branch_pullback(g, k, 0 * kappa)
        assert single.as_dict() == {}


def test_branch_pullback_space_mismatch():
    with pytest.raises(InputError):
        branch_pullback(2, 3, kappa1_m0b(10))


def test_ramification_values():
    cls = ramification_class(2, 3)
    assert cls.coefficient(2, P((1, 1, 1))) == 0
    assert cls.coefficient(3, P((2, 1))) == 1
    assert cls.coefficient(2, P((3,))) == 2
    assert ramification_class(2, 5).coefficient(3, P((3, 2))) == 5


def test_canonical_stack_g2_k3_table():
    # independent substitution: coefficient lcm(mu) * (i(8-i)/7 - 1) - 1
    expected = {}
    for i, parts in [(2, (3,)), (2, (1, 1, 1)), (3, (2, 1)), (4, (3,)), (4, (1, 1, 1))]:
        m = math.lcm(*parts)
        expected[(i, parts)] = m * (F(i * (8 - i), 7) - 1) - 1
    assert canonical_class_stack(2, 3).as_dict() == expected
    assert expected[(2, (3,))] == F(8, 7)
    assert expected[(2, (1, 1, 1))] == F(-2, 7)
    assert expected[(4, (1, 1, 1))] == F(2, 7)


def test_canonical_stack_unramified_rows_match_base_canonical():
    g, k = 3, 4
    b = 2 * g + 2 * k - 2
    cls = canonical_class_stack(g, k)
    for index in boundary_index_set(g, k):
        if index.mu.parts == (1,) * k:
            assert cls.coefficient(index.i, index.mu) == F(index.i * (b - index.i), b - 1) - 2


def test_canonical_identity_pullback_plus_ramification():
    # both pipelines, over a grid; the constructor asserts it as well
    from hurwitzdiv import canonical_class_m0b

    for g in range(2, 7):
        for k in range(3, 6):
            b = 2 * g + 2 * k - 2
            lhs = canonical_class_stack(g, k)
            rhs = branch_pullback(g, k, canonical_class_m0b(b)) + ramification_class(g, k)
            assert lhs == rhs


_PERTURBED_INVARIANTS = """
import sys
import hurwitzdiv.hurwitz as hurwitz
import hurwitzdiv.lowslope as lowslope
from hurwitzdiv import InvariantError

print("optimize", sys.flags.optimize)
canonical = hurwitz.canonical_class_m0b
hurwitz.canonical_class_m0b = lambda b: canonical(b) * 2
pullback = lowslope.pseudostable_pullback
lowslope.pseudostable_pullback = lambda divisor: pullback(divisor) * 2
for name, check in (("canonical", lambda: hurwitz.canonical_class_stack(2, 3)),
                    ("coarse", lambda: hurwitz.canonical_class_coarse(2, 3)),
                    ("hilbert", lambda: lowslope.second_hilbert_divisor(8))):
    try:
        check()
    except InvariantError as exc:
        print(name, "raised", exc)
    else:
        print(name, "passed")
"""


def test_invariants_fire_under_optimize():
    # the invariants are explicit raises, so `python -O` keeps them
    src = str(Path(hurwitzdiv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _PERTURBED_INVARIANTS],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "optimize 1"
    assert lines[1] == (
        "canonical raised canonical class disagrees with pullback + ramification"
    )
    assert lines[2] == "coarse raised canonical class disagrees with pullback + ramification"
    assert lines[3] == (
        "hilbert raised pseudo-stable pipeline disagrees with the direct expansion"
    )


def test_sharp_indicator():
    assert sharp_indicator(2, P((2, 1, 1))) == 1
    assert sharp_indicator(3, P((2, 2))) == 1
    assert sharp_indicator(2, P((1, 1, 1))) == 0
    assert sharp_indicator(2, P((3, 1))) == 0
    assert sharp_indicator(4, P((3, 2, 1))) == 1


def test_coarse_correction_g2_k3():
    cls = coarse_correction(2, 3)
    assert cls.as_dict() == {(3, (2, 1)): F(-1)}
    assert cls.branch_marks == frozenset({(3, (2, 1))})


def test_coarse_correction_marks_only_two_part_indices():
    for g, k in ((2, 4), (3, 5)):
        cls = coarse_correction(g, k)
        for (i, parts), value in cls.coeffs:
            assert value == -1
            assert 2 in parts
        for index in boundary_index_set(g, k):
            if 2 in index.mu.parts:
                assert cls.coefficient(index.i, index.mu) == -1
            else:
                assert cls.coefficient(index.i, index.mu) == 0


def test_canonical_coarse_g2_k3_table():
    cls = canonical_class_coarse(2, 3)
    assert cls.as_dict() == {
        (2, (3,)): F(8, 7),
        (2, (1, 1, 1)): F(-2, 7),
        (3, (2, 1)): F(2, 7),
        (4, (3,)): F(20, 7),
        (4, (1, 1, 1)): F(2, 7),
    }
    assert cls.branch_marks == frozenset({(3, (2, 1))})


def test_canonical_coarse_reductions():
    g, k = 3, 5
    stack = canonical_class_stack(g, k)
    coarse = canonical_class_coarse(g, k)
    for index in boundary_index_set(g, k):
        drop = 1 if 2 in index.mu.parts else 0
        assert coarse.coefficient(index.i, index.mu) == stack.coefficient(
            index.i, index.mu
        ) - drop


def test_classes_supported_on_index_set_only():
    for g, k in ((2, 3), (3, 4)):
        valid = {x.key for x in boundary_index_set(g, k)}
        for cls in (
            hodge_class(g, k),
            canonical_class_stack(g, k),
            canonical_class_coarse(g, k),
            ramification_class(g, k),
        ):
            assert set(cls.support()) <= valid


def test_hurwitz_class_arithmetic():
    a = hodge_class(2, 3)
    two_a = a + a
    assert two_a == 2 * a
    assert (F(1, 2) * two_a) == a
    with pytest.raises(InputError):
        a + hodge_class(2, 4)


def test_hurwitz_class_rejects_floats():
    with pytest.raises(InputError):
        HurwitzClass.make(2, 3, {(2, (3,)): 0.25})


@pytest.mark.parametrize("g, k", [(3, 4), (2, 3), (9, 7), (60, 10), (200, 8), (1000, 10)])
def test_hurwitz_class_make_orders_keys_by_index(g, k):
    keys = tuple(x.key for x in boundary_index_set(g, k))
    values = {key: F(n + 1, 3) for n, key in enumerate(keys)}
    in_order = HurwitzClass.make(g, k, values)
    shuffled = list(values.items())
    random.Random(g * k).shuffle(shuffled)
    for terms in (dict(reversed(list(values.items()))), shuffled):
        build = HurwitzClass.make(g, k, terms)
        assert build == in_order
        assert build.support() == keys


def test_table_builds_are_canonical():
    # the tables and branch_pullback call the constructor directly: their
    # coefficients must be what `make` stores (Fractions, no zeros, index
    # order) and their marks must lie in the support
    from hurwitzdiv import canonical_class_m0b

    for g in (2, 3, 7, 20):
        for k in range(3, 8):
            b = 2 * g + 2 * k - 2
            for cls in (
                hodge_class(g, k),
                ramification_class(g, k),
                coarse_correction(g, k),
                canonical_class_stack(g, k),
                canonical_class_coarse(g, k),
                branch_pullback(g, k, canonical_class_m0b(b)),
                branch_pullback_boundary(g, k, b // 2),
            ):
                assert cls == HurwitzClass.make(g, k, dict(cls.coeffs), cls.branch_marks), (g, k)
                assert all(type(value) is Fraction for _, value in cls.coeffs), (g, k)


def test_branch_marks_follow_arithmetic():
    coarse = canonical_class_coarse(3, 4)
    marks = coarse.branch_marks
    assert marks
    assert (coarse + hodge_class(3, 4)).branch_marks == marks
    assert (hodge_class(3, 4) + coarse).branch_marks == marks
    assert (F(3, 2) * coarse).branch_marks == marks
    assert (coarse * -2).branch_marks == marks
    assert (0 * coarse).branch_marks == frozenset()
    assert (0 * coarse).coeffs == ()


def test_hurwitz_class_subtraction():
    stack = canonical_class_stack(3, 4)
    coarse = canonical_class_coarse(3, 4)
    assert coarse - stack == coarse_correction(3, 4)
    assert -stack == -1 * stack
    assert stack - stack == HurwitzClass.make(3, 4, {})
    # a mark whose coefficient cancels is dropped
    correction = coarse_correction(3, 4)
    assert (correction - correction).branch_marks == frozenset()


def _nonzero(values):
    return {key: value for key, value in values.items() if value}


def test_classes_match_per_index_reference():
    # every cover-space class against its formula written out one index at a time
    for g in (2, 3, 5, 8, 13):
        for k in range(3, 8):
            b = 2 * g + 2 * k - 2
            hodge, stack, ramification, correction, kappa = {}, {}, {}, {}, {}
            for index in boundary_index_set(g, k):
                i, parts = index.key
                m = math.lcm(*parts)
                q = F(i * (b - i), b - 1)
                harmonic = sum(F(1, p) for p in parts)
                hodge[index.key] = m * (q / 8 - (k - harmonic) / 12)
                stack[index.key] = m * (q - 1) - 1
                ramification[index.key] = F(m - 1)
                correction[index.key] = F(-1 if 2 in parts else 0)
                kappa[index.key] = m * F((i - 1) * (b - i - 1), b - 1)
            marks = frozenset(_nonzero(correction))
            coarse = {key: stack[key] + correction[key] for key in stack}
            assert hodge_class(g, k).as_dict() == _nonzero(hodge), (g, k)
            assert canonical_class_stack(g, k).as_dict() == _nonzero(stack), (g, k)
            assert ramification_class(g, k).as_dict() == _nonzero(ramification), (g, k)
            assert coarse_correction(g, k).as_dict() == _nonzero(correction), (g, k)
            assert coarse_correction(g, k).branch_marks == marks, (g, k)
            assert canonical_class_coarse(g, k).as_dict() == _nonzero(coarse), (g, k)
            assert canonical_class_coarse(g, k).branch_marks == marks, (g, k)
            assert branch_pullback(g, k, kappa1_m0b(b)).as_dict() == kappa, (g, k)
            for i in (2, b // 2):
                row = {key: F(math.lcm(*key[1])) for key in kappa if key[0] == i}
                assert branch_pullback_boundary(g, k, i).as_dict() == row, (g, k, i)
