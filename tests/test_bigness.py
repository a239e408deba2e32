"""Per-index inequalities, certificates, and the (g, k) scan."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

import hurwitzdiv.bigness as bigness
from hurwitzdiv import (
    BoundaryIndex,
    HypothesisError,
    InputError,
    Partition,
    ScanRow,
    best_recipe,
    boundary_index_set,
    branch_pullback,
    coarse_inequality_lhs,
    coarse_range_ok,
    kappa1_m0b,
    scan,
    second_hilbert_divisor,
    stack_inequality_lhs,
    syzygy_divisor_g7,
    user_divisor,
    verify_coarse,
    verify_stack,
)
from hurwitzdiv.bigness import (
    MODE_COARSE,
    MODE_STACK,
    _COARSE_SLOPE,
    _least_margin,
    _margin_rows,
    _sigma_rule,
    _verdict,
    no_divisor_certificate,
)

F = Fraction
P = Partition


def _index(i, parts):
    return BoundaryIndex(i, P(parts))


def test_sigma_delta_lower_bounds():
    assert _sigma_rule((1, 1, 1), False) == 2
    assert _sigma_rule((2, 1, 1), False) == 1
    assert _sigma_rule((2, 1, 1), True) == 2
    assert _sigma_rule((2, 2, 1), False) == 0
    # the unramified bound does not depend on the branch context
    assert _sigma_rule((1, 1, 1), True) == 2


def test_stack_lhs_unramified_at_slope_eight_vanishes():
    for g, k in ((2, 3), (4, 4)):
        for index in boundary_index_set(g, k):
            if index.mu.parts == (1,) * k:
                assert stack_inequality_lhs(g, k, F(8), index) == 0


def test_stack_lhs_frozen_example():
    # g=8, k=3 (b=20), s=31/4, index (3, (2,1)); hand substitution gives 2/19
    assert stack_inequality_lhs(8, 3, F(31, 4), _index(3, (2, 1))) == F(2, 19)


def test_stack_lhs_single_two_cycle_closed_form():
    # for mu = (2, 1^{k-2}) the margin factors as (8-s)(i(b-i)-(b-1))/(4(b-1))
    for g, k, s in ((8, 3, F(31, 4)), (7, 4, F(54, 7)), (15, 3, F(62621, 7830))):
        b = 2 * g + 2 * k - 2
        mu = (2,) + (1,) * (k - 2)
        for i in (3, 5):
            expected = (8 - s) * F(i * (b - i) - (b - 1), 4 * (b - 1))
            assert stack_inequality_lhs(g, k, s, _index(i, mu)) == expected


def test_stack_lhs_positive_for_big_cycles_at_moderate_slope():
    # every index with a part >= 3 has a positive margin already at s = 45/8
    s = F(45, 8)
    for g, k in ((2, 3), (3, 4), (2, 5), (4, 6)):
        for index in boundary_index_set(g, k):
            if max(index.mu.parts) >= 3:
                assert stack_inequality_lhs(g, k, s, index) > 0


def test_stack_margins_nonnegative_at_decisive_slopes():
    # exhaustive over the grid: every margin at the three slopes that matter
    slopes = (F(31, 4), F(54, 7), F(62621, 7830))
    for g in range(2, 21):
        for k in range(3, 7):
            for index in boundary_index_set(g, k):
                for s in slopes:
                    assert stack_inequality_lhs(g, k, s, index) >= 0


def test_stack_lhs_slope_bounds():
    with pytest.raises(InputError):
        stack_inequality_lhs(2, 3, F(0), _index(2, (3,)))
    with pytest.raises(InputError):
        stack_inequality_lhs(2, 3, F(9), _index(2, (3,)))


def test_margins_reject_an_index_outside_the_index_set():
    # i past b/2, i of the wrong parity for mu, mu of another weight, g < 2
    for g, k, index in ((2, 3, _index(99, (3,))), (8, 3, _index(3, (3,))),
                        (8, 3, _index(2, (2, 2))), (1, 3, _index(2, (3,)))):
        with pytest.raises(InputError):
            stack_inequality_lhs(g, k, F(7), index)
        with pytest.raises(InputError):
            coarse_inequality_lhs(g, k, index)


def test_stack_lhs_monotone_in_slope_for_unramified_indices():
    slopes = [F(6), F(13, 2), F(7), F(15, 2), F(31, 4)]
    for g, k in ((2, 3), (3, 4)):
        for index in boundary_index_set(g, k):
            if index.mu.parts == (1,) * k:
                values = [stack_inequality_lhs(g, k, s, index) for s in slopes]
                assert all(a >= b for a, b in zip(values, values[1:]))


def test_coarse_lhs_frozen_examples():
    k = 6
    assert coarse_inequality_lhs(4, k, _index(3, (2, 1, 1, 1, 1))) == 0
    assert coarse_inequality_lhs(4, k, _index(2, (2, 2, 1, 1))) == 0
    assert coarse_inequality_lhs(4, k, _index(3, (2, 2, 2))) == 2
    assert coarse_inequality_lhs(4, k, _index(2, (1,) * 6)) == 0
    assert coarse_inequality_lhs(2, 5, _index(3, (3, 2))) == F(26, 3)


def test_verify_stack_certifies_the_three_headline_cells():
    for g, k in ((8, 3), (15, 3), (7, 4)):
        cert = verify_stack(g, k, best_recipe(g, k))
        assert cert.verdict == "Certified"
        assert cert.alpha > 0
        assert all(entry.margin > 0 for entry in cert.per_index)


def test_verify_stack_alpha_frozen_values():
    # alpha is minimised on the single-2-cycle indices, where it equals (8-s)/8
    cert = verify_stack(8, 3, best_recipe(8, 3))
    assert cert.alpha == F(1, 32)
    cert74 = verify_stack(7, 4, best_recipe(7, 4))
    assert cert74.alpha == F(1, 28)
    cert15 = verify_stack(15, 3, best_recipe(15, 3))
    assert cert15.alpha == (8 - F(62621, 7830)) / 8 == F(19, 62640)


def test_verify_stack_hypothesis_errors():
    with pytest.raises(HypothesisError):
        verify_stack(6, 3, second_hilbert_divisor(6))  # slope exactly 8
    with pytest.raises(HypothesisError):
        verify_stack(7, 3, syzygy_divisor_g7())  # 4-gonal avoidance does not cover k=3
    with pytest.raises(HypothesisError):
        verify_stack(7, 5, syzygy_divisor_g7())  # best_recipe(7, 5) is None as well
    with pytest.raises(InputError):
        verify_stack(9, 3, second_hilbert_divisor(8))  # genus mismatch


def test_a_cell_gets_the_same_hypotheses_from_either_recipe_object():
    for verify in (verify_stack, verify_coarse):
        cert = verify(8, 5, second_hilbert_divisor(8))
        assert cert.hypotheses == verify(8, 5, best_recipe(8, 5)).hypotheses
        assert "does not contain the 5-gonal locus" in " ".join(cert.hypotheses)


def test_verify_stack_user_supplied():
    cert = verify_stack(6, 4, user_divisor(6, F(54, 7), 4))
    assert cert.verdict == "Certified"
    assert cert.slope_used == F(54, 7)


def test_verify_stack_certifies_any_slope_below_eight():
    # the content of the verification: the per-index inequality holds for
    # every slope below 8, so a valid user divisor always certifies
    for s in (F(1, 2), F(3), F(6), F(22, 3), F(799, 100)):
        cert = verify_stack(6, 4, user_divisor(6, s, 4))
        assert cert.verdict == "Certified"
        assert cert.alpha > 0


def test_certificate_entries_are_sorted():
    for cert in (
        verify_stack(8, 3, best_recipe(8, 3)),
        verify_coarse(8, 3, best_recipe(8, 3)),
    ):
        keys = [(e.index.i, tuple(-p for p in e.index.mu.parts)) for e in cert.per_index]
        assert keys == sorted(keys)
        assert [e.index.key for e in cert.per_index] == [
            x.key for x in boundary_index_set(cert.g, cert.k)
        ]


def test_coarse_range():
    assert coarse_range_ok(8, 3)
    assert coarse_range_ok(16, 9)
    assert not coarse_range_ok(8, 6)
    assert not coarse_range_ok(7, 5)


def test_verify_coarse_certifies_with_expected_zero_margins():
    cert = verify_coarse(8, 3, best_recipe(8, 3))
    assert cert.verdict == "Certified"
    zero = {entry.index.mu.parts for entry in cert.per_index if entry.margin == 0}
    assert zero == {(2, 1), (1, 1, 1)}
    for entry in cert.per_index:
        assert entry.margin >= 0
        if entry.margin == 0:
            assert entry.note == "absorbed by ample term"
        else:
            assert entry.note == ""
        assert entry.sharp == (1 if 2 in entry.index.mu.parts else 0)


def test_verify_coarse_boundary_of_range():
    cert = verify_coarse(16, 9, best_recipe(16, 9))
    assert cert.verdict == "Certified"
    with pytest.raises(HypothesisError):
        verify_coarse(8, 6, best_recipe(8, 6))


def test_verify_coarse_records_finiteness_hypothesis():
    cert = verify_coarse(8, 3, best_recipe(8, 3))
    assert any("generically finite" in h for h in cert.hypotheses)


def test_scan_k3_matches_expected_certified_set():
    table = scan(3, 3, 6, 20)
    certified = {row.g for row in table.rows if row.stack_verdict == "Certified"}
    assert certified == {8, 10, 12, 14, 15, 16, 17, 18, 19, 20}
    for row in table.rows:
        assert row.coarse_verdict == row.stack_verdict  # k=3 is always in coarse range
    none_rows = [row for row in table.rows if row.recipe == "none"]
    assert {row.g for row in none_rows} == {6, 7, 9, 11, 13}
    assert all(row.slope is None and row.min_margin is None for row in none_rows)


def test_scan_covers_syzygy_cell():
    table = scan(4, 4, 7, 7)
    (row,) = table.rows
    assert row.recipe == "SyzygyG7"
    assert row.stack_verdict == "Certified"
    assert row.coarse_verdict == "Certified"


def test_scan_marks_out_of_range_coarse_cells():
    table = scan(6, 6, 8, 8)
    (row,) = table.rows
    assert row.recipe == "Hilbert2Even"
    assert row.stack_verdict == "Certified"
    assert row.coarse_verdict == "n/a"


def test_scan_empty_range():
    assert scan(4, 3, 6, 20).rows == ()
    assert scan(3, 3, 10, 6).rows == ()


def test_scan_rows_match_cellwise_verification():
    # the scan reuses one recipe per genus and reads each cell from its least
    # margins; every row must equal the row assembled from best_recipe and the
    # two full certificates of its own cell
    table = scan(3, 10, 6, 60)
    assert [(row.g, row.k) for row in table.rows] == [
        (g, k) for g in range(6, 61) for k in range(3, 11)
    ]
    for row in table.rows:
        recipe = best_recipe(row.g, row.k)
        if recipe is None:
            coarse = "NoDivisor" if coarse_range_ok(row.g, row.k) else "n/a"
            expected = ScanRow(row.g, row.k, "none", None, "NoDivisor", coarse, None)
        else:
            stack = verify_stack(row.g, row.k, recipe)
            if coarse_range_ok(row.g, row.k):
                coarse = verify_coarse(row.g, row.k, recipe).verdict
            else:
                coarse = "n/a"
            expected = ScanRow(row.g, row.k, recipe.name, recipe.slope, stack.verdict,
                               coarse, stack.min_margin())
        assert row == expected


def test_verify_without_a_recipe_gives_the_no_divisor_certificate():
    for verify, mode in ((verify_stack, MODE_STACK), (verify_coarse, MODE_COARSE)):
        # (4, 5) is out of coarse range, which is checked only with a recipe
        for g, k in ((2, 3), (13, 3), (4, 5)):
            assert verify(g, k, None) == no_divisor_certificate(g, k, mode)
        for g, k in ((1, 3), (4, 2)):
            with pytest.raises(InputError):
                verify(g, k, None)


def test_verify_at_genus_two_and_three_gives_the_rows_of_the_scan():
    # no built-in divisor serves g < 4: verify says NoDivisor there, as a scan does
    table = scan(3, 5, 2, 3)
    assert [(row.g, row.k) for row in table.rows] == [(g, k) for g in (2, 3) for k in (3, 4, 5)]
    for row in table.rows:
        stack = verify_stack(row.g, row.k, best_recipe(row.g, row.k))
        coarse = verify_coarse(row.g, row.k, best_recipe(row.g, row.k))
        assert stack.verdict == coarse.verdict == "NoDivisor"
        coarse_entry = coarse.verdict if coarse_range_ok(row.g, row.k) else "n/a"
        assert row == ScanRow(row.g, row.k, "none", None, stack.verdict, coarse_entry, None)


def _endpoint_cells():
    for g in range(6, 61):
        for k in range(3, 11):
            yield g, k
    for g in (200, 1000):
        for k in range(3, 11):
            yield g, k


def test_least_margin_is_the_least_certificate_margin():
    # the endpoint rule against full enumeration: one index per partition
    # gives the least margin of every index, and the verdict of the certificate
    for g, k in _endpoint_cells():
        recipe = best_recipe(g, k) or user_divisor(g, F(54, 7), k)
        modes = [(verify_stack, MODE_STACK, _margin_rows(k, recipe.slope, coarse=False))]
        if coarse_range_ok(g, k):
            modes.append((verify_coarse, MODE_COARSE, _margin_rows(k, _COARSE_SLOPE, coarse=True)))
        for verify, mode, rows in modes:
            cert = verify(g, k, recipe)
            least = _least_margin(g, k, rows)
            assert least == min(entry.margin for entry in cert.per_index), (g, k, mode)
            assert _verdict(mode, least) == cert.verdict, (g, k, mode)


def _brute_force_least(g, k, rows, over=None):
    """The least (a q + c)/(a' q + c') over every boundary index, each from its own q."""
    b = 2 * g + 2 * k - 2
    ratios = []
    for index in boundary_index_set(g, k):
        q = F(index.i * (b - index.i), b - 1)
        a, c = rows[index.mu.parts][:2]
        a1, c1 = over[index.mu.parts][:2] if over else (0, 1)
        ratios.append((a * q + c) / (a1 * q + c1))
    return min(ratios)


def test_least_margin_reads_the_last_index_of_a_decreasing_margin():
    # above slope 8 every stack margin decreases in q (a < 0), so its least
    # value is at the last index of its partition, not at the first
    for g, k in ((2, 3), (10, 4), (31, 6)):
        rows = _margin_rows(k, F(9), coarse=False)
        assert all(a < 0 for a, *_ in rows.values())
        assert _least_margin(g, k, rows) == _brute_force_least(g, k, rows), (g, k)


def test_alpha_is_the_least_ratio_at_the_partition_endpoints():
    for g in (200, 1000):
        for k in range(3, 11):
            kappa1 = bigness._class_terms(k)["kappa1"]
            recipe = best_recipe(g, k) or user_divisor(g, F(54, 7), k)
            modes = [_margin_rows(k, recipe.slope, coarse=False)]
            if coarse_range_ok(g, k):
                modes.append(_margin_rows(k, _COARSE_SLOPE, coarse=True))
            for rows in modes:
                alpha = _least_margin(g, k, rows, kappa1)
                assert alpha == _brute_force_least(g, k, rows, kappa1), (g, k)


def test_scan_builds_no_index_set_or_margin_listing(monkeypatch):
    # only a NoDivisor cell builds a certificate, one with no indices
    def refuse(*args, **kwargs):
        raise AssertionError("scan must not list boundary indices or their margins")

    for name in ("_verify", "_margins", "boundary_index_set", "IndexMargin"):
        monkeypatch.setattr(bigness, name, refuse)
    table = scan(3, 10, 6, 20)
    assert table.certified_stack() > 0 and table.certified_coarse() > 0
    assert any(row.stack_verdict == "NoDivisor" for row in table.rows)


def test_scan_range_limits():
    with pytest.raises(InputError):
        scan(3, 11, 6, 8)
    with pytest.raises(InputError):
        scan(3, 4, 6, 61)
    with pytest.raises(InputError):
        scan(2, 4, 6, 8)


def _reference_certificate(g, k, s, coarse):
    """Margins, alpha and verdict of one certificate from the closed forms.

    Plain Fraction arithmetic per index, independent of the per-partition
    integer kernel: rows of (key, margin, sigma bound, sharp), then alpha as
    the least margin / kappa1-pullback ratio.
    """
    b = 2 * g + 2 * k - 2
    rows = []
    alpha = None
    for index in boundary_index_set(g, k):
        i, mu = index.i, index.mu.parts
        m = math.lcm(*mu)
        harmonic = sum(F(1, part) for part in mu)
        sharp = 1 if coarse and any(i >= a for a in range(1, mu.count(2) + 1)) else 0
        if mu == (1,) * k:
            bound = 2
        elif mu == (2,) + (1,) * (k - 2):
            bound = 2 if sharp else 1
        else:
            bound = 0
        if coarse:
            margin = -m - 1 + bound + F(2, 3) * m * (k - harmonic) - sharp
        else:
            margin = (
                (1 - s / 8) * m * F(i * (b - i), b - 1)
                - m
                - 1
                + bound
                + (s / 12) * m * (k - harmonic)
            )
        ratio = margin / (m * F((i - 1) * (b - i - 1), b - 1))
        alpha = ratio if alpha is None else min(alpha, ratio)
        rows.append((index.key, margin, F(bound), sharp))
    ok = all(margin >= 0 for _, margin, _, _ in rows) and (coarse or alpha > 0)
    return rows, alpha, "Certified" if ok else "Failed"


def _kernel_cells():
    for g in list(range(6, 21)) + [59, 60]:
        for k in range(3, 11):
            yield g, k
    yield 200, 10


def test_margin_kernel_matches_closed_forms():
    for g, k in _kernel_cells():
        recipe = best_recipe(g, k) or user_divisor(g, F(54, 7), k)
        modes = [(False, verify_stack)]
        if coarse_range_ok(g, k):
            modes.append((True, verify_coarse))
        for coarse, verify in modes:
            cert = verify(g, k, recipe)
            rows, alpha, verdict = _reference_certificate(g, k, recipe.slope, coarse)
            got = [
                (e.index.key, e.margin, e.sigma_bound, e.sharp) for e in cert.per_index
            ]
            assert got == rows, (g, k, coarse)
            assert cert.alpha == alpha, (g, k, coarse)
            assert cert.verdict == verdict, (g, k, coarse)


def test_alpha_is_least_margin_over_kappa1_pullback():
    # alpha is tied to the pulled-back kappa1 class of the genus-0 space
    for g, k in ((8, 3), (15, 4), (16, 9), (31, 6), (60, 10)):
        recipe = best_recipe(g, k)
        kappa = branch_pullback(g, k, kappa1_m0b(2 * g + 2 * k - 2)).as_dict()
        for cert in (verify_stack(g, k, recipe), verify_coarse(g, k, recipe)):
            ratios = [e.margin / kappa[e.index.key] for e in cert.per_index]
            assert cert.alpha == min(ratios), (g, k, cert.mode)
