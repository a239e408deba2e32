"""Bigness certificates for the canonical class of the cover space.

Given an effective divisor of slope s < 8 on the genus-g space that misses
the k-gonal locus, the canonical class of the cover stack decomposes as

    K = alpha * (branch pullback of kappa1) + (pullback of s*lambda - delta) + E

with alpha > 0 and E effective, provided one exact inequality holds per
boundary index (i, mu): the margin, the (i, mu) coefficient of
K - s*lambda + sigma, is non-negative.  Here lambda is the Hodge class and
sigma a lower bound for the coefficient of (i, mu) in the pullback of the
total boundary delta: 2 for mu = (1^k) (the generic such cover degenerates
with at least two nodes), 1 for mu = (2, 1^(k-2)), and 2 again on the 2:1
branch components of the latter; 0 otherwise.  These multiplicity bounds are
asserted inputs of the certificate, not verified.  K, lambda and the kappa1
pullback are read from the per-partition table of :mod:`.hurwitz`: each is
affine in q = i(b-i)/(b-1) on a partition, and so is every margin.

For the coarse moduli space K is the coarse canonical class, which drops by
1 along each index whose cover has a 2:1 component over the degenerate
target (the sharp indicator), and the margin is evaluated in the limit
s -> 8, where the q terms cancel: a coarse margin depends on mu alone.
Evaluating at the user's s < 8 instead would fail by an epsilon exactly at
mu = (2^a, 1^(k-2a)) with a in {1, 2}; the limit is sound because the
pulled-back kappa1 is strictly positive on every index and absorbs the zero
margins.  Every margin is an exact rational; a certificate lists them all,
together with the largest admissible ample coefficient alpha and the
geometric hypotheses the verdict is conditional on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import HypothesisError, InputError, InvariantError
from .hurwitz import (
    BoundaryIndex,
    _affine,
    _check_gk,
    _class_terms,
    _first_index,
    boundary_index_set,
)
from .lowslope import DivisorRecipe, _avoidance_hypotheses, genus_recipe, recipe_for_degree
from .partitions import partition_table

MODE_STACK = "Stack"
MODE_COARSE = "Coarse"

VERDICT_CERTIFIED = "Certified"
VERDICT_FAILED = "Failed"
VERDICT_NO_DIVISOR = "NoDivisor"

# The scan-row entries of a cell with no divisor and of a cell out of coarse range.
SCAN_NO_RECIPE = "none"
SCAN_COARSE_OUT_OF_RANGE = "n/a"

JUSTIFICATION_TWO_NODES = "TwoNodes"
JUSTIFICATION_ONE_NODE = "OneNode"
JUSTIFICATION_NONE = "None"
JUSTIFICATION_BRANCH_TWO_NODES = "BranchComponentTwoNodes"

MAX_SCAN_G = 60
MAX_SCAN_K = 10
_COARSE_SLOPE = Fraction(8)

_BOUNDS_NOTE = (
    "note: boundary multiplicity lower bounds for the pulled-back total boundary are "
    "asserted inputs (2 at unramified-fibre indices; 1 at single-2-cycle indices; 2 on "
    "their 2:1 branch components)"
)
_DIRECT_MARGIN_NOTE = (
    "note: margins are evaluated per index from exact coefficients, not from reduced "
    "case estimates"
)
_COARSE_LIMIT_NOTE = "note: coarse margins are evaluated at the slope-8 limit"
_FEASIBILITY_NOTE = (
    "note: boundary indices use class-level feasibility (cover connectedness not "
    "imposed), a conservative superset of the nonempty divisors"
)
_ABSORBED_NOTE = "absorbed by ample term"


@dataclass(frozen=True)
class SigmaDeltaBound:
    """Lower bound for one coefficient of the pulled-back total boundary."""

    index: BoundaryIndex
    bound: Fraction
    justification: str


def _sigma_rule(parts: tuple[int, ...], branch_component: bool) -> tuple[int, str]:
    k = sum(parts)
    if parts == (1,) * k:
        return 2, JUSTIFICATION_TWO_NODES
    if parts == (2,) + (1,) * (k - 2):
        if branch_component:
            return 2, JUSTIFICATION_BRANCH_TWO_NODES
        return 1, JUSTIFICATION_ONE_NODE
    return 0, JUSTIFICATION_NONE


def sigma_delta_lower_bound(index: BoundaryIndex, branch_component: bool = False) -> SigmaDeltaBound:
    """Asserted lower bound for the delta-pullback coefficient at an index.

    mu = (1^k) always gets 2; mu = (2, 1^(k-2)) gets 2 on its 2:1 branch
    component and 1 otherwise; everything else gets the trivial bound 0.
    """
    bound, justification = _sigma_rule(index.mu.parts, branch_component)
    return SigmaDeltaBound(index, Fraction(bound), justification)


def _margin_terms(table: dict, mu: tuple[int, ...], s: Fraction, coarse: bool) -> tuple:
    """(a, c, sigma, sharp): the margin K - s*lambda + sigma is a q + c at the indices of mu.

    K is the stack canonical class, plus the coarse correction in the coarse
    mode; sharp is 1 where that correction is -1.
    """
    (ka, kc), (la, lc), sharp = table["stack"][mu], table["hodge"][mu], 0
    if coarse:
        ca, cc = table["coarse"][mu]
        # the coarse correction is -1 exactly at the sharp partitions
        ka, kc, sharp = ka + ca, kc + cc, -cc
    bound = _sigma_rule(mu, bool(sharp))[0]
    return ka - s * la, kc - s * lc + bound, bound, sharp


def _margin_row(table: dict, mu: tuple[int, ...], s: Fraction, coarse: bool) -> tuple:
    """The certificate row of partition mu.

    It holds the (a, c) of the margin, the (a, c) of the kappa1 pullback,
    sigma, the sharp flag and the note.
    """
    a, c, bound, sharp = _margin_terms(table, mu, s, coarse)
    note = _ABSORBED_NOTE if coarse and c == 0 else ""
    return (a, c, table["kappa1"][mu], Fraction(bound), sharp, note)


def _margin_rows(k: int, s: Fraction, coarse: bool) -> dict[tuple[int, ...], tuple]:
    table = _class_terms(k)
    return {mu: _margin_row(table, mu, s, coarse) for mu in table["stack"]}


@lru_cache(maxsize=16)
def _coarse_rows(k: int) -> dict[tuple[int, ...], tuple]:
    """The coarse rows, in the slope-8 limit: a = 0 there, so they depend on k alone."""
    return _margin_rows(k, _COARSE_SLOPE, coarse=True)


def _check_slope(s: Fraction) -> Fraction:
    s = Fraction(s)
    if not 0 < s <= 8:
        raise InputError(f"the slope must satisfy 0 < s <= 8, got {s}")
    return s


def _margin_at(g: int, k: int, s: Fraction, index: BoundaryIndex, coarse: bool) -> Fraction:
    if index.mu.weight != k:
        raise InputError(f"mu = {index.mu} is not a partition of k = {k}")
    b = 2 * g + 2 * k - 2
    a, c = _margin_terms(_class_terms(k), index.mu.parts, s, coarse)[:2]
    return a * Fraction(index.i * (b - index.i), b - 1) + c


def stack_inequality_lhs(g: int, k: int, s: Fraction, index: BoundaryIndex) -> Fraction:
    """Exact stack margin at one boundary index for a slope-s divisor."""
    return _margin_at(g, k, _check_slope(s), index, coarse=False)


def coarse_inequality_lhs(g: int, k: int, index: BoundaryIndex) -> Fraction:
    """Exact coarse margin at one boundary index, in the slope-8 limit."""
    return _margin_at(g, k, _COARSE_SLOPE, index, coarse=True)


@dataclass(frozen=True)
class IndexMargin:
    """One row of a certificate: the margin and its ingredients at an index."""

    index: BoundaryIndex
    margin: Fraction
    sigma_bound: Fraction
    sharp: int
    note: str


@dataclass(frozen=True)
class BignessCertificate:
    """Machine-checkable record that the canonical class is big.

    `alpha` is the largest rational with K minus the bounded boundary
    pullback minus alpha times the pulled-back kappa1 coefficient-wise
    non-negative.  Stack verdicts require every margin positive (so that
    alpha > 0 supplies the ample part); coarse verdicts allow zero margins,
    which the strictly positive kappa1 pullback absorbs.  Slope and alpha
    are None only on a NoDivisor certificate.
    """

    g: int
    k: int
    mode: str
    slope_used: Fraction | None
    per_index: tuple[IndexMargin, ...]
    alpha: Fraction | None
    hypotheses: tuple[str, ...]
    verdict: str

    def min_margin(self) -> Fraction | None:
        return min((entry.margin for entry in self.per_index), default=None)

    def certified(self) -> bool:
        return self.verdict == VERDICT_CERTIFIED

    def consistent(self) -> bool:
        """Does the verdict agree with the certificate's own margins and alpha?

        NoDivisor needs no slope, alpha or indices.  Otherwise the verdict
        must be the one that alpha and the least margin give.  This checks
        the record against itself and re-derives no margin.
        """
        if self.verdict == VERDICT_NO_DIVISOR:
            return self.slope_used is None and self.alpha is None and not self.per_index
        if self.mode not in (MODE_STACK, MODE_COARSE) or None in (self.slope_used, self.alpha):
            return False
        lowest = min([self.alpha] + [entry.margin for entry in self.per_index])
        return self.verdict == _verdict(self.mode, lowest)


def _verdict(mode: str, lowest: Fraction) -> str:
    """A stack verdict needs `lowest` positive, a coarse one non-negative."""
    certified = lowest >= 0 if mode == MODE_COARSE else lowest > 0
    return VERDICT_CERTIFIED if certified else VERDICT_FAILED


def no_divisor_certificate(g: int, k: int, mode: str) -> BignessCertificate:
    """The certificate of a cell that no divisor of slope below 8 serves.

    It has no slope, alpha, indices or hypotheses.
    """
    return BignessCertificate(g, k, mode, None, (), None, (), VERDICT_NO_DIVISOR)


def _check_recipe(g: int, k: int, recipe: DivisorRecipe) -> None:
    if recipe.g != g:
        raise InputError(f"the recipe is for genus {recipe.g}, not {g}")
    if recipe.slope >= 8:
        raise HypothesisError(f"the divisor slope must be below 8, got {recipe.slope}")
    if recipe_for_degree(recipe, k) is None:
        raise HypothesisError(
            f"the {recipe.name} recipe does not serve k = {k} "
            f"(avoided gonality: {recipe.avoided_gonality})"
        )


def _margins(
    g: int, k: int, indices: list[BoundaryIndex], margin_rows: dict[tuple[int, ...], tuple]
) -> tuple[tuple[IndexMargin, ...], Fraction]:
    """Every margin of one mode and alpha, the least margin / kappa1 ratio.

    With x = i(b-i), the margin at an index of a partition is (p x + r)/d
    and the kappa1 pullback is (kp x + kr)/kd, integers from `_affine`.
    kappa1 is positive at every index, so the alpha ratio
    (p x + r) kd / (d (kp x + kr)) has a positive denominator; ratios
    compare by cross-multiplication and alpha becomes one Fraction at the end.
    """
    b = 2 * g + 2 * k - 2
    rows: dict[tuple[int, ...], tuple] = {}
    for parts, (a, c, kappa1, bound, sharp, note) in margin_rows.items():
        p, r, d = _affine(a, c, b)
        kp, kr, kd = _affine(*kappa1, b)
        # a row with a = 0 reuses the one margin Fraction of its partition
        rows[parts] = (p, r, d, kd, d * kp, d * kr, None if a else c, bound, sharp, note)
    entries: list[IndexMargin] = []
    best_num = best_den = None
    for index in indices:
        p, r, d, kd, dkp, dkr, constant, bound, sharp, note = rows[index.mu.parts]
        x = index.i * (b - index.i)
        num = p * x + r
        ratio_num, ratio_den = num * kd, dkp * x + dkr
        if best_num is None or ratio_num * best_den < best_num * ratio_den:
            best_num, best_den = ratio_num, ratio_den
        margin = constant if constant is not None else Fraction(num, d)
        entries.append(IndexMargin(index, margin, bound, sharp, note))
    alpha = Fraction(0) if best_num is None else Fraction(best_num, best_den)
    return tuple(entries), alpha


def coarse_range_ok(g: int, k: int) -> bool:
    """The coarse argument needs 3 <= k <= (g + 2)/2."""
    return 3 <= k and 2 * k <= g + 2


def _verify(g: int, k: int, recipe: DivisorRecipe, mode: str) -> BignessCertificate:
    indices = boundary_index_set(g, k)  # validates g, k
    coarse = mode == MODE_COARSE
    if coarse and not coarse_range_ok(g, k):
        raise HypothesisError(
            f"the coarse argument needs 3 <= k <= (g + 2)/2, got (g, k) = ({g}, {k})"
        )
    _check_recipe(g, k, recipe)
    s = _check_slope(recipe.slope)
    rows = _coarse_rows(k) if coarse else _margin_rows(k, s, coarse=False)
    entries, alpha = _margins(g, k, indices, rows)
    notes = (_BOUNDS_NOTE, _DIRECT_MARGIN_NOTE, _FEASIBILITY_NOTE)
    if coarse:
        finite = (
            f"the cover-to-curve map is generically finite onto the {k}-gonal locus (assumed)"
        )
        notes = (finite,) + notes + (_COARSE_LIMIT_NOTE,)
    # Each alpha ratio has the sign of its margin, so alpha has the sign of
    # the least margin and the verdict reads alpha alone.
    return BignessCertificate(
        g=g,
        k=k,
        mode=mode,
        slope_used=s,
        per_index=entries,
        alpha=alpha,
        hypotheses=recipe.hypotheses
        + _avoidance_hypotheses(recipe.avoided_gonality, k)[1:]
        + notes,
        verdict=_verdict(mode, alpha),
    )


def verify_stack(g: int, k: int, recipe: DivisorRecipe) -> BignessCertificate:
    """Certificate that the canonical class of the cover stack is big."""
    return _verify(g, k, recipe, MODE_STACK)


def verify_coarse(g: int, k: int, recipe: DivisorRecipe) -> BignessCertificate:
    """Certificate that the canonical class of the coarse space is big."""
    return _verify(g, k, recipe, MODE_COARSE)


@dataclass(frozen=True)
class ScanRow:
    """One (g, k) cell of a scan table."""

    g: int
    k: int
    recipe: str
    slope: Fraction | None
    stack_verdict: str
    coarse_verdict: str
    min_margin: Fraction | None


@dataclass(frozen=True)
class ScanTable:
    rows: tuple[ScanRow, ...]

    def certified_stack(self) -> int:
        return sum(1 for row in self.rows if row.stack_verdict == VERDICT_CERTIFIED)

    def certified_coarse(self) -> int:
        return sum(1 for row in self.rows if row.coarse_verdict == VERDICT_CERTIFIED)


def _least_margin(g: int, k: int, rows: dict[tuple[int, ...], tuple]) -> Fraction:
    """The least margin of one mode over the boundary indices of (g, k).

    `rows[mu]` starts with the (a, c) of the margin on partition mu.
    Endpoint rule: on a partition mu the margin is a q + c with
    q = i(b-i)/(b-1), which increases on [2, b/2], and a >= 0 (a = m(1 - s/8)
    in the stack mode with s < 8, a = 0 in the coarse slope-8 limit).  So the
    least margin of mu is at its smallest feasible index i0
    (`hurwitz._first_index`).  Every partition has this index, since
    i0 <= max(k - 1, 3) < b/2 for g >= 2.  This evaluates one margin per
    partition, O(p(k)), where the certificate lists all O(b p(k)) of them.
    """
    b = 2 * g + 2 * k - 2
    best_num = best_den = None
    for row in partition_table(k):
        i = _first_index(row.drop)
        a, c = rows[row.mu.parts][:2]
        if a < 0:
            raise InvariantError(f"the margin of mu = {row.mu} decreases in q (a = {a})")
        p, r, d = _affine(a, c, b)
        num = p * i * (b - i) + r
        if best_num is None or num * best_den < best_num * d:
            best_num, best_den = num, d
    return Fraction(best_num, best_den)


def _scan_cell(g: int, k: int, recipe: DivisorRecipe | None) -> ScanRow:
    """The scan row of one cell from its least margins; no certificate is built.

    The checks are those of `_verify`.  Each alpha ratio has the sign of its
    margin, so a verdict read from the least margin is the certificate's.
    """
    _check_gk(g, k)
    coarse = coarse_range_ok(g, k)
    if recipe is None:
        verdict = no_divisor_certificate(g, k, MODE_STACK).verdict
        coarse_verdict = verdict if coarse else SCAN_COARSE_OUT_OF_RANGE
        return ScanRow(g, k, SCAN_NO_RECIPE, None, verdict, coarse_verdict, None)
    _check_recipe(g, k, recipe)
    s = _check_slope(recipe.slope)
    table = _class_terms(k)
    stack_terms = {mu: _margin_terms(table, mu, s, coarse=False) for mu in table["stack"]}
    lowest = _least_margin(g, k, stack_terms)
    coarse_verdict = SCAN_COARSE_OUT_OF_RANGE
    if coarse:
        coarse_verdict = _verdict(MODE_COARSE, _least_margin(g, k, _coarse_rows(k)))
    return ScanRow(g, k, recipe.name, s, _verdict(MODE_STACK, lowest), coarse_verdict, lowest)


def scan(k_min: int, k_max: int, g_min: int, g_max: int) -> ScanTable:
    """The stack and coarse verdicts of a rectangle of (g, k) cells.

    Rows come back in (g, k) order.  The divisor of each genus is built once
    and extended to every k of the rectangle.  Each row carries the verdicts
    and the least stack margin that `verify_stack` and `verify_coarse` would
    give, read from one index per partition (`_least_margin`).
    """
    for name, value in (("k_min", k_min), ("k_max", k_max), ("g_min", g_min), ("g_max", g_max)):
        if not isinstance(value, int):
            raise InputError(f"{name} must be an integer, got {value!r}")
    if k_max > MAX_SCAN_K or g_max > MAX_SCAN_G:
        raise InputError(f"scan ranges are limited to g <= {MAX_SCAN_G}, k <= {MAX_SCAN_K}")
    if g_min <= g_max and g_min < 2:
        raise InputError(f"g_min must be at least 2, got {g_min}")
    if k_min <= k_max and k_min < 3:
        raise InputError(f"k_min must be at least 3, got {k_min}")
    genus_recipes: dict[int, DivisorRecipe | None] = {}
    rows = []
    for g in range(g_min, g_max + 1):
        for k in range(k_min, k_max + 1):
            if g not in genus_recipes:
                genus_recipes[g] = genus_recipe(g) if g >= 4 else None
            rows.append(_scan_cell(g, k, recipe_for_degree(genus_recipes[g], k)))
    return ScanTable(tuple(rows))
