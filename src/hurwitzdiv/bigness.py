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
affine in q = i(b-i)/(b-1) on a partition, and so is every margin.  On
the indices of a partition q increases and kappa1 is positive, so a margin,
and its ratio to kappa1, is monotone in q: the least margin and alpha are
read at one endpoint index per partition, the first or the last by the sign
of the ratio's slope (`_least_margin`).

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

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .errors import HypothesisError, InputError
from .hurwitz import (
    BoundaryIndex,
    _check_gk,
    _class_terms,
    _index_range,
    _row_values,
    boundary_index,
    boundary_index_set,
)
from .lowslope import DivisorRecipe, _containment_lines, genus_recipe, recipe_for_degree
from .partitions import partition_table

MODE_STACK = "Stack"
MODE_COARSE = "Coarse"

VERDICT_CERTIFIED = "Certified"
VERDICT_FAILED = "Failed"
VERDICT_NO_DIVISOR = "NoDivisor"

# The scan-row entries of a cell with no divisor and of a cell out of coarse range.
SCAN_NO_RECIPE = "none"
SCAN_COARSE_OUT_OF_RANGE = "n/a"

MAX_SCAN_G = 60
MAX_SCAN_K = 10
# Coarse margins are read in the slope-8 limit, where a = 0: their rows depend on k alone.
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

# {mu: a tuple that starts with the (a, c) of a function a q + c on the indices of mu}
_Rows = dict[tuple[int, ...], tuple]


def _sigma_rule(parts: tuple[int, ...], branch_component: bool) -> int:
    """The asserted lower bound sigma for the delta-pullback coefficient at the indices of mu.

    mu = (1^k) always gets 2; mu = (2, 1^(k-2)) gets 2 on its 2:1 branch
    component and 1 otherwise; everything else gets the trivial bound 0.
    """
    k = sum(parts)
    if parts == (1,) * k:
        return 2
    if parts == (2,) + (1,) * (k - 2):
        return 2 if branch_component else 1
    return 0


def _margin_rows(k: int, s: Fraction, coarse: bool) -> _Rows:
    """{mu: (a, c, sigma, sharp)}: the margin K - s*lambda + sigma is a q + c at the indices of mu.

    K is the stack or the coarse canonical row of the table; sharp is 1 where
    the coarse row is 1 less than the stack row.
    """
    table = _class_terms(k)
    rows = {}
    for mu, (ka, kc, sharp) in table["coarse" if coarse else "stack"].items():
        la, lc, _ = table["hodge"][mu]
        sigma = _sigma_rule(mu, bool(sharp))
        rows[mu] = (ka - s * la, kc - s * lc + sigma, sigma, sharp)
    return rows


def _check_slope(s: Fraction) -> Fraction:
    s = Fraction(s)
    if not 0 < s <= 8:
        raise InputError(f"the slope must satisfy 0 < s <= 8, got {s}")
    return s


def _margin_at(g: int, k: int, rows: _Rows, index: BoundaryIndex) -> Fraction:
    boundary_index(g, k, index.i, index.mu.parts)  # InputError unless an index of (g, k)
    (margin,) = _row_values(_check_gk(g, k), rows, (index.key,))
    return margin


def stack_inequality_lhs(g: int, k: int, s: Fraction, index: BoundaryIndex) -> Fraction:
    """Exact stack margin at one boundary index for a slope-s divisor."""
    return _margin_at(g, k, _margin_rows(k, _check_slope(s), coarse=False), index)


def coarse_inequality_lhs(g: int, k: int, index: BoundaryIndex) -> Fraction:
    """Exact coarse margin at one boundary index, in the slope-8 limit."""
    return _margin_at(g, k, _margin_rows(k, _COARSE_SLOPE, coarse=True), index)


class IndexMargin(namedtuple("IndexMargin", "index margin sigma_bound sharp note")):
    """One row of a certificate: the margin and its ingredients at an index."""

    __slots__ = ()
    index: BoundaryIndex
    margin: Fraction
    sigma_bound: Fraction
    sharp: int
    note: str


class BignessCertificate(namedtuple(
        "BignessCertificate", "g k mode slope_used per_index alpha hypotheses verdict")):
    """Machine-checkable record that the canonical class is big.

    `alpha` is the largest rational with K minus the bounded boundary
    pullback minus alpha times the pulled-back kappa1 coefficient-wise
    non-negative.  Stack verdicts require every margin positive (so that
    alpha > 0 supplies the ample part); coarse verdicts allow zero margins,
    which the strictly positive kappa1 pullback absorbs.  Slope and alpha
    are None only on a NoDivisor certificate.
    """

    __slots__ = ()
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
        """Does the verdict agree with the certificate's own mode, margins and alpha?

        The mode must be Stack or Coarse.  NoDivisor needs no slope, alpha,
        indices or hypotheses.  Otherwise the verdict must be the one that
        alpha and the least margin give.  This checks the record against
        itself and re-derives no margin.
        """
        if self.mode not in (MODE_STACK, MODE_COARSE):
            return False
        if self.verdict == VERDICT_NO_DIVISOR:
            empty = not (self.per_index or self.hypotheses)
            return self.slope_used is None and self.alpha is None and empty
        if None in (self.slope_used, self.alpha):
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


def _margins(
    g: int, k: int, indices: list[BoundaryIndex], rows: _Rows, coarse: bool
) -> tuple[IndexMargin, ...]:
    """The certificate listing: every index with its margin, sigma, sharp flag and note.

    A coarse margin with c = 0 is zero on its whole partition and is absorbed
    by the ample term.  The sigma, sharp flag and note of a partition are
    shared by its entries.
    """
    shared = {
        mu: (Fraction(sigma), sharp, _ABSORBED_NOTE if coarse and c == 0 else "")
        for mu, (a, c, sigma, sharp) in rows.items()
    }
    margins = _row_values(_check_gk(g, k), rows, (index.key for index in indices))
    return tuple(
        IndexMargin(index, margin, *shared[index.mu.parts])
        for index, margin in zip(indices, margins)
    )


def coarse_range_ok(g: int, k: int) -> bool:
    """The coarse argument needs 3 <= k <= (g + 2)/2."""
    return 3 <= k and 2 * k <= g + 2


def _check_cell(g: int, k: int, recipe: DivisorRecipe, coarse: bool) -> Fraction:
    """The slope of `recipe` once the cell (g, k) and the recipe pass the checks of a certificate.

    InputError for a bad (g, k), a recipe of another genus or a slope not in
    (0, 8]; HypothesisError for a coarse cell out of range, a slope of 8 or a
    recipe that does not serve k.
    """
    _check_gk(g, k)
    if coarse and not coarse_range_ok(g, k):
        raise HypothesisError(
            f"the coarse argument needs 3 <= k <= (g + 2)/2, got (g, k) = ({g}, {k})"
        )
    if recipe.g != g:
        raise InputError(f"the recipe is for genus {recipe.g}, not {g}")
    if recipe.slope >= 8:
        raise HypothesisError(f"the divisor slope must be below 8, got {recipe.slope}")
    if recipe_for_degree(recipe, k) is None:
        raise HypothesisError(
            f"the {recipe.name} recipe does not serve k = {k} "
            f"(avoided gonality: {recipe.avoided_gonality})"
        )
    return _check_slope(recipe.slope)


def _verify(g: int, k: int, recipe: DivisorRecipe | None, mode: str) -> BignessCertificate:
    if recipe is None:
        _check_gk(g, k)
        return no_divisor_certificate(g, k, mode)
    coarse = mode == MODE_COARSE
    s = _check_cell(g, k, recipe, coarse)
    indices = boundary_index_set(g, k)
    rows = _margin_rows(k, _COARSE_SLOPE if coarse else s, coarse=coarse)
    # Each alpha ratio has the sign of its margin, so alpha has the sign of
    # the least margin and the verdict reads alpha alone.
    alpha = _least_margin(g, k, rows, _class_terms(k)["kappa1"])
    notes = (_BOUNDS_NOTE, _DIRECT_MARGIN_NOTE, _FEASIBILITY_NOTE)
    if coarse:
        finite = (
            f"the cover-to-curve map is generically finite onto the {k}-gonal locus (assumed)"
        )
        notes = (finite,) + notes + (_COARSE_LIMIT_NOTE,)
    return BignessCertificate(
        g=g,
        k=k,
        mode=mode,
        slope_used=s,
        per_index=_margins(g, k, indices, rows, coarse),
        alpha=alpha,
        hypotheses=recipe.hypotheses + _containment_lines(recipe.avoided_gonality, k) + notes,
        verdict=_verdict(mode, alpha),
    )


def verify_stack(g: int, k: int, recipe: DivisorRecipe | None) -> BignessCertificate:
    """Certificate that the canonical class of the cover stack is big; NoDivisor with no recipe."""
    return _verify(g, k, recipe, MODE_STACK)


def verify_coarse(g: int, k: int, recipe: DivisorRecipe | None) -> BignessCertificate:
    """Certificate that the canonical class of the coarse space is big.

    With no recipe it is the NoDivisor certificate, also out of coarse range.
    """
    return _verify(g, k, recipe, MODE_COARSE)


class ScanRow(namedtuple("ScanRow", "g k recipe slope stack_verdict coarse_verdict min_margin")):
    """One (g, k) cell of a scan table."""

    __slots__ = ()
    g: int
    k: int
    recipe: str
    slope: Fraction | None
    stack_verdict: str
    coarse_verdict: str
    min_margin: Fraction | None


class ScanTable(namedtuple("ScanTable", "rows")):
    __slots__ = ()
    rows: tuple[ScanRow, ...]

    def certified_stack(self) -> int:
        return sum(1 for row in self.rows if row.stack_verdict == VERDICT_CERTIFIED)

    def certified_coarse(self) -> int:
        return sum(1 for row in self.rows if row.coarse_verdict == VERDICT_CERTIFIED)


def _least_margin(g: int, k: int, rows: _Rows, over: _Rows | None = None) -> Fraction:
    """The least margin over the boundary indices of (g, k), or the least margin/over ratio.

    `rows[mu]` and `over[mu]` start with the (a, c) of a function a q + c of
    q = i(b-i)/(b-1) on the indices of partition mu.  `over` is the kappa1
    row for alpha; without it the denominator is the constant 1.
    Endpoint rule: the indices of mu are i0, i0 + 2, ..., imax <= b/2
    (`hurwitz._index_range`), and q increases along them.  The
    denominator a' q + c' is positive there (kappa1 = m(q - 1) and q > 1 for
    i >= 2), so the ratio (a q + c)/(a' q + c') is monotone in q: its
    derivative has the sign of a c' - c a'.  So its least value is at i0
    when a c' - c a' >= 0 and at imax otherwise.  Every partition has an
    index, since i0 <= max(k - 1, 3) < b/2 for g >= 2.  This evaluates
    exactly one index per partition, O(p(k)), where the certificate lists
    all O(b p(k)) of them.
    """
    b = _check_gk(g, k)
    keys = []
    for row in partition_table(k):
        (a, c), (a1, c1) = rows[row.mu.parts][:2], over[row.mu.parts][:2] if over else (0, 1)
        indices = _index_range(b, row.drop)
        # a c' - c a' < 0, times the positive denominators of a and c
        decreasing = a.numerator * c.denominator * c1 < c.numerator * a.denominator * a1
        keys.append((indices[-1] if decreasing else indices[0], row.mu.parts))
    margins = _row_values(b, rows, keys)
    if over is None:
        return min(margins)
    return min(margin / value for margin, value in zip(margins, _row_values(b, over, keys)))


@lru_cache(maxsize=16)
def _coarse_verdict(k: int) -> str:
    """The coarse verdict of every cell of degree k in range, read at its least g, 2k - 2.

    Coarse margins depend on mu alone, so every g in range gives this verdict.
    """
    rows = _margin_rows(k, _COARSE_SLOPE, coarse=True)
    return _verdict(MODE_COARSE, _least_margin(2 * k - 2, k, rows))


def _scan_cell(g: int, k: int, recipe: DivisorRecipe | None) -> ScanRow:
    """The scan row of one cell from its least margins; no certificate is built.

    The checks are those of `_verify` (`_check_cell`).  Each alpha ratio has
    the sign of its margin, so a verdict read from the least margin is the
    certificate's.
    """
    coarse = coarse_range_ok(g, k)
    if recipe is None:
        _check_gk(g, k)
        coarse_verdict = VERDICT_NO_DIVISOR if coarse else SCAN_COARSE_OUT_OF_RANGE
        return ScanRow(g, k, SCAN_NO_RECIPE, None, VERDICT_NO_DIVISOR, coarse_verdict, None)
    s = _check_cell(g, k, recipe, coarse=False)
    lowest = _least_margin(g, k, _margin_rows(k, s, coarse=False))
    coarse_verdict = _coarse_verdict(k) if coarse else SCAN_COARSE_OUT_OF_RANGE
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
    degrees = range(k_min, k_max + 1)
    rows = []
    if degrees:  # an empty k range builds no recipe
        for g in range(g_min, g_max + 1):
            recipe = genus_recipe(g)
            rows.extend(_scan_cell(g, k, recipe_for_degree(recipe, k)) for k in degrees)
    return ScanTable(tuple(rows))
