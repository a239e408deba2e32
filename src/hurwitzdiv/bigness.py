"""Bigness certificates for the canonical class of the cover space.

Given an effective divisor of slope s < 8 on the genus-g space that misses
the k-gonal locus, the canonical class of the cover stack decomposes as

    K = alpha * (branch pullback of kappa1) + (pullback of s*lambda - delta) + E

with alpha > 0 and E effective, provided one exact inequality holds per
boundary index (i, mu).  With b = 2g + 2k - 2, m = lcm of the parts of mu,
and 1/mu the harmonic sum, the stack-level left-hand side is

    (1 - s/8) m i(b-i)/(b-1) - m - 1 + bound + (s/12) m (k - 1/mu),

where `bound` is a lower bound for the coefficient of (i, mu) in the
pullback of the total boundary delta: 2 for mu = (1^k) (the generic such
cover degenerates with at least two nodes), 1 for mu = (2, 1^(k-2)), and 2
again on the 2:1 branch components of the latter; 0 otherwise.  These
multiplicity bounds are asserted inputs of the certificate, not verified.

For the coarse moduli space the canonical class drops by 1 along each index
whose cover has a 2:1 component over the degenerate target (the sharp
indicator), and the inequality is evaluated in the limit s -> 8, where the
i(b-i) term cancels:

    - m - 1 + bound + (2/3) m (k - 1/mu) - sharp  >=  0.

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

from .errors import HypothesisError, InputError
from .hurwitz import BoundaryIndex, boundary_index_set
from .lowslope import DivisorRecipe, avoided_gonality, genus_recipe, recipe_for_degree
from .partitions import Partition, PartitionRow, partition_table

MODE_STACK = "Stack"
MODE_COARSE = "Coarse"

VERDICT_CERTIFIED = "Certified"
VERDICT_FAILED = "Failed"
VERDICT_NO_DIVISOR = "NoDivisor"

JUSTIFICATION_TWO_NODES = "TwoNodes"
JUSTIFICATION_ONE_NODE = "OneNode"
JUSTIFICATION_NONE = "None"
JUSTIFICATION_BRANCH_TWO_NODES = "BranchComponentTwoNodes"

MAX_SCAN_G = 60
MAX_SCAN_K = 10

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


def _sigma_rule(mu: Partition, branch_component: bool) -> tuple[int, str]:
    k = mu.weight
    if mu.parts == (1,) * k:
        return 2, JUSTIFICATION_TWO_NODES
    if mu.parts == (2,) + (1,) * (k - 2):
        if branch_component:
            return 2, JUSTIFICATION_BRANCH_TWO_NODES
        return 1, JUSTIFICATION_ONE_NODE
    return 0, JUSTIFICATION_NONE


def sigma_delta_lower_bound(index: BoundaryIndex, branch_component: bool = False) -> SigmaDeltaBound:
    """Asserted lower bound for the delta-pullback coefficient at an index.

    mu = (1^k) always gets 2; mu = (2, 1^(k-2)) gets 2 on its 2:1 branch
    component and 1 otherwise; everything else gets the trivial bound 0.
    """
    bound, justification = _sigma_rule(index.mu, branch_component)
    return SigmaDeltaBound(index, Fraction(bound), justification)


@dataclass(frozen=True)
class _MarginTerms:
    """The constants of both margins at one partition mu, for one slope s.

    With q = i(b-i)/(b-1), the stack margin at (i, mu) is
    ``q_coeff * q + stack_rest``.  The coarse margin depends on mu alone:
    every index has i >= 2, so `sharp` is 1 exactly when mu has a part 2.
    """

    m: int
    q_coeff: Fraction  # m (1 - s/8)
    stack_rest: Fraction  # -m - 1 + bound + (s/12) m (k - 1/mu)
    stack_bound: Fraction
    sharp: int
    coarse_bound: Fraction
    coarse_margin: Fraction  # -m - 1 + bound + (2/3) m (k - 1/mu) - sharp


def _margin_terms(row: PartitionRow, k: int, s: Fraction) -> _MarginTerms:
    m = row.lcm
    sharp = 1 if row.twos else 0
    stack_bound = _sigma_rule(row.mu, False)[0]
    coarse_bound = _sigma_rule(row.mu, bool(sharp))[0]
    # integer numerators over the denominators of s = p/q and 1/mu = u/w
    p, q = s.numerator, s.denominator
    u, w = row.harmonic.numerator, row.harmonic.denominator
    degree = m * (k * w - u)  # m (k - 1/mu) = degree / w
    return _MarginTerms(
        m=m,
        q_coeff=Fraction(m * (8 * q - p), 8 * q),
        stack_rest=Fraction((stack_bound - m - 1) * 12 * q * w + p * degree, 12 * q * w),
        stack_bound=Fraction(stack_bound),
        sharp=sharp,
        coarse_bound=Fraction(coarse_bound),
        coarse_margin=Fraction((coarse_bound - m - 1 - sharp) * 3 * w + 2 * degree, 3 * w),
    )


def _check_slope(s: Fraction) -> Fraction:
    s = Fraction(s)
    if not 0 < s <= 8:
        raise InputError(f"the slope must satisfy 0 < s <= 8, got {s}")
    return s


def stack_inequality_lhs(g: int, k: int, s: Fraction, index: BoundaryIndex) -> Fraction:
    """Exact stack margin at one boundary index for a slope-s divisor."""
    s = _check_slope(s)
    b = 2 * g + 2 * k - 2
    terms = _margin_terms(PartitionRow.of(index.mu), k, s)
    return terms.q_coeff * Fraction(index.i * (b - index.i), b - 1) + terms.stack_rest


def coarse_inequality_lhs(g: int, k: int, index: BoundaryIndex) -> Fraction:
    """Exact coarse margin at one boundary index, in the slope-8 limit."""
    return _margin_terms(PartitionRow.of(index.mu), k, Fraction(8)).coarse_margin


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
    which the strictly positive kappa1 pullback absorbs.
    """

    g: int
    k: int
    mode: str
    slope_used: Fraction
    per_index: tuple[IndexMargin, ...]
    alpha: Fraction
    hypotheses: tuple[str, ...]
    verdict: str

    def min_margin(self) -> Fraction | None:
        return min((entry.margin for entry in self.per_index), default=None)

    def certified(self) -> bool:
        return self.verdict == VERDICT_CERTIFIED


def _check_recipe(g: int, k: int, recipe: DivisorRecipe) -> None:
    if recipe.g != g:
        raise InputError(f"the recipe is for genus {recipe.g}, not {g}")
    if recipe.slope >= 8:
        raise HypothesisError(f"the divisor slope must be below 8, got {recipe.slope}")
    base = avoided_gonality(recipe)
    if base is None or base > k:
        raise HypothesisError(
            f"the recipe does not assume avoidance of the {k}-gonal locus "
            f"(smallest avoided gonality: {base})"
        )


def _margins(
    g: int, k: int, s: Fraction, indices: list[BoundaryIndex], coarse: bool
) -> tuple[tuple[IndexMargin, ...], Fraction]:
    """Every margin of one mode and alpha, the least margin / kappa1 ratio.

    Per partition the margin is a q + c with q = i(b-i)/(b-1) (a = 0 for the
    coarse mode).  Over the common denominator D (b-1), D = den(a) den(c),
    its numerator is n = P i(b-i) + R with P = num(a) den(c) and
    R = num(c) den(a) (b-1).  The kappa1 pullback coefficient is
    m (i-1)(b-i-1)/(b-1), so the alpha ratio at the index is
    n / (D m (i-1)(b-i-1)); its denominator is positive, so ratios compare
    by cross-multiplication and alpha becomes one Fraction at the end.
    """
    b = 2 * g + 2 * k - 2
    rows: dict[tuple[int, ...], tuple] = {}
    for row in partition_table(k):
        terms = _margin_terms(row, k, s)
        # a coarse row reuses the one margin Fraction of its partition
        if coarse:
            a, c, constant = Fraction(0), terms.coarse_margin, terms.coarse_margin
            bound, sharp = terms.coarse_bound, terms.sharp
            note = _ABSORBED_NOTE if constant == 0 else ""
        else:
            a, c, constant = terms.q_coeff, terms.stack_rest, None
            bound, sharp, note = terms.stack_bound, 0, ""
        den = a.denominator * c.denominator
        rows[row.mu.parts] = (
            a.numerator * c.denominator,
            c.numerator * a.denominator * (b - 1),
            den * (b - 1),
            den * terms.m,
            constant,
            bound,
            sharp,
            note,
        )
    entries: list[IndexMargin] = []
    best_num = best_den = None
    for index in indices:
        i = index.i
        p, r, margin_den, ratio_den, constant, bound, sharp, note = rows[index.mu.parts]
        num = p * i * (b - i) + r
        ratio_den *= (i - 1) * (b - i - 1)
        if best_num is None or num * best_den < best_num * ratio_den:
            best_num, best_den = num, ratio_den
        margin = constant if constant is not None else Fraction(num, margin_den)
        entries.append(IndexMargin(index, margin, bound, sharp, note))
    alpha = Fraction(0) if best_num is None else Fraction(best_num, best_den)
    return tuple(entries), alpha


def verify_stack(g: int, k: int, recipe: DivisorRecipe) -> BignessCertificate:
    """Certificate that the canonical class of the cover stack is big."""
    indices = boundary_index_set(g, k)  # validates g, k
    _check_recipe(g, k, recipe)
    s = _check_slope(recipe.slope)
    entries, alpha = _margins(g, k, s, indices, coarse=False)
    # Each alpha ratio has the sign of its margin, so alpha > 0 also says
    # that every margin is positive.
    return BignessCertificate(
        g=g,
        k=k,
        mode=MODE_STACK,
        slope_used=s,
        per_index=entries,
        alpha=alpha,
        hypotheses=recipe.hypotheses + (_BOUNDS_NOTE, _DIRECT_MARGIN_NOTE, _FEASIBILITY_NOTE),
        verdict=VERDICT_CERTIFIED if alpha > 0 else VERDICT_FAILED,
    )


def coarse_range_ok(g: int, k: int) -> bool:
    """The coarse argument needs 3 <= k <= (g + 2)/2."""
    return 3 <= k and 2 * k <= g + 2


def verify_coarse(g: int, k: int, recipe: DivisorRecipe) -> BignessCertificate:
    """Certificate that the canonical class of the coarse space is big."""
    indices = boundary_index_set(g, k)
    if not coarse_range_ok(g, k):
        raise HypothesisError(
            f"the coarse argument needs 3 <= k <= (g + 2)/2, got (g, k) = ({g}, {k})"
        )
    _check_recipe(g, k, recipe)
    entries, alpha = _margins(g, k, recipe.slope, indices, coarse=True)
    # Each alpha ratio has the sign of its margin: alpha >= 0 iff no margin is negative.
    return BignessCertificate(
        g=g,
        k=k,
        mode=MODE_COARSE,
        slope_used=recipe.slope,
        per_index=entries,
        alpha=alpha,
        hypotheses=recipe.hypotheses
        + (
            f"the cover-to-curve map is generically finite onto the {k}-gonal locus (assumed)",
            _BOUNDS_NOTE,
            _DIRECT_MARGIN_NOTE,
            _FEASIBILITY_NOTE,
            _COARSE_LIMIT_NOTE,
        ),
        verdict=VERDICT_CERTIFIED if alpha >= 0 else VERDICT_FAILED,
    )


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


def _scan_cell(g: int, k: int, recipe: DivisorRecipe | None) -> ScanRow:
    if recipe is None:
        coarse = VERDICT_NO_DIVISOR if coarse_range_ok(g, k) else "n/a"
        return ScanRow(g, k, "none", None, VERDICT_NO_DIVISOR, coarse, None)
    stack_cert = verify_stack(g, k, recipe)
    if coarse_range_ok(g, k):
        coarse_verdict = verify_coarse(g, k, recipe).verdict
    else:
        coarse_verdict = "n/a"
    return ScanRow(
        g=g,
        k=k,
        recipe=recipe.name,
        slope=recipe.slope,
        stack_verdict=stack_cert.verdict,
        coarse_verdict=coarse_verdict,
        min_margin=stack_cert.min_margin(),
    )


def scan(k_min: int, k_max: int, g_min: int, g_max: int) -> ScanTable:
    """Run the stack and coarse verifications over a rectangle of (g, k) cells.

    Rows come back in (g, k) order.  The divisor of each genus is built once
    and extended to every k of the rectangle.
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
