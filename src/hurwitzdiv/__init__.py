"""Exact divisor-class calculus on compactified spaces of branched covers.

The package computes, with exact rational arithmetic throughout:

* partition combinatorics and an exact transposition-factorization oracle
  over the class algebra of the symmetric group (:mod:`.partitions`);
* divisor classes on the genus-0 pointed space, the genus-g space, its
  pseudo-stable model and the one-pointed space (:mod:`.spaces`), together
  with the pullback/product/pushforward operators between them
  (:mod:`.pushpull`);
* the low-slope effective divisors on the genus-g space and their slope
  closed forms (:mod:`.lowslope`);
* boundary divisor classes on the compactified space of degree-k covers:
  Hodge class, branch pullbacks, ramification, stack and coarse canonical
  classes (:mod:`.hurwitz`);
* exact bigness certificates for those canonical classes, per boundary
  index, for single cells or whole (g, k) scans (:mod:`.bigness`).

All values are immutable and all operations pure; nothing here uses
floating point.  The records (partitions, boundary indices, classes,
certificates) are immutable namedtuples: each supports len, iteration and
indexing, though no code here relies on that.  A record equals the plain
tuple of its fields, except a sparse class (DivisorClass, QuadraticClass,
HurwitzClass), which equals only a class of its own type.  A field
annotation in a record's body takes no value, which would hide the field.
See the ``demos/`` scripts for narrative walk-throughs and :mod:`.cli` for
the command-line surface.
"""

from .bigness import (
    BignessCertificate,
    IndexMargin,
    ScanRow,
    ScanTable,
    coarse_inequality_lhs,
    coarse_range_ok,
    scan,
    stack_inequality_lhs,
    verify_coarse,
    verify_stack,
)
from .errors import HypothesisError, InputError, InvariantError, ResourceError
from .hurwitz import (
    BoundaryIndex,
    HurwitzClass,
    boundary_index_set,
    branch_pullback,
    branch_pullback_boundary,
    canonical_class_coarse,
    canonical_class_stack,
    coarse_correction,
    hodge_class,
    ramification_class,
    sharp_indicator,
)
from .lowslope import (
    DivisorRecipe,
    best_recipe,
    odd_genus_divisor,
    odd_genus_slope,
    second_hilbert_divisor,
    syzygy_divisor_g7,
    third_hilbert_divisor,
    user_divisor,
)
from .partitions import (
    Partition,
    conjugacy_class_size,
    count_factorizations_naive,
    count_transposition_factorizations,
    harmonic_inverse,
    lcm_of,
    partitions_of,
    transposition_feasible,
    transposition_power_vector,
)
from .pushpull import (
    QuadraticClass,
    elliptic_tail_pullback,
    forgetful_pushforward,
    multiply,
)
from .spaces import (
    DivisorClass,
    Space,
    canonical_class_m0b,
    is_big_boundary_positive,
    kappa1_m0b,
    pseudostable_pullback,
    slope,
    space_m0b,
    space_mg,
    space_mg_pointed,
    space_mg_pseudostable,
    weierstrass_class,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "InputError",
    "ResourceError",
    "HypothesisError",
    "InvariantError",
    # partitions
    "Partition",
    "partitions_of",
    "lcm_of",
    "harmonic_inverse",
    "transposition_feasible",
    "conjugacy_class_size",
    "transposition_power_vector",
    "count_transposition_factorizations",
    "count_factorizations_naive",
    # spaces
    "Space",
    "DivisorClass",
    "space_m0b",
    "space_mg",
    "space_mg_pseudostable",
    "space_mg_pointed",
    "canonical_class_m0b",
    "kappa1_m0b",
    "is_big_boundary_positive",
    "slope",
    "weierstrass_class",
    "pseudostable_pullback",
    # pushpull
    "QuadraticClass",
    "elliptic_tail_pullback",
    "multiply",
    "forgetful_pushforward",
    # lowslope
    "DivisorRecipe",
    "second_hilbert_divisor",
    "odd_genus_divisor",
    "odd_genus_slope",
    "syzygy_divisor_g7",
    "third_hilbert_divisor",
    "user_divisor",
    "best_recipe",
    # hurwitz
    "BoundaryIndex",
    "HurwitzClass",
    "boundary_index_set",
    "hodge_class",
    "branch_pullback_boundary",
    "branch_pullback",
    "ramification_class",
    "canonical_class_stack",
    "coarse_correction",
    "canonical_class_coarse",
    "sharp_indicator",
    # bigness
    "IndexMargin",
    "BignessCertificate",
    "ScanRow",
    "ScanTable",
    "stack_inequality_lhs",
    "coarse_inequality_lhs",
    "coarse_range_ok",
    "verify_stack",
    "verify_coarse",
    "scan",
]
