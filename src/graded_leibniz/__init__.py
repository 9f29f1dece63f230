"""Exact-arithmetic toolkit for graded nilpotent Leibniz algebras.

Structure-constant algebras over Q or F_p, abelian grading groups,
grading verification and enumeration, automorphism searches, maximal
torus checks, and a runnable suite covering the built-in family
classifications.  Everything is exact: over Q integers, and Fractions
only where a value is not integral; modular integers over F_p; integer
matrices for group computations.
"""

from .algebras import (
    FAMILIES,
    Algebra,
    LeibnizReport,
    NilpotencyProfile,
    abelian_algebra,
    center,
    check_leibniz,
    direct_sum,
    is_antisymmetric,
    lower_central_series,
    make_family,
    nilpotency_profile,
    right_annihilator,
)
from .catalog import (
    HYPOTHESES,
    CatalogEntry,
    EnumerationReport,
    catalog,
    compare,
    default_group_menu,
    enumerate_h1_gradings,
    lift_direct_sum_gradings,
)
from .errors import (
    BudgetExceeded,
    DifferentAlgebras,
    DimensionTooSmall,
    DivisionByZero,
    FieldMismatch,
    GradedLeibnizError,
    GroupMismatch,
    InconsistentHomomorphism,
    QnOddDimension,
    UnsupportedFamily,
    ZeroParameter,
)
from .fields import QQ, Field, Scalar, is_prime
from .gradings import (
    Grading,
    GradingReport,
    coarsen,
    equivalent,
    factor_through_universal,
    homogeneous_partitions,
    trivial_grading,
    universal_grading,
    universal_grading_with_generators,
    verify_grading,
)
from .groups import AbelianGroup, GroupElem, all_homs, apply_hom, validate_hom
from .linalg import Subspace
from .snf import row_hnf, smith_normal_form
from .torus import (
    DEFAULT_BUDGET,
    AutSearchReport,
    NormalizerReport,
    aut_matrix_f1,
    aut_matrix_nf,
    brute_force_aut,
    is_automorphism,
    normalizer_equals_torus,
)
from .verification import Claim, run_all, summarize

__version__ = "0.1.0"

__all__ = [
    "FAMILIES",
    "Algebra",
    "LeibnizReport",
    "NilpotencyProfile",
    "abelian_algebra",
    "center",
    "check_leibniz",
    "direct_sum",
    "is_antisymmetric",
    "lower_central_series",
    "make_family",
    "nilpotency_profile",
    "right_annihilator",
    "HYPOTHESES",
    "CatalogEntry",
    "EnumerationReport",
    "catalog",
    "compare",
    "default_group_menu",
    "enumerate_h1_gradings",
    "lift_direct_sum_gradings",
    "BudgetExceeded",
    "DifferentAlgebras",
    "DimensionTooSmall",
    "DivisionByZero",
    "FieldMismatch",
    "GradedLeibnizError",
    "GroupMismatch",
    "InconsistentHomomorphism",
    "QnOddDimension",
    "UnsupportedFamily",
    "ZeroParameter",
    "QQ",
    "Field",
    "Scalar",
    "is_prime",
    "Grading",
    "GradingReport",
    "coarsen",
    "equivalent",
    "factor_through_universal",
    "homogeneous_partitions",
    "trivial_grading",
    "universal_grading",
    "universal_grading_with_generators",
    "verify_grading",
    "AbelianGroup",
    "GroupElem",
    "all_homs",
    "apply_hom",
    "validate_hom",
    "Subspace",
    "row_hnf",
    "smith_normal_form",
    "DEFAULT_BUDGET",
    "AutSearchReport",
    "NormalizerReport",
    "aut_matrix_f1",
    "aut_matrix_nf",
    "brute_force_aut",
    "is_automorphism",
    "normalizer_equals_torus",
    "Claim",
    "run_all",
    "summarize",
    "__version__",
]
