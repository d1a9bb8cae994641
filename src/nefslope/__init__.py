"""Exact nef thresholds on numerically presented polarized abelian varieties.

The package computes the threshold ``sup{t : L - tM nef}`` from
intersection data in exact arithmetic, certifies whether it is rational,
irrational or infinite, and turns rational thresholds into
machine-checkable witnesses of non-simplicity at the codimension-one
level.
"""

from .errors import (
    AsymmetricInput,
    InconsistentContext,
    InputError,
    NefslopeError,
    NegationIsNef,
    NonIntegralProfile,
    PreconditionError,
    SlopeIsInfinite,
)
from .numdata import (
    IntersectionProfile,
    SymMatrixModel,
    ValidationLevel,
    binary_profile,
    charpoly,
    is_proportional,
    profile_from_matrix,
    validate,
)
from .polyroot import (
    AlgebraicNumber,
    IntPolynomial,
    chi_polynomial,
    compare_with_rational,
    isolate_max_root,
    rational_root_candidates,
    rational_roots,
    reciprocal,
    refine,
    sturm_chain,
)
from .slope import (
    IrrationalSlope,
    RationalSlope,
    SlopeResult,
    certify_rationality,
    s_invariant,
    slope,
    slope_at_least,
    slope_lower_bound,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraicNumber",
    "AsymmetricInput",
    "InconsistentContext",
    "InputError",
    "IntersectionProfile",
    "IntPolynomial",
    "IrrationalSlope",
    "NefslopeError",
    "NegationIsNef",
    "NonIntegralProfile",
    "NormClassSpec",
    "PreconditionError",
    "RationalSlope",
    "SlopeIsInfinite",
    "SlopeResult",
    "SymMatrixModel",
    "ValidationLevel",
    "binary_profile",
    "certify_rationality",
    "charpoly",
    "chi_polynomial",
    "compare_with_rational",
    "is_nef",
    "is_proportional",
    "isolate_max_root",
    "kernel_rank",
    "norm_class",
    "profile_from_matrix",
    "rational_root_candidates",
    "rational_roots",
    "reciprocal",
    "refine",
    "s_invariant",
    "scan",
    "slope",
    "slope_at_least",
    "slope_lower_bound",
    "sturm_chain",
    "validate",
]


def __getattr__(name):  # ``simplicity`` loads on first use, not at CLI start-up
    if name in ("NormClassSpec", "is_nef", "kernel_rank", "norm_class", "scan"):
        from . import simplicity
        value = globals()[name] = getattr(simplicity, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
