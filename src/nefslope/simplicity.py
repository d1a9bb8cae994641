"""Simplicity scanning: rational thresholds as non-simplicity witnesses.

A rational finite threshold for a pair that is not numerically proportional
yields a machine-checkable witness of a non-trivial abelian subvariety: the
denominator-cleared boundary class is nef but not ample, and in the matrix
model the induced endomorphism is nonzero with a kernel of intermediate
rank.  A scan over finitely many bundle classes therefore either finds a
witness or reports the instances as consistent with simplicity -- a finite
scan can never prove simplicity, and the report wording reflects that.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import InconsistentContext
from .exactio import describe_int, format_rational, require_int
from .numdata import (
    IntersectionProfile,
    SymMatrixModel,
    binary_profile,
    charpoly,
    is_proportional,
    profile_from_matrix,
)
from .slope import (
    IrrationalSlope,
    NefReport,
    RationalSlope,
    SlopeResult,
    is_nef,
    slope,
)

WITNESS_FOUND = "non-simple-witness-found"
CONSISTENT = "consistent-with-simple"


@dataclass(frozen=True)
class NormClassSpec:
    """Pullback of the polarization along the norm endomorphism of an axis
    subtorus of dimension ``sub_dim`` with induced-polarization exponent
    ``exponent``."""

    n: int
    sub_dim: int
    exponent: int

    def __post_init__(self):
        require_int(self.n, "n")
        require_int(self.sub_dim, "sub_dim", 1, self.n - 1)
        require_int(self.exponent, "exponent", 1)


def norm_class(spec: NormClassSpec) -> SymMatrixModel:
    """Matrix model of the norm pullback: eigenvalues ``exponent^2`` on the
    subtorus directions and 0 elsewhere."""
    e2 = Fraction(spec.exponent**2)
    rows = tuple(
        tuple(e2 if i == j and i < spec.sub_dim else Fraction(0) for j in range(spec.n))
        for i in range(spec.n)
    )
    return SymMatrixModel(spec.n, rows, factorial(spec.n))


@dataclass(frozen=True)
class NormCheckResult:
    passed: bool
    expected: Fraction
    result: SlopeResult
    proportional: Fraction | None


def norm_slope_check(spec: NormClassSpec) -> NormCheckResult:
    """Full-pipeline check that a norm class has threshold exactly 1/exponent^2
    and is not proportional to the polarization."""
    profile = profile_from_matrix(norm_class(spec))
    proportional = is_proportional(profile)
    result = slope(profile)
    expected = Fraction(1, spec.exponent**2)
    passed = (
        proportional is None
        and not result.infinite
        and isinstance(result.rationality, RationalSlope)
        and result.rationality.value == expected
    )
    return NormCheckResult(passed, expected, result, proportional)


# ---------------------------------------------------------------------------
# Scanning.

SKIPPED_PROPORTIONAL = "skipped-proportional"
WITNESS = "rational-slope-witness"
IRRATIONAL = "irrational"
INFINITE = "infinite"


@dataclass(frozen=True)
class ScanEntry:
    label: str
    profile: IntersectionProfile
    verdict: str
    ratio: Fraction | None = None
    slope_fraction: Fraction | None = None
    boundary: IntersectionProfile | None = None
    boundary_report: NefReport | None = None

    def to_json(self) -> dict:
        out: dict = {"label": self.label, "profile": self.profile.to_json(), "verdict": self.verdict}
        if self.ratio is not None:
            out["ratio"] = format_rational(self.ratio)
        if self.slope_fraction is not None:
            out["slope"] = format_rational(self.slope_fraction)
        if self.boundary is not None:
            out["boundary"] = self.boundary.to_json()
        if self.boundary_report is not None:
            out["boundary_report"] = self.boundary_report.to_json()
        return out


@dataclass(frozen=True)
class SimplicityScan:
    entries: tuple[ScanEntry, ...]
    overall: str

    @property
    def witness_found(self) -> bool:
        return self.overall == WITNESS_FOUND

    def to_json(self) -> dict:
        return {"overall": self.overall, "entries": [e.to_json() for e in self.entries]}


def _scan_one(label: str, profile: IntersectionProfile) -> ScanEntry:
    ratio = is_proportional(profile)
    if ratio is not None:
        return ScanEntry(label, profile, SKIPPED_PROPORTIONAL, ratio=ratio)
    result = slope(profile)
    if result.infinite:
        return ScanEntry(label, profile, INFINITE)
    if isinstance(result.rationality, IrrationalSlope):
        return ScanEntry(label, profile, IRRATIONAL)
    p, q = result.rationality.p, result.rationality.q
    boundary = binary_profile(profile, q, -p)
    report = is_nef(boundary)
    return ScanEntry(
        label,
        profile,
        WITNESS,
        slope_fraction=Fraction(p, q),
        boundary=boundary,
        boundary_report=report,
    )


def scan(instances: Iterable[tuple[str, IntersectionProfile]], *, jobs: int = 1) -> SimplicityScan:
    """Scan labelled profiles for non-simplicity witnesses.

    A scan covers one polarized variety: all instances must share its ``L^n``
    (else :class:`InconsistentContext`).  Entries are processed in input
    order; ``jobs`` is accepted for compatibility and has no effect.
    """
    items = list(instances)
    tops = {profile.v[profile.n] for _, profile in items}
    if len(tops) > 1:
        raise InconsistentContext(f"instances disagree on L^n: [{', '.join(map(describe_int, sorted(tops)))}]")
    entries = tuple(_scan_one(label, profile) for label, profile in items)
    overall = WITNESS_FOUND if any(e.verdict == WITNESS for e in entries) else CONSISTENT
    return SimplicityScan(entries, overall)


# ---------------------------------------------------------------------------
# Kernel of the boundary endomorphism.

def boundary_endomorphism(m: SymMatrixModel, slope_value: Fraction) -> tuple[tuple[Fraction, ...], ...]:
    """The matrix ``q I - p F`` attached to the boundary class for threshold p/q;
    symmetric, since the :class:`SymMatrixModel` constructor admits only a
    symmetric n x n ``F``."""
    value = Fraction(slope_value)
    p, q = value.numerator, value.denominator
    f = m.entries
    return tuple(
        tuple(Fraction(q if i == j else 0) - p * f[i][j] for j in range(m.n))
        for i in range(m.n)
    )


def kernel_rank(m: SymMatrixModel, slope_value: Fraction) -> int:
    """Nullity of the boundary endomorphism; in [1, n-1] for a genuine witness.

    ``q I - p F`` is symmetric, hence diagonalizable, so its nullity is the
    multiplicity of 0 as a root of its characteristic polynomial: the index
    of its first nonzero coefficient.
    """
    return next(k for k, ck in enumerate(charpoly(boundary_endomorphism(m, slope_value))) if ck)
