"""Simplicity scanning: rational thresholds as non-simplicity witnesses.

A rational finite threshold for a pair that is not numerically proportional
yields a machine-checkable witness of a non-trivial abelian subvariety: the
denominator-cleared boundary class is nef but not ample, and in the matrix
model the induced endomorphism is nonzero with a kernel of intermediate
rank.  A scan over finitely many bundle classes therefore either finds a
witness or reports the instances as consistent with simplicity -- a finite
scan can never prove simplicity, and the report wording reflects that.

The coordinate-wise nefness test, :func:`is_nef`, lives here too.  Its
:class:`NefReport`, :class:`ScanEntry` and :class:`SimplicityScan` stay
dataclasses, because the benchmark's ``--inject-wrong-verdict`` copies them
with ``dataclasses.replace``; the norm-class records derive from
``exactio.Record``, like every other value type of the package.
"""

from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import InconsistentContext
from .exactio import Record, describe_int, format_int, format_rational, require_int
from .numdata import (
    IntersectionProfile,
    SymMatrixModel,
    binary_profile,
    charpoly,
    is_proportional,
    profile_from_matrix,
)
from .slope import slope

WITNESS_FOUND = "non-simple-witness-found"
CONSISTENT = "consistent-with-simple"


@dataclass(frozen=True)
class NefReport:
    """Verdict of the coordinate-wise nefness test on a bundle profile."""

    values: tuple[tuple[int, int], ...]
    nef: bool
    witness_k: int | None
    ample: bool

    def to_json(self) -> dict:
        return {
            "values": [{"k": k, "value": format_int(x)} for k, x in self.values],
            "verdict": "nef" if self.nef else "not-nef",
            "witness_k": self.witness_k,
            "ample": self.ample,
        }


def is_nef(p: IntersectionProfile) -> NefReport:
    """Nefness test: nef iff every profile entry is non-negative.

    The profile is that of the tested bundle ``B`` against the ample ``L``;
    ampleness additionally requires ``B^n > 0``.
    """
    values = tuple((k, p.v[k]) for k in range(p.n + 1))
    witness = next((k for k, x in values if x < 0), None)
    nef = witness is None
    return NefReport(values, nef, witness, nef and p.v[0] > 0)


class NormClassSpec(Record):
    """Pullback of the polarization along the norm endomorphism of an axis
    subtorus of dimension ``sub_dim`` with induced-polarization exponent
    ``exponent``."""

    _fields = ("n", "sub_dim", "exponent")

    def __init__(self, n: int, sub_dim: int, exponent: int):
        require_int(n, "n", 2)  # a proper subtorus needs n >= 2
        require_int(sub_dim, "sub_dim", 1, n - 1)
        require_int(exponent, "exponent", 1)
        d = self.__dict__
        d["n"], d["sub_dim"], d["exponent"] = n, sub_dim, exponent


def norm_class(spec: NormClassSpec) -> SymMatrixModel:
    """Matrix model of the norm pullback: eigenvalues ``exponent^2`` on the
    subtorus directions and 0 elsewhere."""
    e2 = Fraction(spec.exponent**2)
    rows = tuple(
        tuple(e2 if i == j and i < spec.sub_dim else Fraction(0) for j in range(spec.n))
        for i in range(spec.n)
    )
    return SymMatrixModel(spec.n, rows, factorial(spec.n))


class NormCheckResult(Record):
    _fields = ("passed", "result", "proportional")


def norm_slope_check(spec: NormClassSpec) -> NormCheckResult:
    """Full-pipeline check that a norm class has threshold exactly 1/exponent^2
    and is not proportional to the polarization."""
    profile = profile_from_matrix(norm_class(spec))
    proportional = is_proportional(profile)
    result = slope(profile)
    passed = proportional is None and result.slope_fraction == Fraction(1, spec.exponent**2)
    return NormCheckResult(passed, result, proportional)


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
    t = result.slope_fraction
    if t is None:
        return ScanEntry(label, profile, INFINITE if result.infinite else IRRATIONAL)
    boundary = binary_profile(profile, t.denominator, -t.numerator)
    return ScanEntry(label, profile, WITNESS, slope_fraction=t, boundary=boundary, boundary_report=is_nef(boundary))


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
