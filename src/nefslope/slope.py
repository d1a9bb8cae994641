"""Nef thresholds with exact rationality certificates.

The nef threshold of a pair ``(L, M)`` is ``sup{t : L - tM nef}``.  It is
computed from the profile polynomial: when the maximal real root is
positive the threshold is its reciprocal, otherwise the threshold is
infinite (represented explicitly, never as a large number).

Rationality of a finite threshold is a decided property: a rational
maximal root has a denominator dividing the leading coefficient ``D`` of the
square-free part, so one exact check at the nearest fraction with
denominator at most ``D`` either exhibits the root or certifies that the
maximum is irrational.  The replayable divisor-quotient enumeration of the
paper is kept as a :class:`CandidateTrace`, computed when it is read.

A result holds one number, the maximal root, and derives the threshold
from it; display refinement refines that root once, which bounds both
emitted intervals (see :meth:`SlopeResult.refined`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import NegationIsNef, SlopeIsInfinite
from .exactio import format_int, format_ratio
from .numdata import IntersectionProfile, binary_profile
from .polyroot import (
    AlgebraicNumber,
    IntPolynomial,
    candidate_rows,
    cauchy_bound,
    chi_polynomial,
    clear_lower_end,
    compare_with_rational,
    isolate_max_root,
    reciprocal,
    refine,
)


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


@dataclass(frozen=True)
class CandidateTrace:
    """Replayable record of the rational-candidate enumeration.

    ``rows`` holds every positive divisor-quotient candidate ``r/s`` for the
    maximal root of ``chi``, in descending order, with the exact value
    ``num/den`` of ``chi`` at it, all as integers in lowest terms (see
    ``candidate_rows``); it is computed on first access, so a trace nobody
    reads costs nothing.  A rational maximal root is the candidate at which
    the value is zero; for an irrational one every value is nonzero.
    ``candidates`` is the ``Fraction`` view of the rows.
    """

    chi: IntPolynomial

    @cached_property
    def rows(self) -> tuple[tuple[int, int, int, int], ...]:
        return candidate_rows(self.chi)

    @cached_property
    def candidates(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return tuple((Fraction(r, s), Fraction(num, den)) for r, s, num, den in self.rows)

    def to_json(self) -> list:
        return [
            {"candidate": format_ratio(r, s), "value": format_ratio(num, den)}
            for r, s, num, den in self.rows
        ]


@dataclass(frozen=True)
class RationalSlope:
    """Certified rational threshold p/q in lowest terms, with p | L^n and q | M^n."""

    p: int
    q: int
    trace: CandidateTrace

    @property
    def value(self) -> Fraction:
        return Fraction(self.p, self.q)

    def to_json(self) -> dict:
        return {
            "verdict": "rational",
            "p": format_int(self.p),
            "q": format_int(self.q),
            "trace": self.trace.to_json(),
        }


@dataclass(frozen=True)
class IrrationalSlope:
    """Certificate that the finite threshold is irrational."""

    trace: CandidateTrace

    def to_json(self) -> dict:
        return {"verdict": "irrational", "trace": self.trace.to_json()}


@dataclass(frozen=True)
class SlopeResult:
    """Threshold of a pair: infinite, or finite with rationality certificate.

    A finite result holds one number, ``max_root``: the maximal real root of
    the profile polynomial, with an isolating interval ``(lo, hi]`` whose
    ``lo`` is positive and not a root.  The threshold ``slope`` is its
    reciprocal, derived on first access with the interval ``(1/hi, 1/lo]``
    and the coefficient reversal of the defining polynomial.
    """

    max_root: AlgebraicNumber | None
    rationality: RationalSlope | IrrationalSlope | None

    @property
    def infinite(self) -> bool:
        return self.max_root is None

    @cached_property
    def slope(self) -> AlgebraicNumber | None:
        return None if self.infinite else reciprocal(self.max_root)

    @property
    def slope_fraction(self) -> Fraction | None:
        if isinstance(self.rationality, RationalSlope):
            return self.rationality.value
        return None

    def refined(self, width: Fraction) -> "SlopeResult":
        """Both intervals at most ``width`` wide, the root's possibly narrower:
        the threshold interval is ``(hi - lo) / (lo hi)`` wide and refinement
        only raises ``lo``, so the root is refined to ``width * min(1, lo^2)``.
        """
        if self.infinite or self.max_root.exact is not None:
            return self
        lo = self.max_root.interval[0]
        return SlopeResult(refine(self.max_root, width * min(1, lo * lo)), self.rationality)

    def to_json(self) -> dict:
        if self.infinite:
            return {"kind": "infinite"}
        return {
            "kind": "finite",
            "zeta": self.max_root.to_json(),
            "slope": self.slope.to_json(),
            "rationality": self.rationality.to_json(),
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


def _check_divisibility(p: int, q: int, profile: IntersectionProfile) -> None:
    top_l = profile.v[profile.n]
    top_m = profile.v[0]
    if top_l % p != 0 or top_m % q != 0:
        raise AssertionError(
            f"certified threshold {p}/{q} violates the divisor conditions "
            f"against L^n={top_l}, M^n={top_m}"
        )


def slope(profile: IntersectionProfile) -> SlopeResult:
    """The nef threshold with certified rationality.

    Infinite exactly when the maximal real root of the profile polynomial
    is non-positive or absent, zero included.
    """
    chi = chi_polynomial(profile)
    best = isolate_max_root(chi)
    if best is None or compare_with_rational(best, 0) <= 0:
        return SlopeResult(None, None)
    trace = CandidateTrace(chi)
    if best.exact is not None:
        value = 1 / best.exact
        rationality = RationalSlope(value.numerator, value.denominator, trace)
        _check_divisibility(value.numerator, value.denominator, profile)
    else:
        rationality = IrrationalSlope(trace)
    return SlopeResult(clear_lower_end(best), rationality)


def certify_rationality(profile: IntersectionProfile) -> RationalSlope | IrrationalSlope:
    """Rationality certificate of a finite threshold.

    Raises :class:`SlopeIsInfinite` when the threshold is infinite.
    """
    result = slope(profile)
    if result.infinite:
        raise SlopeIsInfinite("threshold is infinite; nothing to certify")
    return result.rationality


def slope_lower_bound(profile: IntersectionProfile) -> Fraction:
    """Coefficient lower bound for the threshold.

    Requires ``-M`` not nef (checked on the negated profile); then the
    threshold exceeds the reciprocal Cauchy radius of the profile
    polynomial, ``(1 + max_k C(n,k) |v[k]| / v[n])^-1``.
    """
    negated = binary_profile(profile, 0, -1)
    if is_nef(negated).nef:
        raise NegationIsNef("-M is nef, the threshold is infinite and needs no bound")
    return Fraction(1) / cauchy_bound(chi_polynomial(profile))


def slope_at_least(result: SlopeResult, bound: Fraction) -> bool:
    """Exact comparison ``threshold >= bound``; infinite thresholds dominate."""
    if result.infinite:
        return True
    return compare_with_rational(result.slope, Fraction(bound)) >= 0


def s_invariant(profile: IntersectionProfile) -> AlgebraicNumber | None:
    """The s-invariant of the divisor ideal attached to ``M``: the reciprocal
    of the threshold, i.e. the maximal root itself.

    Returns None as an explicit marker when the threshold is infinite; no
    numeric convention is invented for that case.
    """
    result = slope(profile)
    if result.infinite:
        return None
    return result.max_root
