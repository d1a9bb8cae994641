"""Nef thresholds with exact rationality certificates.

The nef threshold of a pair ``(L, M)`` is ``sup{t : L - tM nef}``.  It is
computed from the profile polynomial: when the maximal real root is
positive the threshold is its reciprocal, otherwise the threshold is
infinite (represented explicitly, never as a large number).

Rationality of a finite threshold is a decided property: a rational
maximal root has a denominator dividing the leading coefficient ``D`` of the
primitive profile polynomial, so one exact check at the nearest fraction
with denominator at most ``D`` either exhibits the root or certifies that
the maximum is irrational.  The replayable divisor-quotient enumeration of
the paper is kept as a :class:`CandidateTrace`, computed when it is read.

A result holds the decision on the maximal root, a :class:`TopRoot` from
the Descartes search (exact, or irrational with integer ends clear of 0),
and the profile polynomial.  Whether the threshold is rational, and its
value, read the decision alone, so ``scan`` builds nothing more.  The root
as an :class:`AlgebraicNumber` on the square-free part, the threshold
interval and the certificate are built from them when read.  Display
refinement refines the root once, which bounds both emitted intervals (see
:meth:`SlopeResult.refined`).
"""

from fractions import Fraction
from functools import cached_property

from .errors import NegationIsNef, SlopeIsInfinite
from .exactio import Record, format_int, format_ratio
from .numdata import IntersectionProfile
from .polyroot import (
    AlgebraicNumber,
    TopRoot,
    candidate_rows,
    cauchy_bound,
    chi_polynomial,
    compare_with_rational,
    invert_cleared,
    refine,
    top_root,
)


class CandidateTrace(Record):
    """Replayable record of the rational-candidate enumeration.

    ``rows`` holds every positive divisor-quotient candidate ``r/s`` for the
    maximal root of ``chi``, in descending order, with the exact value
    ``num/den`` of ``chi`` at it, all as integers in lowest terms (see
    ``candidate_rows``); it is computed on first access, so a trace nobody
    reads costs nothing.  A rational maximal root is the candidate at which
    the value is zero; for an irrational one every value is nonzero.
    ``candidates`` is the ``Fraction`` view of the rows.
    """

    _fields = ("chi",)

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


class RationalSlope(Record):
    """Certified rational threshold p/q in lowest terms, with p | L^n and q | M^n."""

    _fields = ("p", "q", "trace")

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


class IrrationalSlope(Record):
    """Certificate that the finite threshold is irrational."""

    _fields = ("trace",)

    def to_json(self) -> dict:
        return {"verdict": "irrational", "trace": self.trace.to_json()}


class SlopeResult(Record):
    """Threshold of a pair: infinite, or finite with rationality certificate.

    ``root`` is None for an infinite threshold.  For a finite one it is the
    decision :func:`slope` stores, a :class:`TopRoot` on the maximal real
    root of the profile polynomial ``chi``, or an :class:`AlgebraicNumber`
    for that root, as :meth:`refined` stores it; an infinite result holds no
    ``chi``.  The threshold's rational value ``slope_fraction`` reads the
    decision alone.  ``max_root``, the root as :func:`isolate_max_root`
    returns it (exact, or with an isolating interval ``(lo, hi]`` whose ends
    are positive and no roots), is built from the decision when read, and
    with it the square-free part of ``chi``; so are the threshold ``slope``
    (interval ``(1/hi, 1/lo]``) and the certificate ``rationality``.
    """

    _fields = ("root", "chi")

    @property
    def infinite(self) -> bool:
        return self.root is None

    @cached_property
    def max_root(self) -> AlgebraicNumber | None:
        root = self.root
        return root.number(self.chi) if isinstance(root, TopRoot) else root

    @cached_property
    def slope(self) -> AlgebraicNumber | None:
        return None if self.infinite else invert_cleared(self.max_root)

    @property
    def slope_fraction(self) -> Fraction | None:
        exact = None if self.infinite else self.root.exact
        return None if exact is None else 1 / exact

    @cached_property
    def rationality(self) -> RationalSlope | IrrationalSlope | None:
        if self.infinite:
            return None
        value, trace = self.slope_fraction, CandidateTrace(self.chi)
        return IrrationalSlope(trace) if value is None else RationalSlope(value.numerator, value.denominator, trace)

    def refined(self, width: Fraction) -> "SlopeResult":
        """Both intervals at most ``width`` wide, the root's possibly narrower:
        the threshold interval is ``(hi - lo) / (lo hi)`` wide and refinement
        only raises ``lo``, so the root is refined to ``width * min(1, lo^2)``.
        """
        if self.infinite or self.root.exact is not None:
            return self
        root = self.max_root
        lo = root.interval[0]
        return SlopeResult(refine(root, width * min(1, lo * lo)), self.chi)

    def to_json(self) -> dict:
        if self.infinite:
            return {"kind": "infinite"}
        return {
            "kind": "finite",
            "zeta": self.max_root.to_json(),
            "slope": self.slope.to_json(),
            "rationality": self.rationality.to_json(),
        }


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
    top = top_root(chi)
    if top is None or top.ends[1] <= 0:  # c/b is an exact root, else (a/b, c/b] keeps clear of 0
        return SlopeResult(None, None)
    if (exact := top.exact) is not None:  # the threshold is 1/exact, and exact > 0
        _check_divisibility(exact.denominator, exact.numerator, profile)
    return SlopeResult(top, chi)


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

    Requires ``-M`` not nef.  The coefficient ``(-1)^(n-k) C(n,k) v[k]`` of
    the profile polynomial chi is a positive multiple of the profile entry
    ``(-1)^(n-k) v[k]`` of ``-M`` against ``L``, so ``-M`` is nef exactly
    when no coefficient of chi is negative.  Otherwise the threshold exceeds
    the reciprocal Cauchy radius of chi, ``(1 + max_k C(n,k) |v[k]| / v[n])^-1``.
    """
    chi = chi_polynomial(profile)
    if min(chi.coeffs) >= 0:
        raise NegationIsNef("-M is nef, the threshold is infinite and needs no bound")
    return Fraction(1) / cauchy_bound(chi)


def slope_at_least(result: SlopeResult, bound: Fraction) -> bool:
    """Exact comparison ``threshold >= bound``; infinite thresholds dominate."""
    return result.infinite or compare_with_rational(result.slope, Fraction(bound)) >= 0


def s_invariant(profile: IntersectionProfile) -> AlgebraicNumber | None:
    """The s-invariant of the divisor ideal attached to ``M``: the reciprocal
    of the threshold, i.e. the maximal root itself.

    None, as for :attr:`SlopeResult.max_root`, is an explicit marker that the
    threshold is infinite; no numeric convention is invented for that case.
    """
    return slope(profile).max_root


def __getattr__(name):  # ``is_nef`` lives in ``simplicity``, which loads on first use
    if name == "is_nef":
        from . import simplicity
        value = globals()[name] = getattr(simplicity, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
