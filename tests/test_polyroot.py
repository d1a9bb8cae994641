"""Tests for the exact polynomial layer: Sturm counting, isolation, bounds."""

import random
import sys
from fractions import Fraction
from math import floor, gcd, prod
from types import SimpleNamespace

import numpy as np
import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from nefslope import polyroot
from nefslope.errors import InputError
from nefslope.generators import GenSpec, SplitMix64, gen_random
from nefslope.numdata import IntersectionProfile, ValidationLevel, binary_profile, profile_from_matrix, validate
from nefslope.polyroot import (
    NEG_INF,
    POS_INF,
    AlgebraicNumber,
    IntPolynomial,
    cauchy_bound,
    chi_polynomial,
    compare_with_rational,
    isolate_max_root,
    rational_root_candidates,
    rational_roots,
    reciprocal,
    refine,
    sturm_chain,
    sturm_count,
)
from nefslope.slope import slope
from oracle import in_interval_surd

P = IntPolynomial.of
X = sympy.Symbol("u")


def from_roots(roots, lead=1):
    """Expand lead * prod (u - r) for integer roots r."""
    coeffs = [lead]
    for r in roots:
        coeffs = [0] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= r * coeffs[i + 1]
    return P(coeffs)


class TestIntPolynomial:
    def test_normalization_strips_trailing_zeros(self):
        assert P([1, 2, 0, 0]).coeffs == (1, 2)
        assert P([0, 0]).is_zero

    def test_direct_construction_rejects_zero_lead(self):
        with pytest.raises(ValueError):
            IntPolynomial((1, 0))

    def test_rejects_non_integral(self):
        with pytest.raises(ValueError):
            P([Fraction(1, 2)])

    @pytest.mark.parametrize(
        "coeffs", [[1.5, 2], ["3"], [True, False, 2], [1, False]], ids=["float", "string", "bool", "bool-lead"]
    )
    def test_of_rejects_non_integer_types(self, coeffs):
        with pytest.raises(TypeError):
            P(coeffs)

    def test_constructor_rejects_bool(self):
        with pytest.raises(TypeError, match="^coefficients must be exact integers, got True$"):
            IntPolynomial((True, 1))

    def test_of_accepts_integer_types(self):
        (c,) = P([np.int64(3)]).coeffs
        assert type(c) is int and c == 3
        assert P([Fraction(4, 2)]).coeffs == (2,)

    def test_evaluation_exact(self):
        p = P([2, -6, 2])
        assert p(Fraction(1, 2)) == Fraction(-1, 2)
        assert p(0) == 2
        assert p(3) == 2

    def test_derivative(self):
        assert P([5, 0, 3, 4]).derivative() == P([0, 6, 12])

    def test_json_round_trip(self):
        p = P([2, -6, 2])
        assert p.to_json() == {"coeffs": ["2", "-6", "2"]}

    def test_str_of_zero(self):
        assert str(IntPolynomial(())) == "0"


class TestSquarefree:
    def test_squarefree_part_of_power(self):
        assert sturm_chain(P([0, 0, 1])).polys[0] == P([0, 1])

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError, match="^cannot build a Sturm chain for the zero polynomial$"):
            sturm_chain(IntPolynomial(()))

    def test_squarefree_part_keeps_distinct_roots(self):
        p = from_roots([1, 3], lead=2)
        assert sturm_chain(p).polys[0] == from_roots([1, 3])


class TestSturm:
    def test_count_whole_line(self):
        chain = sturm_chain(P([2, -6, 2]))
        assert sturm_count(chain, NEG_INF, POS_INF) == 2

    def test_count_unit_interval(self):
        chain = sturm_chain(P([2, -6, 2]))
        assert sturm_count(chain, Fraction(0), Fraction(1)) == 1

    def test_count_square(self):
        chain = sturm_chain(P([0, 0, 1]))
        assert sturm_count(chain, Fraction(-1), Fraction(1)) == 1

    def test_half_open_convention(self):
        # root at 0 belongs to (-1, 0] but not to (0, 1]
        chain = sturm_chain(P([0, 1]))
        assert sturm_count(chain, Fraction(-1), Fraction(0)) == 1
        assert sturm_count(chain, Fraction(0), Fraction(1)) == 0

    @pytest.mark.parametrize(
        "lo,hi,message",
        [
            (Fraction(1), Fraction(1), "empty interval (1, 1]"),
            (0.5, Fraction(2), "endpoint 0.5: a finite endpoint must be a Fraction or an int"),
            (NEG_INF, 2.5, "endpoint 2.5: a finite endpoint must be a Fraction or an int"),
        ],
        ids=["empty", "float-lo", "float-hi"],
    )
    def test_bad_interval_rejected(self, lo, hi, message):
        with pytest.raises(ValueError) as exc:
            sturm_count(sturm_chain(P([-2, 0, 1])), lo, hi)
        assert str(exc.value) == message

    def test_pseudo_remainder_keeps_signs(self):
        # Both chains end by dividing a cubic by a linear term with negative
        # lead, so the pseudo-remainder scale must be |lead|^3, not lead^3.
        assert sturm_chain(P([3, 2, 0, 0, 2])).polys[2] == P([-2, -1])
        assert sturm_count(sturm_chain(P([3, 2, 0, 0, 2])), NEG_INF, POS_INF) == 0
        assert sturm_count(sturm_chain(P([0, 3, 0, 0, 2])), NEG_INF, POS_INF) == 2

    def test_constructed_root_counts(self):
        rng = SplitMix64(2024)
        for _ in range(200):
            k = rng.below(4)
            roots = sorted({rng.in_range(-8, 8) for _ in range(k)})
            p = from_roots(roots, lead=rng.in_range(1, 3))
            if rng.below(2):
                # u^2 + c contributes no real roots
                p = _mul(p, P([rng.in_range(1, 9), 0, 1]))
            if p.degree < 1:
                continue
            assert sturm_count(sturm_chain(p), NEG_INF, POS_INF) == len(roots)


def _ref_primitive(coeffs, positive_lead: bool = False) -> IntPolynomial:
    """The content-free part of ``coeffs``, with a positive lead if asked."""
    c = P(coeffs).coeffs
    content = (-1 if positive_lead and c and c[-1] < 0 else 1) * (gcd(*c) or 1)
    return P([x // content for x in c])


def _ref_prem(a: IntPolynomial, b: IntPolynomial) -> list[int]:
    """``|lead(b)|^(deg a - deg b + 1) a mod b``, one subtraction per quotient term."""
    r, scale, sign = list(a.coeffs), abs(b.coeffs[-1]), 1 if b.coeffs[-1] > 0 else -1
    for k in range(a.degree - b.degree, -1, -1):
        q = sign * r[-1]
        r = [scale * c for c in r]
        for i, c in enumerate(b.coeffs):
            r[i + k] -= q * c
        r.pop()
    return r


def _reference_chain(p: IntPolynomial) -> tuple[IntPolynomial, ...]:
    """The two-PRS construction: the square-free part from an unsigned
    primitive PRS of p and p', then a signed PRS of that part for the chain."""
    if p.degree == 0:
        h = P([1])
    else:
        a, b = _ref_primitive(p.coeffs), _ref_primitive(p.derivative().coeffs)
        while not b.is_zero:
            a, b = b, _ref_primitive(_ref_prem(a, b))
        h = p if a.degree == 0 else P(sympy.Poly(p.coeffs[::-1], X).exquo(sympy.Poly(a.coeffs[::-1], X)).all_coeffs()[::-1])
        h = _ref_primitive(h.coeffs, positive_lead=True)
    seq = [h]
    f1 = _ref_primitive(h.derivative().coeffs)
    while not f1.is_zero:
        seq.append(f1)
        f1 = _ref_primitive(-c for c in _ref_prem(seq[-2], seq[-1]))
    return tuple(seq)


def _seeded_polynomials(seed: int, count: int):
    """Products of small factors with multiplicities up to 3, up to two zero
    roots, leads of either sign, and some constants."""
    rng = SplitMix64(seed)
    for _ in range(count):
        p = P([rng.in_range(1, 12) * (-1 if rng.below(2) else 1)])
        for _ in range(rng.below(4)):
            factor = P([rng.in_range(-9, 9) for _ in range(rng.in_range(1, 3))] + [rng.in_range(1, 4)])
            for _ in range(rng.in_range(1, 3)):
                p = _mul(p, factor)
        yield _mul(p, P([0] * rng.below(3) + [1]))


class TestOnePrs:
    def test_chain_matches_two_prs_reference(self):
        seen = set()
        for p in _seeded_polynomials(2718, 300):
            seen.add((p.degree == 0, p.coeffs[-1] < 0, p.coeffs[0] == 0))
            assert sturm_chain(p).polys == _reference_chain(p), p
            assert sturm_chain(p).polys[0] == _reference_chain(p)[0], p
        # constants, negative leads and zero roots all occur
        assert {(True, True, False), (False, True, True), (False, False, False)} <= seen

    @pytest.mark.parametrize(
        "p,runs",
        [(P([-2, 0, 1]), 1), (from_roots([1, 2, 3]), 1), (P([1, 0, -2, 0, 1]), 2)],
        ids=["sqrt2", "three-roots", "square"],
    )
    def test_one_prs_per_square_free_chain(self, monkeypatch, p, runs):
        # A square-free input takes one PRS; (u^2 - 1)^2 takes a second one
        # on its square-free part u^2 - 1.  Counting its real roots takes
        # one PRS either way.
        calls = []
        prs = polyroot._prs
        monkeypatch.setattr(polyroot, "_prs", lambda f: calls.append(f) or prs(f))
        sturm_chain(p)
        assert len(calls) == runs
        assert calls[-1] == list(sturm_chain(p).polys[0].coeffs)
        calls.clear()
        assert polyroot.real_root_defect(p) is None
        assert len(calls) == 1

    def test_sign_kernel_sees_finite_points_only(self, monkeypatch):
        # Every point reaches the kernel as integers (a : b) with b >= 0, and
        # b = 0 only at the infinite ends (+-1 : 0).
        seen = []
        scaled_value = polyroot._scaled_value
        monkeypatch.setattr(polyroot, "_scaled_value", lambda p, a, b: seen.append((a, b)) or scaled_value(p, a, b))
        profiles = [IntersectionProfile(2, (2, 3, 2)), IntersectionProfile(2, (0, 1, 2))]
        for kind, n in (("product-matrix", 4), ("rational-matrix", 3)):
            profiles += [profile_from_matrix(m) for m in gen_random(GenSpec(kind, seed=5, count=3, n=n))]
        for profile in profiles:
            assert validate(profile, ValidationLevel.SPECTRAL).ok
            chi = chi_polynomial(profile)
            assert sturm_count(sturm_chain(chi), NEG_INF, POS_INF) == sturm_chain(chi).polys[0].degree
            slope(profile)
        assert {(1, 0), (-1, 0)} < set(seen)
        assert all(type(a) is int and type(b) is int and b >= 0 for a, b in seen)
        assert all(a in (1, -1) for a, b in seen if b == 0)


def _recording(fn, limit, points=None):
    """``fn(..., a, b)`` listing each point ``(a : b)`` in ``points``, as a
    rational or +-inf, and failing on its call number ``limit + 1``, so that
    a loop that evaluates too often fails instead of running on."""
    points = [] if points is None else points

    def recorded(*args):
        a, b = args[-2:]
        points.append(Fraction(a, b) if b else (POS_INF if a > 0 else NEG_INF))
        assert len(points) <= limit, f"more than {limit} evaluations"
        return fn(*args)

    return recorded


def _recording_kernels(monkeypatch, limit, points):
    """Patch the three point kernels to list their points in ``points`` as
    :func:`_recording` does: each Descartes count (``_roots_above``) and each
    chain evaluation (``_variations``) once, not once per member, and each
    other sign (``_scaled_value``)."""
    variations, scaled_value, in_chain = polyroot._variations, polyroot._scaled_value, []
    monkeypatch.setattr(polyroot, "_roots_above", _recording(polyroot._roots_above, limit, points))

    def chain(seq, a, b):
        in_chain.append(True)
        try:
            return variations(seq, a, b)
        finally:
            in_chain.pop()

    value = _recording(scaled_value, limit, points)
    monkeypatch.setattr(polyroot, "_variations", _recording(chain, limit, points))
    monkeypatch.setattr(polyroot, "_scaled_value", lambda p, a, b: (scaled_value if in_chain else value)(p, a, b))


def _interval(ends):
    """The ``(lo, hi)`` of integer ends ``(a, c, b)``, or None."""
    return ends and (Fraction(ends[0], ends[2]), Fraction(ends[1], ends[2]))


def _mul(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return IntPolynomial.of(out)


class TestCauchyBound:
    def test_examples(self):
        assert cauchy_bound(P([2, -6, 2])) == 4
        assert cauchy_bound(P([0, 0, 0, 1])) == 1
        assert cauchy_bound(P([0, 0, -54, 6])) == 10

    @pytest.mark.parametrize("coeffs", [[5], [-1], []], ids=["positive", "negative", "zero"])
    def test_constant_rejected(self, coeffs):
        with pytest.raises(ValueError, match="^Cauchy bound requires degree >= 1$"):
            cauchy_bound(P(coeffs))

    @given(st.lists(st.integers(-100, 100), min_size=2, max_size=9))
    def test_no_roots_outside(self, coeffs):
        p = P(coeffs)
        if p.degree < 1:
            return
        bound = cauchy_bound(p)
        chain = sturm_chain(p)
        assert sturm_count(chain, NEG_INF, POS_INF) == sturm_count(chain, -bound, bound)


class TestFujiwaraBound:
    def test_examples(self):
        assert Fraction(2) ** polyroot._fujiwara_exponent(P([2, -6, 2]).coeffs) == 8
        assert Fraction(2) ** polyroot._fujiwara_exponent(P([-2, 0, 1]).coeffs) == 4
        assert Fraction(2) ** polyroot._fujiwara_exponent(P([0, 1]).coeffs) == 1
        assert Fraction(2) ** polyroot._fujiwara_exponent(P([-1, 1024]).coeffs) == Fraction(1, 256)

    def test_power_of_two_with_roots_strictly_inside(self):
        # Degrees 1..9, coefficients up to 10^12, a third of the lower ones
        # zero, leads of either sign; sympy counts the distinct real roots.
        rng = SplitMix64(1916)
        u = sympy.Symbol("u")
        seen = set()
        for _ in range(300):
            degree = rng.in_range(1, 9)
            coeffs = [0 if rng.below(3) == 0 else rng.in_range(-(10 ** rng.in_range(0, 12)), 10 ** rng.in_range(0, 12))
                      for _ in range(degree)]
            coeffs.append(rng.in_range(1, 10 ** rng.in_range(0, 6)) * (-1 if rng.below(2) else 1))
            p = P(coeffs)
            e = polyroot._fujiwara_exponent(p.coeffs)
            assert type(e) is int
            bound = Fraction(2) ** e
            poly = sympy.Poly(list(reversed(p.coeffs)), u).sqf_part()
            b = sympy.Rational(bound.numerator, bound.denominator)
            inside = poly.count_roots(-b, b) - (poly.eval(-b) == 0) - (poly.eval(b) == 0)
            assert inside == poly.count_roots(), p
            seen.update({
                "negative lead" if p.coeffs[-1] < 0 else "positive lead",
                "degree 1" if p.degree == 1 else "degree > 1",
                "c_0 = 0" if p.coeffs[0] == 0 else "c_0 != 0",
                "zero inner coefficient" if 0 in p.coeffs[1:-1] else "no zero inner coefficient",
                "B < 1" if bound < 1 else "B >= 1",
            })
        assert len(seen) == 10


def _reference_candidates(p: IntPolynomial) -> tuple[Fraction, ...]:
    """The plain enumeration: a Fraction set of +-r/s over both divisor
    lists, sorted descending."""
    coeffs = list(p.coeffs)
    while coeffs[0] == 0:
        coeffs.pop(0)
    if len(coeffs) < 2:
        return ()
    nums, dens = sympy.divisors(coeffs[0]), sympy.divisors(coeffs[-1])
    cands = {Fraction(sign * r, s) for r in nums for s in dens for sign in (1, -1)}
    return tuple(sorted(cands, reverse=True))


class TestRationalRoots:
    def test_two_roots(self):
        assert set(rational_roots(P([3, -10, 3]))) == {Fraction(3), Fraction(1, 3)}

    def test_no_rational_roots(self):
        assert rational_roots(P([2, -6, 2])) == ()

    def test_zero_root_extraction(self):
        assert set(rational_roots(P([0, -2, 2]))) == {Fraction(0), Fraction(1)}

    @pytest.mark.parametrize(
        "coeffs,roots", [([0, 0, 5], (Fraction(0),)), ([5], ())], ids=["zero-roots-over-constant", "constant"]
    )
    def test_constant_core(self, coeffs, roots):
        # Once its zero roots are stripped, p is a nonzero constant: it has
        # no candidate, and 0 is a root exactly when a zero root was stripped.
        p = P(coeffs)
        assert polyroot.candidate_rows(p) == ()
        assert rational_root_candidates(p) == ()
        assert rational_roots(p) == roots

    @pytest.mark.parametrize("function", [rational_roots, rational_root_candidates])
    def test_zero_polynomial_rejected(self, function):
        with pytest.raises(ValueError, match="^zero polynomial$"):
            function(IntPolynomial(()))

    def test_candidates_descending(self):
        cands = rational_root_candidates(P([2, -6, 2]))
        assert cands == tuple(sorted(cands, reverse=True))
        assert set(c for c in cands if c > 0) == {Fraction(2), Fraction(1), Fraction(1, 2)}

    def test_divisors_against_sympy(self):
        rng = SplitMix64(4099)
        values = [1, -1, 999999999989, 999983**2, -(999983**2)] + [2**k for k in range(41)]
        # Carmichael numbers and strong base-2 pseudoprimes: Miller-Rabin
        # must find another witness or trial division must split them.
        values += [561, 41041, 825265, 2047, 3215031751, 2152302898747]
        # 12-digit prime squares and products of two 12-digit primes, which
        # only Pollard-Brent splits in reasonable time.
        p, q, r = 999999999989, 999999999961, 100000000003
        values += [-(r * r), p * q, -(p * r)]
        # The smallest strong pseudoprime to every base 2..41, where the
        # deterministic bases stop: a base past 41 witnesses it composite.
        values.append(3317044064679887385961981)
        # Smooth values past that bound.
        values += [2**90 * 3**5 * 7, -(999983**5) * 1009, 10**30, 2**40 * 3**20 * 5**10 * 7**5, 1009**5 * 1013**4]
        for _ in range(250):
            m = rng.in_range(1, 10 ** rng.in_range(1, 12))
            values.append(-m if rng.below(2) else m)
        for m in values:
            assert polyroot._divisors(m) == sympy.divisors(m), m

    def test_twelve_digit_prime_is_not_trial_divided(self):
        # Counts the lines run inside polyroot: trial division of 999999999989
        # to its square root takes 5*10^5 steps; Miller-Rabin proves it prime
        # after the short trial division below 1000.
        steps = 0

        def trace(frame, event, arg):
            nonlocal steps
            if frame.f_code.co_filename != polyroot.__file__:
                return None
            steps += event == "line"
            assert steps <= 20000, "trial division past the small primes"
            return trace

        previous = sys.gettrace()
        sys.settrace(trace)
        try:
            divs = polyroot._divisors(999999999989)
        finally:
            sys.settrace(previous)
        assert divs == [1, 999999999989]
        assert 0 < steps <= 20000

    @pytest.mark.parametrize("m", [10**25 + 13, -(2**5) * (10**25 + 13), 1009 * (10**25 + 13)])
    def test_unprovable_prime_is_refused(self, m):
        # 10^25 + 13 is an 84-bit prime past the bound below which bases
        # 2..41 prove primality: no base splits it and trial division to its
        # square root would take 1.6*10^12 steps, so it is refused, also as
        # the cofactor that rho leaves beside 1009.
        with pytest.raises(InputError, match=r"cofactor of 84 bits prime; .* below 3317044064679887385961981$"):
            polyroot._divisors(m)

    def test_rho_budget(self):
        # A product of two 15-digit primes takes rho about 15 million
        # squarings; it is refused once the 2^21 of the budget are spent.
        with pytest.raises(InputError, match=r"^divisor trace: cannot split a composite cofactor of 94 bits within 2097152 squarings"):
            polyroot._divisors(11000000000010510000000002201)

    def test_rho_budget_is_shared_by_the_splits(self, monkeypatch):
        # Six 42-bit primes, 247 bits in all: the first split takes rho all but
        # two squarings of the budget.  All splits of one factorization share
        # one budget, each starting from the squarings the previous one
        # returned, so the next split is refused within that one budget.
        primes = [2209023255613, 2219023255637, 2229023255677, 2239023255697, 2249023255783, 2259023255849]
        assert all(map(sympy.isprime, primes)) and prod(primes).bit_length() == 247
        rho, starts, spent = polyroot._rho, [], []

        def spy(n, steps):
            starts.append(steps)
            g, steps = rho(n, steps)
            spent.append(steps)
            return g, steps

        monkeypatch.setattr(polyroot, "_rho", spy)
        with pytest.raises(InputError, match=r"^divisor trace: cannot split a composite cofactor of \d+ bits within 2097152 squarings"):
            polyroot._divisors(prod(primes))
        assert len(starts) >= 2 and starts == [0] + spent
        assert spent[-1] <= polyroot._RHO_BUDGET

    def test_candidates_against_fraction_set(self):
        # Degrees 1..9 with up to two zero roots, constants up to 10^12 and
        # leads of either sign up to 10^6.
        rng = SplitMix64(8191)
        for _ in range(300):
            degree = rng.in_range(1, 9)
            coeffs = [rng.in_range(-10**4, 10**4) for _ in range(degree + 1)]
            coeffs[0] = rng.in_range(-(10 ** rng.in_range(1, 12)), 10 ** rng.in_range(1, 12))
            coeffs[-1] = rng.in_range(1, 10 ** rng.in_range(1, 6)) * (-1 if rng.below(2) else 1)
            p = P([0] * rng.below(3) + coeffs)
            assert rational_root_candidates(p) == _reference_candidates(p), p

    def test_roots_complete_against_sympy(self):
        # A random cofactor times linear factors s u - r, each to the power 1
        # to 3, so roots are zero, negative, repeated and non-integral; every
        # rational root must be found, as the linear factors over Q list them.
        rng, u, seen = SplitMix64(6151), sympy.Symbol("u"), set()
        for _ in range(200):
            p = P([rng.in_range(-50, 50) for _ in range(rng.in_range(1, 4))] + [rng.in_range(-9, 9) or 1])
            for _ in range(rng.below(5)):
                r, s, power = rng.in_range(-12, 12), rng.in_range(1, 6), rng.in_range(1, 3)
                seen |= {r == 0 and "zero", r < 0 and "negative", power > 1 and "repeated", r % s != 0 and "non-integral"}
                for _ in range(power):
                    p = _mul(p, IntPolynomial((-r, s)))
            factors = sympy.Poly(p.coeffs[::-1], u).factor_list()[1]
            expected = {-Fraction(int(f.coeff_monomial(1)), int(f.LC())) for f, _ in factors if f.degree() == 1}
            assert rational_roots(p) == tuple(sorted(expected, reverse=True)), p
        assert {"zero", "negative", "repeated", "non-integral"} <= seen

    @given(st.lists(st.integers(-60, 60), min_size=2, max_size=8))
    def test_roots_satisfy_divisor_conditions(self, coeffs):
        p = P(coeffs)
        if p.degree < 1:
            return
        core_coeffs = list(p.coeffs)
        while core_coeffs and core_coeffs[0] == 0:
            core_coeffs.pop(0)
        for r in rational_roots(p):
            assert p(r) == 0
            if r != 0:
                assert core_coeffs[0] % r.numerator == 0
                assert core_coeffs[-1] % r.denominator == 0


class TestIsolateMaxRoot:
    def test_irrational_quadratic(self):
        root = isolate_max_root(P([2, -6, 2]))
        assert root.exact is None
        lo, hi = root.interval
        # (3 + sqrt 5) / 2
        assert in_interval_surd(lo, hi, Fraction(3, 2), Fraction(1, 2), 5)

    def test_exact_rational(self):
        root = isolate_max_root(P([0, -2, 2]))
        assert root.exact == 1

    def test_no_real_roots(self):
        assert isolate_max_root(P([1, 0, 1])) is None

    @pytest.mark.parametrize("coeffs", [[5], []], ids=["constant", "zero"])
    def test_constant_rejected(self, coeffs):
        with pytest.raises(ValueError, match="^isolate_max_root requires a nonzero polynomial of degree >= 1$"):
            isolate_max_root(P(coeffs))

    def test_rational_beats_smaller_irrational(self):
        # (u - 10) (u^2 - 2): max root is 10, not sqrt(2)
        p = _mul(P([-10, 1]), P([-2, 0, 1]))
        root = isolate_max_root(p)
        assert root.exact == 10

    def test_irrational_beats_smaller_rational(self):
        # (u - 1) (u^2 - 7): max root is sqrt(7)
        p = _mul(P([-1, 1]), P([-7, 0, 1]))
        root = isolate_max_root(p)
        assert root.exact is None
        lo, hi = root.interval
        assert in_interval_surd(lo, hi, Fraction(0), Fraction(1), 7)

    def test_rational_max_with_denominator_lead(self):
        # (7u - 10) (u^2 - 2): 10/7 lies 0.014 above sqrt(2); lead(h) = 7
        p = _mul(P([-10, 7]), P([-2, 0, 1]))
        assert sturm_chain(p).polys[0].coeffs[-1] == 7
        assert isolate_max_root(p).exact == Fraction(10, 7)

    def test_repeated_rational_max(self):
        # (2u - 3)^3 (u + 1)
        p = _mul(_mul(_mul(P([-3, 2]), P([-3, 2])), P([-3, 2])), P([1, 1]))
        assert isolate_max_root(p).exact == Fraction(3, 2)

    @pytest.mark.parametrize("d", [2, 3])
    def test_rational_root_below_irrational_max(self, d):
        # (u - 1) (u^2 - d).  d = 2: lead(h) = 1 and the nearest integer to
        # sqrt(2), 1, is a root of h.  d = 3: Sturm isolation stops at
        # (1, 2], whose excluded end 1 is a root of h.
        p = _mul(P([-1, 1]), P([-d, 0, 1]))
        root = isolate_max_root(p)
        assert root.exact is None
        assert root.minpoly_factor == sturm_chain(p).polys[0]
        lo, hi = root.interval
        assert in_interval_surd(lo, hi, Fraction(0), Fraction(1), d)
        assert sturm_count(sturm_chain(root.minpoly_factor), lo, hi) == 1
        inv = reciprocal(root)
        ilo, ihi = inv.interval
        assert sturm_count(sturm_chain(inv.minpoly_factor), ilo, ihi) == 1
        assert ilo * ilo < Fraction(1, d) < ihi * ihi

    @pytest.mark.parametrize(
        "p,limit", [(from_roots([1, 2, 3, 4, 5, 6]), 7), (P([-2, 0, 1]), 1)], ids=["six-roots", "sqrt2"]
    )
    def test_chain_evaluated_once_per_bisection(self, monkeypatch, p, limit):
        # The Descartes count runs once per bisection step: both ends' counts
        # are carried along, and those of the starting interval, deg p and 0,
        # need no evaluation.  No Sturm chain is evaluated.
        monkeypatch.setattr(polyroot, "_roots_above", _recording(polyroot._roots_above, limit))
        monkeypatch.setattr(polyroot, "_variations", _recording(polyroot._variations, 0))
        root = isolate_max_root(p)
        assert root.exact == 6 or in_interval_surd(*root.interval, Fraction(0), Fraction(1), 2)

    def test_max_root_at_zero(self):
        # u^2 (u + 3)
        assert isolate_max_root(P([0, 0, 3, 1])).exact == 0

    def test_max_root_at_bisection_midpoint(self):
        # (u - 1) (u^2 + 1): Cauchy interval (-2, 2], bisected at 0, then at 1
        p = _mul(P([-1, 1]), P([1, 0, 1]))
        assert cauchy_bound(sturm_chain(p).polys[0]) == 2
        assert isolate_max_root(p).exact == 1

    def test_interval_isolates_and_tops(self):
        p = P([2, -6, 2])
        root = isolate_max_root(p)
        chain = sturm_chain(p)
        lo, hi = root.interval
        assert sturm_count(chain, lo, hi) == 1
        assert sturm_count(chain, hi, POS_INF) == 0


class TestDescartesCount:
    """``_roots_above``, the Descartes count of the roots above a point, and
    the search on it, ``_descartes_topmost``."""

    @staticmethod
    def grid(roots):
        """The dyadic points k/4 from below the least root to above the
        largest, and a point 1/8 above each root."""
        return [(k, 4) for k in range(4 * min(roots) - 6, 4 * max(roots) + 7)] + [(8 * r + 1, 8) for r in roots]

    @pytest.mark.parametrize(
        "roots", [[0], [3], [-5, 2], [1, 2, 3, 4, 5, 6], [-7, -1, 0, 4, 9], [-3, 5, 6, 11, 12, 13, 20]]
    )
    @pytest.mark.parametrize("lead", [1, 3])
    def test_equals_sturm_count_on_real_roots(self, roots, lead):
        # Every root real and simple: the count above each grid point is the
        # Sturm count on (x, +inf], and the value is b^d p(a/b).
        p = from_roots(roots, lead)
        chain = sturm_chain(p)
        for a, b in self.grid(roots):
            x = Fraction(a, b)
            count, value = polyroot._roots_above(p.coeffs, a, b)
            assert count == sturm_count(chain, x, POS_INF) == sum(r > x for r in roots), (roots, x)
            assert value == polyroot._scaled_value(p.coeffs, a, b)

    @pytest.mark.parametrize("roots", [[2, 2], [1, 1, 1, -3], [-2, -2, 0, 0, 0, 5, 5]])
    def test_counts_repeated_roots_with_multiplicity(self, roots):
        p = from_roots(roots)
        for a, b in self.grid(roots):
            assert polyroot._roots_above(p.coeffs, a, b)[0] == sum(r > Fraction(a, b) for r in roots), roots

    def test_never_increases_and_keeps_the_parity(self):
        # With complex roots the count only bounds the real roots above the
        # point, but it keeps their parity (odd exactly where g < 0, g having
        # a positive lead), is deg g at -B and 0 at B, and never increases
        # along a grid across (-B, B] (Budan-Fourier): so the count at lo
        # can drop at most deg g times, and the stall rule ends a search.
        seen = set()
        for p in _seeded_polynomials(5003, 300):
            if p.degree < 1:
                continue
            g = polyroot._primitive(list(p.coeffs), 0)
            e = polyroot._fujiwara_exponent(g)
            chain = sturm_chain(p)
            counts = []
            for k in range(-32, 33):
                a, b = (k << (e - 5), 1) if e >= 5 else (k, 1 << (5 - e))
                count, value = polyroot._roots_above(g, a, b)
                distinct = sturm_count(chain, Fraction(a, b), POS_INF)
                assert count >= distinct, p
                if value:
                    assert count % 2 == (value < 0), p
                seen.add("exact" if count == distinct else "complex roots")
                counts.append(count)
            assert counts[0] == p.degree and counts[-1] == 0, p
            assert counts == sorted(counts, reverse=True), p
        assert seen == {"exact", "complex roots"}

    @pytest.mark.parametrize(
        "p",
        [
            P([1, 0, 1]),  # no real root
            _mul(P([-1, 3]), P([-1, 3])),  # a double maximum 1/3, off the dyadic grid
            _mul(P([-2, 0, 1]), P([-2, 0, 1])),  # a double irrational maximum
            _mul(P([1, -1]), P([5, -4, 1])),  # the complex pair 2 +- i above the root 1
        ],
        ids=["no-real-root", "double-third", "double-sqrt2", "pair-above"],
    )
    def test_stalls_within_its_step_budget(self, monkeypatch, p):
        # The count at lo stays at 2 or more: the search gives up after
        # _STALL_STEPS steps per value that count takes, and top_root still
        # decides as sympy does.
        g = polyroot._primitive(list(p.coeffs), 0)
        e = polyroot._fujiwara_exponent(g)
        limit = (p.degree + 1) * polyroot._STALL_STEPS
        with monkeypatch.context() as m:
            m.setattr(polyroot, "_roots_above", _recording(polyroot._roots_above, limit))
            assert polyroot._descartes_topmost(g, -1 << e, 1 << e, 1) is None
        top = polyroot.top_root(p)
        verdict = _sympy_top(sympy.Poly(list(reversed(p.coeffs)), X))
        assert (None if top is None else "irrational" if top.exact is None else top.exact) == verdict

    def test_exact_maximum_at_a_midpoint(self, monkeypatch):
        # (u - 6)^3 (u + 1): the count at lo stays at 3 until the midpoint 6
        # counts 0 and is a root, which is the maximum, exactly.
        p = _mul(from_roots([6, 6, 6]), P([1, 1]))
        g = list(p.coeffs)
        e = polyroot._fujiwara_exponent(g)
        with monkeypatch.context() as m:
            m.setattr(polyroot, "_square_free_prs", _recording(polyroot._square_free_prs, 0))
            x, y, b = polyroot._descartes_topmost(g, -1 << e, 1 << e, 1)
            assert x == y and Fraction(y, b) == 6
            assert polyroot.top_root(p).exact == 6


class TestSympyOracle:
    def test_random_polynomials_up_to_degree_12(self):
        """Rationality and value of the max root agree with sympy's exact roots."""
        rng = random.Random(2026)
        u = sympy.Symbol("u")
        for _ in range(150):
            p = P([rng.randint(-20, 20) for _ in range(rng.randint(0, 6))] + [rng.randint(1, 9)])
            for _ in range(rng.randint(0, 3)):
                linear = P([rng.randint(-12, 12), rng.randint(1, 6)])
                for _ in range(rng.randint(1, 2)):
                    p = _mul(p, linear)
            if p.degree < 1:
                continue
            poly = sympy.Poly(list(reversed(p.coeffs)), u)
            got = isolate_max_root(p)
            if poly.count_roots() == 0:
                assert got is None
                continue
            top = max(poly.ground_roots(), default=None)
            if top is not None and poly.count_roots(top, None) == 1:
                assert got.exact == Fraction(int(top.p), int(top.q))
                continue
            assert got.exact is None
            lo, hi = got.interval

            def roots_above(x):
                r = sympy.Rational(x.numerator, x.denominator)
                return poly.count_roots(r, None) - (poly.eval(r) == 0)

            assert roots_above(hi) == 0 and roots_above(lo) >= 1
            assert sympy.rem(poly, sympy.Poly(list(reversed(got.minpoly_factor.coeffs)), u)).is_zero

    def test_repeated_factors_up_to_degree_12(self):
        """Square-free parts and windowed Sturm counts agree with sympy when factors repeat."""
        rng = random.Random(3)
        u = sympy.Symbol("u")
        for _ in range(120):
            factors = [
                P([rng.randint(-9, 9) for _ in range(rng.randint(1, 3))] + [rng.randint(1, 5)])
                for _ in range(rng.randint(1, 3))
            ]
            factors.append(factors[0])
            p = P([rng.choice([-3, -1, 1, 2])])
            for f in factors:
                p = _mul(p, f)
            poly = sympy.Poly(list(reversed(p.coeffs)), u)
            _, sqf = poly.sqf_part().primitive()
            if sqf.LC() < 0:
                sqf = -sqf
            assert sturm_chain(p).polys[0] == P([int(c) for c in reversed(sqf.all_coeffs())])
            chain = sturm_chain(p)
            for _ in range(4):
                lo, hi = sorted(Fraction(rng.randint(-40, 40), rng.randint(1, 4)) for _ in range(2))
                if lo == hi:
                    continue
                slo, shi = (sympy.Rational(x.numerator, x.denominator) for x in (lo, hi))
                expected = sqf.count_roots(slo, shi) - (sqf.eval(slo) == 0)
                assert sturm_count(chain, lo, hi) == expected


def _sympy_top(poly: sympy.Poly):
    """The verdict on the largest real root of ``poly`` from sympy alone:
    None without a real root, the root when it is rational, else "irrational"."""
    if poly.count_roots() == 0:
        return None
    top = [r for r in poly.ground_roots() if poly.count_roots(r, None) == 1]
    return Fraction(int(top[0].p), int(top[0].q)) if top else "irrational"


class TestClusteredAndMultipleRoots:
    """``isolate_max_root`` on root clusters and repeated roots, against sympy's
    exact counts: the verdict and exact value, and for an irrational root an
    interval clear of 0 whose ``lo`` is no root of ``h``, holding exactly one
    root of ``h`` and none above it."""

    @staticmethod
    def check(expr) -> str:
        poly = sympy.Poly(sympy.expand(expr), X)
        root = isolate_max_root(P([int(c) for c in reversed(poly.all_coeffs())]))
        verdict = _sympy_top(poly)
        if root is None or root.exact is not None:
            assert verdict == (None if root is None else root.exact), expr
            return "none" if root is None else "exact"
        assert verdict == "irrational", expr
        h = sympy.Poly(list(reversed(root.minpoly_factor.coeffs)), X)
        lo, hi = (sympy.Rational(x.numerator, x.denominator) for x in root.interval)
        assert sympy.rem(poly, h).is_zero and h.eval(lo) != 0 and h.eval(hi) != 0, expr
        assert h.count_roots(lo, hi) == 1 and h.count_roots(hi, None) == 0, expr
        assert lo > 0 or hi < 0, expr
        return "positive" if lo > 0 else "negative"

    def test_mignotte_type(self):
        # u^d - 2(a u - 1)^2 has two roots within about a^-(d+2)/2 of 1/a;
        # its reversal puts that pair near a, as the largest roots.
        seen = set()
        for d in (3, 4, 5, 6, 8, 11):
            for a in (3, 10, 100):
                mignotte = X**d - 2 * (a * X - 1) ** 2
                for expr in (mignotte, sympy.expand(X**d * mignotte.subs(X, 1 / X)), mignotte.subs(X, -X)):
                    seen.add(self.check(expr))
        assert seen == {"positive", "negative"}

    def test_wilkinson_type(self):
        # prod (u - k) and its square, their reflections, and Wilkinson's
        # perturbation 2^23 prod (u - k) - u^(m - 1), whose top root is irrational.
        seen = set()
        for m in (5, 10, 20):
            w = sympy.prod([X - k for k in range(1, m + 1)])
            for expr in (w, w**2, w.subs(X, -X), w.subs(X, -X) ** 2, 2**23 * w - X ** (m - 1)):
                seen.add(self.check(expr))
        assert seen == {"exact", "positive"}

    def test_squares_times_a_complex_pair(self):
        # A real-rooted base squared, times a quadratic with complex roots;
        # the constant base leaves the complex pair alone, with no real root.
        # For (u - 1)(u^2 - 2) and (u - 2)(u^2 - 5), narrowing stops on an
        # interval whose lo is the rational root, and only clearing moves it.
        seen = set()
        bases = (
            1, X**2 - 2, X**3 - 3 * X + 1, (X - 1) * (X**2 - 2), (X - 1) * (X**2 - 5), (X - 2) * (X**2 - 5),
            (2 * X - 3) * (X + 1), (X + 3) ** 2 - 2,
        )
        for base in bases:
            for quad in (X**2 + 1, X**2 + X + 1, X**2 - 6 * X + 10):
                seen.add(self.check(base**2 * quad))
        assert seen == {"none", "exact", "positive", "negative"}


def _clustered_families():
    """The inputs of :class:`TestClusteredAndMultipleRoots`."""
    for d in (3, 4, 5, 6, 8, 11):
        for a in (3, 10, 100):
            mignotte = X**d - 2 * (a * X - 1) ** 2
            yield from (mignotte, sympy.expand(X**d * mignotte.subs(X, 1 / X)), mignotte.subs(X, -X))
    for m in (5, 10, 20):
        w = sympy.prod([X - k for k in range(1, m + 1)])
        yield from (w, w**2, w.subs(X, -X), w.subs(X, -X) ** 2, 2**23 * w - X ** (m - 1))
    bases = (
        1, X**2 - 2, X**3 - 3 * X + 1, (X - 1) * (X**2 - 2), (X - 1) * (X**2 - 5), (X - 2) * (X**2 - 5),
        (2 * X - 3) * (X + 1), (X + 3) ** 2 - 2,
    )
    for base in bases:
        for quad in (X**2 + 1, X**2 + X + 1, X**2 - 6 * X + 10):
            yield base**2 * quad


class TestTopRootDecision:
    """``top_root``, the decision ``slope`` keeps, against sympy and against
    the Sturm search on the square-free part h, the decision before the
    Descartes search, on Mignotte-type polynomials, Wilkinson-type products,
    their squares and squares times a complex pair."""

    def test_decisions(self, monkeypatch):
        seen, searches = set(), []
        descartes = polyroot._descartes_topmost
        monkeypatch.setattr(polyroot, "_descartes_topmost", lambda *args: searches.append(r := descartes(*args)) or r)
        for expr in _clustered_families():
            poly = sympy.Poly(sympy.expand(expr), X)
            p = P([int(c) for c in reversed(poly.all_coeffs())])
            searches.clear()
            top = polyroot.top_root(p)
            stalled = searches[0] is None
            seq = polyroot._square_free_prs(p.coeffs)
            sturm = polyroot._top_root(seq[0], seq)
            decision = [None if t is None else t.exact if t.exact is not None else t.ends[1] > 0 for t in (top, sturm)]
            assert decision[0] == decision[1], expr
            verdict = _sympy_top(poly)
            assert decision[0] == verdict if verdict != "irrational" else decision[0] in (True, False), expr
            if stalled:
                seen.add("stall, h != g" if seq[0] != polyroot._primitive(list(p.coeffs), 0) else "stall, h = g")
            else:
                seen.add("no stall")
        assert seen == {"stall, h != g", "stall, h = g", "no stall"}

    def test_stalled_search_builds_one_prs(self, monkeypatch):
        # (u^2 - 2)^2 (u + 5): the Descartes search stalls at the double
        # maximum sqrt(2), and the Sturm search on h = (u^2 - 2)(u + 5)
        # decides.  Reading the root reuses those ends, so isolate_max_root
        # builds the square-free PRS once, and returns the number that
        # rerunning the Sturm search on h gives.
        p = _mul(_mul(P([-2, 0, 1]), P([-2, 0, 1])), P([5, 1]))
        seq = polyroot._square_free_prs(p.coeffs)
        sturm = polyroot._top_root(seq[0], seq)
        calls, build = [], polyroot._square_free_prs
        monkeypatch.setattr(polyroot, "_square_free_prs", lambda coeffs: calls.append(coeffs) or build(coeffs))
        top = polyroot.top_root(p)
        assert len(calls) == 1 and top.sturm and top == sturm
        root = isolate_max_root(p)
        assert len(calls) == 2  # top_root's once more, none in number
        assert root == AlgebraicNumber(P([-10, -2, 5, 1]), (Fraction(1), Fraction(3, 2)))
        assert root == AlgebraicNumber(P(sturm.poly), tuple(Fraction(x, sturm.ends[2]) for x in sturm.ends[:2]))
        # A search that does not stall leaves the PRS to number.
        q = P([-2, 0, 1])
        assert not polyroot.top_root(q).sturm
        assert isolate_max_root(q).minpoly_factor == q and len(calls) == 3


def _heavy_surface(digits: int, rational: bool) -> IntersectionProfile:
    """A surface profile with entries of about ``digits`` digits, seeded by
    ``digits``.  A rational one has ``chi = (a u - b) (c u - d)`` with
    positive factors of half as many digits, whose roots ``b/a`` and ``d/c``
    are rational; otherwise the entries are drawn, ``M^2`` of either sign,
    to the index inequality."""
    rng = SplitMix64(digits)

    def draw(k):
        return int(str(rng.in_range(1, 9)) + "".join(str(rng.below(10)) for _ in range(k - 1)))

    while True:
        if rational:
            a, b, c, d = (draw(digits // 2) for _ in range(4))
            if (a * d + b * c) % 2 == 0:
                return IntersectionProfile(2, (b * d, (a * d + b * c) // 2, a * c))
        else:
            l2, lm, m2 = draw(digits), draw(digits), draw(digits) * (-1 if rng.below(2) else 1)
            if lm * lm >= l2 * m2:
                return IntersectionProfile(2, (m2, lm, l2))


class TestHeavyInputs:
    """Inputs that took the Cauchy start and bisection from 6 ms to seconds:
    verdict, p/q, isolation and widths against sympy."""

    @pytest.mark.parametrize(
        "kind,size,rational",
        [("product-matrix", n, None) for n in (16, 24, 32)]
        + [("surface", digits, rational) for digits in (100, 1000, 4000) for rational in (False, True)],
        ids=lambda x: str(x),
    )
    def test_against_sympy(self, kind, size, rational):
        if kind == "surface":
            profile = _heavy_surface(size, rational)
        else:
            profile = profile_from_matrix(gen_random(GenSpec(kind, seed=1, count=1, n=size))[0])
        chi = chi_polynomial(profile)
        h = sympy.Poly(list(reversed(sturm_chain(chi).polys[0].coeffs)), sympy.Symbol("u"), domain=sympy.QQ)
        result = slope(profile)
        top = max(h.ground_roots(), default=None)
        if top is not None and h.count_roots(top, None) == 1:
            top = Fraction(int(top.p), int(top.q))
            assert isolate_max_root(chi).exact == top
            assert not result.infinite and result.slope_fraction == 1 / top
            assert rational in (True, None)
            return
        assert rational in (False, None) and result.slope_fraction is None
        assert not result.infinite, "every heavy input has a positive maximal root"
        # One sympy Sturm sequence counts the roots at every end: count_roots
        # would rebuild it each time, about 2 s at n = 32.
        chain = sympy.sturm(h)

        def variations(x):
            signs = [q.eval(x) if x is not None else q.LC() for q in chain]
            signs = [v > 0 for v in signs if v != 0]
            return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

        def check(a: AlgebraicNumber, width: Fraction):
            lo, hi = a.interval
            assert a.exact is None and hi - lo <= width
            slo, shi = (sympy.Rational(x.numerator, x.denominator) for x in (lo, hi))
            assert h.eval(shi) != 0
            assert variations(slo) - variations(shi) == 1 and variations(shi) == variations(None)

        root = isolate_max_root(chi)
        check(root, Fraction(1, 2 * int(h.LC()) ** 2))
        shown = result.refined(Fraction(1, 2**64)).max_root
        check(shown, Fraction(1, 2**64) * min(1, shown.interval[0] ** 2))
        if kind == "surface":
            check(refine(root, Fraction(1, 2**4096)), Fraction(1, 2**4096))


class TestHeavyDescartes:
    """``slope()`` at product-matrix n = 32 and 64 (seed 1), where the Sturm
    chain took 12 ms and 0.7 s, against sympy's continued-fraction isolation
    ``Poly.intervals()``; and the pencil identity at n = 32."""

    WIDTH = Fraction(1, 2**80)

    @staticmethod
    def profile(n):
        return profile_from_matrix(gen_random(GenSpec("product-matrix", seed=1, count=1, n=n))[0])

    @pytest.mark.parametrize("n", [32, 64])
    def test_against_sympy_intervals(self, monkeypatch, n):
        profile = self.profile(n)
        g = polyroot._primitive(list(chi_polynomial(profile).coeffs), 0)
        with monkeypatch.context() as m:
            m.setattr(polyroot, "_square_free_prs", _recording(polyroot._square_free_prs, 0))
            result = slope(profile)
        assert "max_root" not in vars(result) and result.root.poly == tuple(g)
        a, c, b = result.root.ends
        assert 0 < a < c and result.root.exact is None and result.slope_fraction is None
        poly = sympy.Poly(list(reversed(g)), X)
        lo, hi = sympy.Rational(a, b), sympy.Rational(c, b)
        # One simple root of g above lo, none above hi, and it is irrational:
        # a rational root of g is k/D, and (lo, hi] can hold only k = floor(D hi).
        (above,) = poly.intervals(inf=lo)
        assert above[1] == 1 and poly.intervals(inf=hi) == []
        (s, t), multiplicity = poly.intervals()[-1]
        assert multiplicity == 1 and s < hi and lo < t
        k, denom = g[-1] * c // b, g[-1]
        assert 2 * denom * denom * (c - a) <= b
        assert sympy.Rational(k, denom) <= lo or poly.eval(sympy.Rational(k, denom)) != 0

    def test_pencil_identity_at_n32(self):
        # sigma(L, aL + bM) = sigma / (b + a sigma), for an irrational sigma.
        profile = self.profile(32)
        result = slope(profile)
        assert result.slope_fraction is None
        lo, hi = result.refined(self.WIDTH).slope.interval
        for a, b in ((0, 2), (1, 1), (3, 2)):
            image = slope(binary_profile(profile, a, b))
            assert not image.infinite and image.slope_fraction is None
            ilo, ihi = image.refined(self.WIDTH).slope.interval
            assert ilo < hi / (b + a * hi) and lo / (b + a * lo) < ihi


class TestRefine:
    def test_width_target(self):
        root = isolate_max_root(P([2, -6, 2]))
        tight = refine(root, Fraction(1, 10**12))
        lo, hi = tight.interval
        assert hi - lo <= Fraction(1, 10**12)
        assert in_interval_surd(lo, hi, Fraction(3, 2), Fraction(1, 2), 5)

    def test_exact_unchanged(self):
        a = AlgebraicNumber.from_rational(Fraction(1))
        assert refine(a, Fraction(1, 10**30)) is a

    @pytest.mark.parametrize("width", [0, -1])
    def test_non_positive_width_rejected(self, width):
        root = isolate_max_root(P([-2, 0, 1]))
        with pytest.raises(ValueError, match="^width must be positive$"):
            refine(root, width)

    def test_sqrt_two(self):
        root = isolate_max_root(P([-2, 0, 1]))
        tight = refine(root, Fraction(1, 4))
        lo, hi = tight.interval
        assert hi - lo <= Fraction(1, 4)
        assert in_interval_surd(lo, hi, Fraction(0), Fraction(1), 2)

    def test_compare_with_rational(self):
        root = isolate_max_root(P([-2, 0, 1]))
        assert compare_with_rational(root, Fraction(1)) == 1
        assert compare_with_rational(root, Fraction(2)) == -1
        assert compare_with_rational(root, Fraction(3, 2)) == -1
        assert compare_with_rational(root, Fraction(7, 5)) == 1

    def test_midpoint_root_becomes_exact(self):
        # 2u - 1 on (0, 1]: the first midpoint is the root itself
        half = refine(AlgebraicNumber(P([-1, 2]), (Fraction(0), Fraction(1))), Fraction(1, 4))
        assert half.exact == Fraction(1, 2)

    def test_sign_at_upper_end_evaluated_once(self, monkeypatch):
        # 64 halvings of (1, 2] take one evaluation each, plus one at hi = 2
        monkeypatch.setattr(polyroot, "_scaled_value", _recording(polyroot._scaled_value, 65))
        root = AlgebraicNumber(P([-2, 0, 1]), (Fraction(1), Fraction(2)))
        tight = refine(root, Fraction(1, 2**64))
        assert tight.interval[1] - tight.interval[0] <= Fraction(1, 2**64)
        assert in_interval_surd(*tight.interval, Fraction(0), Fraction(1), 2)

    def test_qir_threshold(self, monkeypatch):
        # Narrowing (1, 2] to 2^-64 is a grid of exactly _QIR_CELLS cells and
        # bisects, point for point; one more bit runs QIR.
        root = AlgebraicNumber(P([-2, 0, 1]), (Fraction(1), Fraction(2)))
        ref, points = _FractionBisection(), []
        expected = ref.refine(root, Fraction(1, 2**64))
        assert len(ref.points) == 65
        with monkeypatch.context() as m:
            m.setattr(polyroot, "_scaled_value", _recording(polyroot._scaled_value, 65, points))
            assert refine(root, Fraction(1, 2**64)) == expected
        assert points == ref.points
        with monkeypatch.context() as m:
            m.setattr(polyroot, "_scaled_value", _recording(polyroot._scaled_value, 14))
            tight = refine(root, Fraction(1, 2**65))
        assert tight.interval[1] - tight.interval[0] <= Fraction(1, 2**65)
        assert in_interval_surd(*tight.interval, Fraction(0), Fraction(1), 2)

    def test_root_at_upper_end(self):
        # u - 1 on (0, 1]: the root is the end hi itself
        a = AlgebraicNumber(P([-1, 1]), (Fraction(0), Fraction(1)))
        assert refine(a, Fraction(1, 2**20)).exact == 1
        assert compare_with_rational(a, Fraction(1, 2)) == 1
        assert compare_with_rational(a, 1) == 0
        with pytest.raises(ZeroDivisionError):
            reciprocal(AlgebraicNumber(P([0, 1]), (Fraction(-1), Fraction(0))))

    def test_compare_with_rational_root(self):
        # u - 1/2 on (0, 1], compared with its own root inside the interval
        a = AlgebraicNumber(P([-1, 2]), (Fraction(0), Fraction(1)))
        assert [compare_with_rational(a, Fraction(k, 4)) for k in (1, 2, 3)] == [1, 0, -1]

    def test_reciprocal_with_root_at_lower_end(self):
        # (u - 1) (u^2 - 3) on (1, 2]: the excluded end 1 is a root, so the
        # inverted interval must not end at 1/1 = 1
        p = _mul(P([-1, 1]), P([-3, 0, 1]))
        inv = reciprocal(AlgebraicNumber(sturm_chain(p).polys[0], (Fraction(1), Fraction(2))))
        lo, hi = inv.interval
        assert hi < 1
        assert sturm_count(sturm_chain(inv.minpoly_factor), lo, hi) == 1
        assert lo * lo < Fraction(1, 3) < hi * hi

    @pytest.mark.parametrize(
        "p, interval, expected",
        [
            (P([-1, 1]), (Fraction(1, 2), Fraction(1)), Fraction(1)),
            (P([2, -3, 1]), (Fraction(3, 2), Fraction(2)), Fraction(1, 2)),
        ],
        ids=["u-1", "(u-1)(u-2)"],
    )
    def test_reciprocal_with_root_at_upper_end(self, p, interval, expected):
        # A root at hi is the number itself: lo clears 0 and is no root, so
        # no bisection runs, and the inverted interval (1/hi, 1/lo] would
        # leave out 1/hi.
        assert reciprocal(AlgebraicNumber(p, interval)).exact == expected

    def test_reciprocal_brackets_one(self):
        root = isolate_max_root(P([2, -6, 2]))
        inv = reciprocal(root)
        a = refine(root, Fraction(1, 10**9))
        b = refine(inv, Fraction(1, 10**9))
        prod_lo = a.interval[0] * b.interval[0]
        prod_hi = a.interval[1] * b.interval[1]
        assert prod_lo < 1 < prod_hi


    def test_qir_evaluation_count(self, monkeypatch):
        # A 12-digit surface root narrowed from 1/(2 D^2), about 2^-81, to
        # 2^-4096: bisection takes one evaluation per bit, about 4000; QIR
        # takes 24, one at each end and one or two per grid.
        root = slope(IntersectionProfile(2, (-734951204873, 285714285714, 999999999989))).max_root
        assert root.exact is None
        with monkeypatch.context() as m:
            m.setattr(polyroot, "_scaled_value", _recording(polyroot._scaled_value, 32))
            tight = refine(root, Fraction(1, 2**4096))
        lo, hi = tight.interval
        assert hi - lo <= Fraction(1, 2**4096)
        assert root.interval[0] <= lo < hi <= root.interval[1]
        assert sturm_count(sturm_chain(tight.minpoly_factor), lo, hi) == 1

    def test_qir_with_root_at_lower_end(self):
        # (u - 1) (u^2 - 3) on (1, 2]: the excluded end 1 is a root, whose
        # zero value only steers the first secant guess.
        p = sturm_chain(_mul(P([-1, 1]), P([-3, 0, 1]))).polys[0]
        tight = refine(AlgebraicNumber(p, (Fraction(1), Fraction(2))), Fraction(1, 2**300))
        lo, hi = tight.interval
        assert tight.exact is None and hi - lo <= Fraction(1, 2**300)
        assert in_interval_surd(lo, hi, Fraction(0), Fraction(1), 3)

    @pytest.mark.parametrize(
        "coeffs,root",
        [
            ([-5, 8], Fraction(5, 8)),
            ([-(2**80 + 1), 2**80], 1 + Fraction(1, 2**80)),
            ([-1, 3], None),
            ([9, -9, -1, 1], Fraction(1)),
        ],
    )
    def test_qir_grid_point_root_is_exact(self, coeffs, root):
        # A dyadic root is a grid point, which QIR evaluates and returns
        # exact; 1/3 is none and keeps a narrowed interval.  For (u - 1)
        # (u^2 - 9) the secant's guess misses 1, which is then the second
        # grid point checked.
        tight = refine(AlgebraicNumber(P(coeffs), (Fraction(0), Fraction(2))), Fraction(1, 2**100))
        if root is not None:
            assert tight.exact == root
        else:
            lo, hi = tight.interval
            assert tight.exact is None and lo < Fraction(1, 3) <= hi and hi - lo <= Fraction(1, 2**100)

    def test_qir_against_sympy(self):
        # Seeded maximal roots narrowed to 2^-200, which runs QIR: each
        # interval holds exactly one root of the square-free part, with none
        # above it.
        u = sympy.Symbol("u")
        narrowed = 0
        for p in _seeded_polynomials(4441, 300):
            if p.degree < 1 or (root := isolate_max_root(p)) is None or root.exact is not None:
                continue
            tight = refine(root, Fraction(1, 2**200))
            h = sympy.Poly(list(reversed(tight.minpoly_factor.coeffs)), u)
            if tight.exact is not None:
                assert h.eval(sympy.Rational(tight.exact.numerator, tight.exact.denominator)) == 0
                continue
            lo, hi = (sympy.Rational(x.numerator, x.denominator) for x in tight.interval)
            assert tight.interval[1] - tight.interval[0] <= Fraction(1, 2**200)
            assert h.count_roots(lo, hi) - (h.eval(lo) == 0) == 1
            assert h.eval(hi) != 0 and h.count_roots(hi, None) == 0
            narrowed += 1
        assert narrowed >= 50


class _FractionBisection:
    """Bisection on ``Fraction`` midpoints, signed in lowest terms, as the
    ``Fraction`` kernel did it; ``points`` lists every point evaluated, in
    order, with the chain counted once per point."""

    def __init__(self):
        self.points = []
        self.decided_by_check = False
        self.moved_by_clearing = False

    def sign(self, p: IntPolynomial, x: Fraction) -> int:
        self.points.append(x)
        num, den = x.numerator, x.denominator
        value = sum(c * num**k * den ** (p.degree - k) for k, c in enumerate(p.coeffs))
        return (value > 0) - (value < 0)

    def variations(self, chain, x) -> int:
        self.points.append(x)
        return self.count(chain, x)

    def count(self, chain, x) -> int:
        """Sign variations of the chain at ``x``, listing no point: at +-inf
        off the leads, elsewhere from each member's sign."""
        if x in (NEG_INF, POS_INF):
            odd_sign = -1 if x < 0 else 1
            signs = [(1 if q.coeffs[-1] > 0 else -1) * (odd_sign if q.degree % 2 else 1) for q in chain.polys]
        else:
            signs = [self.sign(q, x) for q in chain.polys]
            del self.points[-len(chain.polys):]
        signs = [s for s in signs if s]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    def bisections(self, a: AlgebraicNumber):
        p, (lo, hi) = a.minpoly_factor, a.interval
        s_hi = self.sign(p, hi)
        if s_hi == 0:
            yield AlgebraicNumber.from_rational(hi)
            return
        while True:
            mid = (lo + hi) / 2
            s = self.sign(p, mid)
            if s == 0:
                yield AlgebraicNumber.from_rational(mid)
                return
            lo, hi = (lo, mid) if s == s_hi else (mid, hi)
            yield AlgebraicNumber(p, (lo, hi))

    def refine(self, a: AlgebraicNumber, width: Fraction) -> AlgebraicNumber:
        steps = self.bisections(a)
        while a.exact is None and a.interval[1] - a.interval[0] > width:
            a = next(steps)
        return a

    def clear_lower_end(self, a: AlgebraicNumber) -> AlgebraicNumber:
        steps = self.bisections(a)
        while a.exact is None and (
            a.interval[0] <= 0 <= a.interval[1] or self.sign(a.minpoly_factor, a.interval[0]) == 0
        ):
            a = next(steps)
        return a

    def isolate_topmost(self, chain, bound: Fraction):
        """Bisect ``(-bound, bound]``, which holds every root strictly inside,
        from the counts at +-inf, which evaluate no point."""
        lo, hi = -bound, bound
        v_lo, v_hi = self.count(chain, NEG_INF), self.count(chain, POS_INF)
        if v_lo == v_hi:
            return None
        while v_lo - v_hi > 1:
            mid = (lo + hi) / 2
            v_mid = self.variations(chain, mid)
            if v_mid > v_hi:
                lo, v_lo = mid, v_mid
            else:
                hi, v_hi = mid, v_mid
        return lo, hi

    def isolate_max_root(self, p: IntPolynomial) -> AlgebraicNumber | None:
        """Reference isolation from the Fujiwara bound on the reference chain,
        reference refinement to ``1/(2 D^2)``, the ``k/D`` check, then the
        reference ``clear_lower_end``."""
        chain = SimpleNamespace(polys=_reference_chain(p))
        h = chain.polys[0]
        top = self.isolate_topmost(chain, Fraction(2) ** polyroot._fujiwara_exponent(h.coeffs))
        if top is None:
            return None
        denom = h.coeffs[-1]
        root = self.refine(AlgebraicNumber(h, top), Fraction(1, 2 * denom * denom))
        if root.exact is not None:
            return root
        lo, hi = root.interval
        k = Fraction(floor(denom * hi), denom)
        if lo < k and self.sign(h, k) == 0:
            self.decided_by_check = True
            return AlgebraicNumber.from_rational(k)
        cleared = self.clear_lower_end(root)
        self.moved_by_clearing = cleared != root
        return cleared

    def reciprocal(self, a: AlgebraicNumber) -> AlgebraicNumber:
        a = self.clear_lower_end(a)
        if a.exact is None and self.sign(a.minpoly_factor, a.interval[1]) == 0:
            a = AlgebraicNumber.from_rational(a.interval[1])
        if a.exact is not None:
            return AlgebraicNumber.from_rational(1 / a.exact)
        lo, hi = a.interval
        rev = _ref_primitive(reversed(a.minpoly_factor.coeffs), positive_lead=True)
        return AlgebraicNumber(rev, (1 / hi, 1 / lo))


class TestFractionBisectionOracle:
    """The integer-point kernel against bisection on ``Fraction`` midpoints:
    both must evaluate the same rationals in the same order, so every
    interval is equal, not merely nested."""

    @staticmethod
    def check(monkeypatch, kernel, call, reference):
        """``call()``, which must equal ``reference`` run on a fresh
        :class:`_FractionBisection` and pass ``polyroot.<kernel>`` the same
        points, failing as soon as it passes more."""
        ref = _FractionBisection()
        expected = reference(ref)
        points = []
        with monkeypatch.context() as m:
            m.setattr(polyroot, kernel, _recording(getattr(polyroot, kernel), len(ref.points), points))
            got = call()
        assert points == ref.points
        assert got == expected
        return got

    def bisection(self, monkeypatch, name, *args):
        return self.check(
            monkeypatch, "_scaled_value", lambda: getattr(polyroot, name)(*args), lambda ref: getattr(ref, name)(*args)
        )

    def test_seeded_polynomials(self, monkeypatch):
        seen = set()
        for p in _seeded_polynomials(6007, 1200):
            if p.degree < 1:
                continue
            chain = sturm_chain(p)
            h = chain.polys[0]
            self.check(
                monkeypatch,
                "_variations",
                lambda: sturm_count(chain, NEG_INF, POS_INF),
                lambda ref: ref.variations(chain, NEG_INF) - ref.variations(chain, POS_INF),
            )
            bound = cauchy_bound(h)
            top = self.check(
                monkeypatch,
                "_variations",
                lambda: _interval(polyroot._isolate_topmost(
                    [q.coeffs for q in chain.polys], -bound.numerator, bound.numerator, bound.denominator
                )),
                lambda ref: ref.isolate_topmost(chain, bound),
            )
            if top is None:
                continue
            if _FractionBisection().sign(h, top[1]) == 0:
                # A root at hi is exact as soon as bisection starts; such
                # ends come only from this raw stage.
                seen.add("root at hi")
            raw = AlgebraicNumber(h, top)
            cleared = self.bisection(monkeypatch, "clear_lower_end", raw)
            for width in (Fraction(1, 2 * h.coeffs[-1] ** 2), Fraction(1, 3**20)):
                tight = self.bisection(monkeypatch, "refine", raw, width)
                seen.add("exact" if tight.exact is not None else "inexact")
            if cleared.exact != 0:
                self.bisection(monkeypatch, "reciprocal", raw)
            seen.add((p.coeffs[-1] < 0, p.coeffs[0] == 0, raw.interval[0] < 0 < raw.interval[1]))
            seen.add("cleared" if cleared.interval != raw.interval else "kept")
        assert {"exact", "inexact", "cleared", "kept", "root at hi", (True, True, True)} <= seen

    def test_isolate_max_root_end_to_end(self, monkeypatch):
        # Isolation, narrowing, the k/D check and the clearing, against the
        # Sturm reference pipeline on the square-free part h, with the
        # Descartes counts listed where the reference evaluates the chain.
        # When the primitive part g of p is h, every root of h is real and the
        # Descartes search does not stall, each count is exact: the search
        # visits the reference's points, then the same signs of h, in order,
        # or stops at a midpoint that is the exact maximum, after a prefix of
        # them.  Otherwise an irrational maximum ends on the reference's
        # points, as the number is built again by the Sturm search on h.
        seen = set()
        for p in _seeded_polynomials(6007, 1200):
            if p.degree < 1:
                continue
            ref, points, searches = _FractionBisection(), [], []
            expected = ref.isolate_max_root(p)
            descartes = polyroot._descartes_topmost
            with monkeypatch.context() as m:
                _recording_kernels(m, 2 * len(ref.points) + 2 * polyroot._STALL_STEPS + 200, points)
                m.setattr(polyroot, "_descartes_topmost", lambda *args: searches.append(r := descartes(*args)) or r)
                root = isolate_max_root(p)
            assert root == expected, p
            h = sturm_chain(p).polys[0]
            square_free = P(polyroot._primitive(list(p.coeffs), 0)) == h
            real_rooted = sturm_count(sturm_chain(p), NEG_INF, POS_INF) == h.degree
            if square_free and real_rooted and searches[0] is not None:
                exact_at_midpoint = points != ref.points
                assert not exact_at_midpoint or (root.exact == points[-1] and points == ref.points[: len(points)]), p
                seen.add("exact at a midpoint" if exact_at_midpoint else "same points")
            else:
                seen.add("stalled" if searches[0] is None else "complex roots" if square_free else "g != h")
                if root is not None and root.exact is None:
                    assert points[-len(ref.points):] == ref.points, p
            seen.add("none" if root is None else "inexact" if root.exact is None else "exact")
            seen.add(ref.decided_by_check)
            if ref.moved_by_clearing:
                seen.add("moved by clearing")
        assert seen == {
            "none", "inexact", "exact", True, False, "moved by clearing",
            "same points", "exact at a midpoint", "stalled", "complex roots", "g != h",
        }

    def test_threshold_intervals(self, monkeypatch):
        for p in _seeded_polynomials(8009, 400):
            if p.degree < 1:
                continue
            # At most 117 kernel calls on this corpus; the bound fails a loop.
            with monkeypatch.context() as m:
                m.setattr(polyroot, "_scaled_value", _recording(polyroot._scaled_value, 2000))
                root = isolate_max_root(p)
            if root is None or compare_with_rational(root, 0) <= 0:
                continue
            inv = self.bisection(monkeypatch, "reciprocal", root)
            self.bisection(monkeypatch, "refine", inv, Fraction(1, 2**40))


class TestChiPolynomial:
    def test_examples(self):
        assert chi_polynomial(IntersectionProfile(2, (2, 3, 2))) == P([2, -6, 2])
        assert chi_polynomial(IntersectionProfile(2, (0, 1, 2))) == P([0, -2, 2])
        assert chi_polynomial(IntersectionProfile(3, (0, 0, 18, 6))) == P([0, 0, -54, 6])

    def test_polarization_power(self):
        # M = L gives top_l * (u - 1)^n
        for n, top_l in [(2, 2), (3, 6), (4, 24)]:
            p = IntersectionProfile(n, tuple([top_l] * (n + 1)))
            expected = from_roots([1] * n, lead=top_l)
            assert chi_polynomial(p) == expected

    @given(
        st.integers(1, 4),
        st.data(),
    )
    def test_linearity(self, n, data):
        ints = st.integers(-40, 40)
        v1 = [data.draw(ints) for _ in range(n)] + [data.draw(st.integers(1, 40))]
        v2 = [data.draw(ints) for _ in range(n)] + [data.draw(st.integers(1, 40))]
        p1 = IntersectionProfile(n, tuple(v1))
        p2 = IntersectionProfile(n, tuple(v2))
        psum = IntersectionProfile(n, tuple(a + b for a, b in zip(v1, v2)))
        left = chi_polynomial(psum)
        c1, c2 = chi_polynomial(p1), chi_polynomial(p2)
        width = max(len(c1.coeffs), len(c2.coeffs))
        summed = IntPolynomial.of(
            (c1.coeffs[i] if i < len(c1.coeffs) else 0)
            + (c2.coeffs[i] if i < len(c2.coeffs) else 0)
            for i in range(width)
        )
        assert left == summed


class TestFloatOracleAgreement:
    def test_thousand_random_polynomials(self):
        """Certified max roots agree with a float companion-matrix solver to 1e-9."""
        rng = SplitMix64(777)
        checked = 0
        while checked < 1000:
            degree = rng.in_range(1, 8)
            coeffs = [rng.in_range(-100, 100) for _ in range(degree)] + [0]
            while coeffs[-1] == 0:
                coeffs[-1] = rng.in_range(-100, 100)
            p = IntPolynomial.of(coeffs)
            got = isolate_max_root(p)
            np_roots = np.roots(list(reversed(p.coeffs)))
            real = sorted(r.real for r in np_roots if abs(r.imag) < 1e-7)
            if got is None:
                assert not real
            else:
                assert real
                tight = refine(got, Fraction(1, 10**12))
                assert abs(float(tight.midpoint()) - real[-1]) < 1e-9
            checked += 1
