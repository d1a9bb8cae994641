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
from nefslope.numdata import IntersectionProfile, ValidationLevel, profile_from_matrix, validate
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
    """Patch both sign kernels to list their points in ``points`` as
    :func:`_recording` does: each chain evaluation (``_variations``) once,
    not once per member, and each other sign (``_scaled_value``)."""
    variations, scaled_value, in_chain = polyroot._variations, polyroot._scaled_value, []

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
        # Both ends' variation counts are carried along, and those of the
        # starting interval are read off the leads, with no evaluation.
        monkeypatch.setattr(polyroot, "_variations", _recording(polyroot._variations, limit))
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
        reference refinement to ``1/(2 D^2)``, then the ``k/D`` check."""
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
        return root

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
        # Isolation, narrowing and the k/D check, against the reference
        # pipeline: the same chain points, then the same signs of h, in order.
        seen = set()
        for p in _seeded_polynomials(6007, 1200):
            if p.degree < 1:
                continue
            ref, points = _FractionBisection(), []
            expected = ref.isolate_max_root(p)
            with monkeypatch.context() as m:
                _recording_kernels(m, len(ref.points), points)
                root = isolate_max_root(p)
            assert points == ref.points, p
            assert root == expected, p
            seen.add("none" if root is None else "inexact" if root.exact is None else "exact")
            seen.add(ref.decided_by_check)
        assert seen == {"none", "inexact", "exact", True, False}

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
