"""Tests for nefness, the threshold engine and its certificates."""

import random
from fractions import Fraction

import pytest
import sympy

from nefslope.errors import InputError, NegationIsNef, SlopeIsInfinite
from nefslope.exactio import format_rational
from nefslope.generators import GenSpec, SplitMix64, gen_product, gen_random
from nefslope.numdata import (
    IntersectionProfile,
    binary_profile,
    is_proportional,
    profile_from_matrix,
)
from nefslope import polyroot
from nefslope.polyroot import (
    AlgebraicNumber,
    IntPolynomial,
    cauchy_bound,
    chi_polynomial,
    compare_with_rational,
    isolate_max_root,
    reciprocal,
    refine,
)
from nefslope.simplicity import INFINITE, IRRATIONAL, WITNESS, scan
from nefslope.slope import (
    CandidateTrace,
    IrrationalSlope,
    RationalSlope,
    certify_rationality,
    is_nef,
    s_invariant,
    slope,
    slope_at_least,
    slope_lower_bound,
)
from oracle import in_interval_surd, surface_zeta_oracle


def surface(m2, lm, l2):
    return IntersectionProfile(2, (m2, lm, l2))


def _reference_trace(chi: IntPolynomial) -> tuple[tuple[Fraction, Fraction], ...]:
    """Every positive r/s with r | c_0 and s | c_d, zero roots stripped, as
    a descending ``Fraction`` set, with chi at it by ``Fraction`` powers."""
    coeffs = list(chi.coeffs)
    while coeffs[0] == 0:
        coeffs.pop(0)
    if len(coeffs) < 2:
        return ()
    cands = {Fraction(r, s) for r in sympy.divisors(coeffs[0]) for s in sympy.divisors(coeffs[-1])}
    return tuple((c, sum(k * c**i for i, k in enumerate(chi.coeffs))) for c in sorted(cands, reverse=True))


def profiles_from(spec: GenSpec):
    out = []
    for inst in gen_random(spec):
        out.append(inst if isinstance(inst, IntersectionProfile) else profile_from_matrix(inst))
    return out


class TestIsNef:
    def test_boundary_class(self):
        report = is_nef(surface(0, 4, 3))
        assert report.nef and not report.ample and report.witness_k is None

    def test_negative_entry(self):
        report = is_nef(surface(-1, 1, 2))
        assert not report.nef and report.witness_k == 0 and not report.ample

    def test_polarization(self):
        report = is_nef(surface(2, 2, 2))
        assert report.nef and report.ample


class TestSlope:
    def test_norm_class_unit(self):
        result = slope(surface(0, 1, 2))
        assert result.slope_fraction == 1
        assert result.max_root.exact == 1

    def test_irrational_surface(self):
        result = slope(surface(2, 3, 2))
        assert isinstance(result.rationality, IrrationalSlope)
        lo, hi = refine(result.slope, Fraction(1, 10**12)).interval
        # slope is (3 - sqrt 5) / 2
        assert in_interval_surd(lo, hi, Fraction(3, 2), Fraction(-1, 2), 5)

    def test_infinite(self):
        assert slope(surface(2, -3, 2)).infinite

    def test_norm_class_exponent_two(self):
        result = slope(surface(0, 4, 2))
        assert result.slope_fraction == Fraction(1, 4)

    def test_numerically_trivial_is_infinite(self):
        assert slope(surface(0, 0, 2)).infinite

    def test_zeta_zero_is_infinite(self):
        # chi = 2u^2 + 2u has maximal root exactly 0
        assert slope(surface(0, -1, 2)).infinite

    def test_reciprocity(self):
        result = slope(surface(2, 3, 2))
        z = result.max_root.minpoly_factor
        s = result.slope.minpoly_factor
        assert s.coeffs == tuple(reversed(z.coeffs))
        a = refine(result.max_root, Fraction(1, 10**9))
        b = refine(result.slope, Fraction(1, 10**9))
        assert a.interval[0] * b.interval[0] < 1 < a.interval[1] * b.interval[1]

    def test_scaling_law_rational(self):
        # M -> cM divides the threshold by c
        base = slope(surface(3, 5, 3)).slope_fraction
        for c in (2, 3, 7):
            scaled = surface(3 * c * c, 5 * c, 3)
            assert slope(scaled).slope_fraction == base / c

    def test_scaling_law_irrational(self):
        c = 3
        base = refine(slope(surface(2, 3, 2)).slope, Fraction(1, 10**12))
        scaled = refine(slope(surface(2 * c * c, 3 * c, 2)).slope, Fraction(1, 10**12))
        lo, hi = base.interval
        slo, shi = scaled.interval
        assert slo < hi / c and lo / c < shi  # intervals of s and s/c overlap


class TestPencilIdentity:
    """sigma(L, aL + bM) = sigma / (b + a sigma), through ``binary_profile``:
    the roots mu of chi move to a + b mu, so for b > 0 the maximal root mu
    becomes a + b mu and the threshold 1/mu becomes 1/(a + b mu)."""

    WIDTH = Fraction(1, 2**80)

    @staticmethod
    def models():
        for kind in ("product-matrix", "rational-matrix"):
            for n in range(2, 7):
                yield from gen_random(GenSpec(kind, seed=n, count=10, n=n, bound=3))
        yield gen_product(2, ((0, 0), (0, -1)))  # mu = 0: -M nef, not ample
        yield gen_product(2, ((-1, 0), (0, -2)))  # mu = -1

    def test_on_matrix_models(self):
        seen = set()
        for model in self.models():
            profile = profile_from_matrix(model)
            result = slope(profile)
            sigma = result.slope_fraction
            if result.infinite:
                mu = isolate_max_root(chi_polynomial(profile)).exact
                assert mu is not None and mu <= 0  # rational on these models
                seen.add("infinite at 0" if mu == 0 else "infinite below 0")
            elif sigma is not None:
                seen.add("rational")
            else:
                seen.add("irrational")
                lo, hi = result.refined(self.WIDTH).slope.interval
            for a in range(6):
                for b in range(1, 6):
                    image = slope(binary_profile(profile, a, b))
                    if result.infinite:
                        # mu = 0 gives 1/a, and infinite at a = 0.
                        expected = None if a + b * mu <= 0 else 1 / Fraction(a + b * mu)
                        assert image.infinite == (expected is None)
                        assert image.slope_fraction == expected
                    elif sigma is not None:
                        assert image.slope_fraction == sigma / (b + a * sigma)
                    else:
                        assert not image.infinite and image.slope_fraction is None
                        ilo, ihi = image.refined(self.WIDTH).slope.interval
                        assert ilo < hi / (b + a * hi) and lo / (b + a * lo) < ihi
        assert seen == {"rational", "irrational", "infinite at 0", "infinite below 0"}


class TestRefined:
    @pytest.mark.parametrize("width", [Fraction(1, 2**64), Fraction(1, 4), Fraction(10)])
    def test_one_refinement_bounds_both_intervals(self, width):
        # chi = u^2 + 10u - 1: max root 5 - sqrt 26 ~ 0.099, below 1/(2 D^2) = 1/2
        small = surface(-1, -5, 1)
        assert slope(small).max_root.interval[0] < Fraction(1, 2)
        profiles = [small]
        for spec in (
            GenSpec("surface", seed=41, count=60, bound=10),
            GenSpec("product-matrix", seed=42, count=20, n=3, bound=4),
            GenSpec("rational-matrix", seed=43, count=20, n=3, bound=5),
        ):
            profiles += profiles_from(spec)
        irrational = 0
        for profile in profiles:
            result = slope(profile)
            if result.infinite or result.max_root.exact is not None:
                continue
            irrational += 1
            tight = result.refined(width)
            zlo, zhi = tight.max_root.interval
            slo, shi = tight.slope.interval
            assert zhi - zlo <= width and shi - slo <= width
            assert (slo, shi) == (1 / zhi, 1 / zlo)
            assert zlo > 0
        assert irrational > 20


class TestCertify:
    def test_rational_with_divisors(self):
        cert = certify_rationality(surface(3, 5, 3))
        assert (cert.p, cert.q) == (1, 3)
        assert 3 % cert.p == 0 and 3 % cert.q == 0
        winners = [c for c, val in cert.trace.candidates if val == 0]
        assert Fraction(3) in winners

    def test_irrational_trace(self):
        cert = certify_rationality(surface(2, 3, 2))
        assert isinstance(cert, IrrationalSlope)
        cands = dict(cert.trace.candidates)
        assert set(cands) == {Fraction(2), Fraction(1), Fraction(1, 2)}
        assert cands[Fraction(2)] == -2
        assert cands[Fraction(1)] == -2
        assert cands[Fraction(1, 2)] == Fraction(-1, 2)
        assert all(v != 0 for v in cands.values())

    def test_trace_is_the_positive_candidates(self):
        profiles = (
            profiles_from(GenSpec("product-matrix", seed=14, count=30, n=4, bound=6))
            + profiles_from(GenSpec("surface", seed=15, count=60, bound=10**6))
            + [surface(0, 3, 2)]
        )
        for profile in profiles:
            chi = chi_polynomial(profile)
            assert CandidateTrace(chi).candidates == _reference_trace(chi)

    def test_json_is_the_reference_trace(self):
        rng = SplitMix64(3301)
        polys = [chi_polynomial(surface(0, 3, 2)), chi_polynomial(surface(3, 5, 3))]
        for _ in range(150):
            # degrees 1..6, up to two zero roots, leads of either sign
            coeffs = [rng.in_range(-10**3, 10**3) for _ in range(rng.in_range(2, 7))]
            coeffs[0] = rng.in_range(1, 10 ** rng.in_range(1, 8)) * (-1 if rng.below(2) else 1)
            coeffs[-1] = rng.in_range(1, 10 ** rng.in_range(1, 4)) * (-1 if rng.below(2) else 1)
            polys.append(IntPolynomial.of([0] * rng.below(3) + coeffs))
        for spec in (
            GenSpec("product-matrix", seed=16, count=10, n=5, bound=10),
            GenSpec("surface", seed=17, count=6, bound=10**11 - 1),
            GenSpec("surface", seed=18, count=8, bound=10**12 - 1),
        ):
            polys += [chi_polynomial(profile) for profile in profiles_from(spec)]
        seen = set()
        for chi in polys:
            reference = _reference_trace(chi)
            expected = [{"candidate": format_rational(c), "value": format_rational(v)} for c, v in reference]
            assert CandidateTrace(chi).to_json() == expected, chi
            seen.add((chi.coeffs[0] == 0, chi.coeffs[-1] < 0, any(v == 0 for _, v in reference)))
            seen.add(max(len(str(abs(c))) for c in chi.coeffs) >= 11)
        # zero roots, negative leads, zero values (rational roots, such as the
        # maximal root 3 of surface(3, 5, 3)) and 11-12 digits all occur
        assert {(True, False, False), (False, True, False), (False, False, True), True} <= seen

    def test_unprovable_prime_refuses_only_the_trace(self):
        # M^2 = 10^25 + 13 is a prime that Miller-Rabin cannot prove: reading
        # the trace raises, while the threshold and a scan are unaffected.
        profile = surface(10**25 + 13, 10**13, 2)
        result = slope(profile)
        assert not result.infinite and isinstance(result.rationality, IrrationalSlope)
        assert 0 < result.slope.interval[0] < result.slope.interval[1] < Fraction(1, 10**12)
        with pytest.raises(InputError, match="3317044064679887385961981"):
            result.rationality.trace.rows
        assert [e.verdict for e in scan([("prime", profile)]).entries] == [IRRATIONAL]

    def test_rho_budget_refuses_only_the_trace(self):
        # M^2 is a product of two 15-digit primes, past the squaring budget
        # of rho: reading the trace raises, while the threshold and a scan
        # are unaffected.
        profile = surface(11000000000010510000000002201, 10**16, 2)
        result = slope(profile)
        assert not result.infinite and isinstance(result.rationality, IrrationalSlope)
        with pytest.raises(InputError, match="cofactor of 94 bits within 2097152 squarings"):
            result.rationality.trace.rows
        assert [e.verdict for e in scan([("two primes", profile)]).entries] == [IRRATIONAL]

    def test_proportional_pair(self):
        cert = certify_rationality(surface(8, 4, 2))
        assert (cert.p, cert.q) == (1, 2)

    def test_infinite_raises(self):
        with pytest.raises(SlopeIsInfinite):
            certify_rationality(surface(2, -3, 2))

    def test_divisibility_on_random_instances(self):
        for spec in (
            GenSpec("surface", seed=11, count=150, bound=10),
            GenSpec("product-matrix", seed=12, count=80, n=3, bound=5),
            GenSpec("rational-matrix", seed=13, count=80, n=3, bound=6),
        ):
            for profile in profiles_from(spec):
                result = slope(profile)
                if result.infinite or not isinstance(result.rationality, RationalSlope):
                    continue
                top_l = profile.v[profile.n]
                top_m = profile.v[0]
                assert top_l % result.rationality.p == 0
                assert top_m % result.rationality.q == 0


class TestCertificateWhenRead:
    def test_scan_builds_no_certificate(self, monkeypatch):
        def refuse(self, *values):
            raise AssertionError("scan built a candidate trace")

        monkeypatch.setattr(CandidateTrace, "__init__", refuse)
        instances = [("norm", surface(0, 1, 2)), ("generic", surface(2, 3, 2)), ("negative", surface(2, -3, 2))]
        result = scan(instances)
        assert [e.verdict for e in result.entries] == [WITNESS, IRRATIONAL, INFINITE]
        assert result.entries[0].slope_fraction == 1

    @pytest.mark.parametrize("kind,n", [("surface", 2), ("rational-matrix", 3), ("product-matrix", 4)])
    def test_rationality_is_cached_and_survives_refinement(self, kind, n):
        for profile in profiles_from(GenSpec(kind, seed=11, count=8, n=n, bound=6)):
            result = slope(profile)
            cert = result.rationality
            assert result.rationality is cert and vars(result)["rationality"] is cert
            if result.infinite:
                assert cert is None and result.slope_fraction is None
                continue
            assert cert == result.refined(Fraction(1, 2**64)).rationality
            assert isinstance(cert, RationalSlope) == (result.slope_fraction is not None)
            if isinstance(cert, RationalSlope):
                assert Fraction(cert.p, cert.q) == result.slope_fraction
            else:
                assert isinstance(cert, IrrationalSlope)

    def test_divisor_check_gets_the_threshold(self, monkeypatch):
        seen = []
        monkeypatch.setitem(slope.__globals__, "_check_divisibility", lambda p, q, profile: seen.append(Fraction(p, q)))
        results = [slope(p) for p in profiles_from(GenSpec("rational-matrix", seed=11, count=8, n=3, bound=6))]
        assert seen and seen == [r.slope_fraction for r in results if r.slope_fraction is not None]


    def test_scan_builds_no_square_free_part(self, monkeypatch):
        # scan reads the decision alone: no PRS runs and no algebraic number
        # is built, for surfaces and for matrix models.
        def refuse(*args):
            raise AssertionError("scan built a square-free part or an algebraic number")

        monkeypatch.setattr(polyroot, "_prs", refuse)
        monkeypatch.setattr(AlgebraicNumber, "__init__", refuse)
        for instances in (
            [("norm", surface(0, 1, 2)), ("generic", surface(2, 3, 2)), ("negative", surface(2, -3, 2))],
            *[list(enumerate(profiles_from(GenSpec(kind, seed=11, count=8, n=4))))
              for kind in ("rational-matrix", "product-matrix")],
        ):
            entries = scan([(str(label), profile) for label, profile in instances]).entries
            assert {e.verdict for e in entries} <= {WITNESS, IRRATIONAL, INFINITE}

    def test_threshold_interval_needs_no_evaluation(self, monkeypatch):
        # The maximal root keeps clear of 0 with neither end a root, as
        # isolation and refine leave it, so reading the threshold inverts it
        # with no sign evaluated, and gives what the guarded reciprocal gives.
        result = slope(IntersectionProfile(2, (2, 3, 2)))
        calls, scaled_value = [], polyroot._scaled_value
        with monkeypatch.context() as m:
            m.setattr(polyroot, "_scaled_value", lambda p, a, b: calls.append(Fraction(a, b)) or scaled_value(p, a, b))
            threshold = result.slope
        assert calls == [] and threshold == reciprocal(result.max_root)
        for kind, n in (("surface", 2), ("rational-matrix", 3), ("product-matrix", 4)):
            for profile in profiles_from(GenSpec(kind, seed=11, count=8, n=n, bound=6)):
                result = slope(profile)
                for shown in (result, result.refined(Fraction(1, 2**64))):
                    if not shown.infinite:
                        assert shown.slope.to_json() == reciprocal(shown.max_root).to_json()


class TestLowerBound:
    def test_surface_examples(self):
        assert slope_lower_bound(surface(2, 3, 2)) == Fraction(1, 4)
        assert slope_lower_bound(surface(0, 4, 2)) == Fraction(1, 5)
        assert slope_lower_bound(IntersectionProfile(3, (0, 0, 18, 6))) == Fraction(1, 10)

    def test_negation_nef_rejected(self):
        with pytest.raises(NegationIsNef):
            slope_lower_bound(surface(2, -3, 2))

    def test_bound_holds_on_random_instances(self):
        checked = 0
        for profile in profiles_from(GenSpec("surface", seed=21, count=400, bound=10)):
            try:
                bound = slope_lower_bound(profile)
            except NegationIsNef:
                continue
            assert slope_at_least(slope(profile), bound)
            checked += 1
        assert checked > 100


def _fraction_is_proportional(p):
    """``is_proportional`` by ``Fraction`` powers: ``v[k] = t^(n-k) v[n]`` for every k."""
    t = Fraction(p.v[p.n - 1], p.v[p.n])
    return t if all(p.v[k] == t ** (p.n - k) * p.v[p.n] for k in range(p.n + 1)) else None


def _negated_profile_lower_bound(p):
    """``slope_lower_bound`` by the nefness test on the profile of ``-M``."""
    if is_nef(binary_profile(p, 0, -1)).nef:
        raise NegationIsNef("-M is nef")
    return 1 / cauchy_bound(chi_polynomial(p))


class TestAgainstProfileFormulas:
    """``is_proportional`` and ``slope_lower_bound`` read integer signs and
    products; the formulas they replace built ``Fraction`` powers and the
    profile of ``-M``.  Both must agree on every seeded profile."""

    @staticmethod
    def profiles():
        rng = random.Random(23)
        out = {"proportional": [], "negation-nef": [], "other": []}
        for _ in range(300):
            n = rng.randint(1, 8)
            # M = (a/b) L with L^n = c b^n: v[k] = a^(n-k) b^k c.
            a, b, c = rng.randint(-9, 9), rng.randint(1, 9), rng.randint(1, 5)
            v = [a ** (n - k) * b**k * c for k in range(n + 1)]
            out["proportional"].append(IntersectionProfile(n, tuple(v)))
            # One entry off by one: a near miss.
            k = rng.randrange(n - 1) if n > 1 else 0
            near = v[:k] + [v[k] + rng.choice((-1, 1))] + v[k + 1:]
            out["other"].append(IntersectionProfile(n, tuple(near)))
            # -M nef: (-1)^(n-k) v[k] >= 0, zeros included; then one sign flipped.
            signed = [(-1) ** (n - k) * rng.randint(0, 9) for k in range(n)] + [rng.randint(1, 9)]
            out["negation-nef"].append(IntersectionProfile(n, tuple(signed)))
            k = rng.randrange(n)
            flipped = signed[:k] + [-signed[k] or (-1) ** (n - k + 1)] + signed[k + 1:]
            out["other"].append(IntersectionProfile(n, tuple(flipped)))
            drawn = [rng.randint(-9, 9) for _ in range(n)] + [rng.randint(1, 9)]
            out["other"].append(IntersectionProfile(n, tuple(drawn)))
        return out

    def test_is_proportional(self):
        found = {}
        for kind, group in self.profiles().items():
            found[kind] = 0
            for p in group:
                t, expected = is_proportional(p), _fraction_is_proportional(p)
                assert t == expected and type(t) is type(expected), p
                found[kind] += t is not None
        assert found["proportional"] == 300 and found["other"] < 200

    def test_slope_lower_bound(self):
        raised = {}
        for kind, group in self.profiles().items():
            raised[kind] = 0
            for p in group:
                try:
                    expected = _negated_profile_lower_bound(p)
                except NegationIsNef:
                    with pytest.raises(NegationIsNef, match="^-M is nef, the threshold is infinite"):
                        slope_lower_bound(p)
                    raised[kind] += 1
                    continue
                assert slope_lower_bound(p) == expected, p
        assert raised["negation-nef"] == 300 and raised["other"] < 300


class TestThresholdBoundary:
    def test_nef_below_not_nef_above(self):
        for profile in (surface(3, 5, 3), surface(0, 4, 2), surface(8, 4, 2)):
            value = slope(profile).slope_fraction
            below = value - Fraction(1, 1000)
            above = value + Fraction(1, 1000)
            cleared_below = binary_profile(profile, below.denominator, -below.numerator)
            cleared_above = binary_profile(profile, above.denominator, -above.numerator)
            assert is_nef(cleared_below).nef
            assert not is_nef(cleared_above).nef

    def test_exact_boundary_class_is_nef_not_ample(self):
        value = slope(surface(3, 5, 3)).slope_fraction
        cleared = binary_profile(surface(3, 5, 3), value.denominator, -value.numerator)
        report = is_nef(cleared)
        assert report.nef and not report.ample


class TestInfiniteIffNegationNef:
    def test_cross_check_on_generated_instances(self):
        for spec in (
            GenSpec("surface", seed=31, count=200, bound=8),
            GenSpec("product-matrix", seed=32, count=100, n=3, bound=4),
        ):
            for profile in profiles_from(spec):
                negated = binary_profile(profile, 0, -1)
                assert slope(profile).infinite == is_nef(negated).nef


class TestSurfaceOracle:
    def test_small_exhaustive_equivalence(self):
        for l2 in range(1, 6):
            for lm in range(-6, 7):
                for m2 in range(-6, 7):
                    if lm * lm < l2 * m2:
                        continue
                    profile = surface(m2, lm, l2)
                    kind, value, positive = surface_zeta_oracle(l2, lm, m2)
                    result = slope(profile)
                    if not positive:
                        assert result.infinite
                    elif kind == "rational":
                        assert result.slope_fraction == 1 / value
                    else:
                        assert isinstance(result.rationality, IrrationalSlope)
                        tight = refine(result.max_root, Fraction(1, 10**12))
                        assert abs(float(tight.midpoint()) - value) < 1e-9


class TestSInvariant:
    def test_irrational(self):
        s = s_invariant(surface(2, 3, 2))
        assert s.exact is None
        lo, hi = refine(s, Fraction(1, 10**9)).interval
        assert in_interval_surd(lo, hi, Fraction(3, 2), Fraction(1, 2), 5)

    def test_norm_class(self):
        assert s_invariant(surface(0, 1, 2)).exact == 1

    def test_rational(self):
        assert s_invariant(surface(3, 5, 3)).exact == 3

    def test_infinite_marker(self):
        assert s_invariant(surface(2, -3, 2)) is None


class TestSlopeComparisons:
    def test_slope_at_least_exact(self):
        result = slope(surface(2, 3, 2))
        assert slope_at_least(result, Fraction(1, 4))
        assert slope_at_least(result, Fraction(38, 100))
        assert not slope_at_least(result, Fraction(39, 100))

    def test_slope_at_least_infinite(self):
        # An infinite threshold is at least every bound.
        result = slope(surface(2, -3, 2))
        assert result.infinite
        assert slope_at_least(result, Fraction(10**30))

    def test_zeta_sign_certificate(self):
        result = slope(surface(2, 3, 2))
        assert compare_with_rational(result.max_root, 0) == 1
