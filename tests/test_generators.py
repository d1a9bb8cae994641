"""Tests for the seeded instance builders."""

import pytest

from nefslope.errors import AsymmetricInput, InputError
from nefslope.generators import (
    GenSpec,
    SplitMix64,
    gen_product,
    gen_random,
)
from nefslope.numdata import (
    IntersectionProfile,
    ValidationLevel,
    hodge_violation,
    profile_from_matrix,
    validate,
)
from nefslope.slope import IrrationalSlope, slope


class TestSplitMix64:
    def test_reference_stream(self):
        # first outputs for seed 1234567, per the published SplitMix64 constants
        rng = SplitMix64(1234567)
        assert rng.next_u64() == 6457827717110365317
        assert rng.next_u64() == 3203168211198807973

    def test_range_bounds(self):
        rng = SplitMix64(99)
        draws = [rng.in_range(-5, 5) for _ in range(200)]
        assert all(-5 <= d <= 5 for d in draws)
        assert len(set(draws)) > 5

    @pytest.mark.parametrize("n", [0, -1])
    def test_empty_range_rejected(self, n):
        with pytest.raises(ValueError, match="^range size must be positive$"):
            SplitMix64(1).below(n)


class TestGenProduct:
    def test_dense(self):
        m = gen_product(2, [[2, 1], [1, 2]])
        assert profile_from_matrix(m).v == (6, 4, 2)

    def test_norm_realization(self):
        m = gen_product(2, [[1, 0], [0, 0]])
        assert slope(profile_from_matrix(m)).slope_fraction == 1

    def test_swap_matrix(self):
        m = gen_product(2, [[0, 1], [1, 0]])
        profile = profile_from_matrix(m)
        assert profile.v == (-2, 0, 2)
        assert slope(profile).slope_fraction == 1

    def test_asymmetric_rejected(self):
        with pytest.raises(AsymmetricInput):
            gen_product(2, [[0, 1], [2, 0]])
        with pytest.raises(AsymmetricInput):
            gen_product(3, [[0, 1], [1, 0]])


class TestGenSurface:
    """Surface profiles ``(M^2, L.M, L^2)``, as ``gen --kind surface`` draws them."""

    def test_irrational_example(self):
        profile = IntersectionProfile(2, (2, 3, 2))
        assert hodge_violation(profile) is None
        assert isinstance(slope(profile).rationality, IrrationalSlope)

    def test_rational_example(self):
        profile = IntersectionProfile(2, (3, 5, 3))
        assert hodge_violation(profile) is None
        assert slope(profile).slope_fraction.denominator == 3

    def test_hodge_violation(self):
        report = validate(IntersectionProfile(2, (2, 1, 2)), ValidationLevel.SURFACE_HODGE)
        # On a surface the index inequality fails exactly when chi has no real root.
        assert [v.check for v in report.violations] == ["real-rooted", "hodge-index"]
        assert report.violations[1].message == "(L.M)^2 = 1 < L^2 M^2 = 4"

    def test_needs_polarization(self):
        with pytest.raises(InputError):
            IntersectionProfile(2, (0, 1, 0))
        # A negative L^2 is refused as an input error before the index inequality is read.
        with pytest.raises(InputError, match=r"^v\[2\]: must be at least 1, got -1$"):
            IntersectionProfile(2, (-5, 0, -1))

    def test_hodge_message_past_string_limit(self):
        violation = hodge_violation(IntersectionProfile(2, (10**5000, 0, 10**5000)))
        assert violation.message == "(L.M)^2 = 0 < L^2 M^2 = <33220-bit integer>"


class TestGenRandom:
    def test_deterministic(self):
        spec = GenSpec("surface", seed=1, count=25, bound=10)
        assert gen_random(spec) == gen_random(spec)

    def test_product_matrices_pass_spectral(self):
        for m in gen_random(GenSpec("product-matrix", seed=7, count=30, n=3, bound=5)):
            profile = profile_from_matrix(m)
            assert validate(profile, ValidationLevel.SPECTRAL).ok

    def test_surfaces_satisfy_index_inequality(self):
        for profile in gen_random(GenSpec("surface", seed=2, count=100, bound=10)):
            m2, lm, l2 = profile.v
            assert lm * lm >= l2 * m2
            assert validate(profile, ValidationLevel.SURFACE_HODGE).ok

    def test_distinct_seeds_differ(self):
        a = gen_random(GenSpec("surface", seed=3, count=20, bound=10))
        b = gen_random(GenSpec("surface", seed=4, count=20, bound=10))
        assert a != b

    def test_rational_matrices_are_symmetric_and_integral(self):
        for m in gen_random(GenSpec("rational-matrix", seed=8, count=30, n=4, bound=5)):
            profile = profile_from_matrix(m)
            assert validate(profile, ValidationLevel.SPECTRAL).ok

    @pytest.mark.parametrize(
        "fields,message",
        [
            ({"seed": 1.5}, "seed: expected an integer, got 1.5"),
            ({"count": 2.5}, "count: expected an integer, got 2.5"),
            ({"n": "3"}, "n: expected an integer, got '3'"),
            ({"bound": True}, "bound: expected an integer, got True"),
            ({"count": -1}, "count: must be at least 0, got -1"),
            ({"n": 0}, "n: must be at least 1, got 0"),
            ({"bound": 0}, "bound: must be at least 1, got 0"),
            ({"bound": 2**63}, "bound: must be in [1, 9223372036854775807], got 9223372036854775808"),
        ],
        ids=[
            "float-seed", "float-count", "string-n", "bool-bound", "negative-count", "zero-n", "zero-bound",
            "wide-bound",
        ],
    )
    def test_bad_field_named(self, fields, message):
        with pytest.raises(InputError) as exc:
            GenSpec(**{"kind": "surface", "seed": 1, "count": 1, **fields})
        assert str(exc.value) == message

    def test_bad_spec_rejected(self):
        with pytest.raises(InputError):
            GenSpec("mystery", seed=1, count=1)
        with pytest.raises(InputError):
            GenSpec("rational-matrix", seed=1, count=1, n=1)
