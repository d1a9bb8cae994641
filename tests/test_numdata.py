"""Tests for profiles, the matrix model and validation levels."""

import hashlib
import json
from fractions import Fraction
from itertools import product
from math import comb, factorial, gcd, lcm

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from nefslope import numdata, polyroot
from nefslope.cli import main
from nefslope.errors import InputError, NonIntegralProfile
from nefslope.generators import GenSpec, SplitMix64, gen_product, gen_random
from nefslope.numdata import (
    IntersectionProfile,
    SymMatrixModel,
    ValidationLevel,
    binary_profile,
    charpoly,
    is_proportional,
    profile_from_matrix,
    validate,
)
from nefslope.polyroot import IntPolynomial, chi_polynomial
from nefslope.simplicity import NormClassSpec, norm_class
from nefslope.slope import is_nef


def frac_rows(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def sympy_charpoly(rows) -> tuple[Fraction, ...]:
    """Ascending coefficients of ``det(u I - F)`` by sympy."""
    n = len(rows)
    matrix = sympy.Matrix(n, n, [sympy.Rational(x.numerator, x.denominator) for row in rows for x in row])
    return tuple(Fraction(int(c.p), int(c.q)) for c in matrix.charpoly().all_coeffs()[::-1])


def random_symmetric(rng: SplitMix64, n: int, bound: int) -> list[list[int]]:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.in_range(-bound, bound)
    return rows


class TestProfileFromMatrix:
    def test_norm_class_profile(self):
        m = SymMatrixModel(2, frac_rows([[1, 0], [0, 0]]), 2)
        assert profile_from_matrix(m).v == (0, 1, 2)

    def test_trivial_bundle(self):
        m = SymMatrixModel(2, frac_rows([[0, 0], [0, 0]]), 2)
        assert profile_from_matrix(m).v == (0, 0, 2)

    def test_dense_matrix(self):
        m = SymMatrixModel(2, frac_rows([[2, 1], [1, 2]]), 2)
        assert profile_from_matrix(m).v == (6, 4, 2)

    def test_non_integral_is_an_error(self):
        m = SymMatrixModel(1, frac_rows([[Fraction(1, 2)]]), 1)
        with pytest.raises(NonIntegralProfile):
            profile_from_matrix(m)

    def test_non_integral_message_names_denominator_bits(self):
        m = SymMatrixModel(2, frac_rows([[Fraction(1, 3), 0], [0, 1]]), 1)
        with pytest.raises(NonIntegralProfile) as exc:
            profile_from_matrix(m)
        assert str(exc.value) == "entry k=0 is not an integer: its denominator has 2 bits (L^n = 1)"

    def test_asymmetric_rejected(self):
        with pytest.raises(InputError):
            SymMatrixModel(2, frac_rows([[0, 1], [0, 0]]), 2)

    @pytest.mark.parametrize(
        "args,message",
        [
            ((-(10**5000), (), 1), "n: must be at least 1, got <16610-bit integer>"),
            ((1, ((0,),), -(10**5000)), "L^n: must be at least 1, got <16610-bit integer>"),
            ((1, ((0,),), Fraction(10**5000, 3)), "L^n: expected an integer, got Fraction(<16610-bit integer>, 3)"),
            ((10**5000, ((0,),), 1), "F: expected a <16610-bit integer>x<16610-bit integer> matrix"),
            # repr of a container fails past the limit too: the message names its type.
            ((1, (([10**5000],),), 1), "F[0][0]: expected an integer or a Fraction, got <list>"),
        ],
        ids=["huge-negative-n", "huge-negative-top", "huge-fraction-top", "huge-n", "huge-in-list-entry"],
    )
    def test_message_past_string_limit(self, args, message):
        with pytest.raises(InputError) as exc:
            SymMatrixModel(*args)
        assert str(exc.value) == message

    def test_chi_identity_on_random_integer_matrices(self):
        rng = SplitMix64(42)
        for index in range(122):
            n = rng.in_range(1, 5) if index < 120 else 16
            m = gen_product(n, random_symmetric(rng, n, 6))
            profile = profile_from_matrix(m)
            cp = charpoly(m.entries)
            expected = IntPolynomial.of(m.top_l * c for c in cp)
            assert chi_polynomial(profile) == expected

    def test_scalar_matrix_is_proportional(self):
        for t in (0, 1, 3, -2):
            m = gen_product(3, [[t if i == j else 0 for j in range(3)] for i in range(3)])
            assert is_proportional(profile_from_matrix(m)) == t

    def test_scalar_rational_matrix_with_scaled_polarization(self):
        t = Fraction(2, 3)
        n = 2
        m = SymMatrixModel(n, frac_rows([[t, 0], [0, t]]), factorial(n) * 3**n)
        assert is_proportional(profile_from_matrix(m)) == t

    def test_json_round_trip(self):
        m = SymMatrixModel(2, frac_rows([[Fraction(1, 2), 3], [3, -1]]), 18)
        again = SymMatrixModel.from_json(m.to_json())
        assert again == m
        assert m.to_json()["F"] == [["1/2", "3"], ["3", "-1"]]


class TestCharpoly:
    def test_diagonal(self):
        cp = charpoly(frac_rows([[1, 0], [0, 0]]))
        assert cp == (Fraction(0), Fraction(-1), Fraction(1))

    def test_known_two_by_two(self):
        cp = charpoly(frac_rows([[2, 1], [1, 2]]))
        assert cp == (Fraction(3), Fraction(-4), Fraction(1))

    def test_empty_matrix(self):
        assert charpoly(()) == (Fraction(1),)

    def test_ragged_rejected(self):
        # The inner products stop at the shorter row, so the matrix reader checks the shape first.
        for rows in ([[1, 2], [2]], [[1], [2, 3]], [[1, 2], [3, 4, 5]]):
            with pytest.raises(InputError, match=r"^F: expected a 2x2 matrix$"):
                charpoly(frac_rows(rows))

    @pytest.mark.parametrize(
        "build,rows,message",
        [
            pytest.param(build, rows, message, id=prefix + kind)
            for build, prefix in ((charpoly, ""), (lambda rows: SymMatrixModel(len(rows), rows, 1), "model-"))
            for kind, rows, message in [
                ("float", [[0.5]], "F[0][0]: expected an integer or a Fraction, got 0.5"),
                ("string", [["1"]], "F[0][0]: expected an integer or a Fraction, got '1'"),
                ("bool", [[1, 0], [0, True]], "F[1][1]: expected an integer or a Fraction, got True"),
            ]
        ],
    )
    def test_non_rational_entry_rejected(self, build, rows, message):
        # charpoly and the matrix model accept the same entries, with the same message.
        with pytest.raises(InputError) as exc:
            build(rows)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "build,value,message",
        [
            pytest.param(build, value, message, id=prefix + kind)
            for build, prefix in ((charpoly, ""), (lambda f: SymMatrixModel(1, f, 1), "model-"))
            for kind, value, message in [
                ("int-matrix", 5, "F: expected a sequence of rows, got 5"),
                ("none-matrix", None, "F: expected a sequence of rows, got None"),
                ("int-row", [5], "F[0]: expected a sequence of entries, got 5"),
            ]
        ],
    )
    def test_non_sequence_rejected(self, build, value, message):
        # A matrix or row that is not a sequence is named, as a bad entry is.
        with pytest.raises(InputError) as exc:
            build(value)
        assert str(exc.value) == message

    def test_int_and_fraction_entries(self):
        assert charpoly([[2, Fraction(1, 2)], [Fraction(1, 2), 2]]) == (Fraction(15, 4), Fraction(-4), Fraction(1))

    def test_against_sympy(self):
        # Symmetric and general rational matrices, n = 0..10, denominators up to 12
        rng = SplitMix64(2024)
        for index in range(200):
            n = index % 11
            rows = [
                [Fraction(rng.in_range(-20, 20), rng.in_range(1, 12)) for _ in range(n)] for _ in range(n)
            ]
            if index % 2:
                rows = [[rows[max(i, j)][min(i, j)] for j in range(n)] for i in range(n)]
            assert charpoly(frac_rows(rows)) == sympy_charpoly(rows)

    def test_against_sympy_past_ten(self):
        # n = 11..16, general and symmetric, numerators up to 2^64, denominators up
        # to 12, zero leading blocks of 0, 3 and 10 rows and columns; symmetric
        # n = 17..20 with the same numerators; and 1 x 1 matrices.
        rng = SplitMix64(2718)
        cases = [[[Fraction(x)]] for x in (0, -7, 2**64)]
        shapes = [
            *product((0, 3, 10), (20, 2**64), (False, True), range(11, 17)),
            *product((0,), (20, 2**64), (True,), range(17, 21)),
        ]
        for zeros, bound, symmetric, n in shapes:
            rows = [
                [Fraction(rng.in_range(-bound, bound), rng.in_range(1, 12)) if min(i, j) >= zeros else Fraction(0)
                 for j in range(n)]
                for i in range(n)
            ]
            if symmetric:
                rows = [[rows[max(i, j)][min(i, j)] for j in range(n)] for i in range(n)]
            cases.append(rows)
        for rows in cases:
            assert charpoly(frac_rows(rows)) == sympy_charpoly(rows)

    @staticmethod
    def _moved_entries(rng, n):
        """A seeded symmetric n x n matrix, then for every i > j a copy with F[i][j] moved."""
        base = [[Fraction(rng.in_range(-20, 20), rng.in_range(1, 4)) for _ in range(n)] for _ in range(n)]
        base = [[base[max(i, j)][min(i, j)] for j in range(n)] for i in range(n)]
        for i in range(1, n):
            for j in range(i):
                rows = [row[:] for row in base]
                rows[i][j] += Fraction(rng.in_range(1, 9), rng.in_range(1, 4)) * (-1) ** rng.below(2)
                yield i, j, base, rows

    def test_symmetric_but_for_one_entry(self):
        # Moving F[i][j], i > j, leaves the leading block symmetric only up to
        # row i - 1, so the kernel's symmetric shortcut must stop at row i.
        rng = SplitMix64(3571)
        for n in range(2, 13):
            for i, j, _, rows in self._moved_entries(rng, n):
                assert charpoly(frac_rows(rows)) == sympy_charpoly(rows), (n, i, j)

    def test_products_per_step(self, monkeypatch):
        # Counts the multiplications of the kernel: a matrix-vector product at
        # step r is r^2 of them.  Moving F[i][j], i > j, of a symmetric matrix
        # takes each step r >= i from ceil((r - 1) / 2) products to r - 1, and
        # changes no other count.
        count = 0

        def counted(x, y):
            nonlocal count
            count += 1
            return x * y

        def multiplications(rows):
            nonlocal count
            count = 0
            charpoly(frac_rows(rows))
            return count

        monkeypatch.setattr(numdata, "mul", counted)
        n = 12
        for i, j, base, rows in self._moved_entries(SplitMix64(6007), n):
            extra = sum((r - 1 - r // 2) * r * r for r in range(i, n))
            assert multiplications(rows) - multiplications(base) == extra, (i, j)


class TestIsProportional:
    def test_double(self):
        assert is_proportional(IntersectionProfile(2, (8, 4, 2))) == 2

    def test_not_proportional(self):
        assert is_proportional(IntersectionProfile(2, (2, 3, 2))) is None

    def test_numerically_trivial(self):
        assert is_proportional(IntersectionProfile(2, (0, 0, 2))) == 0

    def test_fractional_ratio(self):
        # M = (1/2) L against L^2 = 4
        assert is_proportional(IntersectionProfile(2, (1, 2, 4))) == Fraction(1, 2)


class TestValidate:
    def test_spectral_ok(self):
        # chi = 2 u^2 - 6 u + 2, and chi = (u - 1)^2 with a repeated real root
        for profile in (IntersectionProfile(2, (2, 3, 2)), IntersectionProfile(2, (1, 1, 1))):
            assert validate(profile, ValidationLevel.SPECTRAL).ok

    def test_hodge_violation(self):
        report = validate(IntersectionProfile(2, (2, 1, 2)), ValidationLevel.SURFACE_HODGE)
        assert not report.ok
        hodge = next(v for v in report.violations if v.check == "hodge-index")
        assert hodge.message == "(L.M)^2 = 1 < L^2 M^2 = 4"

    @pytest.mark.parametrize(
        "args,message",
        [
            ((2, (Fraction(10**5000, 3), 1, 1)), "v[0]: expected an integer, got Fraction(<16610-bit integer>, 3)"),
            ((-(10**5000), (1,)), "n: must be at least 1, got <16610-bit integer>"),
            ((10**5000, (1,)), "v: expected n + 1 = <16610-bit integer> entries, got 1"),
            ((2, (1, 1, -(10**5000))), "v[2]: must be at least 1, got <16610-bit integer>"),
        ],
        ids=["huge-fraction-entry", "huge-negative-n", "huge-n", "huge-negative-top"],
    )
    def test_syntactic_message_past_string_limit(self, args, message):
        with pytest.raises(InputError) as exc:
            IntersectionProfile(*args)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "args,message",
        [
            ((2, (0, 1, -2)), "v[2]: must be at least 1, got -2"),
            ((2, (0, 1, 0)), "v[2]: must be at least 1, got 0"),
            ((2, (Fraction(1, 3), 1.5, 1)), "v[0]: expected an integer, got Fraction(1, 3)"),
            ((2, (0, 1.5, 1)), "v[1]: expected an integer, got 1.5"),
            ((2, (0, 1, True)), "v[2]: expected an integer, got True"),
            (("2", (1,)), "n: expected an integer, got '2'"),
            ((0, (1,)), "n: must be at least 1, got 0"),
            ((2, (1, 2)), "v: expected n + 1 = 3 entries, got 2"),
            ((2, None), "v: expected a sequence of integers, got None"),
        ],
        ids=[
            "negative-top",
            "zero-top",
            "fraction-entry",
            "float-entry",
            "bool-entry",
            "string-n",
            "zero-n",
            "wrong-length",
            "none-v",
        ],
    )
    def test_construction_checks_type_invariants(self, args, message):
        # The type invariants are checked once, when a profile is built, and the
        # error names the field; huge values are named by bit length (above).
        with pytest.raises(InputError) as exc:
            IntersectionProfile(*args)
        assert str(exc.value) == message

    def test_spectral_flags_complex_spectrum(self):
        # chi = 2 u^2 - 2 u + 2 has no real roots; chi = 3 (u^2 + 1)^2 has a
        # repeated complex pair
        for profile in (IntersectionProfile(2, (2, 1, 2)), IntersectionProfile(4, (3, 0, 1, 0, 3))):
            report = validate(profile, ValidationLevel.SPECTRAL)
            assert not report.ok
            assert report.violations[0].check == "real-rooted"

    def test_hodge_requires_surface(self):
        report = validate(IntersectionProfile(3, (0, 0, 18, 6)), ValidationLevel.SURFACE_HODGE)
        assert not report.ok
        assert report.violations[0].check == "hodge-index"

    def test_spectral_accepts_every_matrix_profile(self):
        rng = SplitMix64(9)
        for _ in range(60):
            n = rng.in_range(1, 4)
            profile = profile_from_matrix(gen_product(n, random_symmetric(rng, n, 5)))
            assert validate(profile, ValidationLevel.SPECTRAL).ok


class TestBinaryProfile:
    def test_boundary_class(self):
        p = IntersectionProfile(2, (3, 5, 3))
        assert binary_profile(p, 3, -1).v == (0, 4, 3)

    def test_polarization_only(self):
        p = IntersectionProfile(2, (3, 5, 3))
        assert binary_profile(p, 1, 0).v == (3, 3, 3)

    def test_identity(self):
        p = IntersectionProfile(3, (0, 0, 18, 6))
        assert binary_profile(p, 0, 1) == p

    def test_polarization_profile_is_nef(self):
        rng = SplitMix64(100)
        for _ in range(50):
            n = rng.in_range(1, 4)
            v = [rng.in_range(-20, 20) for _ in range(n)] + [rng.in_range(1, 20)]
            report = is_nef(binary_profile(IntersectionProfile(n, tuple(v)), 1, 0))
            assert report.nef and report.ample

    @given(
        st.integers(1, 4),
        st.integers(-5, 5),
        st.integers(-5, 5),
        st.data(),
    )
    def test_chi_of_combination_is_a_substitution(self, n, a, b, data):
        # chi of aL + bM equals b^n chi((u - a) / b) for b != 0, (u - a)^n L^n
        # otherwise; evaluating at sample points checks every profile entry.
        v = [data.draw(st.integers(-30, 30)) for _ in range(n)] + [data.draw(st.integers(1, 30))]
        p = IntersectionProfile(n, tuple(v))
        chi_pair = chi_polynomial(p)
        chi_comb = chi_polynomial(binary_profile(p, a, b))
        for u in (Fraction(0), Fraction(1), Fraction(-2), Fraction(5, 3), Fraction(7)):
            if b != 0:
                assert chi_comb(u) == Fraction(b) ** n * chi_pair(Fraction(u - a, b))
            else:
                assert chi_comb(u) == (u - a) ** n * v[n]

    @given(st.integers(1, 6), st.integers(-(10**6), 10**6), st.integers(-(10**6), 10**6), st.data())
    def test_combination_keeps_top_entry(self, n, a, b, data):
        # Every combination aL + bM, boundary and negated classes included, has
        # B^0 . L^n = L^n > 0 again, so it is a valid profile without a check.
        v = [data.draw(st.integers(-(10**6), 10**6)) for _ in range(n)] + [data.draw(st.integers(1, 10**6))]
        p = IntersectionProfile(n, tuple(v))
        assert binary_profile(p, a, b).v[n] == p.v[n]

    def test_profile_json_round_trip(self):
        p = IntersectionProfile(2, (2, 3, 2))
        assert IntersectionProfile.from_json(p.to_json()) == p
        assert p.to_json() == {"n": 2, "v": ["2", "3", "2"]}
        assert IntersectionProfile.from_json({"n": 2, "v": [2, "3", 2]}) == p


# ---------------------------------------------------------------------------
# SPECTRAL against sympy.

U = sympy.Symbol("u")


def profile_of(q: list[int]) -> IntersectionProfile:
    """The profile whose chi is a positive multiple of ``q`` (ascending, positive lead):
    ``v[k] = (-1)^(n-k) q_k m / C(n, k)`` for ``m`` the lcm of the binomials."""
    n = len(q) - 1
    m = lcm(*(comb(n, k) for k in range(n + 1)))
    return IntersectionProfile(n, tuple((-1) ** (n - k) * q[k] * m // comb(n, k) for k in range(n + 1)))


def times(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def sympy_square_free(q) -> tuple[int, IntPolynomial]:
    """Distinct real roots of ``q`` by ``Poly(q).sqf_part().count_roots()``, and
    that square-free part made primitive with a positive lead."""
    h = sympy.Poly(list(reversed(q)), U).sqf_part()
    coeffs = [int(c) for c in reversed(h.all_coeffs())]
    content = gcd(*coeffs) * (1 if coeffs[-1] > 0 else -1)
    return h.count_roots(), IntPolynomial(tuple(c // content for c in coeffs))


def spectral_cases() -> list[tuple[str, IntersectionProfile]]:
    """Seeded profiles: matrix models at n = 1..12, random profiles, products
    with repeated real and complex factors, and a 4300-digit ``L.M^2``."""
    cases = []
    for n in range(1, 13):
        for kind in ("product-matrix", "rational-matrix")[: 1 + (n > 1)]:
            for m in gen_random(GenSpec(kind, seed=n, count=3, n=n, bound=9)):
                cases.append((f"{kind}-{n}", profile_from_matrix(m)))
    rng = SplitMix64(4242)
    for _ in range(300):
        n = rng.in_range(1, 8)
        v = [rng.in_range(-9, 9) for _ in range(n)] + [rng.in_range(1, 9)]
        cases.append((f"random-{n}", IntersectionProfile(n, tuple(v))))
    factors = ([-1, 1], [1, 0, 1], [2, -3, 1], [0, 1], [5, 2, 1], [-2, 0, 1], [3, 2], [1, 1, 1])
    for _ in range(120):
        q = [1]
        for _ in range(rng.in_range(1, 3)):
            factor = factors[rng.below(len(factors))]
            for _ in range(rng.in_range(1, 3)):
                q = times(q, factor)
        cases.append(("product", profile_of(q)))
    cases.append(("complex-pair-squared", profile_of(times(times([1, 0, 1], [1, 0, 1]), [-1, 1]))))
    cases.append(("4300-digit", IntersectionProfile(3, (1, int("9" * 4300), 1, 1))))
    return cases


#: sha256 over the violation messages of the failing :func:`spectral_cases`, as
#: the Sturm-chain evaluation at (+-1 : 0) worded them.
SPECTRAL_MESSAGES_SHA256 = "df5d011090a9950e0027c625dd8711c5376e8d8c7eff837fe0a9597b1f55e6e9"


class TestSpectralAgainstSympy:
    def test_verdict_count_and_message(self):
        messages, kinds = [], set()
        for name, profile in spectral_cases():
            chi = chi_polynomial(profile)
            real, h = sympy_square_free(chi.coeffs)
            report = validate(profile, ValidationLevel.SPECTRAL)
            assert report.ok == (real == h.degree), name
            if "matrix" in name:
                # A matrix-built profile carries its verdict; the same n and v
                # built afresh run the PRS, which must agree with sympy too.
                fresh = validate(IntersectionProfile(profile.n, profile.v), ValidationLevel.SPECTRAL)
                assert report.ok and fresh.ok and real == h.degree, name
            if not report.ok:
                kinds.add(name.split("-")[0])
                (violation,) = report.violations
                assert violation.check == "real-rooted"
                assert violation.message == f"square-free part {h} has {real} distinct real roots but degree {h.degree}"
                messages.append(violation.message)
        assert {"random", "product", "complex", "4300"} <= kinds
        assert hashlib.sha256("\n".join(messages).encode()).hexdigest() == SPECTRAL_MESSAGES_SHA256

    @pytest.mark.parametrize(
        "name,message",
        [
            ("complex-pair-squared", "square-free part u^3 - u^2 + u - 1 has 1 distinct real roots but degree 3"),
            ("4300-digit", "square-free part u^3 - 3*u^2 + <14286-bit integer>*u - 1 has 1 distinct real roots but degree 3"),
        ],
        ids=["complex-pair-squared", "4300-digit"],
    )
    def test_pinned_messages(self, name, message):
        (violation,) = validate(dict(spectral_cases())[name], ValidationLevel.SPECTRAL).violations
        assert violation.message == message

    def test_defect_on_polynomials(self):
        # Negative leads, zero roots and constants, straight to the PRS count.
        rng = SplitMix64(777)
        for _ in range(400):
            q = [rng.in_range(-5, 5) or 1]
            for _ in range(rng.below(4)):
                factor = [rng.in_range(-6, 6) for _ in range(rng.in_range(1, 2))] + [rng.in_range(1, 3)]
                for _ in range(rng.in_range(1, 3)):
                    q = times(q, factor)
            p = IntPolynomial.of(q)
            real, h = sympy_square_free(p.coeffs) if p.degree > 0 else (0, IntPolynomial((1,)))
            defect = polyroot.real_root_defect(p)
            assert defect == (None if real == h.degree else (real, h)), q


def _no_prs(f):
    raise AssertionError("a PRS was built")


class TestMatrixSpectralCertificate:
    """A profile built by ``profile_from_matrix`` is real-rooted by the
    spectral theorem and carries that verdict: SPECTRAL and hodge validation
    of it build no PRS, while the same ``n`` and ``v`` built afresh do."""

    def test_matrix_models_build_no_prs(self, monkeypatch):
        profiles = [
            profile_from_matrix(m)
            for n in range(1, 13)
            for kind in ("product-matrix", "rational-matrix")[: 1 + (n > 1)]
            for m in gen_random(GenSpec(kind, seed=n, count=3, n=n, bound=9))
        ]
        profiles += [
            profile_from_matrix(norm_class(NormClassSpec(n, sub_dim, exponent)))
            for n in range(2, 6)
            for sub_dim in range(1, n)
            for exponent in (1, 2, 3)
        ]
        monkeypatch.setattr(polyroot, "_prs", _no_prs)
        for p in profiles:
            assert validate(p, ValidationLevel.SPECTRAL).ok
            hodge = validate(p, ValidationLevel.SURFACE_HODGE)
            assert hodge.ok == (p.n == 2) and all(v.check == "hodge-index" for v in hodge.violations)
        with pytest.raises(AssertionError, match="a PRS was built"):
            validate(IntersectionProfile(profiles[0].n, profiles[0].v), ValidationLevel.SPECTRAL)

    def test_cli_bound_and_scan_on_matrix_input_build_no_prs(self, monkeypatch, capsys):
        matrix = json.dumps({"n": 3, "Ln": 6, "F": [[1, 1, 0], [1, -2, 0], [0, 0, -3]]})
        monkeypatch.setattr(polyroot, "_prs", _no_prs)
        assert main(["bound", "--level", "spectral", "--input", matrix]) == 0
        assert json.loads(capsys.readouterr().out) == {"bound": "1/10"}
        assert main(["scan", "--level", "spectral", "--input", f"[{matrix}]"]) == 0

    def test_heavy_matrix_validates_without_prs(self, monkeypatch):
        # Product-matrix n = 48, where the PRS dominates validating the fresh profile.
        profile = profile_from_matrix(gen_random(GenSpec("product-matrix", seed=1, count=1, n=48))[0])
        fresh = IntersectionProfile(profile.n, profile.v)
        assert fresh == profile and "spectral_defect" in vars(profile)
        with monkeypatch.context() as m:
            m.setattr(polyroot, "_prs", _no_prs)
            assert validate(profile, ValidationLevel.SPECTRAL).ok
        prs = []
        monkeypatch.setattr(polyroot, "_prs", lambda f, build=polyroot._prs: prs.append(f) or build(f))
        assert validate(fresh, ValidationLevel.SPECTRAL).ok and validate(fresh, ValidationLevel.SPECTRAL).ok
        assert len(prs) == 1  # once per profile object
