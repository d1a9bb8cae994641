"""Tests for profiles, the matrix model and validation levels."""

from fractions import Fraction
from itertools import product
from math import factorial

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from nefslope import numdata
from nefslope.errors import InputError, NonIntegralProfile
from nefslope.generators import SplitMix64, gen_product
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
