"""Tests for norm classes, the witness scan and kernel ranks."""

import sys
from fractions import Fraction
from math import factorial

import pytest
import sympy

from nefslope import polyroot, simplicity
from nefslope.errors import AsymmetricInput, InconsistentContext, InputError
from nefslope.generators import GenSpec, SplitMix64, gen_product, gen_random
from nefslope.numdata import IntersectionProfile, SymMatrixModel, profile_from_matrix
from nefslope.polyroot import chi_polynomial
from nefslope.simplicity import (
    CONSISTENT,
    INFINITE,
    IRRATIONAL,
    SKIPPED_PROPORTIONAL,
    WITNESS,
    WITNESS_FOUND,
    NormClassSpec,
    boundary_endomorphism,
    kernel_rank,
    norm_class,
    norm_slope_check,
    scan,
)
from nefslope.slope import RationalSlope, slope


def diag(values):
    n = len(values)
    return tuple(
        tuple(Fraction(values[i]) if i == j else Fraction(0) for j in range(n)) for i in range(n)
    )


class TestNormClass:
    def test_unit_exponent(self):
        m = norm_class(NormClassSpec(2, 1, 1))
        assert m.entries == diag([1, 0])
        assert m.top_l == 2

    def test_exponent_two(self):
        assert norm_class(NormClassSpec(2, 1, 2)).entries == diag([4, 0])

    def test_threefold(self):
        m = norm_class(NormClassSpec(3, 1, 3))
        assert m.entries == diag([9, 0, 0])
        assert m.top_l == 6

    @pytest.mark.parametrize(
        "args,message",
        [
            ((10**5000, 0, 1), "sub_dim: must be in [1, <16610-bit integer>], got 0"),
            ((3, 10**5000, 1), "sub_dim: must be in [1, 2], got <16610-bit integer>"),
            ((3, 1, -(10**5000)), "exponent: must be at least 1, got <16610-bit integer>"),
            ((3, 1, 0), "exponent: must be at least 1, got 0"),
            ((3, 1, 1.5), "exponent: expected an integer, got 1.5"),
            ((3, "1", 1), "sub_dim: expected an integer, got '1'"),
            ((3.0, 1, 1), "n: expected an integer, got 3.0"),
            ((True, 1, 1), "n: expected an integer, got True"),
            ((1, 1, 1), "n: must be at least 2, got 1"),
            ((0, 1, 1), "n: must be at least 2, got 0"),
            ((-3, 1, 1), "n: must be at least 2, got -3"),
        ],
        ids=[
            "huge-n",
            "huge-sub-dim",
            "huge-negative-exponent",
            "zero-exponent",
            "float-exponent",
            "string-sub-dim",
            "float-n",
            "bool-n",
            "one-n",
            "zero-n",
            "negative-n",
        ],
    )
    def test_message_past_string_limit(self, args, message):
        with pytest.raises(InputError) as exc:
            NormClassSpec(*args)
        assert str(exc.value) == message


class TestNormSlopeCheck:
    @pytest.mark.parametrize(
        "n,sub_dim,exponent,expected",
        [
            (2, 1, 1, Fraction(1)),
            (3, 2, 2, Fraction(1, 4)),
            (4, 1, 5, Fraction(1, 25)),
        ],
    )
    def test_examples(self, n, sub_dim, exponent, expected):
        check = norm_slope_check(NormClassSpec(n, sub_dim, exponent))
        assert check.passed
        assert check.result.slope_fraction == expected
        assert check.proportional is None


class TestScan:
    def test_witness_and_irrational(self):
        instances = [
            ("norm", IntersectionProfile(2, (0, 1, 2))),
            ("generic", IntersectionProfile(2, (2, 3, 2))),
        ]
        result = scan(instances)
        assert result.overall == WITNESS_FOUND
        first, second = result.entries
        assert first.verdict == WITNESS
        assert first.slope_fraction == 1
        assert first.boundary.v == (0, 1, 2)
        assert first.boundary_report.nef and not first.boundary_report.ample
        assert second.verdict == IRRATIONAL

    def test_consistent_with_simple(self):
        result = scan([("generic", IntersectionProfile(2, (2, 3, 2)))])
        assert result.overall == CONSISTENT

    def test_proportional_skipped(self):
        result = scan([("double", IntersectionProfile(2, (8, 4, 2)))])
        assert result.entries[0].verdict == SKIPPED_PROPORTIONAL
        assert result.entries[0].ratio == 2
        assert result.overall == CONSISTENT

    def test_infinite_entry(self):
        result = scan([("negative", IntersectionProfile(2, (2, -3, 2)))])
        assert result.entries[0].verdict == INFINITE
        assert result.overall == CONSISTENT

    def test_inconsistent_context(self):
        instances = [
            ("a", IntersectionProfile(2, (0, 1, 2))),
            ("b", IntersectionProfile(2, (3, 5, 3))),
        ]
        with pytest.raises(InconsistentContext):
            scan(instances)

    def test_inconsistent_context_past_int_string_limit(self):
        # L^n past the int-string limit is named by its bit length.
        big = 10 ** sys.get_int_max_str_digits()
        instances = [("a", IntersectionProfile(1, (0, big))), ("b", IntersectionProfile(1, (0, 2 * big)))]
        with pytest.raises(InconsistentContext) as exc:
            scan(instances)
        bits = big.bit_length()
        assert str(exc.value) == f"instances disagree on L^n: [<{bits}-bit integer>, <{bits + 1}-bit integer>]"

    def test_order_independence(self):
        instances = [
            ("norm", IntersectionProfile(2, (0, 1, 2))),
            ("generic", IntersectionProfile(2, (2, 3, 2))),
            ("double", IntersectionProfile(2, (8, 4, 2))),
        ]
        forward = scan(instances)
        backward = scan(list(reversed(instances)))
        assert forward.overall == backward.overall
        assert [e.verdict for e in forward.entries] == [
            e.verdict for e in reversed(backward.entries)
        ]

    def test_parallel_matches_serial(self):
        instances = [
            (f"i{k}", IntersectionProfile(2, (m2, lm, 4)))
            for k, (m2, lm) in enumerate([(0, 2), (2, 3), (4, 4), (1, 3), (-2, 1)])
        ]
        assert scan(instances, jobs=4) == scan(instances)

    def test_traces_left_unbuilt(self, monkeypatch):
        results = []

        def recording_slope(profile):
            results.append(slope(profile))
            return results[-1]

        monkeypatch.setattr(simplicity, "slope", recording_slope)
        models = gen_random(GenSpec("rational-matrix", seed=5, count=6, n=3, bound=6))
        instances = [(f"m{k}", profile_from_matrix(m)) for k, m in enumerate(models)]
        assert scan(instances).witness_found
        traces = [r.rationality.trace for r in results if not r.infinite]
        assert traces
        assert all("candidates" not in vars(t) for t in traces)


class TestKernelRank:
    def test_dense_witness(self):
        m = gen_product(2, [[2, 1], [1, 2]])
        fb = boundary_endomorphism(m, Fraction(1, 3))
        assert fb == ((Fraction(1), Fraction(-1)), (Fraction(-1), Fraction(1)))
        assert kernel_rank(m, Fraction(1, 3)) == 1

    def test_norm_witness(self):
        m = gen_product(2, [[1, 0], [0, 0]])
        assert kernel_rank(m, Fraction(1, 1)) == 1

    def test_proportional_flagged_by_full_nullity(self):
        n = 3
        t = 4
        m = gen_product(n, [[t if i == j else 0 for j in range(n)] for i in range(n)])
        assert kernel_rank(m, Fraction(1, t)) == n

    @pytest.mark.parametrize("rows", [((1, 2), (2,)), ((1, 2), (3, 1))], ids=["ragged", "asymmetric"])
    def test_malformed_model_rejected(self, rows):
        with pytest.raises(AsymmetricInput, match="^F"):
            SymMatrixModel(2, rows, 2)

    def test_nullity_against_sympy(self):
        """Symmetric models of rank at most r <= n, each a sum of r rational
        outer products, at 1 and at 1/lambda for each nonzero rational
        eigenvalue lambda, against sympy's rank of q I - p F."""
        rng = SplitMix64(909)
        u = sympy.Symbol("u")
        cases = deficient = 0
        for _ in range(320):
            n = rng.in_range(1, 6)
            f = sympy.zeros(n, n)
            for _ in range(rng.in_range(1, n)):
                # Sparse vectors split F into blocks, so rational eigenvalues are common.
                x = sympy.Matrix([rng.in_range(-2, 2) if rng.below(3) == 0 else 0 for _ in range(n)])
                f += sympy.Rational(rng.in_range(-3, 3), rng.in_range(1, 3)) * x * x.T
            rows = tuple(tuple(Fraction(int(x.p), int(x.q)) for x in f.row(i)) for i in range(n))
            m = SymMatrixModel(n, rows, 1)
            roots = sympy.Poly(f.charpoly(u).as_expr(), u).ground_roots()
            values = [Fraction(1)] + [Fraction(int(lam.q), int(lam.p)) for lam in roots if lam != 0]
            for value in values:
                p, q = value.numerator, value.denominator
                expected = n - (q * sympy.eye(n) - p * f).rank()
                assert kernel_rank(m, value) == expected, (m, value)
                cases += 1
                deficient += expected > 0
        assert cases >= 500 and deficient >= 200


class TestWitnessRoundTrip:
    def test_rational_matrix_instances(self):
        from nefslope.numdata import binary_profile

        for m in gen_random(GenSpec("rational-matrix", seed=5, count=40, n=3, bound=6)):
            profile = profile_from_matrix(m)
            result = slope(profile)
            assert isinstance(result.rationality, RationalSlope)
            value = result.rationality.value
            rank = kernel_rank(m, value)
            assert 1 <= rank <= m.n - 1
            fb = boundary_endomorphism(m, value)
            assert any(x != 0 for row in fb for x in row)
            # singular boundary endomorphism <=> vanishing top self-intersection
            boundary = binary_profile(profile, value.denominator, -value.numerator)
            assert boundary.v[0] == 0


def _sympy_scan_verdict(chi: sympy.Poly) -> tuple[str, Fraction | None]:
    """The scan verdict and witness slope of a non-proportional profile from
    sympy alone: the largest rational root ``q`` (``ground_roots``) is the
    maximal root when ``count_roots`` finds no other root in ``[q, inf)``."""
    h = chi.sqf_part()
    if h.count_roots() == 0:
        return INFINITE, None
    rational = [q for q in h.ground_roots() if h.count_roots(q, None) == 1]
    if rational:
        top = Fraction(int(rational[0].p), int(rational[0].q))
        return (WITNESS, 1 / top) if top > 0 else (INFINITE, None)
    positive = h.count_roots(0, None) - (h.eval(0) == 0)
    return (IRRATIONAL, None) if positive else (INFINITE, None)


class TestScanAgainstSympy:
    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("kind", ["rational-matrix", "product-matrix"])
    def test_scan_sizes(self, kind, n):
        # The scan-matrix strata: bound 10, n = 4 and 5, seeds 1-20.
        u, seen = sympy.Symbol("u"), set()
        for seed in range(1, 21):
            labelled = [(f"{seed}#{k}", profile_from_matrix(m))
                        for k, m in enumerate(gen_random(GenSpec(kind, seed=seed, count=3, n=n, bound=10)))]
            for (label, profile), entry in zip(labelled, scan(labelled).entries):
                chi = sympy.Poly(list(reversed(chi_polynomial(profile).coeffs)), u)
                verdict, value = _sympy_scan_verdict(chi)
                assert (entry.verdict, entry.slope_fraction) == (verdict, value), (label, chi)
                seen.add(verdict)
        # Rational-matrix spectra give rational thresholds; the product-matrix
        # draws at these sizes all have irrational ones.
        assert seen == {WITNESS if kind == "rational-matrix" else IRRATIONAL}

    @pytest.mark.parametrize(
        "spectrum", [(Fraction(1, 3), Fraction(1, 3), -1), (7, 7, 2, -3), (Fraction(5, 2),) * 3 + (1,)]
    )
    def test_repeated_top_eigenvalue(self, monkeypatch, spectrum):
        # diag(spectrum), its top eigenvalue repeated, rotated by (3/5, 4/5)
        # in the plane of its first and last coordinates into a rational
        # matrix.  The Descartes count stalls at 1/3, off the dyadic grid,
        # and the exact midpoints 7 and 5/2 end the search at once; each
        # verdict is sympy's.
        n = len(spectrum)
        rotation = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        rotation[0][0] = rotation[-1][-1] = Fraction(3, 5)
        rotation[0][-1], rotation[-1][0] = Fraction(-4, 5), Fraction(4, 5)
        entries = tuple(
            tuple(sum(rotation[i][k] * spectrum[k] * rotation[j][k] for k in range(n)) for j in range(n))
            for i in range(n)
        )
        assert any(entries[0][1:])
        profile = profile_from_matrix(SymMatrixModel(n, entries, 900**n * factorial(n)))
        searches = []
        descartes = polyroot._descartes_topmost
        monkeypatch.setattr(polyroot, "_descartes_topmost", lambda *args: searches.append(r := descartes(*args)) or r)
        (entry,) = scan([("repeated", profile)]).entries
        chi = sympy.Poly(list(reversed(chi_polynomial(profile).coeffs)), sympy.Symbol("u"))
        assert (entry.verdict, entry.slope_fraction) == _sympy_scan_verdict(chi) == (WITNESS, 1 / Fraction(spectrum[0]))
        assert entry.boundary_report.nef and not entry.boundary_report.ample
        assert searches[0] is None if spectrum[0] == Fraction(1, 3) else searches[0][0] == searches[0][1]
