"""The frozen value types: the ``Record`` base of every value type of the
package, and the three scan records of ``simplicity`` that stay dataclasses
because the benchmark copies them with ``dataclasses.replace``."""

import dataclasses
from fractions import Fraction

import pytest

from nefslope.exactio import Record
from nefslope.generators import GenSpec, gen_random
from nefslope.numdata import (
    IntersectionProfile,
    SymMatrixModel,
    ValidationReport,
    Violation,
    charpoly,
    profile_from_matrix,
)
from nefslope.polyroot import AlgebraicNumber, IntPolynomial, SturmChain, TopRoot, chi_polynomial
from nefslope.simplicity import (
    IRRATIONAL,
    NefReport,
    NormClassSpec,
    ScanEntry,
    SimplicityScan,
    is_nef,
    kernel_rank,
    norm_slope_check,
    scan,
)
from nefslope.slope import CandidateTrace, IrrationalSlope, RationalSlope, SlopeResult, slope

CHI = IntPolynomial((-3, 0, 2))  # 2 u^2 - 3: irrational roots
TRACE = CandidateTrace(CHI)

RECORDS = [
    IntPolynomial((1, 2)),
    SturmChain((IntPolynomial((1,)),)),
    AlgebraicNumber.from_rational(Fraction(1, 2)),
    TopRoot((-3, 0, 2), (4, 5, 4)),
    IntersectionProfile(2, (1, 2, 3)),
    SymMatrixModel(1, ((1,),), 1),
    Violation("hodge-index", "message"),
    ValidationReport(()),
    TRACE,
    RationalSlope(1, 2, TRACE),
    IrrationalSlope(TRACE),
    SlopeResult(None, None),
    GenSpec("product-matrix", 7, 3, 4, 5),
    NormClassSpec(3, 1, 2),
    norm_slope_check(NormClassSpec(2, 1, 1)),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_fields_cannot_be_assigned_or_deleted(record):
    assert isinstance(record, Record) and not dataclasses.is_dataclass(record)
    field = record._fields[0]
    value = getattr(record, field)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(record, field, value)
    with pytest.raises(AttributeError, match="cannot assign to field 'other'"):
        record.other = 1
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(record, field)
    assert getattr(record, field) is value


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_equal_fields_make_equal_records(record):
    twin = type(record)(*record._values())
    assert twin is not record and twin == record and hash(twin) == hash(record)
    assert repr(twin) == repr(record)


def test_equality_goes_by_exact_type_and_fields():
    assert RationalSlope(1, 2, TRACE) == RationalSlope(1, 2, TRACE)
    assert RationalSlope(1, 2, TRACE) != RationalSlope(1, 3, TRACE)
    assert IrrationalSlope(TRACE) != RationalSlope(1, 2, TRACE)
    assert RationalSlope(1, 2, TRACE) != IrrationalSlope(TRACE)
    # Same field values, different types: the type is part of the hash too.
    assert IntPolynomial((1, 2)) != SturmChain((1, 2))
    assert hash(IntPolynomial((1, 2))) != hash(SturmChain((1, 2)))

    class Subclass(IrrationalSlope):
        pass

    assert Subclass(TRACE) != IrrationalSlope(TRACE)
    assert IntPolynomial((1, 2)) != (1, 2)


def test_default_constructor_takes_one_value_per_field():
    with pytest.raises(TypeError, match=r"^RationalSlope takes 3 value\(s\), got 2$"):
        RationalSlope(1, 2)
    with pytest.raises(TypeError, match=r"^IrrationalSlope takes 1 value\(s\), got 2$"):
        IrrationalSlope(TRACE, TRACE)
    with pytest.raises(TypeError):
        Violation(check="c", message="m")


def test_own_init_only_to_check_or_default():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    own = {c.__name__ for c in subclasses(Record) if c.__module__.startswith("nefslope.") and "__init__" in vars(c)}
    assert own == {
        "IntPolynomial",  # checks
        "AlgebraicNumber",  # defaults ``exact``
        "IntersectionProfile",  # checks
        "SymMatrixModel",  # checks
        "GenSpec",  # checks
        "NormClassSpec",  # checks
    }


def test_gen_spec_keywords_and_defaults_match_positions():
    spec = GenSpec("surface", seed=3, count=4)
    assert spec == GenSpec("surface", 3, 4, 2, 10) and hash(spec) == hash(GenSpec("surface", 3, 4, 2, 10))
    assert GenSpec(kind="rational-matrix", bound=6, n=3, count=2, seed=1) == GenSpec("rational-matrix", 1, 2, 3, 6)


def test_repr_names_the_fields():
    assert repr(IntPolynomial((1, 2))) == "IntPolynomial(coeffs=(1, 2))"
    assert repr(Violation("c", "m")) == "Violation(check='c', message='m')"
    assert repr(SlopeResult(None, None)) == "SlopeResult(root=None, chi=None)"
    assert repr(GenSpec("surface", 1, 2)) == "GenSpec(kind='surface', seed=1, count=2, n=2, bound=10)"


def test_filled_cached_properties_leave_equality_and_hash():
    result = slope(IntersectionProfile(2, (-1, 1, 2)))
    twin = SlopeResult(result.root, result.chi)
    before = hash(result), repr(result)
    assert result.slope is not None and result.rationality is not None
    cached = {"max_root", "slope", "rationality"}
    assert cached <= set(vars(result)) and not cached & set(vars(twin))
    assert result == twin and (hash(result), repr(result)) == before == (hash(twin), repr(twin))

    trace = CandidateTrace(chi_polynomial(IntersectionProfile(2, (1, 4, 2))))
    twin = CandidateTrace(trace.chi)
    before = hash(trace), repr(trace)
    assert trace.rows and trace.candidates and {"rows", "candidates"} <= set(vars(trace))
    assert trace == twin and (hash(trace), repr(trace)) == before == (hash(twin), repr(twin))

    # profile_from_matrix fills the spectral verdict; a fresh profile of the
    # same n and v has it unfilled, and equals, hashes and reprs the same.
    built = profile_from_matrix(gen_random(GenSpec("product-matrix", seed=1, count=1, n=4))[0])
    twin = IntersectionProfile(built.n, built.v)
    assert "spectral_defect" in vars(built) and "spectral_defect" not in vars(twin)
    assert built == twin and (hash(built), repr(built)) == (hash(twin), repr(twin))


def test_dataclass_replace_works_on_the_simplicity_records():
    report = is_nef(IntersectionProfile(2, (0, 4, 3)))
    flipped = dataclasses.replace(report, nef=not report.nef)
    assert isinstance(report, NefReport) and (report.nef, flipped.nef) == (True, False)
    assert flipped.values == report.values

    result = scan([("a", IntersectionProfile(2, (0, 4, 3))), ("b", IntersectionProfile(2, (1, 1, 3)))])
    entry = dataclasses.replace(result.entries[0], verdict=IRRATIONAL)
    assert isinstance(entry, ScanEntry) and entry.verdict == IRRATIONAL != result.entries[0].verdict
    tampered = dataclasses.replace(result, entries=(entry,) + result.entries[1:])
    assert isinstance(tampered, SimplicityScan) and tampered.entries[1] == result.entries[1]
    assert tampered != result


@pytest.mark.parametrize(
    "build",
    [
        lambda: SymMatrixModel(1, ((3,),), 1),
        lambda: SymMatrixModel(1, ((Fraction(3),),), 1),
        lambda: SymMatrixModel.from_json({"n": 1, "Ln": "1", "F": [["3"]]}),
        lambda: SymMatrixModel.from_json({"n": 1, "Ln": "1", "F": [["6/2"]]}),
        lambda: SymMatrixModel.from_json({"n": 1, "Ln": "1", "F": [[3]]}),
    ],
    ids=["int", "Fraction", "string", "ratio-string", "json-int"],
)
def test_integral_matrix_entries_are_stored_as_int(build):
    (entry,), = build().entries
    assert entry == 3 and type(entry) is int


def test_rational_matrix_entries_stay_fractions():
    model = SymMatrixModel.from_json({"n": 2, "Ln": "2", "F": [["1/3", "2"], ["2", "1"]]})
    assert model.entries == ((Fraction(1, 3), 2), (2, 1))
    assert [type(x) for row in model.entries for x in row] == [Fraction, int, int, int]


@pytest.mark.parametrize("kind, n", [("product-matrix", 4), ("rational-matrix", 3), ("rational-matrix", 5)])
def test_matrix_models_round_trip_and_ignore_the_entry_type(kind, n):
    for model in gen_random(GenSpec(kind, 2, 5, n, 10)):
        assert SymMatrixModel.from_json(model.to_json()) == model
        fraction_rows = tuple(tuple(map(Fraction, row)) for row in model.entries)
        as_fractions = SymMatrixModel(n, fraction_rows, model.top_l)
        assert as_fractions == model and hash(as_fractions) == hash(model)
        assert profile_from_matrix(as_fractions) == profile_from_matrix(model)
        assert charpoly(fraction_rows) == charpoly(model.entries)
        threshold = slope(profile_from_matrix(model)).slope_fraction  # a kernel, when rational
        for value in {Fraction(1, 3), threshold} - {None}:
            assert kernel_rank(as_fractions, value) == kernel_rank(model, value)
