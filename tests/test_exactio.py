"""Number parsing for the wire formats: ``parse_int`` and ``parse_rational``
agree with ``int(text, 10)`` and ``Fraction(text)``, return integral values
as ``int``, and keep their error messages for malformed numbers."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nefslope.errors import InputError
from nefslope.exactio import parse_int, parse_rational
from nefslope.numdata import IntersectionProfile, SymMatrixModel

PARSE = settings(derandomize=True, max_examples=500, deadline=None, database=None)
LIMIT = sys.get_int_max_str_digits()

#: ASCII digits, Arabic-Indic three, Devanagari seven and fullwidth nine.
DIGITS = st.sampled_from("0123456789٣७９")
SPACES = st.text(st.sampled_from(" \t\n　"), max_size=2)
SIGNS = st.sampled_from(["", "+", "-"])


@st.composite
def digit_runs(draw, least: int = 1) -> str:
    """Digits, joined by single ``_`` separators or, now and then, a misplaced one."""
    parts = draw(st.lists(st.text(DIGITS, min_size=1, max_size=4), min_size=least, max_size=3))
    sep = draw(st.sampled_from(["_", "_", "__", ""]))
    return sep.join(parts)


@st.composite
def numbers(draw) -> str:
    """Strings shaped like integers, ``p/q`` ratios and decimals with exponents."""
    text = draw(SIGNS) + draw(digit_runs())
    tail = draw(st.sampled_from(["", "ratio", "decimal"]))
    if tail == "ratio":
        text += "/" + draw(digit_runs())
    elif tail == "decimal":
        text += "." + draw(digit_runs(0))
    if draw(st.booleans()):
        text += draw(st.sampled_from("eE")) + draw(SIGNS) + draw(st.text(DIGITS, min_size=1, max_size=2))
    return draw(SPACES) + text + draw(SPACES)


#: Well-formed numbers and arbitrary strings over the same characters.  Every
#: exponent has at most three digits, so no string passes the int-string limit.
TEXTS = st.one_of(
    numbers(),
    st.text(st.sampled_from("+-_ \t/.0123456789٣७９"), max_size=12),
    st.text(st.sampled_from("+-_ /.eE05٣"), max_size=4),
)


def reference(parse, text):
    """``parse(text)``, or None when it raises ``ValueError`` or ``ZeroDivisionError``."""
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError):
        return None


@PARSE
@given(TEXTS)
def test_parse_rational_agrees_with_fraction(text):
    expected = reference(Fraction, text)
    if expected is None:
        with pytest.raises(InputError, match="^f: "):
            parse_rational(text, "f")
        return
    value = parse_rational(text, "f")
    assert value == expected
    assert type(value) is (int if expected.denominator == 1 else Fraction)


@PARSE
@given(TEXTS)
def test_parse_int_agrees_with_int(text):
    expected = reference(lambda t: int(t, 10), text)
    if expected is None:
        with pytest.raises(InputError, match="^f: "):
            parse_int(text, "f")
        return
    value = parse_int(text, "f")
    assert value == expected and type(value) is int


@pytest.mark.parametrize("value", [3, -7, 10**4400], ids=["small", "negative", "past-limit"])
def test_json_integers_come_back_as_themselves(value):
    assert parse_int(value, "f") is value
    assert parse_rational(value, "f") is value


@pytest.mark.parametrize(
    "text, value",
    [("6/2", 3), ("-4/2", -2), (" 3.0 ", 3), ("3e2", 300), ("25e-1", Fraction(5, 2)), ("1/3", Fraction(1, 3))],
)
def test_integral_rationals_are_ints(text, value):
    parsed = parse_rational(text, "f")
    assert parsed == value and type(parsed) is type(value)


def test_padding_past_the_limit_is_scanned_and_parsed():
    # Longer than the limit, yet only one digit, which is all int() counts.
    text = " " * LIMIT + "5"
    assert parse_int(text, "f") == 5 and parse_rational(text, "f") == 5


@pytest.mark.parametrize("sep", "\x1c\x1d\x1e\x1f")
def test_information_separators_are_stripped(sep):
    # str.strip drops U+001C..U+001F, which int() rejects and Fraction reads
    # after a strip: both parsers keep accepting them as padding.
    text = f"{sep}-5{sep}"
    with pytest.raises(ValueError):
        int(text, 10)
    assert parse_int(text, "f") == -5 and parse_rational(text, "f") == -5
    assert type(parse_rational(text, "f")) is int


#: Malformed numbers, each with the error it gives as a profile entry ``v[1]``
#: and as a matrix entry ``F[1][1]``.  ``"1e5000"`` is short but passes the
#: limit once its exponent is written out, so it must not skip the digit scan.
MALFORMED = [
    ("1e5000", f"number has 5005 digits written out, more than the limit of {LIMIT}", None),
    ("9" * (LIMIT + 1), f"number has {LIMIT + 1} digits written out, more than the limit of {LIMIT}", None),
    ("1/0", "not a decimal integer: '1/0'", "not a rational: '1/0'"),
    ("x", "not a decimal integer: 'x'", "not a rational: 'x'"),
    (True, "expected an integer, got True", "expected a rational or 'p/q' string, got True"),
    (1.5, "expected an integer, got 1.5", "expected a rational or 'p/q' string, got 1.5"),
    ([1], "expected an integer, got [1]", "expected a rational or 'p/q' string, got [1]"),
]


@pytest.mark.parametrize(
    "value, profile_error, matrix_error",
    MALFORMED,
    ids=["exponent", "long", "zero-den", "word", "bool", "float", "list"],
)
def test_malformed_number_messages(value, profile_error, matrix_error):
    with pytest.raises(InputError) as exc:
        IntersectionProfile.from_json({"n": 2, "v": ["1", value, "1"]})
    assert str(exc.value) == f"v[1]: {profile_error}"
    with pytest.raises(InputError) as exc:
        SymMatrixModel.from_json({"n": 2, "Ln": "2", "F": [["1", "0"], ["0", value]]})
    assert str(exc.value) == f"F[1][1]: {matrix_error or profile_error}"
