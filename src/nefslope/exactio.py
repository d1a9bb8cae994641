"""Parsing and formatting of exact numbers for the JSON wire formats.

All exact values are serialized as decimal strings ("p" or "p/q") so that
consumers limited to 64-bit JSON numbers never truncate them.  Parsers
accept plain JSON integers as well, and name the input field in every
error they raise, as do the checks that records run when built.  This is the
one module that checks the int-string limit: on input, on output (an
:class:`InputError`) and in messages (a bit length).

:class:`Record` is the base of the package's frozen value types.  It stands
in for ``dataclasses``, so neither start-up nor ``gen`` imports
``dataclasses`` and the ``inspect`` chain behind it, or compiles generated
code per class; its default ``__init__`` stores the fields by position.
Only the three scan records of ``simplicity`` stay dataclasses, for the
benchmark's ``dataclasses.replace``.
"""

import re
import sys
from fractions import Fraction

from .errors import AsymmetricInput, InputError


class Record:
    """Immutable value: a subclass names its fields in ``_fields``, and the
    default ``__init__`` stores one value per field, by position, in the
    instance ``__dict__``.  A subclass writes its own ``__init__`` only to
    check or default a field.

    Assigning or deleting an attribute raises :class:`AttributeError`.
    Equality, hash and repr read the exact type and the declared fields
    only, so a filled ``functools.cached_property`` changes none of them.
    """

    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        fields = self._fields
        if len(values) != len(fields):
            raise TypeError(f"{type(self).__qualname__} takes {len(fields)} value(s), got {len(values)}")
        d = self.__dict__  # item stores: quicker than d.update(zip(...)) on scan's per-entry records
        for f, v in zip(fields, values):
            d[f] = v

    def _values(self) -> tuple:
        d = self.__dict__
        return tuple(d[f] for f in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash((type(self), self._values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"


#: The exponent of a decimal string, as ``Fraction`` reads it.
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)")


def _check_digits(text: str, field: str) -> None:
    """Reject numbers past the interpreter's int-string conversion limit.

    A written exponent counts with its magnitude, because ``Fraction``
    builds ``10**|exponent|`` before anything else can reject the number.
    """
    limit = sys.get_int_max_str_digits()
    digits = sum(ch.isdigit() for ch in text)
    exponent = _EXPONENT.search(text)
    if limit and exponent and digits <= limit:
        digits += abs(int(exponent.group(1)))
    if limit and digits > limit:
        raise InputError(f"{field}: number has {digits} digits written out, more than the limit of {limit}")


def parse_int(value: int | str, field: str) -> int:
    if not isinstance(value, str):
        return require_int(value, field)
    _check_digits(value, field)
    try:
        return int(value.strip(), 10)
    except ValueError as exc:
        raise InputError(f"{field}: not a decimal integer: {value!r}") from exc


def parse_rational(value: int | str, field: str) -> Fraction:
    if is_int(value):
        return Fraction(value)
    if not isinstance(value, str):
        raise InputError(f"{field}: expected a rational or 'p/q' string, got {value!r}")
    _check_digits(value, field)
    try:
        return Fraction(value.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"{field}: not a rational: {value!r}") from exc


def format_int(value: int) -> str:
    try:
        return str(value)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise InputError(
            f"cannot write an integer of {value.bit_length()} bits: it passes the {limit}-digit limit"
        ) from None


def format_ratio(num: int, den: int) -> str:
    if den == 1:
        return format_int(num)
    return f"{format_int(num)}/{format_int(den)}"


def format_rational(value: Fraction | int) -> str:
    return format_ratio(value.numerator, value.denominator)


def json_int(text: str) -> int | str:
    """``int(text)`` as a ``json.loads`` hook, or ``text`` itself past the
    int-string limit, so that the field parser rejects it by name."""
    try:
        return int(text)
    except ValueError:
        return text


def describe_int(value: int) -> str:
    """``str(value)`` for messages, or its bit length past the int-string limit; never raises."""
    try:
        return str(value)
    except ValueError:
        return f"<{value.bit_length()}-bit integer>"


def describe(x) -> str:
    """``repr(x)`` for messages, with integers and ``Fraction`` parts as in
    :func:`describe_int`; never raises."""
    if isinstance(x, Fraction):
        return f"Fraction({describe_int(x.numerator)}, {describe_int(x.denominator)})"
    if isinstance(x, int):
        return describe_int(x)
    try:
        return repr(x)
    except ValueError:  # a container of integers past the limit
        return f"<{type(x).__name__}>"


def is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def require_int(value, field: str, least: int | None = None, most: int | None = None) -> int:
    """``value`` if a plain ``int`` in ``[least, most]`` (``most`` needs ``least``), else an input error."""
    if not is_int(value):
        raise InputError(f"{field}: expected an integer, got {describe(value)}")
    if least is not None and (value < least or most is not None and value > most):
        lo = describe_int(least)
        limit = f"at least {lo}" if most is None else f"in [{lo}, {describe_int(most)}]"
        raise InputError(f"{field}: must be {limit}, got {describe_int(value)}")
    return value


def require_seq(value, field: str, items: str) -> tuple:
    try:
        return tuple(value)
    except TypeError:
        raise InputError(f"{field}: expected a sequence of {items}, got {describe(value)}") from None


def read_matrix(value, n: int | None = None) -> tuple[tuple[int | Fraction, ...], ...]:
    """``F`` as rows of ``int`` and ``Fraction`` entries, all read before the shape is checked:
    ``n x n``, or square if ``n`` is None, else :class:`AsymmetricInput`."""
    rows = tuple(require_seq(row, f"F[{i}]", "entries") for i, row in enumerate(require_seq(value, "F", "rows")))
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if not is_int(x) and not isinstance(x, Fraction):
                raise InputError(f"F[{i}][{j}]: expected an integer or a Fraction, got {describe(x)}")
    n = len(rows) if n is None else n
    if len(rows) != n or any(len(row) != n for row in rows):
        raise AsymmetricInput(f"F: expected a {describe_int(n)}x{describe_int(n)} matrix")
    return rows
