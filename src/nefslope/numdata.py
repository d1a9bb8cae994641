"""Numeric data model for polarized abelian varieties.

A bundle pair ``(L, M)`` on an n-dimensional abelian variety is presented by
its intersection profile, the vector of integers ``v[k] = L^k . M^(n-k)``.
Non-simple varieties are modelled concretely on products of elliptic curves
with the product principal polarization: a symmetric rational matrix plays
the role of the endomorphism attached to ``M``, the top self-intersection of
``L`` defaults to ``n!``, and the profile is read off the characteristic
polynomial of the matrix, from one Berkowitz kernel on the denominator-cleared
integer matrix, general because :func:`charpoly` takes any square matrix.

Both records check their type invariants when they are built, so no
consumer checks them again: an :class:`IntersectionProfile` is ``n + 1``
integers with ``L^n > 0``, and a :class:`SymMatrixModel` is a symmetric
``n x n`` matrix with a positive integer ``L^n``.  Beyond that, any integer
vector is a first-class input; realizability checks stay opt-in through
:func:`validate` at increasing :class:`ValidationLevel` strictness.
"""

import enum
from collections.abc import Sequence
from fractions import Fraction
from math import comb, gcd, lcm
from operator import mul

from .errors import AsymmetricInput, InputError, NonIntegralProfile
from .exactio import Record, describe_int, format_int, format_rational, parse_int, parse_rational
from .exactio import read_matrix, require_int, require_seq
from .polyroot import NEG_INF, POS_INF, chi_polynomial, sturm_chain, sturm_count


def _array(value, field: str) -> list:
    if not isinstance(value, list):
        raise InputError(f"{field}: expected a JSON array, got {value!r}")
    return value


class IntersectionProfile(Record):
    """The vector ``(L^k . M^(n-k))_{k=0..n}``, listed from k=0 upward.

    Construction raises :class:`InputError`, naming the field, unless ``n``
    is a positive integer and ``v`` is ``n + 1`` integers with ``L^n = v[n]``
    positive, as for a polarization ``L``.
    """

    _fields = ("n", "v")

    def __init__(self, n: int, v: tuple[int, ...]):
        v = require_seq(v, "v", "integers")
        n = require_int(n, "n", 1)
        if len(v) != n + 1:
            raise InputError(f"v: expected n + 1 = {describe_int(n + 1)} entries, got {len(v)}")
        for k, x in enumerate(v):
            if type(x) is not int:  # the hot path formats no field name for an exact int
                require_int(x, f"v[{k}]")
        if v[n] < 1:
            require_int(v[n], f"v[{n}]", 1)
        d = self.__dict__
        d["n"], d["v"] = n, v

    def to_json(self) -> dict:
        return {"n": self.n, "v": [format_int(x) for x in self.v]}

    @classmethod
    def from_json(cls, data: dict) -> "IntersectionProfile":
        if not isinstance(data, dict) or "n" not in data or "v" not in data:
            raise InputError("profile JSON must be an object with 'n' and 'v'")
        n = parse_int(data["n"], "n")
        v = tuple(parse_int(x, f"v[{k}]") for k, x in enumerate(_array(data["v"], "v")))
        return cls(n, v)


class SymMatrixModel(Record):
    """Symmetric rational matrix model of a bundle on a product of elliptic curves.

    ``entries`` is the matrix of the endomorphism attached to the bundle;
    ``top_l`` is the value of ``L^n`` (``n!`` for the product principal
    polarization, scalable for scaled polarizations).  Construction raises,
    naming the field, unless ``n`` and ``L^n`` are positive integers and ``F``
    is a symmetric n x n matrix of ``int`` or ``Fraction`` entries.
    """

    _fields = ("n", "entries", "top_l")

    def __init__(self, n: int, entries: tuple[tuple[Fraction, ...], ...], top_l: int):
        n = require_int(n, "n", 1)
        f = tuple(tuple(map(Fraction, row)) for row in read_matrix(entries, n))
        for i in range(n):
            for j in range(i):
                if f[i][j] != f[j][i]:
                    raise AsymmetricInput(
                        f"F[{i}][{j}]: {format_rational(f[i][j])} differs from "
                        f"F[{j}][{i}] = {format_rational(f[j][i])}; the matrix must be symmetric"
                    )
        require_int(top_l, "L^n", 1)
        d = self.__dict__
        d["n"], d["entries"], d["top_l"] = n, f, top_l

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "Ln": format_int(self.top_l),
            "F": [[format_rational(x) for x in row] for row in self.entries],
        }

    @classmethod
    def from_json(cls, data: dict) -> "SymMatrixModel":
        if not isinstance(data, dict) or not {"n", "Ln", "F"} <= set(data):
            raise InputError("matrix JSON must be an object with 'n', 'Ln' and 'F'")
        n = parse_int(data["n"], "n")
        top_l = parse_int(data["Ln"], "Ln")
        rows = tuple(
            tuple(parse_rational(x, f"F[{i}][{j}]") for j, x in enumerate(_array(row, f"F[{i}]")))
            for i, row in enumerate(_array(data["F"], "F"))
        )
        return cls(n, rows, top_l)


class ValidationLevel(enum.IntEnum):
    """Opt-in realizability filters, ordered by strictness."""

    SYNTACTIC = 1
    SPECTRAL = 2
    SURFACE_HODGE = 3


class Violation(Record):
    _fields = ("check", "message")


class ValidationReport(Record):
    _fields = ("violations",)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(p: IntersectionProfile, level: ValidationLevel) -> ValidationReport:
    """Check a profile at the requested strictness; never raises.

    SYNTACTIC adds nothing to the type invariants, which construction has
    already checked.  SPECTRAL requires the profile polynomial to be
    real-rooted, as holds for every profile arising from a symmetric matrix
    model; multiplicity does not matter, so the test is that the Sturm count
    of the square-free part equals its degree.  SURFACE_HODGE additionally
    requires, on surfaces, the index inequality ``(L.M)^2 >= L^2 M^2``.
    """
    violations = []
    if level >= ValidationLevel.SPECTRAL:
        chain = sturm_chain(chi_polynomial(p))
        h = chain.polys[0]
        real = sturm_count(chain, NEG_INF, POS_INF)
        if real != h.degree:
            violations.append(
                Violation("real-rooted", f"square-free part {h} has {real} distinct real roots but degree {h.degree}")
            )
    if level >= ValidationLevel.SURFACE_HODGE and (hodge := hodge_violation(p)):
        violations.append(hodge)
    return ValidationReport(tuple(violations))


def hodge_violation(p: IntersectionProfile) -> Violation | None:
    """None when ``p`` is a surface profile ``(M^2, L.M, L^2)`` with the index
    inequality ``(L.M)^2 >= L^2 M^2``, else the violation, naming both sides."""
    if p.n != 2:
        return Violation("hodge-index", f"surface check requires n=2, got n={p.n}")
    lm2, l2m2 = p.v[1] * p.v[1], p.v[2] * p.v[0]
    if lm2 >= l2m2:
        return None
    return Violation("hodge-index", f"(L.M)^2 = {describe_int(lm2)} < L^2 M^2 = {describe_int(l2m2)}")


# ---------------------------------------------------------------------------
# Matrix model.

def _berkowitz(entries: Sequence[Sequence[Fraction | int]]) -> tuple[int, list[int]]:
    """``D``, the lcm of the entries' denominators, and the coefficients of
    ``det(u I - D F)``, ascending, by the division-free Berkowitz recurrence
    on the integer matrix ``D F``.  ``F`` may be any square matrix, as
    :func:`charpoly` allows, so this one general kernel serves every caller.
    Bordering the r x r block costs ceil((r - 1) / 2) matrix-vector products
    while the bordered block is symmetric, as a model's is, and r - 1 otherwise;
    ``map`` stops at its shorter argument, so every caller passes a square ``F``."""
    n = len(entries)
    ratios = [[x.as_integer_ratio() for x in row] for row in entries]  # one read of each entry
    d = lcm(*(q for row in ratios for _, q in row))
    a = [[p * (d // q) for p, q in row] for row in ratios]
    # c: det(u I - A_r) of the leading r x r block, descending.  Bordering it
    # by row r multiplies c by the Toeplitz matrix with first column
    # (1, -a_rr, -R C, -R A_r C, ..., -R A_r^(r-1) C).  v is A_r^m C, or A_r^(m - m//2) C
    # while the bordered block is symmetric: then R = C^T and R A_r^m C = (A_r^(m//2) C) . v.
    c, sym = [1], True
    for r in range(n):
        block = a[:r]
        v = [row[r] for row in block]
        krylov, sym = [v], sym and a[r][:r] == v
        t = [1, -a[r][r]]
        for m in range(r):
            if m and (not sym or m % 2):
                v = [sum(map(mul, row, v)) for row in block]
                krylov.append(v)
            t.append(-sum(map(mul, krylov[m // 2] if sym else a[r], v)))
        c = [sum(map(mul, t[k::-1], c)) for k in range(r + 2)]
    return d, c[::-1]


def charpoly(entries: Sequence[Sequence[Fraction]]) -> tuple[Fraction, ...]:
    """Coefficients of ``det(u I - F)``, ascending: ``c_k / D^(n-k)`` for the
    integers ``D`` and ``c_k`` of :func:`_berkowitz`; ``F`` is read by :func:`read_matrix`."""
    d, c = _berkowitz(read_matrix(entries))
    return tuple(Fraction(ck, d ** (len(c) - 1 - k)) for k, ck in enumerate(c))


def profile_from_matrix(m: SymMatrixModel) -> IntersectionProfile:
    """Intersection profile of the modelled pair.

    The identity ``chi_polynomial(profile) = L^n * charpoly(F)`` pins down
    every entry: with ``det(u I - D F) = sum c_k u^k`` in integers,
    ``v[k] = (-1)^(n-k) L^n c_k / (D^(n-k) C(n, k))``, one exact division.
    Non-integral entries mean the matrix does not model an integral bundle
    against this ``L^n`` and are an error, never rounded.
    """
    d, c = _berkowitz(m.entries)
    v = []
    for k, ck in enumerate(c):
        num = (-1) ** (m.n - k) * m.top_l * ck
        den = d ** (m.n - k) * comb(m.n, k)
        value, rest = divmod(num, den)
        if rest:
            # str() of a huge denominator passes the int-string limit.
            raise NonIntegralProfile(
                f"entry k={k} is not an integer: its denominator has "
                f"{(den // gcd(num, den)).bit_length()} bits (L^n = {describe_int(m.top_l)})"
            )
        v.append(value)
    return IntersectionProfile(m.n, tuple(v))


# ---------------------------------------------------------------------------
# Profile operations.

def is_proportional(p: IntersectionProfile) -> Fraction | None:
    """The rational t with ``M = t L`` numerically, if one exists.

    Such a t forces ``v[k] = t^(n-k) v[n]`` for every k, so it is determined
    by the last two entries, ``t = v[n-1] / v[n]``, and then verified against
    the whole profile in integers: ``v[k] v[n]^(n-k-1) = v[n-1]^(n-k)`` for
    k = n-2 down to 0.
    """
    v = p.v
    top, below = v[-1], v[-2]
    top_pow, below_pow = 1, below
    for x in reversed(v[:-2]):
        top_pow, below_pow = top_pow * top, below_pow * below
        if x * top_pow != below_pow:
            return None
    return Fraction(below, top)


def binary_profile(p: IntersectionProfile, a: int, b: int) -> IntersectionProfile:
    """Profile of ``B = aL + bM`` against ``L``, expanded by the binomial theorem;
    ``B``'s entry ``v[n]`` is ``L^n`` again, so the result is a valid profile."""
    require_int(a, "a")
    require_int(b, "b")
    n, v = p.n, p.v
    w = []
    for k in range(n + 1):
        d = n - k
        w.append(sum(comb(d, j) * a ** (d - j) * b**j * v[n - j] for j in range(d + 1)))
    return IntersectionProfile(n, tuple(w))
