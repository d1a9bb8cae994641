"""Exact integer-polynomial algebra and real-root certification.

Polynomials carry arbitrary-precision integer coefficients in ascending
degree order, and all exact algebra stays in the integers.  One kernel on
plain coefficient lists runs the signed primitive pseudo-remainder sequence
(PRS) of ``f`` and ``f'``, scaling and dividing by positive factors only;
every other sign is that of homogeneous integer Horner at a point
``(a : b)``, ``b >= 0``, with +-infinity as ``(+-1 : 0)``.  The module provides:

* ``chi_polynomial`` -- the degree-n integer polynomial of an intersection
  profile, whose maximal real root is the reciprocal of the nef threshold;
* ``real_root_defect`` -- whether ``p`` is real-rooted: its distinct real
  roots are ``V(-inf) - V(+inf)`` on its one PRS, read off the leads;
* ``sturm_chain`` / ``sturm_count`` -- the PRS of the square-free part
  ``h = p / gcd(p, p')`` as records, and its root count on ``(lo, hi]``;
* ``isolate_max_root`` -- the largest real root as an
  :class:`AlgebraicNumber`, on one integer path: the PRS coefficient lists
  of ``h``, its ``V(+-inf)`` read off their leads, Sturm bisection from the
  power-of-two Fujiwara bound with no evaluation at its ends, and narrowing
  to ``1/(2 D^2)`` on the same shared-denominator ends ``(a, c, b)``, with
  ``D = lead(h)``; it enumerates no divisors, and one exact check at the one
  point ``k/D`` its interval can hold decides rationality.  The ``Fraction``
  ends and the records are built once, for the returned root;
* ``refine`` / ``clear_lower_end`` -- narrowing that converts an interval
  to integer ends once each way; past 64 bits it runs quadratic interval
  refinement (QIR; Abbott, 2014), else it bisects;
* one divisor walk, ``_positive_points``: the coprime ``(r, s)``, r | c_z and
  s | c_d, ``c_z`` the lowest nonzero coefficient, by trial division below
  1001, then Miller-Rabin proofs and Pollard-Brent factoring on one squaring
  budget (a cofactor unsplit and unproven, or past 256 bits, is refused with
  :class:`InputError`); ``candidate_rows`` (the certificate trace),
  ``rational_root_candidates`` and ``rational_roots`` read it;
* ``cauchy_bound`` -- the classical radius ``1 + max |c_k / c_d|``.

An :class:`AlgebraicNumber` is rational exactly when its ``exact`` field is
set; no numeric equality test against rationals is ever needed.
"""
import operator
from collections.abc import Iterable, Sequence
from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb, gcd, isinf, isqrt, lcm

from .errors import InputError
from .exactio import Record, describe_int, format_int, format_rational, is_int

NEG_INF = float("-inf")
POS_INF = float("inf")

#: Interval width used for display purposes only; certificates never depend on it.
DEFAULT_WIDTH = Fraction(1, 2**64)

Endpoint = Fraction | float


def _sgn(x) -> int:
    return (x > 0) - (x < 0)


class IntPolynomial(Record):
    """Integer polynomial ``c[0] + c[1] u + ... + c[d] u^d`` with ``c[d] != 0``.

    The zero polynomial is the empty coefficient tuple.
    """

    _fields = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        for c in coeffs:
            if type(c) is not int and not is_int(c):  # the hot path calls nothing for an exact int
                raise TypeError(f"coefficients must be exact integers, got {c!r}")
        if coeffs and coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero (use IntPolynomial.of)")
        self.__dict__["coeffs"] = coeffs

    @classmethod
    def of(cls, coeffs: Iterable[int | Fraction]) -> "IntPolynomial":
        """Build from any integral coefficient sequence but ``bool``, stripping trailing zeros."""
        out = []
        for c in coeffs:
            if isinstance(c, Fraction):
                if c.denominator != 1:
                    raise ValueError(f"non-integral coefficient {c}")
                c = c.numerator
            elif isinstance(c, bool):
                raise TypeError(f"coefficients must be exact integers, got {c!r}")
            out.append(operator.index(c))
        while out and out[-1] == 0:
            out.pop()
        return cls(tuple(out))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x: Fraction | int) -> Fraction:
        """Exact value at an int or Fraction argument."""
        return Fraction(_scaled_value(self.coeffs, x.numerator, x.denominator), x.denominator ** max(self.degree, 0))

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial(tuple(k * c for k, c in enumerate(self.coeffs))[1:])

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                term = describe_int(mag)
            else:
                head = "" if mag == 1 else f"{describe_int(mag)}*"
                term = f"{head}u" if k == 1 else f"{head}u^{k}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def to_json(self) -> dict:
        return {"coeffs": [format_int(c) for c in self.coeffs]}


# ---------------------------------------------------------------------------
# Integer coefficient arithmetic (internal).

def _scaled_value(p: Sequence[int], a: int, b: int) -> int:
    """``b^d p(a/b)`` at the integer point ``(a : b)``, ``b >= 0``, by homogeneous
    Horner on the ascending coefficients ``p`` of degree ``d``.

    For ``b > 0`` it has the sign of ``p(a/b)``, in lowest terms or not; at
    ``(+-1 : 0)`` it is ``lead(p) (+-1)^d``, the sign of ``p`` at +-infinity.
    """
    acc, scale = 0, 1
    for c in reversed(p):
        acc = acc * a + c * scale
        scale *= b
    return acc


def _primitive(c: list[int], sign: int = 1) -> list[int]:
    """Strip trailing zeros off ``c`` in place and divide by ``sign`` times its
    positive content: ``sign`` 1 keeps every sign, -1 flips them all, and 0
    takes the sign of the lead of a nonzero ``c``, to make the lead positive."""
    while c and c[-1] == 0:
        c.pop()
    content = gcd(*c) * (sign or _sgn(c[-1]))
    return [x // content for x in c]


def _prs(f: list[int]) -> list[list[int]]:
    """The signed primitive PRS of ``f`` and ``f'``: ``f``, the primitive part
    of ``f'``, then that of each ``-prem(f_(i-1), f_i)`` until one vanishes;
    the last member is ``gcd(f, f')`` up to sign.  A pseudo-remainder is the
    remainder times ``|lead(f_i)|^(deg f_(i-1) - deg f_i + 1)`` and contents
    are positive, so each member has the signed remainder sequence's signs."""
    seq, g = [f], _primitive([k * c for k, c in enumerate(f)][1:])
    while g:
        seq.append(g)
        r, scale, sign = seq[-2], abs(g[-1]), _sgn(g[-1])
        for k in range(len(r) - len(g), -1, -1):
            q = sign * r[-1]
            r = [scale * x for x in r[:k]] + [scale * x - q * y for x, y in zip(r[k:-1], g)]
        g = _primitive(r, -1)
    return seq


def _exquo(a: list[int], b: list[int]) -> list[int]:
    """Quotient ``a / b`` for primitive b dividing a; integral by Gauss's lemma."""
    out = []
    for k in range(len(a) - len(b), -1, -1):
        out.append(q := a[-1] // b[-1])
        a = a[:k] + [x - q * y for x, y in zip(a[k:-1], b)]
    if any(a):
        raise ArithmeticError("polynomial division is not exact")
    return out[::-1]


# ---------------------------------------------------------------------------
# Sturm chains and root counting.

class SturmChain(Record):
    """Signed remainder sequence of the square-free part of a polynomial; every
    element is primitive, its content divided out by a positive factor."""

    _fields = ("polys",)


def _square_free_prs(coeffs: Sequence[int]) -> list[list[int]]:
    """The signed PRS of ``f0``, the primitive part of ``coeffs`` with a positive
    lead, if it ends in a constant, else that of ``f0 / gcd(f0, f0')``: a Sturm
    sequence of the square-free part ``h``, its first member."""
    seq = _prs(_primitive(list(coeffs), 0))
    if len(seq[-1]) > 1:
        seq = _prs(_primitive(_exquo(seq[0], seq[-1]), 0))
    return seq


def sturm_chain(p: IntPolynomial) -> SturmChain:
    """Sturm chain of the square-free part of ``p`` (:func:`_square_free_prs`)."""
    if p.is_zero:
        raise ValueError("cannot build a Sturm chain for the zero polynomial")
    return SturmChain(tuple(IntPolynomial(tuple(g)) for g in _square_free_prs(p.coeffs)))


def _end_variations(seq: list[list[int]]) -> tuple[int, int]:
    """``V(-inf)``, ``V(+inf)`` of a PRS: the sign changes along ``(-1)^deg lead`` and ``lead``."""
    pos = [g[-1] > 0 for g in seq]
    neg = [s == len(g) % 2 for s, g in zip(pos, seq)]
    return sum(map(operator.ne, neg, neg[1:])), sum(map(operator.ne, pos, pos[1:]))


def real_root_defect(p: IntPolynomial) -> tuple[int, IntPolynomial] | None:
    """None if every root of a nonzero ``p`` is real; else the number of its
    distinct real roots and its square-free part ``h``, of larger degree.
    By Sturm's theorem on one signed PRS ``f_0, ..., f_m`` of ``f0`` and ``f0'``
    the count is ``V(-inf) - V(+inf)``, and ``deg h = deg f0 - deg f_m``; ``h =
    f0 / f_m``, primitive with a positive lead, is built only for a defect."""
    seq = _prs(_primitive(list(p.coeffs), 0))
    real = operator.sub(*_end_variations(seq))
    if real == len(seq[0]) - len(seq[-1]):
        return None
    return real, IntPolynomial(tuple(_primitive(_exquo(seq[0], seq[-1]), 0)))


def _point(x: Endpoint | int) -> tuple[int, int]:
    """The integer point ``(a : b)`` of a rational, or ``(+-1 : 0)`` of +-infinity."""
    if isinstance(x, float):
        if not isinf(x):
            raise ValueError(f"endpoint {x!r}: a finite endpoint must be a Fraction or an int")
        return (1 if x > 0 else -1), 0
    return x.numerator, x.denominator


def _variations(seq: Sequence[Sequence[int]], a: int, b: int) -> int:
    """Sign variations of the coefficient sequences ``seq`` at the point ``(a : b)``."""
    signs = [v > 0 for q in seq if (v := _scaled_value(q, a, b))]
    return sum(map(operator.ne, signs, signs[1:]))


def sturm_count(chain: SturmChain, lo: Endpoint, hi: Endpoint) -> int:
    """Number of distinct real roots in the half-open interval ``(lo, hi]``."""
    if not lo < hi:
        raise ValueError(f"empty interval ({lo}, {hi}]")
    seq = [q.coeffs for q in chain.polys]
    count = _variations(seq, *_point(lo)) - _variations(seq, *_point(hi))
    if count < 0:
        raise AssertionError("sign variations must be monotone along the chain")
    return count


# ---------------------------------------------------------------------------
# Root bounds and rational roots.

def cauchy_bound(p: IntPolynomial) -> Fraction:
    """``1 + max_k |c_k / c_d|`` over k < d; every root lies in (-bound, bound)."""
    if p.degree < 1:
        raise ValueError("Cauchy bound requires degree >= 1")
    lead = abs(p.coeffs[-1])
    top = max(abs(c) for c in p.coeffs[:-1])
    return 1 + Fraction(top, lead)


def _fujiwara_exponent(p: Sequence[int]) -> int:
    """An ``e`` with every root of the coefficients ``p`` strictly inside ``(-2^e, 2^e)``.

    Fujiwara's bound ``2 max_k |c_{d-k} / c_d|^(1/k)`` (Fujiwara, 1916) over
    the nonzero lower coefficients, rounded up by bit lengths: as
    ``|c_{d-k} / c_d| < 2^(bits(c_{d-k}) - bits(c_d) + 1)``, ``e`` is ``1 +
    max_k ceil((bits(c_{d-k}) - bits(c_d) + 1) / k)``, and 0 when every lower
    coefficient is zero.
    """
    top = p[-1].bit_length()
    exps = [-((top - 1 - c.bit_length()) // k) for k, c in enumerate(reversed(p[:-1]), 1) if c]
    return 1 + max(exps) if exps else 0


#: Miller-Rabin bases that prove primality below ``_MR_PROVEN`` (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN = 3317044064679887385961981


def _witnessed_composite(n: int, a: int) -> bool:
    """Whether the base ``a`` proves the odd ``n > a`` composite (Miller-Rabin)."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(a, (n - 1) >> s, n)
    if x == 1:
        return False
    for _ in range(s):
        if x == n - 1:
            return False
        x = x * x % n
    return True


#: Squarings :func:`_rho` may spend on one factorization, its splits together:
#: rounds of ``r = 1, 2, ..., 2^19`` steps, each counted as its ``2r``.  Products
#: of two 12-digit primes split in at most 0.9 million squarings, and the strong
#: pseudoprime ``_MR_PROVEN``, a product of two 13-digit primes, in 1.8 million;
#: past the budget the trace is refused, after about 1.4 s on CPython 3.11.
_RHO_BUDGET = 2**21


def _rho(n: int, steps: int) -> tuple[int, int]:
    """A proper divisor of a composite ``n`` with no factor below 1001 and the
    squarings spent, ``steps`` before this call, by Brent's rho on ``y -> y^2 + c``
    (Brent, BIT 1980): one gcd per 128 steps, a batch that reaches ``n`` replayed
    step by step, the next ``c`` if that reaches ``n`` too.  A round that would
    pass ``_RHO_BUDGET`` squarings raises :class:`InputError`."""
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if (steps := steps + 2 * r) > _RHO_BUDGET:
                raise InputError(
                    f"divisor trace: cannot split a composite cofactor of {n.bit_length()} bits "
                    f"within {_RHO_BUDGET} squarings of Pollard-Brent rho"
                )
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            for k in range(0, r, 128):
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                if (g := gcd(q, n)) != 1:
                    break
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g, steps
    raise ArithmeticError(f"no factor of {n} found")


#: Bits past which trial division's cofactor is refused: rho and Miller-Rabin cost more per bit.
_FACTOR_BITS = 256


def _prime_factors(m: int) -> list[int]:
    """The prime factors of ``m > 0`` with multiplicity, by trial division
    until ``d^2`` passes the shrinking cofactor, which leaves 1 or a prime.
    At ``d = 1001`` a cofactor past ``_FACTOR_BITS`` is refused, and a smaller
    one, and each part it splits into, has one outcome: a Miller-Rabin base
    witnesses it composite and :func:`_rho` splits it, all splits sharing one
    ``_RHO_BUDGET``; or no base 2..41 does below ``_MR_PROVEN``, and it is prime;
    or no base 2..999 does at or above that bound, and :class:`InputError`
    refuses it, because no verdict rests on a probabilistic test."""
    primes, d = [], 2
    while d * d <= m:
        if d == 1001:
            if (bits := m.bit_length()) > _FACTOR_BITS:
                raise InputError(f"divisor trace: a cofactor of {bits} bits passes the {_FACTOR_BITS}-bit limit")
            parts, steps = [m], 0
            while parts:
                m = parts.pop()
                if any(_witnessed_composite(m, a) for a in (_MR_BASES if m < _MR_PROVEN else range(2, 1000))):
                    g, steps = _rho(m, steps)
                    parts += [g, m // g]
                elif m < _MR_PROVEN:
                    primes.append(m)
                else:
                    raise InputError(
                        f"divisor trace: cannot prove a cofactor of {m.bit_length()} bits prime; "
                        f"Miller-Rabin proves primality only below {_MR_PROVEN}"
                    )
            return primes
        while m % d == 0:
            m //= d
            primes.append(d)
        d += 1 if d == 2 else 2
    return primes + [m] * (m > 1)


def _divisors(m: int) -> list[int]:
    """Positive divisors of a nonzero ``m``, ascending: the products of its prime powers."""
    divs, start, last = [1], 0, 0
    for p in sorted(_prime_factors(abs(m))):
        start = start if p == last else 0
        divs, start, last = divs + [x * p for x in divs[start:]], len(divs), p
    return sorted(divs)


def _positive_points(p: IntPolynomial) -> list[tuple[int, int]]:
    """The distinct positive candidates r/s for the nonzero rational roots of
    ``p = u^z core``, descending, as coprime ``(r, s)`` with r | c_z and s |
    c_d, ``c_z`` the lowest nonzero coefficient; none if the core is constant.
    Over ``D = |c_d|`` each is ``k/D`` with the integer key ``k = r (D/s)``, so
    the candidates are deduplicated and ordered as integers, and one gcd per
    key reduces it."""
    zeros = next((k for k, c in enumerate(p.coeffs) if c), 0)
    if p.degree - zeros < 1:
        return []
    lead = abs(p.coeffs[-1])
    nums, dens = _divisors(p.coeffs[zeros]), _divisors(lead)
    keys = {r * (lead // s) for r in nums for s in dens}
    return [(k // (g := gcd(k, lead)), lead // g) for k in sorted(keys, reverse=True)]


def candidate_rows(p: IntPolynomial) -> tuple[tuple[int, int, int, int], ...]:
    """A row ``(r, s, num, den)`` per positive candidate ``r/s``, descending, with
    ``p(r/s) = num/den``; each is ``s^d p(r/s)`` at ``(r : s)`` over ``s^d``,
    reduced by one gcd, so both fractions are in lowest terms."""
    rows, d = [], max(p.degree, 0)
    for r, s in _positive_points(p):
        num, den = _scaled_value(p.coeffs, r, s), s**d
        g = gcd(num, den)
        rows.append((r, s, num // g, den // g))
    return tuple(rows)


def rational_root_candidates(p: IntPolynomial) -> tuple[Fraction, ...]:
    """All candidates +-r/s with r | |c_0| and s | |c_d|, in descending order;
    zero roots are stripped first, and 0 itself is never listed."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    positive = tuple(Fraction(r, s) for r, s in _positive_points(p))
    return positive + tuple(-c for c in reversed(positive))


def rational_roots(p: IntPolynomial) -> tuple[Fraction, ...]:
    """All rational roots of ``p`` in lowest terms, descending: the candidates
    ``+-r/s`` at which ``p`` itself vanishes, since ``p = u^z core`` vanishes
    at ``r/s != 0`` exactly where its core does; and 0 if ``c_0 = 0``."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    points = _positive_points(p)
    above = [Fraction(r, s) for r, s in points if _scaled_value(p.coeffs, r, s) == 0]
    below = [Fraction(-r, s) for r, s in reversed(points) if _scaled_value(p.coeffs, -r, s) == 0]
    return tuple(above + [Fraction(0)] * (p.coeffs[0] == 0) + below)


# ---------------------------------------------------------------------------
# Algebraic numbers: certified real roots.

class AlgebraicNumber(Record):
    """An exact real algebraic number.

    ``minpoly_factor`` is square-free and has the number as its only root in
    the half-open interval ``(lo, hi]``.  ``exact`` is set if and only if the
    number is rational; in that case the defining polynomial is linear.
    """

    _fields = ("minpoly_factor", "interval", "exact")

    def __init__(
        self, minpoly_factor: IntPolynomial, interval: tuple[Fraction, Fraction], exact: Fraction | None = None
    ):
        d = self.__dict__
        d["minpoly_factor"], d["interval"], d["exact"] = minpoly_factor, interval, exact

    @classmethod
    def from_rational(cls, value: Fraction | int) -> "AlgebraicNumber":
        value = Fraction(value)
        minpoly = IntPolynomial((-value.numerator, value.denominator))
        return cls(minpoly, (value - 1, value), value)

    def midpoint(self) -> Fraction:
        if self.exact is not None:
            return self.exact
        lo, hi = self.interval
        return (lo + hi) / 2

    def __str__(self) -> str:
        if self.exact is not None:
            return f"{format_rational(self.exact)} (exact)"
        lo, hi = self.interval
        mid = (lo + hi) / 2
        try:
            approx = f"{float(mid):.12g}"
        except OverflowError:  # past the float range: decimal arithmetic at the same precision
            with localcontext(prec=12):
                approx = f"{Decimal(mid.numerator) / mid.denominator:.12g}"
        return f"~{approx} in ({format_rational(lo)}, {format_rational(hi)}]"

    def to_json(self) -> dict:
        lo, hi = self.interval
        return {
            "minpoly": self.minpoly_factor.to_json(),
            "interval": [format_rational(lo), format_rational(hi)],
            "exact": format_rational(self.exact) if self.exact is not None else None,
        }


#: Grid size past which :func:`_bisect` runs QIR: a narrowing by more than 64
#: bits.  Shorter ones bisect: there QIR's small grids gain little more than
#: a bit per evaluation, plus one evaluation at ``lo``, and measured slower.
_QIR_CELLS = 2**64


def _cells(a: int, c: int, b: int, num: int, den: int) -> int:
    """The least ``2^k`` with ``(c - a) / (b 2^k) <= num / den``."""
    return 1 << (((c - a) * den - 1) // (num * b)).bit_length()


def _bisect(p: Sequence[int], a: int, c: int, b: int, width: tuple[int, int] | None = None) -> tuple[int, int, int]:
    """Narrow ``(a/b, c/b]``, ``b > 0``, isolating a root of the coefficients
    ``p``, to ``(a, c, b)`` meeting the stopping rule, or to ``(x, x, y)`` once
    a point ``(x : y)`` is the root.  With a width ``num/den`` the rule is ``c/b
    - a/b <= num/den``; without, the interval keeps clear of 0 and ``p(a/b) != 0``.

    Bisection doubles ``b`` and the kept end, so the midpoint is ``(a + c :
    2b)`` and no fraction is reduced.  With a ``width``, the power-of-two
    grid size that reaches it chooses the steps: past ``_QIR_CELLS`` they are
    quadratic interval refinement (QIR; Abbott, 2014): the secant through the
    scaled values at both ends guesses a cell of an ``N``-cell grid with
    points ``(a N + j (c - a) : b N)``, and the signs at the ends of that
    cell check it.  A hit keeps the cell and squares ``N``; a miss takes
    ``N`` to ``max(4, isqrt N)`` and one bisection step.  Only signs equal
    to or opposite that at ``hi`` are read: ``lo`` may be a root below the
    number, and its value steers the secant only.
    """
    num, den = width or (0, 1)
    d, v_hi = len(p) - 1, None
    while not ((c - a) * den <= num * b if width is not None else (a > 0 or c < 0) and _scaled_value(p, a, b) != 0):
        if v_hi is None:
            # The first step takes the value at hi, and for QIR at lo.
            v_hi = _scaled_value(p, c, b)
            if v_hi == 0:
                return c, c, b
            s_hi = _sgn(v_hi)
            n = 4 if width is not None and _cells(a, c, b, num, den) > _QIR_CELLS else 0
            v_lo = _scaled_value(p, a, b) if n else 0
        if n:
            m = min(n, _cells(a, c, b, num, den))
            # The secant crosses zero at the share v_lo / (v_lo - v_hi) of the
            # interval; the guess is the nearest inner grid point.
            t, u = -s_hi * v_lo * m, s_hi * (v_hi - v_lo)
            j = min(max((2 * t + u) // (2 * u), 1), m - 1)
            step, base, bm = c - a, a * m, b * m
            v = _scaled_value(p, x := base + j * step, bm)
            if v == 0:
                return x, x, bm
            k = j - 1 if _sgn(v) == s_hi else j + 1
            if k == 0 or k == m:
                w = (v_lo if k == 0 else v_hi) * m**d
            elif (w := _scaled_value(p, x := base + k * step, bm)) == 0:
                return x, x, bm
            if _sgn(w) != _sgn(v):
                a, b, n = base + min(j, k) * step, bm, n * n
                c, (v_lo, v_hi) = a + step, ((w, v) if k < j else (v, w))
                continue
            n = max(4, isqrt(n))
        mid, b = a + c, 2 * b
        v = _scaled_value(p, mid, b)
        if v == 0:
            return mid, mid, b
        if _sgn(v) == s_hi:
            a, c, v_lo, v_hi = 2 * a, mid, v_lo << d, v
        else:
            a, c, v_lo, v_hi = mid, 2 * c, v, v_hi << d
    return a, c, b


def _narrow(a: AlgebraicNumber, width: tuple[int, int] | None = None) -> AlgebraicNumber:
    """:func:`_bisect` on the ends of ``a`` over their least common
    denominator, converted once each way; exact values pass through."""
    if a.exact is not None:
        return a
    (lo, hi), p = a.interval, a.minpoly_factor
    b = lcm(lo.denominator, hi.denominator)
    x, y, b = _bisect(p.coeffs, lo.numerator * (b // lo.denominator), hi.numerator * (b // hi.denominator), b, width)
    if x == y:
        return AlgebraicNumber.from_rational(Fraction(y, b))
    return AlgebraicNumber(p, (Fraction(x, b), Fraction(y, b)))


def refine(a: AlgebraicNumber, width: Fraction) -> AlgebraicNumber:
    """Shrink the isolating interval to length <= ``width`` by :func:`_bisect`
    (QIR past 64 bits); exact values pass through."""
    width = Fraction(width)
    if width <= 0:
        raise ValueError("width must be positive")
    return _narrow(a, (width.numerator, width.denominator))


def clear_lower_end(a: AlgebraicNumber) -> AlgebraicNumber:
    """Bisect until ``(lo, hi]`` keeps clear of 0 and ``lo`` is not a root.

    ``lo`` may be a rational root of the defining polynomial below the
    number.  For a positive number the result has ``lo > 0``, and bisection
    keeps both properties, since ``lo`` only grows and a bisection midpoint
    that is a root makes the number exact.
    """
    return _narrow(a)


def compare_with_rational(a: AlgebraicNumber, value: Fraction | int) -> int:
    """Exact three-way comparison of an algebraic number with a rational."""
    value = Fraction(value)
    if a.exact is not None:
        return _sgn(a.exact - value)
    lo, hi = a.interval
    if value <= lo:
        return 1
    if value > hi:
        return -1
    # value falls inside (lo, hi], where the number is the only root: a root
    # at hi or at value is the number, and otherwise the single sign change
    # locates the number relative to value.
    p = a.minpoly_factor.coeffs
    s_hi = _sgn(_scaled_value(p, *_point(hi)))
    if s_hi == 0:
        return _sgn(hi - value)
    return -_sgn(_scaled_value(p, *_point(value))) * s_hi


def reciprocal(a: AlgebraicNumber) -> AlgebraicNumber:
    """The reciprocal, via coefficient reversal of the defining polynomial."""
    # Inversion maps (lo, hi] onto [1/hi, 1/lo), read as (1/hi, 1/lo]; so
    # lo must not be a root, an interval that already holds the guard
    # inverts without bisection, and a root at hi is the number, exactly.
    a = clear_lower_end(a)
    if a.exact is None and _scaled_value(a.minpoly_factor.coeffs, *_point(a.interval[1])) == 0:
        a = AlgebraicNumber.from_rational(a.interval[1])
    if a.exact is not None:
        if a.exact == 0:
            raise ZeroDivisionError("reciprocal of zero")
        return AlgebraicNumber.from_rational(1 / a.exact)
    lo, hi = a.interval
    rev = _primitive(list(reversed(a.minpoly_factor.coeffs)), 0)
    return AlgebraicNumber(IntPolynomial(tuple(rev)), (1 / hi, 1 / lo))


# ---------------------------------------------------------------------------
# Maximal-root isolation.

def _isolate_topmost(seq: list[list[int]], a: int, c: int, b: int) -> tuple[int, int, int] | None:
    """Shrink ``(a/b, c/b]``, which holds every real root of the first member
    ``h`` of the Sturm sequence ``seq`` strictly inside, around the largest,
    in lowest terms, or None if ``h`` has no real root.  The ends' counts are
    those at +-infinity, off the leads; each step evaluates the chain once."""
    v_lo, v_hi = _end_variations(seq)
    if v_lo == v_hi:
        return None
    while v_lo - v_hi > 1:
        mid, b = a + c, 2 * b
        v_mid = _variations(seq, mid, b)
        if v_mid > v_hi:
            a, c, v_lo = mid, 2 * c, v_mid
        else:
            a, c, v_hi = 2 * a, mid, v_mid
    g = gcd(a, c, b)
    return a // g, c // g, b // g


def isolate_max_root(p: IntPolynomial) -> AlgebraicNumber | None:
    """The largest real root of ``p``, or None if ``p`` has no real root.

    The root is isolated on the square-free part ``h`` by Sturm bisection
    from ``(-B, B]``, ``B = 2^e`` the Fujiwara bound of ``h``, and narrowed by
    :func:`_bisect` to ``1/(2 D^2)``, ``D = lead(h)``, all on integer ends
    ``(a, c, b)``.  A rational root of ``h`` is ``k/D`` for an integer ``k``,
    and the narrowed ``(lo, hi]`` holds at most one such point, ``k = floor(D
    hi)``; one exact evaluation decides it.  An irrational root keeps that
    narrowed interval.
    """
    if p.degree < 1:
        raise ValueError("isolate_max_root requires a nonzero polynomial of degree >= 1")
    seq = _square_free_prs(p.coeffs)
    h, e = seq[0], _fujiwara_exponent(seq[0])
    top = _isolate_topmost(seq, *((-1 << e, 1 << e, 1) if e >= 0 else (-1, 1, 1 << -e)))
    if top is None:
        return None
    denom = h[-1]
    a, c, b = _bisect(h, *top, (1, 2 * denom * denom))
    # The test a/b < k/D matters when the root is irrational: k/D may then be
    # another root of h, below the maximum.
    if a != c and a * denom < (k := denom * c // b) * b and _scaled_value(h, k, denom) == 0:
        a, c, b = k, k, denom
    if a == c:
        return AlgebraicNumber.from_rational(Fraction(c, b))
    return AlgebraicNumber(IntPolynomial(tuple(h)), (Fraction(a, b), Fraction(c, b)))


# ---------------------------------------------------------------------------
# The profile polynomial.

def chi_polynomial(profile: "IntersectionProfile") -> IntPolynomial:
    """Integer polynomial with coefficients ``(-1)^(n-k) C(n,k) v[k]``.

    Its leading coefficient is the top self-intersection of the
    polarization and its constant term is the signed top self-intersection
    of the second bundle; content is deliberately not stripped, since the
    divisor certificates read off these two coefficients.
    """
    n, v = profile.n, profile.v
    return IntPolynomial(tuple((-1) ** (n - k) * comb(n, k) * v[k] for k in range(n + 1)))
