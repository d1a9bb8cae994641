"""Exact integer-polynomial algebra and real-root certification.

Polynomials carry arbitrary-precision integer coefficients in ascending
degree order, and all exact algebra stays in the integers: remainders are
pseudo-remainders scaled by positive factors, gcds and Sturm chains are
primitive pseudo-remainder sequences, and every sign is that of homogeneous
integer Horner at a point ``(a : b)``, ``b >= 0``, with +-infinity as
``(+-1 : 0)``.  On top of this kernel the module provides:

* ``chi_polynomial`` -- the degree-n integer polynomial attached to an
  intersection profile, whose maximal real root is the reciprocal of the
  nef threshold;
* Sturm chains of the square-free part ``h = p / gcd(p, p')``, from one
  signed PRS of ``p`` and ``p'``.  Isolation counts roots of ``h`` on the
  chain (``sturm_count`` on ``(lo, hi]``, ``lo``/``hi`` rationals or
  +-infinity); refinement, ``compare_with_rational`` and the ``k/D`` check
  read only signs of ``h`` by Horner;
* ``isolate_max_root`` / ``refine`` -- certified isolation of the largest
  real root as an :class:`AlgebraicNumber`: isolation bisects from the
  power-of-two Fujiwara bound, and a narrowing by more than 64 bits runs
  quadratic interval refinement (QIR; Abbott, 2014), while shorter ones
  and ``clear_lower_end`` bisect;
* one divisor walk, ``_positive_points``: the coprime ``(r, s)``, r | c_z
  and s | c_d, ``c_z`` the lowest nonzero coefficient, from divisors by trial
  division below 1001, then Miller-Rabin primality proofs and Pollard-Brent
  factoring on one squaring budget (a cofactor unsplit and unproven, or past
  256 bits, is refused with :class:`InputError`).  ``candidate_rows``, the
  certificate trace, gives a row ``(r, s, num, den)`` per point with
  ``p(r/s) = num/den``; ``rational_root_candidates`` lists the quotients and
  their negatives; ``rational_roots`` keeps those where ``p`` vanishes at
  ``(+-r : s)``, and 0 if ``c_0 = 0``;
* ``cauchy_bound`` -- the classical radius ``1 + max |c_k / c_d|``
  enclosing every root.

``isolate_max_root`` enumerates no divisors: it isolates the top root of
the square-free part ``h`` and decides rationality by one exact check at
the one point ``k / lead(h)``, ``k`` an integer, that its narrowed interval
can hold.  An
:class:`AlgebraicNumber` is therefore rational exactly when its ``exact``
field is set; no numeric equality test against rationals is ever needed.
"""

import operator
from collections.abc import Iterable
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
        return Fraction(_scaled_value(self, x.numerator, x.denominator), x.denominator ** max(self.degree, 0))

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

def _scaled_value(p: IntPolynomial, a: int, b: int) -> int:
    """``b^d p(a/b)`` at the integer point ``(a : b)``, ``b >= 0``, by homogeneous Horner.

    For ``b > 0`` it has the sign of ``p(a/b)``, in lowest terms or not; at
    ``(+-1 : 0)`` it is ``lead(p) (+-1)^d``, the sign of ``p`` at +-infinity.
    """
    acc, scale = 0, 1
    for c in reversed(p.coeffs):
        acc = acc * a + c * scale
        scale *= b
    return acc


def _primitive(coeffs: Iterable[int], positive_lead: bool = False) -> IntPolynomial:
    """Strip trailing zeros and divide out the content, a positive factor that leaves every sign intact.

    ``positive_lead`` additionally flips the global sign to make the leading
    coefficient positive.
    """
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    content = gcd(*c)
    if positive_lead and c and c[-1] < 0:
        content = -content
    return IntPolynomial(tuple(x // content for x in c))


def _prem(a: IntPolynomial, b: IntPolynomial) -> list[int]:
    """Pseudo-remainder ``|lead(b)|^(deg a - deg b + 1) a mod b``; b must be nonzero.

    The scale factor is positive, so the result is a positive multiple of the
    remainder over the rationals and carries the same sign at every point.
    """
    r = list(a.coeffs)
    db, lb = b.degree, b.coeffs[-1]
    scale, sign = abs(lb), _sgn(lb)
    for k in range(len(r) - 1 - db, -1, -1):
        q = sign * r[-1]
        r = [scale * c for c in r]
        for i, c in enumerate(b.coeffs):
            r[i + k] -= q * c
        r.pop()
    return r


def _exquo(a: IntPolynomial, b: IntPolynomial) -> list[int]:
    """Quotient ``a / b`` for primitive b dividing a; integral by Gauss's lemma."""
    r = list(a.coeffs)
    db, lb = b.degree, b.coeffs[-1]
    out = [0] * (len(r) - db)
    for k in range(len(out) - 1, -1, -1):
        q = out[k] = r[-1] // lb
        for i, c in enumerate(b.coeffs):
            r[i + k] -= q * c
        r.pop()
    if any(r):
        raise ArithmeticError("polynomial division is not exact")
    return out


# ---------------------------------------------------------------------------
# Sturm chains and root counting.

class SturmChain(Record):
    """Signed remainder sequence of the square-free part of a polynomial.

    Every element is primitive; content is divided out by positive factors
    only, which leaves all sign variations intact.
    """

    _fields = ("polys",)


def sturm_chain(p: IntPolynomial) -> SturmChain:
    """Sturm chain of the square-free part of ``p``.

    The signed primitive PRS of ``f0`` and ``f0'`` ends in ``gcd(p, p')`` up
    to sign: a constant end makes it the chain, otherwise it runs once more
    on the square-free ``f0 / gcd``.
    """
    if p.is_zero:
        raise ValueError("cannot build a Sturm chain for the zero polynomial")
    f0 = _primitive(p.coeffs, positive_lead=True)
    while True:
        seq, f1 = [f0], _primitive(f0.derivative().coeffs)
        while not f1.is_zero:
            seq.append(f1)
            f1 = _primitive(-c for c in _prem(seq[-2], seq[-1]))
        if seq[-1].degree == 0:
            return SturmChain(tuple(seq))
        f0 = _primitive(_exquo(f0, seq[-1]), positive_lead=True)


def _point(x: Endpoint | int) -> tuple[int, int]:
    """The integer point ``(a : b)`` of a rational, or ``(+-1 : 0)`` of +-infinity."""
    if isinstance(x, float):
        if not isinf(x):
            raise ValueError(f"endpoint {x!r}: a finite endpoint must be a Fraction or an int")
        return (1 if x > 0 else -1), 0
    return x.numerator, x.denominator


def _variations(chain: SturmChain, a: int, b: int) -> int:
    """Sign variations of the chain at the point ``(a : b)``."""
    signs = [s for s in (_sgn(_scaled_value(q, a, b)) for q in chain.polys) if s]
    return sum(1 for x, y in zip(signs, signs[1:]) if x != y)


def sturm_count(chain: SturmChain, lo: Endpoint, hi: Endpoint) -> int:
    """Number of distinct real roots in the half-open interval ``(lo, hi]``."""
    if not lo < hi:
        raise ValueError(f"empty interval ({lo}, {hi}]")
    count = _variations(chain, *_point(lo)) - _variations(chain, *_point(hi))
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


def _fujiwara_bound(p: IntPolynomial) -> Fraction:
    """A power of two ``B`` with every root of ``p`` strictly inside ``(-B, B)``.

    Fujiwara's bound ``2 max_k |c_{d-k} / c_d|^(1/k)`` (Fujiwara, 1916) over
    the nonzero lower coefficients, rounded up by bit lengths: as
    ``|c_{d-k} / c_d| < 2^(bits(c_{d-k}) - bits(c_d) + 1)``, ``B`` is ``2^(1 +
    max_k ceil((bits(c_{d-k}) - bits(c_d) + 1) / k))``, and 1 when every
    lower coefficient is zero.
    """
    top = p.coeffs[-1].bit_length()
    exps = [-((top - 1 - c.bit_length()) // k) for k, c in enumerate(reversed(p.coeffs[:-1]), 1) if c]
    return Fraction(2) ** (1 + max(exps)) if exps else Fraction(1)


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
        num, den = _scaled_value(p, r, s), s**d
        g = gcd(num, den)
        rows.append((r, s, num // g, den // g))
    return tuple(rows)


def rational_root_candidates(p: IntPolynomial) -> tuple[Fraction, ...]:
    """All candidates +-r/s with r | |c_0| and s | |c_d|, in descending order.

    Zero roots are stripped first; 0 itself is never listed as a candidate.
    """
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
    above = [Fraction(r, s) for r, s in points if _scaled_value(p, r, s) == 0]
    below = [Fraction(-r, s) for r, s in reversed(points) if _scaled_value(p, -r, s) == 0]
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


def _cells(a: int, c: int, b: int, width: Fraction) -> int:
    """The least ``2^k`` with ``(c - a) / (b 2^k) <= width``."""
    return 1 << (((c - a) * width.denominator - 1) // (width.numerator * b)).bit_length()


def _bisect(p: IntPolynomial, lo: Fraction, hi: Fraction, width: Fraction | None = None) -> AlgebraicNumber:
    """Narrow ``(lo, hi]``, isolating a root of ``p``, until an evaluated
    point is the root or the ends ``(a/b, c/b]`` meet the stopping rule:
    with a ``width``, ``c/b - a/b <= width``; without one, the interval
    keeps clear of 0 and ``p(a/b) != 0``.

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
    b = lcm(lo.denominator, hi.denominator)
    a, c = lo.numerator * (b // lo.denominator), hi.numerator * (b // hi.denominator)
    if width is not None:
        num, den = width.numerator, width.denominator
    d, v_hi = p.degree, None
    while not ((c - a) * den <= num * b if width is not None else (a > 0 or c < 0) and _scaled_value(p, a, b) != 0):
        if v_hi is None:
            # The first step takes the value at hi, and for QIR at lo.
            v_hi = _scaled_value(p, c, b)
            if v_hi == 0:
                return AlgebraicNumber.from_rational(hi)
            s_hi = _sgn(v_hi)
            n = 4 if width is not None and _cells(a, c, b, width) > _QIR_CELLS else 0
            v_lo = _scaled_value(p, a, b) if n else 0
        if n:
            m = min(n, _cells(a, c, b, width))
            # The secant crosses zero at the share v_lo / (v_lo - v_hi) of the
            # interval; the guess is the nearest inner grid point.
            t, u = -s_hi * v_lo * m, s_hi * (v_hi - v_lo)
            j = min(max((2 * t + u) // (2 * u), 1), m - 1)
            step, base, bm = c - a, a * m, b * m
            v = _scaled_value(p, base + j * step, bm)
            if v == 0:
                return AlgebraicNumber.from_rational(Fraction(base + j * step, bm))
            k = j - 1 if _sgn(v) == s_hi else j + 1
            if k == 0 or k == m:
                w = (v_lo if k == 0 else v_hi) * m**d
            elif (w := _scaled_value(p, base + k * step, bm)) == 0:
                return AlgebraicNumber.from_rational(Fraction(base + k * step, bm))
            if _sgn(w) != _sgn(v):
                a, b, n = base + min(j, k) * step, bm, n * n
                c, (v_lo, v_hi) = a + step, ((w, v) if k < j else (v, w))
                continue
            n = max(4, isqrt(n))
        mid, b = a + c, 2 * b
        v = _scaled_value(p, mid, b)
        if v == 0:
            return AlgebraicNumber.from_rational(Fraction(mid, b))
        if _sgn(v) == s_hi:
            a, c, v_lo, v_hi = 2 * a, mid, v_lo << d, v
        else:
            a, c, v_lo, v_hi = mid, 2 * c, v, v_hi << d
    return AlgebraicNumber(p, (Fraction(a, b), Fraction(c, b)))


def refine(a: AlgebraicNumber, width: Fraction) -> AlgebraicNumber:
    """Shrink the isolating interval to length <= ``width``; exact values pass through.

    A narrowing by more than 64 bits runs QIR, a shorter one bisects; see
    :func:`_bisect`.
    """
    width = Fraction(width)
    if width <= 0:
        raise ValueError("width must be positive")
    if a.exact is not None:
        return a
    return _bisect(a.minpoly_factor, *a.interval, width)


def clear_lower_end(a: AlgebraicNumber) -> AlgebraicNumber:
    """Bisect until ``(lo, hi]`` keeps clear of 0 and ``lo`` is not a root.

    ``lo`` may be a rational root of the defining polynomial below the
    number.  For a positive number the result has ``lo > 0``, and bisection
    keeps both properties, since ``lo`` only grows and a bisection midpoint
    that is a root makes the number exact.
    """
    if a.exact is not None:
        return a
    return _bisect(a.minpoly_factor, *a.interval)


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
    p = a.minpoly_factor
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
    if a.exact is None and _scaled_value(a.minpoly_factor, *_point(a.interval[1])) == 0:
        a = AlgebraicNumber.from_rational(a.interval[1])
    if a.exact is not None:
        if a.exact == 0:
            raise ZeroDivisionError("reciprocal of zero")
        return AlgebraicNumber.from_rational(1 / a.exact)
    lo, hi = a.interval
    rev = _primitive(reversed(a.minpoly_factor.coeffs), positive_lead=True)
    return AlgebraicNumber(rev, (1 / hi, 1 / lo))


# ---------------------------------------------------------------------------
# Maximal-root isolation.

def _isolate_topmost(chain: SturmChain, bound: Fraction) -> tuple[Fraction, Fraction] | None:
    """Shrink ``(-bound, bound]`` (no root above it) around the largest root,
    or None if it holds no root.  As in :func:`_bisect`, the ends share one
    denominator, and their variation counts are carried: one chain evaluation
    per step."""
    a, c, b = -bound.numerator, bound.numerator, bound.denominator
    v_lo, v_hi = _variations(chain, a, b), _variations(chain, c, b)
    if v_lo == v_hi:
        return None
    while v_lo - v_hi > 1:
        mid, b = a + c, 2 * b
        v_mid = _variations(chain, mid, b)
        if v_mid > v_hi:
            a, c, v_lo = mid, 2 * c, v_mid
        else:
            a, c, v_hi = 2 * a, mid, v_mid
    return Fraction(a, b), Fraction(c, b)


def isolate_max_root(p: IntPolynomial) -> AlgebraicNumber | None:
    """The largest real root of ``p``, or None if ``p`` has no real root.

    The root is isolated on the square-free part ``h`` by Sturm bisection
    from ``(-B, B]``, with ``B`` the power-of-two Fujiwara bound of ``h``,
    and narrowed by :func:`refine` to ``1/(2 D^2)``, ``D = lead(h)``, which
    runs QIR when that is more than 64 bits away.  A rational root of ``h``
    has a denominator dividing ``D``, so it is ``k/D`` for an integer ``k``,
    and the narrowed ``(lo, hi]`` holds at most one such point, ``k =
    floor(D hi)``; one exact evaluation decides it.  An irrational root keeps
    that narrowed interval.
    """
    if p.degree < 1:
        raise ValueError("isolate_max_root requires a nonzero polynomial of degree >= 1")
    chain = sturm_chain(p)
    h = chain.polys[0]
    top = _isolate_topmost(chain, _fujiwara_bound(h))
    if top is None:
        return None
    denom = h.coeffs[-1]
    root = refine(AlgebraicNumber(h, top), Fraction(1, 2 * denom * denom))
    if root.exact is not None:
        return root
    lo, hi = root.interval
    k = denom * hi.numerator // hi.denominator
    # The test lo < k/D matters when the root is irrational: k/D may then be
    # another root of h, below the maximum.
    if lo.numerator * denom < k * lo.denominator and _scaled_value(h, k, denom) == 0:
        return AlgebraicNumber.from_rational(Fraction(k, denom))
    return root


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
