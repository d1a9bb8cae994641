"""Deterministic instance builders for tests and demos.

Random streams use SplitMix64 with the standard constants (increment
0x9E3779B97F4A7C15, mixers 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB,
shifts 30/27/31); bounded draws reduce the 64-bit output modulo the range
size, so a range holds at most 2^64 values and ``bound`` is at most
2^63 - 1.  The algorithm is fixed so that a seed produces the identical
instance stream in any implementation.

Three kinds of instances are generated:

* ``surface``   -- integer surface profiles satisfying the index inequality;
* ``product-matrix``  -- symmetric integer matrix models (real spectrum for free);
* ``rational-matrix`` -- matrix models built around an integer spectrum, so the
  threshold is certified rational; used to exercise the witness pipeline.
"""

from collections.abc import Sequence
from fractions import Fraction
from math import factorial

from .errors import InputError
from .exactio import Record, require_int
from .numdata import IntersectionProfile, SymMatrixModel, hodge_violation

_INCREMENT = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1

SURFACE = "surface"
PRODUCT_MATRIX = "product-matrix"
RATIONAL_MATRIX = "rational-matrix"
KINDS = (SURFACE, PRODUCT_MATRIX, RATIONAL_MATRIX)

# Orthogonal 2x2 rotation blocks with exactly representable rational entries.
_PYTHAGOREAN = ((3, 4, 5), (5, 12, 13), (8, 15, 17))


class SplitMix64:
    """Counter-based 64-bit generator; the seed fully determines the stream."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _INCREMENT) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        if n <= 0:
            raise ValueError("range size must be positive")
        return self.next_u64() % n

    def in_range(self, lo: int, hi: int) -> int:
        """Uniform draw from the inclusive range [lo, hi]."""
        return lo + self.below(hi - lo + 1)


class GenSpec(Record):
    """Reproducible instance request: kind, size parameters and seed."""

    _fields = ("kind", "seed", "count", "n", "bound")

    def __init__(self, kind: str, seed: int, count: int, n: int = 2, bound: int = 10):
        if kind not in KINDS:
            raise InputError(f"unknown generator kind {kind!r}; expected one of {KINDS}")
        require_int(seed, "seed")
        require_int(count, "count", 0)
        require_int(n, "n", 2 if kind == RATIONAL_MATRIX else 1)  # a rational-matrix spectrum is never constant
        require_int(bound, "bound", 1)  # first, so that 0 keeps its "at least 1" message
        require_int(bound, "bound", 1, 2**63 - 1)  # one 64-bit draw spans [-bound, bound]
        d = self.__dict__
        d["kind"], d["seed"], d["count"], d["n"], d["bound"] = kind, seed, count, n, bound


def gen_product(n: int, entries: Sequence[Sequence[int]]) -> SymMatrixModel:
    """Matrix model on an n-fold elliptic product; ``L^n = n!``."""
    return SymMatrixModel(n, entries, factorial(n))


def _draw_surface(rng: SplitMix64, bound: int) -> IntersectionProfile:
    while True:
        l2 = rng.in_range(1, bound)
        lm = rng.in_range(-bound, bound)
        m2 = rng.in_range(-bound, bound)
        profile = IntersectionProfile(2, (m2, lm, l2))
        if hodge_violation(profile) is None:
            return profile


def _draw_product_matrix(rng: SplitMix64, n: int, bound: int) -> SymMatrixModel:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.in_range(-bound, bound)
    return gen_product(n, rows)


def _draw_rational_matrix(rng: SplitMix64, n: int, bound: int) -> SymMatrixModel:
    """Symmetric matrix with a known integer spectrum.

    The spectrum has a positive maximum and is never constant, so the
    threshold of the modelled pair is finite, rational and the pair is not
    proportional to the polarization.  Up to two rotations, with cosine a/h
    and sine b/h on coordinates i and j, conjugate it in integers, by ``Q``, h
    times each; the product of the h^2 divides it once, into ints where it can.
    """
    while True:
        spectrum = [rng.in_range(-bound, bound) for _ in range(n)]
        if max(spectrum) > 0 and len(set(spectrum)) > 1:
            break
    rows = [[spectrum[i] if i == j else 0 for j in range(n)] for i in range(n)]
    scale = 1
    for _ in range(rng.below(3)):
        i = rng.below(n)
        j = rng.below(n - 1)
        if j >= i:
            j += 1
        a, b, h = _PYTHAGOREAN[rng.below(len(_PYTHAGOREAN))]
        for _ in range(2):  # Q G, then Q (Q G)^T = Q G Q^T, as G is symmetric
            out = [[h * x for x in row] for row in rows]
            out[i] = [a * x - b * y for x, y in zip(rows[i], rows[j])]
            out[j] = [b * x + a * y for x, y in zip(rows[i], rows[j])]
            rows = [list(col) for col in zip(*out)]
        scale *= h * h
    entries = tuple(tuple(x // scale if x % scale == 0 else Fraction(x, scale) for x in row) for row in rows)
    return SymMatrixModel(n, entries, factorial(n))


def gen_random(spec: GenSpec) -> list[IntersectionProfile | SymMatrixModel]:
    """Seeded stream of valid instances of the requested kind.

    Rejection sampling preserves determinism: invalid draws consume the
    same generator state on every run.
    """
    rng = SplitMix64(spec.seed)
    out: list[IntersectionProfile | SymMatrixModel] = []
    for _ in range(spec.count):
        if spec.kind == SURFACE:
            out.append(_draw_surface(rng, spec.bound))
        elif spec.kind == PRODUCT_MATRIX:
            out.append(_draw_product_matrix(rng, spec.n, spec.bound))
        else:
            out.append(_draw_rational_matrix(rng, spec.n, spec.bound))
    return out
