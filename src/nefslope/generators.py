"""Deterministic instance builders for tests and demos.

Random streams use SplitMix64 with the standard constants (increment
0x9E3779B97F4A7C15, mixers 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB,
shifts 30/27/31); bounded draws reduce the 64-bit output modulo the range
size.  The algorithm is fixed so that a seed produces the identical
instance stream in any implementation.

Three kinds of instances are generated:

* ``surface``   -- integer surface profiles satisfying the index inequality;
* ``product-matrix``  -- symmetric integer matrix models (real spectrum for free);
* ``rational-matrix`` -- matrix models built around an integer spectrum, so the
  threshold is certified rational; used to exercise the witness pipeline.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import HodgeViolation, InputError
from .exactio import require_int
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


@dataclass(frozen=True)
class GenSpec:
    """Reproducible instance request: kind, size parameters and seed."""

    kind: str
    seed: int
    count: int
    n: int = 2
    bound: int = 10

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InputError(f"unknown generator kind {self.kind!r}; expected one of {KINDS}")
        least_n = 2 if self.kind == RATIONAL_MATRIX else 1  # a rational-matrix spectrum is never constant
        for field, least in (("seed", None), ("count", 0), ("n", least_n), ("bound", 1)):
            require_int(getattr(self, field), field, least)


def gen_product(n: int, entries: Sequence[Sequence[int]]) -> SymMatrixModel:
    """Matrix model on an n-fold elliptic product; ``L^n = n!``."""
    return SymMatrixModel(n, entries, factorial(n))


def gen_surface(l2: int, lm: int, m2: int) -> IntersectionProfile:
    """Surface profile ``(M^2, L.M, L^2)``; rejects index-inequality violations."""
    profile = IntersectionProfile(2, (m2, lm, l2))
    if violation := hodge_violation(profile):
        raise HodgeViolation(violation.message)
    return profile


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


def _rotate(rows: list[list[Fraction]], i: int, j: int, triple: tuple[int, int, int]) -> list[list[Fraction]]:
    """Conjugate by the rational rotation acting on coordinates i and j."""
    a, b, h = triple
    c, s = Fraction(a, h), Fraction(b, h)
    n = len(rows)
    out = [row[:] for row in rows]
    for t in range(n):
        out[t][i], out[t][j] = c * rows[t][i] - s * rows[t][j], s * rows[t][i] + c * rows[t][j]
    rows2 = [row[:] for row in out]
    for t in range(n):
        out[i][t], out[j][t] = c * rows2[i][t] - s * rows2[j][t], s * rows2[i][t] + c * rows2[j][t]
    return out


def _draw_rational_matrix(rng: SplitMix64, n: int, bound: int) -> SymMatrixModel:
    """Symmetric matrix with a known integer spectrum.

    The spectrum has a positive maximum and is never constant, so the
    threshold of the modelled pair is finite, rational and the pair is not
    proportional to the polarization.
    """
    while True:
        spectrum = [rng.in_range(-bound, bound) for _ in range(n)]
        if max(spectrum) > 0 and len(set(spectrum)) > 1:
            break
    rows: list[list[Fraction]] = [
        [Fraction(spectrum[i]) if i == j else Fraction(0) for j in range(n)] for i in range(n)
    ]
    for _ in range(rng.below(3)):
        i = rng.below(n)
        j = rng.below(n - 1)
        if j >= i:
            j += 1
        rows = _rotate(rows, i, j, _PYTHAGOREAN[rng.below(len(_PYTHAGOREAN))])
    return SymMatrixModel(n, tuple(tuple(row) for row in rows), factorial(n))


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
