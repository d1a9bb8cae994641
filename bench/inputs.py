"""Seeded benchmark inputs, built without the code under test.

The three instance kinds follow the published SplitMix64 recipe that
``nefslope.generators`` documents (increment 0x9E3779B97F4A7C15, mixers
0xBF58476D1CE4E5B9 and 0x94D049BB133111EB, bounded draws by reduction
modulo the range).  Inputs therefore stay fixed when the package's own
generators change; :func:`library_drift` only reports whether they still
agree.

Instances are kept in the package's JSON wire form (strings for every
number), which is what the CLI reads and what the input digest hashes.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import factorial

_MASK = (1 << 64) - 1
_PYTHAGOREAN = ((3, 4, 5), (5, 12, 13), (8, 15, 17))

SURFACE = "surface"
PRODUCT_MATRIX = "product-matrix"
RATIONAL_MATRIX = "rational-matrix"


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return self.next_u64() % n

    def in_range(self, lo: int, hi: int) -> int:
        return lo + self.below(hi - lo + 1)


def _rational(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _surface(rng: SplitMix64, bound: int) -> dict:
    while True:
        l2 = rng.in_range(1, bound)
        lm = rng.in_range(-bound, bound)
        m2 = rng.in_range(-bound, bound)
        if lm * lm >= l2 * m2:
            return {"n": 2, "v": [str(m2), str(lm), str(l2)]}


def _matrix(n: int, rows) -> dict:
    return {"n": n, "Ln": str(factorial(n)), "F": [[_rational(Fraction(x)) for x in row] for row in rows]}


def _product_matrix(rng: SplitMix64, n: int, bound: int) -> dict:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.in_range(-bound, bound)
    return _matrix(n, rows)


def _rotate(rows, i, j, triple):
    """Conjugate by the rational rotation with cosine a/h and sine b/h on coordinates i, j."""
    a, b, h = triple
    c, s = Fraction(a, h), Fraction(b, h)
    out = [row[:] for row in rows]
    for t in range(len(rows)):
        out[t][i], out[t][j] = c * rows[t][i] - s * rows[t][j], s * rows[t][i] + c * rows[t][j]
    mid = [row[:] for row in out]
    for t in range(len(rows)):
        out[i][t], out[j][t] = c * mid[i][t] - s * mid[j][t], s * mid[i][t] + c * mid[j][t]
    return out


def _rational_matrix(rng: SplitMix64, n: int, bound: int) -> dict:
    """Integer spectrum with a positive maximum, conjugated by up to two rotations."""
    while True:
        spectrum = [rng.in_range(-bound, bound) for _ in range(n)]
        if max(spectrum) > 0 and len(set(spectrum)) > 1:
            break
    rows = [[Fraction(spectrum[i]) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for _ in range(rng.below(3)):
        i = rng.below(n)
        j = rng.below(n - 1)
        if j >= i:
            j += 1
        rows = _rotate(rows, i, j, _PYTHAGOREAN[rng.below(len(_PYTHAGOREAN))])
    return _matrix(n, rows)


def draw(kind: str, seed: int, count: int, n: int = 2, bound: int = 10) -> list[dict]:
    """``count`` instances of ``kind`` from one SplitMix64 stream."""
    rng = SplitMix64(seed)
    if kind == SURFACE:
        return [_surface(rng, bound) for _ in range(count)]
    if kind == PRODUCT_MATRIX:
        return [_product_matrix(rng, n, bound) for _ in range(count)]
    if kind == RATIONAL_MATRIX:
        return [_rational_matrix(rng, n, bound) for _ in range(count)]
    raise ValueError(f"unknown kind {kind!r}")


class Stratum:
    """One input class of a workload: a kind, its size parameters and a sub-seed."""

    def __init__(self, kind: str, n: int, bound: int, count: int):
        self.kind, self.n, self.bound, self.count = kind, n, bound, count

    def label(self) -> str:
        return f"{self.kind}/n={self.n}/bound={self.bound}"

    def draw(self, seed: int, index: int) -> list[dict]:
        return draw(self.kind, sub_seed(seed, index), self.count, self.n, self.bound)


def sub_seed(seed: int, index: int) -> int:
    return seed * 64 + index


def digest(instances) -> str:
    blob = json.dumps(instances, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def library_drift(strata: list[Stratum], seed: int, pools: list[list[dict]], tracer) -> int:
    """Instances on which ``nefslope.generators`` disagrees with :func:`draw`.

    The package's generator is called for every stratum under a
    ``generators.gen`` span, so its cost is part of the set-up it times.
    """
    from nefslope import generators

    drift = 0
    for index, (stratum, pool) in enumerate(zip(strata, pools)):
        spec = generators.GenSpec(
            kind=stratum.kind, seed=sub_seed(seed, index), count=stratum.count, n=stratum.n, bound=stratum.bound
        )
        with tracer.span("generators.gen"):
            theirs = generators.gen_random(spec)
        drift += sum(1 for mine, inst in zip(pool, theirs) if inst.to_json() != mine)
    return drift
