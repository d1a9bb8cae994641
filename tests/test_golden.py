"""Byte-stability guards: what ``slope`` and ``scan`` emit on seeded corpora,
and what ``bound``, ``nef`` and ``s_invariant`` answer on those corpora and on
seeded -M-nef profiles, hash to pinned digests, so any change to an emitted
byte fails."""

import hashlib
import json
import random
from fractions import Fraction

from nefslope import IntersectionProfile, profile_from_matrix, scan, slope
from nefslope.errors import NegationIsNef
from nefslope.exactio import format_rational
from nefslope.generators import PRODUCT_MATRIX, RATIONAL_MATRIX, SURFACE, GenSpec, gen_random
from nefslope.simplicity import is_nef
from nefslope.slope import s_invariant, slope_lower_bound

DIGEST = "3154edbf4471ac874bdf8d4d655bd145aa4fcdf0c504da1732d179e377a230cc"
BOUND_NEF_DIGEST = "9cbdb5034efcb65234ee9b71a35e222f3403afdaab7b95605dfeff2f06da2eff"


def _profiles(kind: str, n: int, count: int) -> list:
    instances = gen_random(GenSpec(kind, seed=1, count=count, n=n, bound=10))
    return instances if kind == SURFACE else [profile_from_matrix(m) for m in instances]


def test_slope_and_scan_json_digest():
    digest = hashlib.sha256()
    for kind, ns in ((SURFACE, (2,)), (PRODUCT_MATRIX, (3, 4, 5)), (RATIONAL_MATRIX, (3, 4, 5))):
        for n in ns:
            for p in _profiles(kind, n, 40):
                digest.update(json.dumps(slope(p).refined(Fraction(1, 2**64)).to_json()).encode())
    for n in (3, 4, 5):
        profiles = _profiles(RATIONAL_MATRIX, n, 20) + _profiles(PRODUCT_MATRIX, n, 20)
        items = [(f"m{i}", p) for i, p in enumerate(profiles)]
        digest.update(json.dumps(scan(items).to_json()).encode())
    assert digest.hexdigest() == DIGEST


def _negation_nef_profiles() -> list:
    """-M nef, ``(-1)^(n-k) v[k] >= 0`` with zeros, then the same with one sign flipped."""
    rng = random.Random(29)
    out = []
    for _ in range(200):
        n = rng.randint(1, 8)
        signed = [(-1) ** (n - k) * rng.randint(0, 9) for k in range(n)] + [rng.randint(1, 9)]
        k = rng.randrange(n)
        flipped = signed[:k] + [-signed[k] or (-1) ** (n - k + 1)] + signed[k + 1:]
        out += [IntersectionProfile(n, tuple(signed)), IntersectionProfile(n, tuple(flipped))]
    return out


def test_bound_nef_and_s_invariant_digest():
    profiles = [p for kind, ns in ((SURFACE, (2,)), (PRODUCT_MATRIX, (3, 4, 5)), (RATIONAL_MATRIX, (3, 4, 5)))
                for n in ns for p in _profiles(kind, n, 40)]
    digest, refused = hashlib.sha256(), 0
    for p in profiles + _negation_nef_profiles():
        try:
            bound = format_rational(slope_lower_bound(p))
        except NegationIsNef as exc:
            bound, refused = f"NegationIsNef: {exc}", refused + 1
        root = s_invariant(p)
        record = [bound, is_nef(p).to_json(), None if root is None else root.to_json()]
        digest.update(json.dumps(record).encode())
    assert 200 <= refused < len(profiles) + 200
    assert digest.hexdigest() == BOUND_NEF_DIGEST
