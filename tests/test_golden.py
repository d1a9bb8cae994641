"""Byte-stability guard: the JSON that ``slope`` and ``scan`` emit on seeded
corpora hashes to one pinned digest, so any change to an emitted byte fails."""

import hashlib
import json
from fractions import Fraction

from nefslope import profile_from_matrix, scan, slope
from nefslope.generators import PRODUCT_MATRIX, RATIONAL_MATRIX, SURFACE, GenSpec, gen_random

DIGEST = "3154edbf4471ac874bdf8d4d655bd145aa4fcdf0c504da1732d179e377a230cc"


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
