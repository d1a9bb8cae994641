"""Independent correctness checks, run after the timed region.

Nothing here calls into ``nefslope``:

* surfaces use the exact integer quadratic formula;
* matrix thresholds and rationality verdicts use ``sympy`` (exact
  characteristic polynomial, real-root counts and rational roots);
* matrix ingestion uses a division-free Berkowitz characteristic
  polynomial and Descartes' rule of signs, which is exact for the
  real-rooted polynomials of symmetric matrices.

Every check returns ``None`` when the output is right and a message
otherwise.  ``sympy`` is imported only when a check first needs it, after
the timed region and the memory reading.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb, isqrt

DISPLAY_WIDTH = Fraction(1, 2**64)


def _chi_from_profile(n: int, v) -> list[int]:
    """Ascending coefficients ``(-1)^(n-k) C(n,k) v[k]`` of the profile polynomial."""
    return [(-1) ** (n - k) * comb(n, k) * v[k] for k in range(n + 1)]


# ---------------------------------------------------------------------------
# Surfaces: max root (lm + sqrt(disc)) / l2 of l2 u^2 - 2 lm u + m2.

def _sign_minus_sqrt(t: Fraction, disc: int) -> int:
    """Exact sign of ``t - sqrt(disc)``."""
    if t < 0:
        return -1
    d = t * t - disc
    return (d > 0) - (d < 0)


class Surface:
    def __init__(self, v):
        self.m2, self.lm, self.l2 = (int(x) for x in v)
        self.disc = self.lm * self.lm - self.l2 * self.m2
        root = isqrt(self.disc)
        self.rational = root * root == self.disc
        self.exact = Fraction(self.lm + root, self.l2) if self.rational else None
        self.positive = self.lm > 0 or self.m2 < 0

    def zeta_cmp(self, x: Fraction) -> int:
        """Exact sign of ``x - zeta``."""
        if self.rational:
            d = x - self.exact
            return (d > 0) - (d < 0)
        return _sign_minus_sqrt(x * self.l2 - self.lm, self.disc)

    def chi(self, u: Fraction) -> Fraction:
        return self.l2 * u * u - 2 * self.lm * u + self.m2


def _check_trace(s: Surface, trace: list) -> str | None:
    for entry in trace:
        c = Fraction(entry["candidate"])
        if Fraction(entry["value"]) != s.chi(c):
            return f"trace value at {c} is wrong"
    if s.rational and not any(Fraction(e["candidate"]) == s.exact for e in trace):
        return "rational max root missing from the trace"
    return None


def _check_rationality(s: Surface, rat: dict) -> str | None:
    if s.rational:
        if rat.get("verdict") != "rational":
            return f"verdict {rat.get('verdict')!r}, expected rational"
        if Fraction(int(rat["p"]), int(rat["q"])) != 1 / s.exact or int(rat["q"]) <= 0:
            return f"threshold {rat['p']}/{rat['q']}, expected {1 / s.exact}"
    elif rat.get("verdict") != "irrational":
        return f"verdict {rat.get('verdict')!r}, expected irrational"
    return _check_trace(s, rat["trace"])


def check_surface_slope(v, doc: dict) -> str | None:
    """Full ``slope`` certificate of a surface profile."""
    s = Surface(v)
    if not s.positive:
        return None if doc == {"kind": "infinite"} else "expected an infinite threshold"
    if doc.get("kind") != "finite":
        return "expected a finite threshold"
    zlo, zhi = (Fraction(x) for x in doc["zeta"]["interval"])
    slo, shi = (Fraction(x) for x in doc["slope"]["interval"])
    if s.rational:
        if doc["zeta"]["exact"] is None or Fraction(doc["zeta"]["exact"]) != s.exact:
            return "exact max root is wrong"
    else:
        if not (s.zeta_cmp(zlo) < 0 <= s.zeta_cmp(zhi)):
            return "max root lies outside its certified interval"
        # zeta > 0, so slope = 1/zeta lies in (slo, shi] iff 1/shi <= zeta < 1/slo.
        if s.zeta_cmp(1 / shi) > 0 or (slo > 0 and s.zeta_cmp(1 / slo) <= 0):
            return "threshold lies outside its certified interval"
        if zhi - zlo > DISPLAY_WIDTH or shi - slo > DISPLAY_WIDTH:
            return "display refinement did not reach 2^-64"
    return _check_rationality(s, doc["rationality"])


def check_surface_cli(v, command: str, code: int, out: str, err: str) -> str | None:
    """One CLI process: exit code, stderr and the JSON payload."""
    if "Traceback" in err:
        return "traceback on stderr"
    s = Surface(v)
    if command == "certify" and not s.positive:
        if code != 3 or "SlopeIsInfinite" not in err:
            return f"certify of an infinite threshold exited {code}, expected 3"
        return None
    if code != 0:
        return f"exit code {code}"
    doc = json.loads(out)
    if command == "slope":
        return check_surface_slope(v, doc)
    return _check_rationality(s, doc)


# ---------------------------------------------------------------------------
# Matrix models, checked with sympy.

class MatrixTruth:
    """Exact facts about the profile polynomial ``L^n det(uI - F)`` of a model."""

    def __init__(self, wire: dict):
        import sympy

        u = sympy.Symbol("u")
        self.n = int(wire["n"])
        self.top_l = int(wire["Ln"])
        entries = [[sympy.Rational(x) for x in row] for row in wire["F"]]
        self.matrix = sympy.Matrix(entries)
        poly = sympy.Poly(self.matrix.charpoly(u).as_expr() * self.top_l, u)
        self.chi = [int(c) for c in reversed(poly.all_coeffs())]
        self.poly = poly
        self.scalar = self.matrix.is_diagonal() and len(set(self.matrix.diagonal())) == 1
        self.positive = self.roots_above(Fraction(0)) > 0
        top_rational = max(poly.ground_roots(), default=None)
        self.rational = top_rational is not None and self.roots_above(_fraction(top_rational)) == 0
        self.max_root = _fraction(top_rational) if self.rational else None

    def roots_above(self, x: Fraction) -> int:
        """Distinct real roots in ``(x, oo)``."""
        r = _sym(x)
        return self.poly.count_roots(r, None) - (1 if self.poly.eval(r) == 0 else 0)

    def is_root(self, x: Fraction) -> bool:
        return self.poly.eval(_sym(x)) == 0

    def max_root_in(self, lo: Fraction, hi: Fraction) -> bool:
        return self.roots_above(hi) == 0 and self.roots_above(lo) >= 1


def _fraction(r) -> Fraction:
    return Fraction(int(r.p), int(r.q))


def check_matrix_slope(wire: dict, profile_v, doc: dict) -> str | None:
    """Full ``slope`` certificate of a matrix model's profile, against sympy."""
    truth = MatrixTruth(wire)
    if _chi_from_profile(truth.n, profile_v) != truth.chi:
        return "profile disagrees with L^n det(uI - F)"
    if not truth.positive:
        return None if doc == {"kind": "infinite"} else "expected an infinite threshold"
    if doc.get("kind") != "finite":
        return "expected a finite threshold"
    rat = doc["rationality"]
    if truth.rational:
        if rat["verdict"] != "rational":
            return "expected a rational threshold"
        if Fraction(int(rat["p"]), int(rat["q"])) != 1 / truth.max_root:
            return f"threshold {rat['p']}/{rat['q']}, expected {1 / truth.max_root}"
        return None
    if rat["verdict"] != "irrational":
        return "expected an irrational threshold"
    zlo, zhi = (Fraction(x) for x in doc["zeta"]["interval"])
    slo, shi = (Fraction(x) for x in doc["slope"]["interval"])
    if not truth.max_root_in(zlo, zhi):
        return "max root lies outside its certified interval"
    # zeta > 0 is the max root, so slope = 1/zeta lies in (slo, shi] iff 1/shi <= zeta < 1/slo.
    if truth.roots_above(1 / shi) == 0 and not truth.is_root(1 / shi):
        return "threshold lies above its certified interval"
    if slo > 0 and (truth.roots_above(1 / slo) > 0 or truth.is_root(1 / slo)):
        return "threshold lies below its certified interval"
    if zhi - zlo > DISPLAY_WIDTH or shi - slo > DISPLAY_WIDTH:
        return "display refinement did not reach 2^-64"
    return None


def _sym(x: Fraction):
    import sympy

    return sympy.Rational(x.numerator, x.denominator)


def check_scan_entry(wire: dict, entry) -> str | None:
    """One ``ScanEntry`` against sympy: verdict, threshold and the witness boundary class."""
    truth = MatrixTruth(wire)
    if _chi_from_profile(truth.n, entry.profile.v) != truth.chi:
        return "profile disagrees with L^n det(uI - F)"
    if truth.scalar:
        expected = "skipped-proportional"
    elif not truth.positive:
        expected = "infinite"
    elif truth.rational:
        expected = "rational-slope-witness"
    else:
        expected = "irrational"
    if entry.verdict != expected:
        return f"verdict {entry.verdict}, expected {expected}"
    if expected != "rational-slope-witness":
        return None
    slope_value = 1 / truth.max_root
    if entry.slope_fraction != slope_value:
        return f"witness threshold {entry.slope_fraction}, expected {slope_value}"
    # Boundary class qL - pM, in the matrix model qI - pF: nef (PSD) but not ample (singular).
    import sympy

    p, q = slope_value.numerator, slope_value.denominator
    boundary = truth.matrix.applyfunc(lambda x: -p * x) + q * sympy.eye(truth.n)
    u = sympy.Symbol("u")
    cp = sympy.Poly(boundary.charpoly(u).as_expr() * truth.top_l, u)
    chi_b = [int(c) for c in reversed(cp.all_coeffs())]
    if _chi_from_profile(truth.n, entry.boundary.v) != chi_b:
        return "boundary profile disagrees with qI - pF"
    v = entry.boundary.v
    if any(x < 0 for x in v) or v[0] != 0:
        return f"boundary class {v} is not nef-but-not-ample"
    report = entry.boundary_report
    if not report.nef or report.ample:
        return "boundary report is not nef-but-not-ample"
    return None


# ---------------------------------------------------------------------------
# Matrix ingestion: exact, division-free, no root finding.

def berkowitz(rows) -> list:
    """Coefficients of ``det(uI - A)``, descending, without division."""
    n = len(rows)
    poly = [1]
    for r in range(n):
        # Leading (r+1)x(r+1) block [[M, S], [R, a]] with M of size r.
        a = rows[r][r]
        row = rows[r][:r]
        col = [rows[i][r] for i in range(r)]
        toeplitz = [1, -a]
        vec = col
        for _ in range(r):
            toeplitz.append(-sum(x * y for x, y in zip(row, vec)))
            vec = [sum(rows[i][j] * vec[j] for j in range(r)) for i in range(r)]
        poly = [sum(toeplitz[i - j] * poly[j] for j in range(min(i, r) + 1)) for i in range(r + 2)]
    return poly


def _positive_roots(coeffs) -> int:
    """Positive roots, with multiplicity, of a real-rooted polynomial (Descartes' rule is exact there)."""
    signs = [c > 0 for c in coeffs if c != 0]
    return sum(1 for x, y in zip(signs, signs[1:]) if x != y)


def _taylor_shift(asc, r: Fraction) -> list:
    """Ascending coefficients of ``p(u + r)``."""
    out = list(asc)
    n = len(out)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            out[j] += r * out[j + 1]
    return out


def check_ingest(wire: dict, output) -> str | None:
    """``profile_from_matrix`` + SPECTRAL ``validate`` + ``is_nef`` + ``slope_lower_bound``."""
    profile, report, nef, bound = output
    n, top_l = int(wire["n"]), int(wire["Ln"])
    rows = [[Fraction(x) for x in row] for row in wire["F"]]
    desc = berkowitz(rows)
    chi = [top_l * c for c in reversed(desc)]
    if _chi_from_profile(n, profile.v) != chi:
        return "profile disagrees with L^n det(uI - F)"
    if not report.ok:
        return "SPECTRAL validation rejected a symmetric matrix"
    zeros = next(k for k, c in enumerate(chi) if c != 0)
    core = chi[zeros:]
    negative = _positive_roots([c * (-1) ** k for k, c in enumerate(core)])
    if nef.nef != (negative == 0) or nef.ample != (negative == 0 and zeros == 0):
        return "nefness verdict disagrees with the spectrum"
    positive = _positive_roots(core)
    if positive == 0:
        return None if bound == "NegationIsNef" else "expected NegationIsNef"
    expected = 1 / (1 + Fraction(max(abs(c) for c in chi[:-1]), abs(chi[-1])))
    if bound != expected:
        return f"lower bound {bound}, expected {expected}"
    shifted = _taylor_shift(chi, 1 / expected)
    if shifted[0] == 0 or _positive_roots(shifted) != 0:
        return "lower bound is not below the threshold"
    return None
