"""The traced run: spans around each call into a layer's public function.

``slope()`` is broken into stages by replaying the pipeline stage by stage
on the same inputs (chi -> max-root isolation / rational roots -> Sturm
chain -> candidate trace -> reciprocal -> refinement -> emit), next to the
whole ``slope()`` call, so work that ``slope()`` repeats shows as the gap
between the two.  The package itself is not instrumented.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from fractions import Fraction

from workloads import DISPLAY_WIDTH, cli_env

CLI_PROBES = 9

#: Per-layer metric -> (span name, statistic).  ``self`` is the mean self
#: time per call in ms; a count name is the mean of that count per call.
SPAN_METRICS = {
    "cli.interpreter_ms": ("cli.interpreter", "median"),
    "cli.main_ms": ("cli.main", "self"),
    "cli.parse_ms": ("cli.parse", "self"),
    "numdata.charpoly_ms": ("numdata.charpoly", "self"),
    "numdata.profile_from_matrix_ms": ("numdata.profile_from_matrix", "self"),
    "numdata.validate_spectral_ms": ("numdata.validate_spectral", "self"),
    "polyroot.chi_polynomial_ms": ("polyroot.chi_polynomial", "self"),
    "polyroot.isolate_max_root_ms": ("polyroot.isolate_max_root", "self"),
    "polyroot.rational_roots_ms": ("polyroot.rational_roots", "self"),
    "polyroot.sturm_chain_ms": ("polyroot.sturm_chain", "self"),
    "polyroot.candidates": ("slope.trace", "candidates"),
    "polyroot.sturm_chain_len": ("polyroot.sturm_chain", "sturm_chain_len"),
    "polyroot.max_coeff_bits": ("polyroot.sturm_chain", "max_coeff_bits"),
    "polyroot.refine_ms": ("polyroot.refine", "self"),
    "polyroot.refine_steps": ("polyroot.refine", "refine_steps"),
    "polyroot.reciprocal_ms": ("polyroot.reciprocal", "self"),
    "slope.slope_ms": ("slope.slope", "self"),
    "slope.trace_ms": ("slope.trace", "self"),
    "slope.trace_candidates": ("slope.trace", "trace_candidates"),
    "slope.emit_ms": ("slope.emit", "self"),
    "slope.emit_bytes": ("slope.emit", "emit_bytes"),
    "slope.certify_ms": ("slope.certify", "self"),
    "simplicity.scan_ms": ("simplicity.scan", "self"),
    "simplicity.is_proportional_ms": ("simplicity.is_proportional", "self"),
    "simplicity.boundary_nef_ms": ("simplicity.boundary_nef", "self"),
    "slope.repeat_gap_ms": ("slope.replay", "repeat_gap_ms"),
    "generators.gen_ms": ("generators.gen", "self"),
}

UNITS = {"_ms": "ms", "_pct": "%", "_bytes": "bytes"}


def unit_of(name: str) -> str:
    return next((unit for suffix, unit in UNITS.items() if name.endswith(suffix)), "count")


def _halvings(before, after) -> int:
    """Bisection steps between two isolating intervals of one root."""
    ratio = (before.interval[1] - before.interval[0]) / (after.interval[1] - after.interval[0])
    return max(0, int(ratio).bit_length() - 1)


def replay_slope(tr, profile) -> None:
    """Every stage of ``slope()`` on one profile, then the whole call, the emit and ``certify``."""
    from nefslope import (
        SlopeIsInfinite,
        binary_profile,
        certify_rationality,
        chi_polynomial,
        compare_with_rational,
        is_nef,
        isolate_max_root,
        rational_root_candidates,
        rational_roots,
        reciprocal,
        refine,
        slope,
        sturm_chain,
    )

    with tr.span("slope.replay") as replay:
        once = []
        with tr.span("polyroot.chi_polynomial") as s:
            chi = chi_polynomial(profile)
        once.append(s)
        with tr.span("polyroot.isolate_max_root"):
            best = isolate_max_root(chi)
        with tr.span("polyroot.rational_roots") as s:
            rational_roots(chi)
        once.append(s)
        with tr.span("polyroot.sturm_chain") as s:
            chain = sturm_chain(chi)
            tr.count("sturm_chain_len", len(chain.polys))
            tr.count("max_coeff_bits", max(abs(c).bit_length() for p in chain.polys for c in p.coeffs))
        once.append(s)
        with tr.span("slope.trace") as s:
            candidates = rational_root_candidates(chi)
            values = [(c, chi(c)) for c in candidates if c > 0]
            tr.count("candidates", len(candidates))
            tr.count("trace_candidates", len(values))
        once.append(s)
        if best is not None and compare_with_rational(best, 0) > 0:
            with tr.span("polyroot.reciprocal") as s:
                inverse = reciprocal(best)
            once.append(s)
            with tr.span("polyroot.refine"):
                steps = sum(_halvings(a, refine(a, DISPLAY_WIDTH)) for a in (best, inverse) if a.exact is None)
                tr.count("refine_steps", steps)
        with tr.span("slope.slope") as whole:
            result = slope(profile)
        replay["counts"]["repeat_gap_ms"] = (_duration(whole) - sum(_duration(s) for s in once)) * 1e3
        if not result.infinite:
            # The scan's boundary test: qL - pM at the threshold when it is
            # rational, else at the lower end of its certified interval.
            edge = result.slope_fraction or max(result.slope.interval[0], Fraction(0))
            with tr.span("simplicity.boundary_nef"):
                is_nef(binary_profile(profile, edge.denominator, -edge.numerator))
        result = result.refined(DISPLAY_WIDTH)
        with tr.span("slope.emit"):
            text = json.dumps(result.to_json(), indent=2)
            tr.count("emit_bytes", len(text))
        with tr.span("slope.certify"):
            try:
                certify_rationality(profile)
            except SlopeIsInfinite:
                pass


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def replay_matrix(tr, model) -> None:
    from nefslope import ValidationLevel, charpoly, profile_from_matrix, validate

    with tr.span("numdata.charpoly"):
        charpoly(model.entries)
    with tr.span("numdata.profile_from_matrix"):
        profile = profile_from_matrix(model)
    with tr.span("numdata.validate_spectral"):
        validate(profile, ValidationLevel.SPECTRAL)


def replay_scan(tr, labelled) -> dict[str, int]:
    """``scan`` over the profiles, one batch per L^n, plus its per-entry layers."""
    from nefslope import is_proportional, scan, simplicity

    batches: dict[int, list] = {}
    for label, profile in labelled:
        batches.setdefault(profile.v[profile.n], []).append((label, profile))
    verdicts = {simplicity.WITNESS: 0, simplicity.IRRATIONAL: 0, simplicity.INFINITE: 0}
    for batch in batches.values():
        with tr.span("simplicity.scan"):
            result = scan(batch)
        for entry in result.entries:
            with tr.span("simplicity.is_proportional"):
                is_proportional(entry.profile)
            if entry.verdict in verdicts:
                verdicts[entry.verdict] += 1
    return verdicts


def replay_cli(tr, workload, items, speed) -> None:
    """Interpreter start and import in fresh processes; ``cli.main`` and parsing in process."""
    from nefslope import IntersectionProfile, SymMatrixModel
    from nefslope.cli import main

    for _ in range(CLI_PROBES):
        for code, span in (("pass", "cli.interpreter"), ("import nefslope.cli", "cli.interpreter+import")):
            speed.sample_if_due()
            with tr.span(span):
                subprocess.run([sys.executable, "-c", code], env=cli_env(), check=True, timeout=60)
    for item in items:
        speed.sample_if_due()
        argv = workload.cli_argv(item)
        text = argv[argv.index("--input") + 1]
        with tr.span("cli.parse"):
            data = json.loads(text)
            for entry in data if isinstance(data, list) else [data]:
                (SymMatrixModel if "F" in entry else IntersectionProfile).from_json(entry)
        with tr.span("cli.main"), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            main(argv)


def per_layer_metrics(summary: dict[str, dict], verdicts: dict[str, int], overhead_pct: float) -> dict[str, dict]:
    """The per-layer metrics of one traced run, from its span summary."""
    from nefslope import simplicity

    values: dict[str, float] = {}
    for metric, (span, stat) in SPAN_METRICS.items():
        row = summary.get(span)
        if row is None:
            values[metric] = 0.0
        elif stat == "median":
            values[metric] = row["median_ms"]
        elif stat == "self":
            values[metric] = row["self_ms"] / row["calls"]
        else:
            values[metric] = row["counts"].get(stat, 0) / row["calls"]
    values["cli.import_ms"] = summary["cli.interpreter+import"]["median_ms"] - values["cli.interpreter_ms"]
    values["simplicity.witness"] = verdicts[simplicity.WITNESS]
    values["simplicity.irrational"] = verdicts[simplicity.IRRATIONAL]
    values["simplicity.infinite"] = verdicts[simplicity.INFINITE]
    values["trace.overhead_pct"] = overhead_pct
    return {name: {"value": value, "unit": unit_of(name)} for name, value in values.items()}
