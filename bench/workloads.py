"""The four workloads: inputs, the timed operation, and its correctness check.

Each workload is a closed loop: the next operation starts when the previous
one has returned.  ``run(item, tracer, jobs)`` is the timed operation;
``check(item, output)`` runs afterwards with the independent oracles.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import zlib
from fractions import Fraction
from pathlib import Path

import oracle
from inputs import PRODUCT_MATRIX, RATIONAL_MATRIX, SURFACE, Stratum

#: Wall-time limit of one operation; an operation that overruns counts as failed.
OP_LIMIT_S = 10.0

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DISPLAY_WIDTH = Fraction(1, 2**64)


class OpTimeout(Exception):
    """An operation overran :data:`OP_LIMIT_S`."""


def cli_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "NEFSLOPE_WIDTH"}
    env["PYTHONPATH"] = str(SRC)
    return env


#: What the ``nefslope`` console script runs.
CONSOLE = "from nefslope.cli import console_main; console_main()"


def _flip_verdict(doc):
    """Swap rational and irrational verdicts (or make an infinite result finite)."""
    if doc == {"kind": "infinite"}:
        return {"kind": "finite"}
    if isinstance(doc, dict):
        out = {k: _flip_verdict(v) for k, v in doc.items()}
        if "verdict" in out:
            out["verdict"] = "irrational" if out["verdict"] == "rational" else "rational"
        return out
    return doc


class Workload:
    name = ""
    strata: list[Stratum] = []
    #: True when ``jobs=2`` is the program's own pool (scan); otherwise the
    #: harness runs two caller threads.
    program_jobs = False
    in_process = True
    #: Instances answered by one operation.
    entries_per_item = 1
    #: Operations per stratum in one round of the cycle.
    weights: list[int] = []

    def items(self, pools: list[list[dict]]) -> list:
        """The operation cycle: rounds that hold ``weights[s]`` instances of
        stratum ``s`` each, interleaved so that any prefix is balanced."""
        weights = self.weights or [1] * len(self.strata)
        rounds = self.strata[0].count // weights[0]
        cycle = []
        for r in range(rounds):
            for k in range(max(weights)):
                cycle += [self.prepare(pools[s][r * w + k]) for s, w in enumerate(weights) if k < w]
        return cycle

    def prepare(self, wire: dict):
        raise NotImplementedError

    def run(self, item, tracer, jobs: int):
        raise NotImplementedError

    def check(self, item, output) -> str | None:
        raise NotImplementedError

    def tamper(self, output):
        """The output with a wrong verdict, to show the checks catch it."""
        raise NotImplementedError

    def replay_profiles(self, items: list) -> list:
        """(label, profile) pairs for the traced stage replay."""
        raise NotImplementedError

    def replay_matrices(self, items: list) -> list:
        raise NotImplementedError

    def cli_argv(self, item) -> list[str]:
        """Arguments of the CLI call that answers ``item`` in the traced run."""
        raise NotImplementedError


class CliSurface(Workload):
    name = "cli-surface"
    strata = [Stratum(SURFACE, 2, 10, 128)]
    in_process = False

    def items(self, pools):
        commands = ("slope", "certify")
        return [(commands[j % 2], wire) for j, wire in enumerate(pools[0])]

    def run(self, item, tracer, jobs):
        command, wire = item
        argv = [sys.executable, "-c", CONSOLE, command, "--input", json.dumps(wire)]
        with tracer.span("cli.process"):
            try:
                proc = subprocess.run(argv, capture_output=True, text=True, timeout=OP_LIMIT_S, env=cli_env())
            except subprocess.TimeoutExpired as exc:
                raise OpTimeout(f"CLI ran past {OP_LIMIT_S} s") from exc
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, item, output):
        command, wire = item
        return oracle.check_surface_cli(wire["v"], command, *output)

    def tamper(self, output):
        code, out, err = output
        if code == 3:
            return 0, json.dumps({"verdict": "rational", "p": "1", "q": "1", "trace": []}), ""
        return code, json.dumps(_flip_verdict(json.loads(out))), err

    def replay_profiles(self, items):
        from nefslope import IntersectionProfile

        return [(f"surface-{i}", IntersectionProfile.from_json(wire)) for i, (_, wire) in enumerate(items)]

    def replay_matrices(self, items):
        # Surfaces carry no matrix; the 2x2 matrix of their entries keeps the
        # matrix layers measured at this workload's size.
        from nefslope import SymMatrixModel

        return [
            SymMatrixModel(2, ((int(w["v"][0]), int(w["v"][1])), (int(w["v"][1]), int(w["v"][2]))), 2)
            for _, w in items
        ]

    def cli_argv(self, item):
        command, wire = item
        return [command, "--input", json.dumps(wire)]


class ScanMatrix(Workload):
    name = "scan-matrix"
    strata = [
        Stratum(RATIONAL_MATRIX, 4, 10, 96),
        Stratum(PRODUCT_MATRIX, 4, 10, 96),
        Stratum(RATIONAL_MATRIX, 5, 10, 48),
        Stratum(PRODUCT_MATRIX, 5, 10, 48),
    ]
    program_jobs = True
    entries_per_item = 2

    def items(self, pools):
        from nefslope import SymMatrixModel

        def batch(first, j):  # one rational and one product model sharing L^n = n!
            return tuple((f"{s.label()}#{j}", SymMatrixModel.from_json(pools[first + k][j]), pools[first + k][j])
                         for k, s in enumerate(self.strata[first:first + 2]))

        # Two n = 4 batches per n = 5 batch, so that neither percentile sits
        # on the boundary between the two sizes.
        return [b for r in range(self.strata[2].count) for b in (batch(0, 2 * r), batch(0, 2 * r + 1), batch(2, r))]

    def run(self, item, tracer, jobs):
        from nefslope import profile_from_matrix, scan

        labelled = []
        for label, model, _ in item:
            with tracer.span("numdata.profile_from_matrix"):
                labelled.append((label, profile_from_matrix(model)))
        with tracer.span("simplicity.scan"):
            return scan(labelled, jobs=jobs)

    def check(self, item, output):
        if len(output.entries) != len(item):
            return "scan lost entries"
        for (label, _, wire), entry in zip(item, output.entries):
            if entry.label != label:
                return "scan reordered entries"
            problem = oracle.check_scan_entry(wire, entry)
            if problem:
                return f"{label}: {problem}"
        return None

    def tamper(self, output):
        from nefslope import simplicity

        first = output.entries[0]
        verdict = simplicity.IRRATIONAL if first.verdict == simplicity.WITNESS else simplicity.WITNESS
        entries = (dataclasses.replace(first, verdict=verdict),) + output.entries[1:]
        return dataclasses.replace(output, entries=entries)

    def replay_profiles(self, items):
        from nefslope import profile_from_matrix

        return [(label, profile_from_matrix(model)) for batch in items for label, model, _ in batch]

    def replay_matrices(self, items):
        return [model for batch in items for _, model, _ in batch]

    def cli_argv(self, item):
        return ["scan", "--input", json.dumps([{"label": label, **wire} for label, _, wire in item])]


class SlopeSweep(Workload):
    name = "slope-sweep"
    # Three light instances (n <= 5, up to 10 digits) per heavy one (n = 6,
    # 11 and 12 digits): the heavy strata stay above p90, so neither
    # percentile sits on the boundary between two strata.
    strata = [Stratum(PRODUCT_MATRIX, n, 10, 48 if n < 6 else 16) for n in range(3, 7)] + [
        Stratum(SURFACE, 2, 10**d - 1, 48 if d < 11 else 16) for d in range(3, 13)
    ]
    weights = [3, 3, 3, 1] + [3] * 8 + [1, 1]

    def prepare(self, wire):
        from nefslope import IntersectionProfile, SymMatrixModel, profile_from_matrix

        if "F" in wire:
            model = SymMatrixModel.from_json(wire)
            return wire, model, profile_from_matrix(model)
        return wire, None, IntersectionProfile.from_json(wire)

    def run(self, item, tracer, jobs):
        from nefslope import slope

        with tracer.span("slope.slope"):
            result = slope(item[2])
        with tracer.span("polyroot.refine"):
            result = result.refined(DISPLAY_WIDTH)
        with tracer.span("slope.emit"):
            text = json.dumps(result.to_json(), indent=2)
        # Certificates reach 100 kB; compressed, the kept outputs stay small
        # next to the program's own memory in peak_rss_mb.
        return zlib.compress(text.encode())

    def check(self, item, output):
        wire, model, profile = item
        doc = json.loads(zlib.decompress(output))
        if model is None:
            return oracle.check_surface_slope(wire["v"], doc)
        return oracle.check_matrix_slope(wire, profile.v, doc)

    def tamper(self, output):
        return zlib.compress(json.dumps(_flip_verdict(json.loads(zlib.decompress(output)))).encode())

    def replay_profiles(self, items):
        return [(f"{'matrix' if model else 'surface'}-{i}", profile) for i, (_, model, profile) in enumerate(items)]

    def replay_matrices(self, items):
        return [model for _, model, _ in items if model is not None]

    def cli_argv(self, item):
        return ["slope", "--input", json.dumps(item[0])]


class MatrixIngest(Workload):
    name = "matrix-ingest"
    strata = [Stratum(PRODUCT_MATRIX, n, 10, 32) for n in range(8, 13)]

    def prepare(self, wire):
        from nefslope import SymMatrixModel

        return wire, SymMatrixModel.from_json(wire)

    def run(self, item, tracer, jobs):
        from nefslope import NegationIsNef, ValidationLevel, is_nef, profile_from_matrix, slope_lower_bound, validate

        with tracer.span("numdata.profile_from_matrix"):
            profile = profile_from_matrix(item[1])
        with tracer.span("numdata.validate_spectral"):
            report = validate(profile, ValidationLevel.SPECTRAL)
        with tracer.span("slope.is_nef"):
            nef = is_nef(profile)
        with tracer.span("slope.lower_bound"):
            try:
                bound = slope_lower_bound(profile)
            except NegationIsNef:
                bound = "NegationIsNef"
        return profile, report, nef, bound

    def check(self, item, output):
        return oracle.check_ingest(item[0], output)

    def tamper(self, output):
        profile, report, nef, bound = output
        return profile, report, dataclasses.replace(nef, nef=not nef.nef), bound

    def replay_profiles(self, items):
        # slope() on n >= 8 enumerates divisors for minutes; the root stages
        # are replayed on each matrix's leading 4x4 block (L^4 = 24) instead.
        from nefslope import SymMatrixModel, profile_from_matrix

        return [
            (f"block4-{i}", profile_from_matrix(SymMatrixModel(4, tuple(row[:4] for row in model.entries[:4]), 24)))
            for i, (_, model) in enumerate(items)
        ]

    def replay_matrices(self, items):
        return [model for _, model in items]

    def cli_argv(self, item):
        return ["bound", "--level", "spectral", "--input", json.dumps(item[0])]


WORKLOADS = {w.name: w for w in (CliSurface(), ScanMatrix(), SlopeSweep(), MatrixIngest())}
