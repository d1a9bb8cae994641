"""Command-line front end.

Subcommands read instance JSON (a file path, inline JSON, or "-" for
stdin), run the corresponding operation and emit certificate JSON on
stdout with a one-line human summary on stderr.  Output is byte-stable for
fixed input and flags.

Exit codes: 0 success / consistent-with-simple, 10 non-simplicity witness
(scan only), 2 input error, 3 precondition violation.
"""

import argparse
import json
import sys
from fractions import Fraction

from .errors import InputError, NefslopeError, PreconditionError
from .exactio import format_rational, json_int, parse_rational
from .numdata import (
    IntersectionProfile,
    SymMatrixModel,
    ValidationLevel,
    profile_from_matrix,
    validate,
)
from .polyroot import DEFAULT_WIDTH
from .slope import certify_rationality, slope, slope_lower_bound

EXIT_OK = 0
EXIT_WITNESS = 10
EXIT_INPUT = 2
EXIT_PRECONDITION = 3

GEN_KINDS = ("surface", "product-matrix", "rational-matrix")  # generators.KINDS, not imported at start-up

#: Narrowest accepted display width (``slope --width``).
MIN_WIDTH = Fraction(1, 2**4096)

_LEVELS = {
    "syntactic": ValidationLevel.SYNTACTIC,
    "spectral": ValidationLevel.SPECTRAL,
    "hodge": ValidationLevel.SURFACE_HODGE,
}


def _write_output(args, text: str) -> None:
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise InputError(f"cannot write output: {exc}") from exc
    else:
        print(text)


def _read_payload(text_or_path: str):
    try:
        if text_or_path == "-":
            raw = sys.stdin.read()
        elif text_or_path.lstrip().startswith(("{", "[")):
            raw = text_or_path
        else:
            with open(text_or_path, "r", encoding="utf-8") as fh:
                raw = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read input: {exc}") from exc
    try:
        return json.loads(raw, parse_int=json_int)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed JSON at line {exc.lineno} column {exc.colno} (char {exc.pos}): {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise InputError("malformed JSON: arrays and objects are nested too deeply") from exc


def _load_profile(data, level: ValidationLevel) -> IntersectionProfile:
    if isinstance(data, dict) and "F" in data:
        profile = profile_from_matrix(SymMatrixModel.from_json(data))
    else:
        profile = IntersectionProfile.from_json(data)
    report = validate(profile, level)
    if not report.ok:
        raise PreconditionError(
            "validation failed: " + "; ".join(v.message for v in report.violations)
        )
    return profile


def _slope(args, profile):
    result = slope(profile).refined(args.width)
    if result.infinite:
        return result.to_json(), "slope: infinite"
    verdict = "rational" if result.slope_fraction is not None else "irrational"
    return result.to_json(), f"slope: {result.slope} ({verdict})"


def _nef(args, profile):
    from .simplicity import is_nef
    report = is_nef(profile)
    word = "nef" if report.nef else f"not nef (k={report.witness_k})"
    if report.ample:
        word += ", ample"
    elif report.nef:
        word += ", not ample"
    return report.to_json(), f"nefness: {word}"


def _certify(args, profile):
    payload = certify_rationality(profile).to_json()
    if payload["verdict"] == "rational":
        return payload, f"rationality: rational {payload['p']}/{payload['q']}"
    return payload, "rationality: irrational"


def _bound(args, profile):
    bound = format_rational(slope_lower_bound(profile))
    return {"bound": bound}, f"lower bound: {bound}"


def _cmd_profile(args):
    payload, summary = args.report(args, _load_profile(_read_payload(args.input), args.level))
    return payload, summary, EXIT_OK


def _cmd_scan(args):
    data = _read_payload(args.input)
    if not isinstance(data, list):
        raise InputError("scan input must be a JSON array of instances")
    items = []
    for idx, entry in enumerate(data):
        if not isinstance(entry, dict):
            raise InputError(f"instance {idx} is not a JSON object")
        label = str(entry.get("label", f"instance-{idx}"))
        items.append((label, _load_profile(entry, args.level)))
    for _, profile in items:  # echoed in the result: what cannot be written fails before root work
        profile.to_json()
    from . import simplicity
    result = simplicity.scan(items, jobs=args.jobs)
    witnesses = sum(1 for e in result.entries if e.verdict == simplicity.WITNESS)
    summary = f"scan: {result.overall} ({witnesses} witness(es), {len(items)} instance(s))"
    return result.to_json(), summary, EXIT_WITNESS if result.witness_found else EXIT_OK


def _cmd_gen(args):
    from . import generators
    spec = generators.GenSpec(kind=args.kind, seed=args.seed, count=args.count, n=args.n, bound=args.bound)
    out = [{"label": f"{args.kind}-{idx}", **inst.to_json()} for idx, inst in enumerate(generators.gen_random(spec))]
    return out, f"gen: {len(out)} {args.kind} instance(s), seed {args.seed}", EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nefslope",
        description="Exact nef thresholds, rationality certificates and simplicity scans "
        "for numerically presented polarized abelian varieties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--input", required=True, help="input path, inline JSON, or '-' for stdin")
        p.add_argument("--output", default=None, help="write the JSON payload to this path instead of stdout")
        p.add_argument(
            "--level",
            choices=sorted(_LEVELS),
            default="syntactic",
            help="input validation level (default: syntactic)",
        )

    for name, text, report in (
        ("slope", "nef threshold with rationality certificate", _slope),
        ("nef", "coordinate-wise nefness test of a bundle profile", _nef),
        ("certify", "rationality certificate of a finite threshold", _certify),
        ("bound", "coefficient lower bound for the threshold", _bound),
    ):
        p = sub.add_parser(name, help=text)
        add_common(p)
        p.set_defaults(func=_cmd_profile, report=report)
    sub.choices["slope"].add_argument(
        "--width",
        default=None,
        help="refinement width for displayed intervals (rational, e.g. 1/1000000 or 1e-12)",
    )

    p = sub.add_parser("scan", help="scan labelled instances for non-simplicity witnesses")
    add_common(p)
    p.add_argument("--jobs", type=int, default=1, help="accepted for compatibility; has no effect")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("gen", help="emit seeded instance JSON arrays")
    p.add_argument("--output", default=None, help="write the JSON payload to this path instead of stdout")
    p.add_argument("--kind", choices=GEN_KINDS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--n", type=int, default=2, help="dimension for matrix kinds")
    p.add_argument("--bound", type=int, default=10)
    p.set_defaults(func=_cmd_gen)

    return parser


def _parse_width(flag: str | None) -> Fraction:
    width = DEFAULT_WIDTH if flag is None else parse_rational(flag, "width")
    # Refinement keeps an irrational root's ends over one denominator of
    # about log2(1/width) bits, so the floor bounds those integers.
    if width < MIN_WIDTH:
        raise InputError(f"width: must be at least 2^-4096, got {flag}")
    return width


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if hasattr(args, "level"):
        args.level = _LEVELS[args.level]
    try:
        if hasattr(args, "width"):
            args.width = _parse_width(args.width)
        payload, summary, code = args.func(args)
        _write_output(args, json.dumps(payload, indent=2))
        print(summary, file=sys.stderr)
        return code
    except PreconditionError as exc:
        print(f"precondition violation: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except NefslopeError as exc:  # every other package error is an InputError
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
