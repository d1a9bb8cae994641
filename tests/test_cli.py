"""End-to-end tests of the command-line interface and its exit codes."""

import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import nefslope.cli
from nefslope.cli import main

SURFACE_IRRATIONAL = '{"n": 2, "v": [2, 3, 2]}'
SCAN_INPUT = json.dumps(
    [
        {"label": "norm", "n": 2, "v": [0, 1, 2]},
        {"label": "generic", "n": 2, "v": [2, 3, 2]},
    ]
)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


class TestSlopeCommand:
    def test_irrational_surface(self, capsys):
        code, payload, err = run(capsys, ["slope", "--input", SURFACE_IRRATIONAL])
        assert code == 0
        assert payload["kind"] == "finite"
        assert payload["rationality"]["verdict"] == "irrational"
        lo, hi = payload["slope"]["interval"]
        lo, hi = Fraction(lo), Fraction(hi)
        assert 0.3819 < lo < hi < 0.3821
        assert "irrational" in err

    def test_infinite(self, capsys):
        code, payload, _ = run(capsys, ["slope", "--input", '{"n": 2, "v": [2, -3, 2]}'])
        assert code == 0
        assert payload == {"kind": "infinite"}

    def test_matrix_input(self, capsys):
        matrix = '{"n": 2, "Ln": "2", "F": [["1", "0"], ["0", "0"]]}'
        code, payload, _ = run(capsys, ["slope", "--input", matrix])
        assert code == 0
        assert payload["rationality"] == {
            "verdict": "rational",
            "p": "1",
            "q": "1",
            "trace": payload["rationality"]["trace"],
        }

    def test_width_flag(self, capsys):
        code, payload, _ = run(
            capsys, ["slope", "--input", SURFACE_IRRATIONAL, "--width", "1/1000"]
        )
        assert code == 0
        lo, hi = (Fraction(x) for x in payload["slope"]["interval"])
        assert hi - lo <= 1 / 1000

    def test_width_ignores_env(self, capsys, monkeypatch):
        # The width comes from --width only: the environment never changes the output bytes.
        main(["slope", "--input", SURFACE_IRRATIONAL])
        plain = capsys.readouterr()
        monkeypatch.setenv("NEFSLOPE_WIDTH", "1/4")
        main(["slope", "--input", SURFACE_IRRATIONAL])
        assert capsys.readouterr() == plain

    def test_byte_stable(self, capsys):
        main(["slope", "--input", SURFACE_IRRATIONAL])
        first = capsys.readouterr().out
        main(["slope", "--input", SURFACE_IRRATIONAL])
        second = capsys.readouterr().out
        assert first == second

    def test_threshold_beyond_float_range(self, capsys):
        # sqrt(3 * 2^2300) is about 2.65e346, irrational and past the float range.
        code, payload, err = run(capsys, ["slope", "--input", json.dumps({"n": 2, "v": [-1, 0, str(3 * 2**2300)]})])
        assert code == 0
        assert payload["rationality"]["verdict"] == "irrational"
        assert err.startswith("slope: ~2.6488394808") and "e+346 in (" in err

    def test_output_path(self, capsys, tmp_path):
        target = tmp_path / "cert.json"
        code, _, err = run(capsys, ["slope", "--input", SURFACE_IRRATIONAL, "--output", str(target)])
        assert code == 0
        payload = json.loads(target.read_text(encoding="utf-8"))
        assert payload["kind"] == "finite"
        assert "slope" in err

    def test_output_into_missing_directory(self, capsys, tmp_path):
        target = tmp_path / "missing" / "cert.json"
        code, payload, err = run(capsys, ["slope", "--input", SURFACE_IRRATIONAL, "--output", str(target)])
        assert (code, payload) == (2, None)
        assert err.startswith("input error: cannot write output:")
        assert not target.exists()


class TestNefCommand:
    def test_nef_report(self, capsys):
        code, payload, _ = run(capsys, ["nef", "--input", '{"n": 2, "v": [0, 4, 3]}'])
        assert code == 0
        assert payload["verdict"] == "nef"
        assert payload["ample"] is False

    def test_not_nef_witness(self, capsys):
        code, payload, _ = run(capsys, ["nef", "--input", '{"n": 2, "v": [-1, 1, 2]}'])
        assert code == 0
        assert payload["verdict"] == "not-nef"
        assert payload["witness_k"] == 0

    def test_ample_summary(self, capsys):
        code, payload, err = run(capsys, ["nef", "--input", '{"n": 2, "v": [1, 3, 2]}'])
        assert code == 0
        assert (payload["verdict"], payload["ample"]) == ("nef", True)
        assert err == "nefness: nef, ample\n"


class TestCertifyCommand:
    def test_rational(self, capsys):
        code, payload, _ = run(capsys, ["certify", "--input", '{"n": 2, "v": [3, 5, 3]}'])
        assert code == 0
        assert (payload["p"], payload["q"]) == ("1", "3")

    def test_irrational(self, capsys):
        code, payload, err = run(capsys, ["certify", "--input", SURFACE_IRRATIONAL])
        assert code == 0
        assert payload["verdict"] == "irrational" and payload["trace"]
        assert err == "rationality: irrational\n"

    def test_rejects_width(self, capsys):
        # Only slope refines, so certify and the other subcommands take no --width.
        for argv in (
            ["certify", "--input", SURFACE_IRRATIONAL],
            ["nef", "--input", SURFACE_IRRATIONAL],
            ["bound", "--input", SURFACE_IRRATIONAL],
            ["scan", "--input", f"[{SURFACE_IRRATIONAL}]"],
            ["gen", "--kind", "surface", "--seed", "1"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--width", "1/4"])
            assert exc.value.code == 2
            assert "unrecognized arguments: --width 1/4" in capsys.readouterr().err

    def test_infinite_is_precondition_violation(self, capsys):
        code, payload, err = run(capsys, ["certify", "--input", '{"n": 2, "v": [2, -3, 2]}'])
        assert code == 3
        assert "SlopeIsInfinite" in err


class TestBoundCommand:
    def test_bound(self, capsys):
        code, payload, _ = run(capsys, ["bound", "--input", SURFACE_IRRATIONAL])
        assert code == 0
        assert payload == {"bound": "1/4"}

    def test_negation_nef(self, capsys):
        code, _, err = run(capsys, ["bound", "--input", '{"n": 2, "v": [2, -3, 2]}'])
        assert code == 3
        assert "NegationIsNef" in err


class TestScanCommand:
    def test_witness_exit_code(self, capsys):
        code, payload, _ = run(capsys, ["scan", "--input", SCAN_INPUT])
        assert code == 10
        assert payload["overall"] == "non-simple-witness-found"
        assert payload["entries"][0]["verdict"] == "rational-slope-witness"
        assert payload["entries"][1]["verdict"] == "irrational"

    def test_consistent_exit_code(self, capsys):
        code, payload, _ = run(capsys, ["scan", "--input", '[{"n": 2, "v": [2, 3, 2]}]'])
        assert code == 0
        assert payload["overall"] == "consistent-with-simple"

    def test_inconsistent_context(self, capsys):
        bad = '[{"n": 2, "v": [0, 1, 2]}, {"n": 2, "v": [3, 5, 3]}]'
        code, _, err = run(capsys, ["scan", "--input", bad])
        assert code == 2
        assert "disagree" in err

    def test_object_input_rejected(self, capsys):
        wrapped = json.dumps({"instances": json.loads(SCAN_INPUT)})
        code, payload, err = run(capsys, ["scan", "--input", wrapped])
        assert code == 2
        assert payload is None
        assert err == "input error: scan input must be a JSON array of instances\n"

    def test_non_object_instance_rejected(self, capsys):
        code, payload, err = run(capsys, ["scan", "--input", "[1]"])
        assert (code, payload) == (2, None)
        assert err == "input error: instance 0 is not a JSON object\n"

    def test_proportional_entry_carries_its_ratio(self, capsys):
        code, payload, _ = run(capsys, ["scan", "--input", '[{"n": 2, "v": [4, 2, 1]}]'])
        assert code == 0
        assert payload["entries"][0]["verdict"] == "skipped-proportional"
        assert payload["entries"][0]["ratio"] == "2"

    def test_jobs_flag(self, capsys):
        code_serial, payload_serial, _ = run(capsys, ["scan", "--input", SCAN_INPUT])
        code_parallel, payload_parallel, _ = run(
            capsys, ["scan", "--input", SCAN_INPUT, "--jobs", "3"]
        )
        assert (code_serial, payload_serial) == (code_parallel, payload_parallel)

    def test_scan_from_file(self, capsys, tmp_path):
        path = tmp_path / "instances.json"
        path.write_text(SCAN_INPUT, encoding="utf-8")
        code, payload, _ = run(capsys, ["scan", "--input", str(path)])
        assert code == 10


class TestGenCommand:
    def test_deterministic_output(self, capsys):
        argv = ["gen", "--kind", "surface", "--seed", "1", "--count", "5"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first
        payload = json.loads(first)
        assert len(payload) == 5
        assert all(entry["n"] == 2 for entry in payload)

    def test_matrix_kind(self, capsys):
        code, payload, _ = run(
            capsys,
            ["gen", "--kind", "product-matrix", "--seed", "7", "--count", "3", "--n", "3"],
        )
        assert code == 0
        assert all("F" in entry and entry["Ln"] == "6" for entry in payload)

    def test_gen_pipes_into_scan(self, capsys, tmp_path):
        code, payload, _ = run(
            capsys,
            ["gen", "--kind", "rational-matrix", "--seed", "3", "--count", "4", "--n", "3"],
        )
        path = tmp_path / "gen.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code, payload, _ = run(capsys, ["scan", "--input", str(path)])
        assert code == 10

    @pytest.mark.parametrize(
        "kind, code, message",
        [("rational-matrix", 10, "(4 witness(es), 4 instance(s))"), ("surface", 2, "instances disagree on L^n")],
    )
    def test_gen_pipes_into_scan_stdin(self, capsys, monkeypatch, kind, code, message):
        # The README pipe `gen | scan --input -`: matrix kinds share L^n = n!, while each
        # surface draws its own L^2, and one scan needs one L^n.
        assert main(["gen", "--kind", kind, "--seed", "3", "--count", "4", "--n", "3"]) == 0
        monkeypatch.setattr(sys, "stdin", io.StringIO(capsys.readouterr().out))
        assert main(["scan", "--input", "-"]) == code
        assert message in capsys.readouterr().err

    def test_kinds_match_generators(self):
        # The parser spells the kinds out so that start-up does not import generators.
        from nefslope import generators

        assert nefslope.cli.GEN_KINDS == generators.KINDS

    def test_unknown_kind(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--kind", "torus", "--seed", "1"])
        assert exc.value.code == 2
        assert "invalid choice: 'torus' (choose from 'surface', 'product-matrix', 'rational-matrix')" in (
            capsys.readouterr().err
        )


class TestErrorHandling:
    def test_malformed_json(self, capsys):
        code, _, err = run(capsys, ["slope", "--input", '{"n": 2, "v": [2,'])
        assert code == 2
        assert "line 1" in err and "column" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["slope", "--input", "no-such-file.json"])
        assert code == 2

    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["slope", "--input", SURFACE_IRRATIONAL, "--mystery"])
        assert exc.value.code == 2

    def test_validation_level(self, capsys):
        code, _, err = run(
            capsys,
            ["slope", "--input", '{"n": 2, "v": [2, 1, 2]}', "--level", "spectral"],
        )
        assert code == 3
        assert "validation failed" in err

    @pytest.mark.parametrize(
        "command,field",
        [
            (["--input", '{"n": 2, "v": null}'], "v:"),
            (["--input", '{"n": 2, "v": [' + "1" * 5000 + ", 3, 2]}"], "v[0]:"),
            (["--input", '{"n": 2, "v": [1, 2]}'], "v:"),
            (["--input", SURFACE_IRRATIONAL, "--width", "abc"], "width:"),
            (["--input", SURFACE_IRRATIONAL, "--width", ""], "width: not a rational: ''"),
            (["--input", SURFACE_IRRATIONAL, "--width", "1e-100000"], "width:"),
            (["--input", SURFACE_IRRATIONAL, "--width", "1e-2000"], "width: must be at least 2^-4096, got 1e-2000"),
            (["--input", '{"n": 2, "Ln": "2", "F": [["1e-5000", "0"], ["0", "0"]]}'], "F[0][0]:"),
            (["--input", SURFACE_IRRATIONAL, "--width", "1e-3000000"], "width:"),
            (["--input", '{"n": 2, "Ln": "2", "F": [[1, 2], [3, 1]]}'], "F[1][0]:"),
            (["--input", '{"n": 2, "Ln": "2", "F": [[1, 2], [2]]}'], "F:"),
            (["--input", '{"n": -1, "v": []}'], "n: must be at least 1, got -1"),
            (["--input", '{"n": 0, "v": [1]}'], "n: must be at least 1, got 0"),
            (["--input", '{"n": 2.5, "v": [1, 2, 3]}'], "n: expected an integer, got 2.5"),
            (["--input", "{tmp}/non-utf8.json"], "cannot read input: 'utf-8' codec can't decode"),
            (["--input", "[" * 3000 + "]" * 3000], "malformed JSON: arrays and objects are nested too deeply"),
            (["--input", '{"n": 2, "v": ["x", 3, 2]}'], "v[0]: not a decimal integer: 'x'"),
            (["--input", '{"n": 2, "F": [["1","0"],["0","0"]]}'], "matrix JSON must be an object with 'n', 'Ln' and 'F'"),
            (["--input", '{"n": 2, "Ln": "2", "F": [[1.5, 0], [0, 0]]}'],
             "F[0][0]: expected a rational or 'p/q' string, got 1.5"),
            (["--input", "[1, 2]"], "profile JSON must be an object with 'n' and 'v'"),
        ],
        ids=[
            "null-array",
            "oversized-integer",
            "short-profile",
            "bad-width",
            "empty-width",
            "width-exponent-past-digit-limit",
            "width-below-floor",
            "oversized-exponent",
            "oversized-width-exponent",
            "asymmetric-matrix",
            "ragged-matrix",
            "n-negative",
            "n-zero",
            "n-float",
            "non-utf8-file",
            "deep-nesting",
            "non-decimal-entry",
            "matrix-without-Ln",
            "float-matrix-entry",
            "profile-not-an-object",
        ],
    )
    def test_typed_input_error(self, capsys, tmp_path, command, field):
        (tmp_path / "non-utf8.json").write_bytes(b"\xff\xfe{}")
        command = [arg.replace("{tmp}", str(tmp_path)) for arg in command]
        code, payload, err = run(capsys, ["slope"] + command)
        assert code == 2
        assert payload is None
        assert err.startswith(f"input error: {field}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("entry", ["1e-3000", "1/1" + "0" * 3000], ids=["exponent", "long-denominator"])
    def test_non_integral_profile_past_string_limit(self, capsys, entry):
        matrix = json.dumps({"n": 2, "Ln": "2", "F": [[entry, "0"], ["0", entry]]})
        code, payload, err = run(capsys, ["slope", "--input", matrix])
        assert code == 3
        assert payload is None
        assert "NonIntegralProfile" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command,sign",
        [("nef", "-"), ("bound", "-"), ("scan", ""), ("scan", "-")],
        ids=["nef", "bound", "scan", "scan-opposite-signs"],
    )
    def test_output_past_string_limit(self, capsys, command, sign):
        # v[0] = -+2 * 10^4400 has more digits than str() writes.  scan gets
        # F = diag(E, E), which it skips as proportional, and diag(E, -E),
        # whose root it would take seconds to isolate: both are rejected when
        # they are loaded.
        big = "1" + "0" * 2200
        model = {"n": 2, "Ln": "2", "F": [[big, "0"], ["0", sign + big]]}
        text = json.dumps([model] if command == "scan" else model)
        start = time.perf_counter()
        code, payload, err = run(capsys, [command, "--input", text])
        assert time.perf_counter() - start < 2
        assert code == 2
        assert payload is None
        assert err.startswith("input error: cannot write an integer of ")
        assert f"it passes the {sys.get_int_max_str_digits()}-digit limit" in err

    @pytest.mark.parametrize(
        "argv,size",
        [
            (["slope", "--level", "hodge", "--input", json.dumps({"n": 2, "v": ["9" * 3000, 0, "9" * 3000]})],
             "L^2 M^2 = <19932-bit integer>"),
            (["nef", "--level", "spectral", "--input", json.dumps({"n": 3, "v": [1, "9" * 4300, 1, 1]})],
             "u^3 - 3*u^2 + <14286-bit integer>*u - 1"),
        ],
        ids=["hodge-products", "spectral-square-free-part"],
    )
    def test_validation_message_past_string_limit(self, capsys, argv, size):
        code, payload, err = run(capsys, argv)
        assert code == 3
        assert payload is None
        assert "validation failed" in err and size in err

    @pytest.mark.parametrize("command", ["slope", "certify"])
    def test_unprovable_prime_in_trace(self, capsys, command):
        # M^2 = 10^25 + 13 is a prime past the bound where Miller-Rabin
        # proves primality, so the divisor trace is refused, not trial-divided.
        profile = json.dumps({"n": 2, "v": ["10000000000000000000000013", "10000000000000", "2"]})
        start = time.perf_counter()
        code = main([command, "--input", profile])
        assert time.perf_counter() - start < 2
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("input error: divisor trace: cannot prove a cofactor of 84 bits prime")
        assert "3317044064679887385961981" in captured.err

    @pytest.mark.parametrize("command", ["slope", "certify"])
    def test_unsplit_cofactor_in_trace(self, capsys, command):
        # M^2 is the product of two 15-digit primes, which Pollard-Brent rho
        # splits only after about 15 million squarings: the trace is refused
        # once the squaring budget is spent.
        profile = json.dumps({"n": 2, "v": ["11000000000010510000000002201", "10000000000000000", "2"]})
        start = time.perf_counter()
        code = main([command, "--input", profile])
        assert time.perf_counter() - start < 2
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("input error: divisor trace: cannot split a composite cofactor of 94 bits")
        assert "within 2097152 squarings" in captured.err

    @pytest.mark.parametrize("command", ["slope", "certify"])
    def test_cofactor_past_bit_limit_in_trace(self, capsys, command):
        # M^2 = 10^1300 + 7 leaves a cofactor of thousands of bits after
        # trial division, which is refused before Miller-Rabin or rho runs.
        profile = json.dumps({"n": 2, "v": [str(10**1300 + 7), str(10**651), "2"]})
        start = time.perf_counter()
        code = main([command, "--input", profile])
        assert time.perf_counter() - start < 2
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("input error: divisor trace: a cofactor of ")
        assert "bits passes the 256-bit limit" in captured.err

    def test_syntactic_violation(self, capsys):
        code, _, err = run(capsys, ["slope", "--input", '{"n": 2, "v": [0, 1, -2]}'])
        assert code == 2
        assert err.startswith("input error: v[2]: must be at least 1, got -2")

    @pytest.mark.parametrize("command", ["slope", "nef", "certify", "bound", "scan"])
    @pytest.mark.parametrize(
        "instance,message",
        [
            ({"n": 2, "v": [0, 1, -2]}, "input error: v[2]: must be at least 1, got -2"),
            ({"n": 1, "v": ["5", "0"]}, "input error: v[1]: must be at least 1, got 0"),
            ({"n": 2, "Ln": "0", "F": [["1", "0"], ["0", "0"]]}, "input error: L^n: must be at least 1, got 0"),
            ({"n": 1, "Ln": -3, "F": [["1"]]}, "input error: L^n: must be at least 1, got -3"),
        ],
        ids=["profile-negative-top", "profile-zero-top", "matrix-zero-top", "matrix-negative-top"],
    )
    def test_non_positive_top_is_an_input_error(self, capsys, command, instance, message):
        # A polarization has L^n > 0 whether the input is a profile or a matrix.
        payload = json.dumps([instance] if command == "scan" else instance)
        code, out, err = run(capsys, [command, "--input", payload])
        assert (code, out) == (2, None)
        assert err.startswith(message)


#: The modules that ``import nefslope.cli`` adds under ``python -S`` on
#: CPython 3.11, recorded when start-up was last measured.  The frozen
#: records derive from ``exactio.Record``, so neither ``dataclasses`` nor
#: the ``inspect`` chain behind it (``ast``, ``dis``, ``tokenize``, ...) is here,
#: and no module postpones its annotations, so ``__future__`` is not either.
CLI_IMPORTS = frozenset("""
    _collections _collections_abc _decimal _functools _json _operator _sre _stat
    argparse collections collections.abc copyreg decimal enum fractions functools genericpath
    gettext itertools json json.decoder json.encoder json.scanner keyword math nefslope
    nefslope.cli nefslope.errors nefslope.exactio nefslope.numdata nefslope.polyroot
    nefslope.slope numbers operator os os.path posixpath re re._casefix re._compiler
    re._constants re._parser reprlib stat types warnings
""".split())


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="the import set is recorded on CPython 3.11")
def test_cli_adds_no_imports():
    # CLI start-up is dominated by imports; a new one must be a deliberate change.
    code = "import sys; before = set(sys.modules); import nefslope.cli; print(*set(sys.modules) - before)"
    env = dict(os.environ, PYTHONPATH=str(Path(nefslope.cli.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert "nefslope.cli" in done.stdout.split()
    assert set(done.stdout.split()) - CLI_IMPORTS == set()


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="the import set is recorded on CPython 3.11")
def test_gen_loads_no_dataclasses():
    # ``gen`` loads ``generators``, whose ``GenSpec`` is a ``Record`` like the start-up records.
    code = "import sys, nefslope.cli, nefslope.generators; print(*sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(nefslope.cli.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    modules = set(done.stdout.split())
    assert "nefslope.generators" in modules
    assert modules & {"dataclasses", "inspect", "__future__"} == set()


def test_cli_start_up_skips_scan_and_gen_modules():
    # simplicity loads when scan or nef runs, generators when gen runs; the slope names stay eager, so the
    # package's ``slope`` is the function, not the submodule, before and after a lazy name loads.
    code = (
        "import sys, nefslope.cli; print(*sorted(m for m in sys.modules if m.startswith('nefslope.'))); "
        "print(nefslope.slope.__name__, type(nefslope.slope).__name__); nefslope.scan; "
        "print(nefslope.slope.__name__, type(nefslope.slope).__name__, 'nefslope.simplicity' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(nefslope.cli.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    modules, before, after = done.stdout.splitlines()
    assert modules.split() == ["nefslope.cli", "nefslope.errors", "nefslope.exactio", "nefslope.numdata",
                               "nefslope.polyroot", "nefslope.slope"]
    assert (before, after) == ("slope function", "slope function True")
