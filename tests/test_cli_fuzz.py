"""In-process fuzz test of the command-line interface.

Every input is answered or rejected with a typed exit code: 0, 10
(scan witness), 2 (input error) or 3 (precondition violation), and no
exception escapes ``main``.  Examples are derandomized so the suite stays
deterministic.  Sizes stay small (n <= 5, entries <= 10^6), except in the
magnitude tests: n <= 3 with profile entries up to the 4300-digit int-string
limit and matrix entries up to 2200 digits, whose products pass it, under
the subcommands that isolate no root (``nef`` and ``bound``) and under
``scan``, which isolates one per instance.  ``slope
--width`` draws garbage, non-positive values, exponents past the int-string
limit, widths below the 2^-4096 floor and valid rationals; ``--output`` draws
a file, a directory and a path with a missing parent.  Each example runs
under a wall-time bound, so a hang fails the suite instead of stalling it.
"""

import contextlib
import io
import json
import signal
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nefslope.cli import main

EXIT_CODES = {0, 2, 3, 10}
COMMANDS = ("slope", "nef", "certify", "bound", "scan")
LEVELS = ("syntactic", "spectral", "hodge")

FUZZ = settings(derandomize=True, max_examples=200, deadline=None, database=None)

#: Wall-time bound per example, in seconds: 20x the slowest example measured
#: (93 ms, on 2 cores under CPython 3.11).  Hypothesis checks its deadline
#: only once an example returns, so an interval timer enforces this one.
EXAMPLE_SECONDS = 2

commands = st.sampled_from(COMMANDS)
levels = st.sampled_from(LEVELS)
entries = st.integers(-(10**6), 10**6)
json_scalars = st.none() | st.booleans() | st.integers(-(10**6), 10**6) | st.text(max_size=8)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)


@pytest.fixture(scope="module")
def input_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.json"


@pytest.fixture(scope="module")
def output_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz-output")


def _out_of_time(signum, frame):
    raise TimeoutError(f"example ran past {EXAMPLE_SECONDS} s")


def run(command, level, text, *flags):
    """Exit code, stdout and stderr of one ``main`` call under the wall-time bound."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _out_of_time)
    signal.setitimer(signal.ITIMER_REAL, EXAMPLE_SECONDS)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--input", text, "--level", level, *flags])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code in EXIT_CODES, (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue(), err.getvalue()


def wire(x, as_string):
    return str(x) if as_string else x


@st.composite
def profiles(draw):
    """``{"n", "v"}`` with a positive L^n = v[n]; one draw in five has a
    bad n, a wrong length or any L^n."""
    bad = draw(st.integers(0, 4)) == 0
    n = draw(st.integers(-1, 5) if bad else st.integers(1, 5))
    v = [draw(entries) for _ in range(max(n, 0))] + [draw(entries if bad else st.integers(1, 10**6))]
    if bad:
        v = draw(st.sampled_from([v, v[1:], v + [1]]))
    as_string = draw(st.booleans())
    return {"n": n, "v": [wire(x, as_string) for x in v]}


@st.composite
def matrix_models(draw):
    """``{"n", "Ln", "F"}`` with integral F and n! | L^n, so that the
    profile is integral; one draw in five has rational entries, an
    asymmetric F or any L^n."""
    bad = draw(st.integers(0, 4)) == 0
    n = draw(st.integers(1, 5))
    cells = {}
    for i in range(n):
        for j in range(i, n):
            num = draw(entries)
            den = draw(st.integers(1, 10**6)) if bad else 1
            cells[i, j] = cells[j, i] = f"{num}/{den}" if den > 1 else str(num)
    if bad and n > 1:
        cells[0, 1] = str(draw(entries))
    rows = [[cells[i, j] for j in range(n)] for i in range(n)]
    top_l = draw(st.integers(-3, 10**6)) if bad else factorial(n) * draw(st.integers(1, 1000))
    return {"n": n, "Ln": wire(top_l, draw(st.booleans())), "F": rows}


instances = profiles() | matrix_models()

#: ``--width`` values: 2^-4096 is about 9.5e-1234, and the int-string limit
#: counts a written exponent with its magnitude.
widths = st.one_of(
    st.text(max_size=8),
    st.integers(-(10**6), 0).map(str),
    st.integers(1, 10**6).map(lambda k: f"-1/{k}"),
    st.integers(4300, 10**7).map(lambda k: f"1e-{k}"),
    st.integers(4300, 10**7).map(lambda k: f"1e{k}"),
    st.integers(1234, 4290).map(lambda k: f"1e-{k}"),
    st.integers(4097, 4200).map(lambda k: f"1/{2**k}"),
    st.integers(0, 1233).map(lambda k: f"1e-{k}"),
    st.integers(1, 4096).map(lambda k: f"1/{2**k}"),
    st.tuples(st.integers(1, 10**6), st.integers(1, 10**20)).map(lambda t: f"{t[0]}/{t[1]}"),
)


@st.composite
def invocations(draw):
    """A subcommand with one instance, or ``scan`` with up to three."""
    command = draw(commands)
    first = draw(instances)
    if command != "scan":
        return command, first
    items = [first] + draw(st.lists(instances, max_size=2))
    # One scan is one polarized variety: the entries share the first L^n.
    top_l = first["Ln"] if "F" in first else (first["v"] or [1])[-1]
    items = [dict(item, Ln=top_l) if "F" in item else dict(item, v=item["v"][:-1] + [top_l]) for item in items]
    return command, [dict(item, label=f"i{k}") for k, item in enumerate(items)]


@st.composite
def nested_json(draw):
    """A JSON value wrapped in up to 4000 arrays or single-key objects,
    placed as a whole document or inside a profile field."""
    depth = draw(st.integers(0, 4000))
    opener, closer = draw(st.sampled_from([("[", "]"), ('{"v": ', "}")]))
    text = opener * depth + json.dumps(draw(json_values)) + closer * depth
    where = draw(st.sampled_from(["document", "v", "v-entry", "F", "label"]))
    if where == "document":
        return text
    if where == "v":
        return f'{{"n": 2, "v": {text}}}'
    if where == "v-entry":
        return f'{{"n": 2, "v": [2, {text}, 2]}}'
    if where == "F":
        return f'{{"n": 1, "Ln": 1, "F": {text}}}'
    return f'[{{"label": {text}, "n": 2, "v": [0, 1, 2]}}]'


@st.composite
def huge_integers(draw, max_digits):
    """An integer of 1..max_digits digits, either sign, half the time in the
    top hundred lengths: a drawn digit pattern repeated to the drawn length."""
    digits = draw(st.integers(1, max_digits) | st.integers(max_digits - 99, max_digits))
    pattern = str(draw(st.integers(1, 10**6)))
    value = int((pattern * (digits // len(pattern) + 1))[:digits])
    return value if draw(st.booleans()) else -value


@st.composite
def huge_instances(draw):
    """A profile with entries of up to 4300 digits and a positive L^n, or a
    symmetric integral matrix model with entries of up to 2200 digits."""
    n = draw(st.integers(1, 3))
    if draw(st.booleans()):
        v = [draw(huge_integers(4300)) for _ in range(n + 1)]
        return {"n": n, "v": [str(x) for x in v[:-1]] + [str(abs(v[-1]))]}
    cells = {}
    for i in range(n):
        for j in range(i, n):
            cells[i, j] = cells[j, i] = str(draw(huge_integers(2200)))
    rows = [[cells[i, j] for j in range(n)] for i in range(n)]
    return {"n": n, "Ln": str(factorial(n) * draw(st.integers(1, 1000))), "F": rows}


class TestCliFuzz:
    @FUZZ
    @given(data=st.binary(max_size=64), command=commands, level=levels)
    def test_random_bytes_file(self, input_file, data, command, level):
        input_file.write_bytes(data)
        run(command, level, str(input_file))

    @FUZZ
    @given(text=nested_json(), command=commands, level=levels)
    def test_nested_json(self, text, command, level):
        run(command, level, text)

    @FUZZ
    @given(invocation=invocations(), level=levels)
    def test_profiles_and_matrices(self, invocation, level):
        command, payload = invocation
        run(command, level, json.dumps(payload))

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(instance=huge_instances(), command=st.sampled_from(("nef", "bound")), level=levels)
    def test_magnitudes(self, instance, command, level):
        run(command, level, json.dumps(instance))

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(instance=huge_instances(), level=levels)
    def test_scan_magnitudes(self, instance, level):
        # scan isolates the maximal root of every instance it answers.
        run("scan", level, json.dumps([instance]))

    @FUZZ
    @given(instance=instances, width=widths, level=levels)
    def test_width(self, instance, width, level):
        # "--width=" keeps a value that starts with "-" from reading as a flag.
        run("slope", level, json.dumps(instance), f"--width={width}")

    @FUZZ
    @given(invocation=invocations(), level=levels, target=st.sampled_from(["file", "directory", "missing-parent"]))
    def test_output(self, output_dir, invocation, level, target):
        command, payload = invocation
        text = json.dumps(payload)
        path = {"file": output_dir / "out.json", "directory": output_dir, "missing-parent": output_dir / "no" / "out.json"}
        (output_dir / "out.json").unlink(missing_ok=True)
        code, out, err = run(command, level, text)
        written = run(command, level, text, "--output", str(path[target]))
        assert written[1] == ""
        if code in (2, 3) or target == "file":
            assert written == (code, "", err)
            assert (code in (2, 3)) != path["file"].exists()
        else:
            assert written[0] == 2 and written[2].startswith("input error: cannot write output:")
        if written[0] in (0, 10):
            assert path["file"].read_text(encoding="utf-8") == out
