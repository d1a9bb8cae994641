"""The top-level API: every exported name, and every name the benchmark imports,
resolves, the CLI and ``scan`` accept the calls the benchmark makes, and the
library imports from the standard library alone."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import nefslope
from nefslope import cli, simplicity

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def bench_imports():
    """Names imported ``from nefslope`` anywhere in ``bench/*.py``."""
    names = set()
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "nefslope":
                names.update(alias.name for alias in node.names)
    return sorted(names)


def resolves(name):
    if hasattr(nefslope, name):
        return True
    # ``from nefslope import simplicity`` also loads a submodule.
    try:
        importlib.import_module(f"nefslope.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_exported_names_resolve():
    assert [name for name in nefslope.__all__ if not hasattr(nefslope, name)] == []


def test_bench_imports_resolve():
    names = bench_imports()
    assert "isolate_max_root" in names and "slope" in names
    assert [name for name in names if not resolves(name)] == []


def test_bench_cli_calls_parse():
    # The argument vectors of the benchmark's ``cli_argv`` methods
    for argv in (
        ["slope", "--input", "X"],
        ["certify", "--input", "X"],
        ["scan", "--input", "X"],
        ["bound", "--level", "spectral", "--input", "X"],
    ):
        args = cli.build_parser().parse_args(argv)
        assert (args.command, args.input) == (argv[0], "X")


def test_scan_accepts_jobs():
    assert simplicity.scan([], jobs=2).overall == simplicity.CONSISTENT


def test_library_needs_only_the_standard_library():
    # ``python -S`` leaves site-packages off the path; the pytest check shows that it did.
    code = (
        "import importlib.util; assert importlib.util.find_spec('pytest') is None; "
        "import nefslope, nefslope.cli, nefslope.simplicity, nefslope.generators"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
