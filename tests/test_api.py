"""The top-level API: every exported name, and every name the benchmark imports,
resolves, the CLI and ``scan`` accept the calls the benchmark makes, every
committed benchmark record names what BENCHMARK.json declares, the README's
library example prints what its comments say, the library imports from the
standard library alone, each of its modules reads every name it imports, and
the package reads every private name it defines."""

import ast
import contextlib
import importlib
import io
import json
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


def test_bench_records_name_the_benchmark():
    # Every committed BENCH_*.json claims a workload and metric that
    # BENCHMARK.json declares, keys its workloads as <workload>@<seed>, and
    # gives each end-to-end metric it reports a parent and a change median.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = {w["name"] for w in declared["workloads"]}
    metrics = {m["name"] for m in declared["end_to_end"]}
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        record = json.loads(path.read_text(encoding="utf-8"))
        claim = record["claim"]
        assert claim["workload"] in workloads and claim["metric"] in metrics, path.name
        assert record["workloads"], path.name
        for key, results in record["workloads"].items():
            workload, _, seed = key.partition("@")
            assert workload in workloads and seed.isdigit(), (path.name, key)
            reported = metrics & set(results)
            assert reported, (path.name, key)
            for metric in reported:
                medians = [results[metric][side]["median"] for side in ("parent", "change")]
                assert all(isinstance(m, (int, float)) for m in medians), (path.name, key, metric)


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


def test_is_nef_loads_simplicity_on_first_use():
    # ``is_nef`` and its dataclass ``NefReport`` live in ``simplicity``; the package and
    # ``nefslope.slope`` resolve ``is_nef`` on first use and keep the name resolved.
    code = (
        "import sys, nefslope.cli; mod = sys.modules['nefslope.slope']; "
        "print('nefslope.simplicity' in sys.modules); f = mod.is_nef; "
        "from nefslope import is_nef, simplicity; "
        "print(f is is_nef is simplicity.is_nef, "
        "'is_nef' in vars(mod), 'is_nef' in vars(sys.modules['nefslope']), hasattr(mod, 'no_such_name'))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["False", "True", "True", "True", "False"]


def test_every_import_is_used():
    # A module imports only names it reads: pyflakes' unused-import rule,
    # from the standard library.  ``__init__`` imports to re-export.
    unused = []
    for path in sorted((ROOT / "src" / "nefslope").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            alias.asname or alias.name.partition(".")[0]
            for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(imported - used)]
    assert unused == []


def test_every_private_name_is_read():
    # Code only the tests hold gets deleted: each module-level name with one
    # leading underscore is read, as a name or an attribute, by some
    # top-level statement of the package other than its own definition.
    defined, read = {}, set()
    for path in sorted((ROOT / "src" / "nefslope").glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = {stmt.name}
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                own = {node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)}
            else:
                own = set()
            defined.update((name, path.name) for name in own if name.startswith("_") and not name.startswith("__"))
            read |= {
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) or isinstance(node, ast.Attribute)
            } - own
    assert defined
    assert sorted(f"{module}: {name}" for name, module in defined.items() if name not in read) == []


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


def test_readme_library_example_prints_its_comments():
    # Each print line's output is the ``#`` comment on that line or, when the
    # line has none, the comment line below it.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    expected = []
    for i, line in enumerate(lines):
        if line.startswith("print("):
            comment = line.partition("# ")[2] or lines[i + 1].strip().removeprefix("# ")
            expected.append(comment.strip())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert len(expected) == 4
    assert out.getvalue().splitlines() == expected
