"""What the package's modules import: every name used, and numpy only where needed."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

# the package, the tests and the demos; not perfbench, which changes only with the benchmark
SOURCES = [path for folder in ("src/wordperim", "tests", "demos")
           for path in sorted((Path(__file__).parents[1] / folder).glob("*.py"))]


def unused_imports(source: str) -> list[str]:
    """The names ``source`` binds by an import statement and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_check_finds_an_unused_import():
    source = "import os\nimport sys as system\nfrom .a import b, c\nprint(b, os.sep)\n"
    assert unused_imports(source) == ["line 2: system", "line 3: c"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# ---------------------------------------------------------------------------
# the exact core loads without numpy
# ---------------------------------------------------------------------------

NUMPY_FREE = ["__init__.py", "cli.py", "cross_moments.py", "models.py", "moments.py",
              "polyomino.py", "verification.py"]


def module_level_imports(source: str) -> list[str]:
    """The modules ``source`` imports when it is loaded: every import outside a function body."""
    found = []
    todo = list(ast.parse(source).body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append(node.module)
        todo.extend(ast.iter_child_nodes(node))
    return sorted(found)


def test_the_check_finds_a_module_level_import():
    source = ("import os\nif os.sep:\n    import numpy as np\n"
              "class A:\n    from numpy import ndarray\n"
              "def f():\n    import numpy\n")
    assert module_level_imports(source) == ["numpy", "numpy", "os"]


@pytest.mark.parametrize("name", NUMPY_FREE)
def test_the_exact_core_imports_numpy_nowhere_at_module_level(name):
    source = (Path(__file__).parents[1] / "src" / "wordperim" / name).read_text(encoding="utf-8")
    assert not [m for m in module_level_imports(source) if m.split(".")[0] == "numpy"]


SUBMODULES = {"cross_moments", "empirics", "models", "moments", "polyomino", "simulation",
              "svgplot", "verification"}


def test_every_public_name_resolves_and_is_listed_by_dir():
    import wordperim as wp

    listed = dir(wp)
    for name in wp.__all__:
        assert getattr(wp, name) is not None, name
        assert name in listed, name
    assert SUBMODULES <= set(listed)


# the package's public names, in the order of ``__all__``
PUBLIC_NAMES = [
    "EmpiricalMoments", "GEOMETRIC", "GofReport", "Histogram", "IdentityCheck",
    "MemoryBudgetExceeded", "Model", "MomentIndex", "MomentReport", "NoClosedFormError",
    "PerimeterBreakdown", "SimulationConfig", "TrajectoryEnsemble", "UNIFORM", "build_histogram",
    "cross_moment_closed", "cross_moment_oracle", "empirical_moments", "format_report", "gap_pmf",
    "gap_pmf_by_convolution", "gaussian_cell_masses", "goodness_of_fit", "ks_statistic",
    "letter_pmf", "mean_gap", "mean_perimeter", "moment_report", "mu3_dominant",
    "mu3_rate_closed", "normal_cdf", "normalized_path", "perimeter_decomposed",
    "perimeter_edge_count", "render_polyomino", "run_verification", "sample_letters", "simulate",
    "trajectory_rng", "variance_perimeter", "vstar_sigma", "__version__",
]

# imports the package alone, then every name through ``import *``, in a fresh interpreter
PACKAGE_PROBE = """
import json, sys
import wordperim as wp
loaded = sorted(m for m in sys.modules if m.startswith(("wordperim.", "numpy")))
names = {}
exec("from wordperim import *", names)
del names["__builtins__"]
# each bound object is the object of that name in the module that defines it
homes = {name: getattr(value, "__module__", None) for name, value in names.items()}
served = {name: home is not None and getattr(sys.modules[home], name) is names[name]
          for name, home in homes.items()}
print(json.dumps({"loaded": loaded, "all": wp.__all__, "bound": sorted(names), "homes": homes,
                  "served": served, "constants": [wp.Model is wp.models.Model,
                                                  wp.UNIFORM is wp.models.UNIFORM,
                                                  wp.GEOMETRIC is wp.models.GEOMETRIC]}))
"""


def test_the_package_imports_no_submodule_and_serves_each_name_from_its_module():
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]
    done = subprocess.run([sys.executable, "-c", PACKAGE_PROBE], capture_output=True, text=True,
                          timeout=300,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))})
    assert done.returncode == 0, done.stderr
    probe = json.loads(done.stdout)
    assert probe["loaded"] == []  # no wordperim submodule and no numpy
    assert probe["all"] == PUBLIC_NAMES
    assert probe["bound"] == sorted(PUBLIC_NAMES)
    assert probe["constants"] == [True, True, True]
    # every name but the two string constants and __version__ names its defining module
    unplaced = sorted(name for name, home in probe["homes"].items() if home is None)
    assert unplaced == ["GEOMETRIC", "UNIFORM", "__version__"]
    homes = {home.split(".")[1] for home in probe["homes"].values() if home}
    assert homes == SUBMODULES - {"svgplot"}
    assert sorted(name for name, ok in probe["served"].items() if not ok) == unplaced


EXACT_COMMANDS = [
    ["verify", "--k-max", "3", "--p-list", "1/2,1/3", "--random-words", "2100"],
    ["moments", "--model", "uniform", "--k", "6", "--n", "500"],
    ["moments", "--model", "geometric", "--p", "1/3", "--n", "40", "--format", "csv"],
    ["xmoment", "--model", "geometric", "--p", "1/3", "--index", "0,1,1,0"],
    ["render", "--word", "2,3,1,3", "--out", "word.svg"],
]
# runs each command in one interpreter; with BLOCK, ``import numpy`` raises ImportError
PROBE = """
import contextlib, io, json, sys
if sys.argv[1] == "BLOCK":
    sys.modules["numpy"] = None
from wordperim.cli import main
runs = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    runs.append([code, out.getvalue()])
loaded = sorted(m for m in sys.modules if m == "numpy" or m.startswith("numpy."))
print(json.dumps({"runs": runs, "numpy_modules": loaded,
                  "numpy_random": "numpy.random" in sys.modules}))
"""


def run_probe(mode: str, cwd: Path) -> dict:
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]
    cwd.mkdir()
    done = subprocess.run([sys.executable, "-c", PROBE, mode, json.dumps(EXACT_COMMANDS)],
                          capture_output=True, text=True, timeout=300, cwd=cwd,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))})
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_exact_commands_print_the_same_bytes_without_numpy(tmp_path):
    blocked, free = run_probe("BLOCK", tmp_path / "blocked"), run_probe("ALLOW", tmp_path / "free")
    assert blocked["runs"] == free["runs"]
    for name in ("word.svg", "word.svg.manifest.json"):  # render's files
        assert (tmp_path / "blocked" / name).read_bytes() == (tmp_path / "free" / name).read_bytes()
    assert [code for code, _ in blocked["runs"]] == [0] * len(EXACT_COMMANDS)
    assert "13/13 identities pass" in blocked["runs"][0][1]
    # numpy is never imported: the one entry is the None that blocks it
    assert blocked["numpy_modules"] == ["numpy"] and not blocked["numpy_random"]
    assert free["numpy_modules"] == [] and not free["numpy_random"]


# ---------------------------------------------------------------------------
# what each exact command loads at start-up and when it runs
# ---------------------------------------------------------------------------

WATCHED = ("dataclasses", "inspect", "json", "hashlib", "_hashlib", "numpy")
# imports the CLI, then runs the argv it is given, if any; its last stdout line
# lists the watched modules loaded after the import and after the run
LOADED_PROBE = f"""
import sys
watched = {WATCHED!r}
import wordperim.cli
after_import = [m for m in watched if m in sys.modules]
code = wordperim.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(code, after_import, [m for m in watched if m in sys.modules])
"""


@pytest.mark.parametrize("argv, loaded", [
    ([], []),
    (["moments", "--model", "uniform", "--k", "6", "--n", "500"], ["json"]),
    (["xmoment", "--model", "geometric", "--p", "1/3", "--index", "0,1,1,0"], ["json"]),
    # the random perimeter words are SHAKE-128 digests; the report is text, not JSON
    (["verify", "--k-max", "3", "--p-list", "1/2", "--random-words", "100"],
     ["hashlib", "_hashlib"]),
    # the manifest is JSON and holds the sha256 of the SVG
    (["render", "--word", "2,3,1,3", "--out", "word.svg"], ["json", "hashlib", "_hashlib"]),
], ids=["import", "moments", "xmoment", "verify", "render"])
def test_each_exact_command_loads_only_what_it_runs(tmp_path, argv, loaded):
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]
    done = subprocess.run([sys.executable, "-c", LOADED_PROBE, *argv], capture_output=True,
                          text=True, timeout=300, cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))})
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == f"0 [] {loaded}"
