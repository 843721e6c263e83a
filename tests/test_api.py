"""The package's public surface: what ``import debondsim`` exports and loads."""

import ast
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import debondsim

PACKAGE = Path(debondsim.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
VALIDATION_ONLY = ("oracle",)

SURFACE = [
    "run", "audit", "march", "evaluate_field",
    "ProblemData", "Profile", "Toughness", "FrontCurve",
    "GriffithRun", "EnergyLedger", "FieldPatch", "FieldSample",
    "GeometryError", "ConvergenceError", "CompatibilityError",
]


def test_all_is_pinned_and_resolves():
    assert debondsim.__all__ == SURFACE
    for name in SURFACE:
        assert getattr(debondsim, name) is not None, name


def test_entry_point_signatures_are_pinned():
    # the fixed points' tolerances are module constants, not options: the
    # entry points take their data and the lattice step, and run also the
    # stop margin
    def params(fn):
        return [(p.name, p.default) for p in inspect.signature(fn).parameters.values()]
    need = inspect.Parameter.empty
    assert params(debondsim.run) == [("data", need), ("tough", need), ("horizon", need),
                                     ("delta", 1.0 / 128), ("stop_margin", None)]
    assert params(debondsim.march) == [("data", need), ("front", need), ("horizon", need),
                                       ("delta", 1.0 / 128)]
    assert params(debondsim.audit) == [("patches", need), ("front", need), ("data", need),
                                       ("tough", need)]


def fresh(*args) -> subprocess.CompletedProcess:
    """Run a fresh interpreter with ``args`` and this package on its path."""
    path = os.pathsep.join(filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def fresh_modules(code: str) -> list:
    """The sorted names in a fresh interpreter's ``sys.modules`` after it
    runs ``code``."""
    done = fresh("-c", code + "\nimport sys\nprint(sorted(sys.modules))")
    done.check_returncode()
    return ast.literal_eval(done.stdout.strip().splitlines()[-1])


def test_import_does_not_load_validation_modules():
    loaded = fresh_modules("import debondsim")
    assert "debondsim.griffith" in loaded
    for mod in VALIDATION_ONLY:
        assert f"debondsim.{mod}" not in loaded


def test_run_and_audit_load_no_scipy():
    # a fresh interpreter refuses every scipy import through sys.meta_path,
    # then imports the package, solves and audits (tests/scipy_free_run.py;
    # CI runs the same script against a bare install)
    done = fresh(str(TESTS / "scipy_free_run.py"))
    assert done.returncode == 0, done.stderr
    assert str(PACKAGE) in done.stdout and "without scipy" in done.stdout


def third_party_imports(path: Path) -> set:
    """Top-level names of the absolute imports in one module that are
    neither the standard library nor this package."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found |= {n.split(".")[0] for n in names}
    return found - set(sys.stdlib_module_names) - {"debondsim"}


def requirement_names(reqs) -> set:
    return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower().replace("-", "_") for r in reqs}


def test_every_third_party_import_is_declared():
    # the runtime modules import only what `dependencies` installs; the
    # validation modules may also import what the `validation` extra adds
    tomllib = pytest.importorskip("tomllib")
    with (TESTS.parent / "pyproject.toml").open("rb") as fh:
        project = tomllib.load(fh)["project"]
    runtime = requirement_names(project["dependencies"])
    validation = requirement_names(project["optional-dependencies"]["validation"])
    assert runtime == {"numpy"}
    assert validation == {"scipy"}
    for path in sorted(PACKAGE.glob("*.py")):
        allowed = runtime | validation if path.stem in VALIDATION_ONLY else runtime
        assert third_party_imports(path) <= allowed, path.name
    assert third_party_imports(PACKAGE / "oracle.py") == {"numpy", "scipy"}
