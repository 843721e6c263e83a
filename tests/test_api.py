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


def test_traced_entry_points_keep_their_names_and_first_arguments(monkeypatch):
    # perfbench/tracing.py times the two cone sums, the free layer, the
    # strip's rate update and the audit's trace layer by name: it wraps
    # quadrature.cone_integrals_batch, quadrature.phi_time_trace,
    # dalembert.free_solution and dalembert.free_derivatives under every
    # name a debondsim module binds them to, and
    # StripWorkspace.cone_integrals and StripWorkspace.psi2 on their class,
    # and divides the cone sums' time by the nodes of args[0] (a
    # CharLattice's nt and j_ext, a strip's L and m).  A target the program
    # no longer calls reads 0 without an error, so a short run plus audit
    # must call all six, in that form.
    from debondsim import dalembert, griffith, quadrature
    from debondsim.fields import HData
    functions = {"lattice": quadrature.cone_integrals_batch,
                 "trace": quadrature.phi_time_trace,
                 "free": dalembert.free_derivatives,
                 "free_grid": dalembert.free_solution}
    first = {"lattice": "lat", "trace": "lat", "free": "hdata", "free_grid": "hdata"}
    methods = {"strip": "cone_integrals", "strip_rate": "psi2"}
    seen = {key: [] for key in (*functions, *methods)}

    def traced(key, fn):
        def call(*args, **kwargs):
            seen[key].append(args[0])
            return fn(*args, **kwargs)
        return call
    for key, fn in functions.items():
        assert next(iter(inspect.signature(fn).parameters)) == first[key]
        for name, module in list(sys.modules.items()):
            if not name.startswith("debondsim"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, traced(key, fn))
    for key, attr in methods.items():
        monkeypatch.setattr(griffith.StripWorkspace, attr,
                            traced(key, vars(griffith.StripWorkspace)[attr]))

    data = debondsim.ProblemData(R=3.0, rho0=1.0, alpha=0.5, horizon=0.25,
                                 w=debondsim.Profile.zero(),
                                 v0=debondsim.Profile.sine_bump(0.4, 1.0),
                                 v1=debondsim.Profile.zero())
    tough = debondsim.Toughness.constant(0.15, rho0=1.0, R=3.0)
    res = debondsim.run(data, tough, 0.25, delta=1.0 / 64)
    debondsim.audit(res.patches, res.front, data, tough)
    assert all(seen.values()), {key: len(args) for key, args in seen.items()}
    assert all(isinstance(a, quadrature.CharLattice) and a.nt > 0 and a.j_ext > 0
               for a in seen["lattice"] + seen["trace"])
    assert all(isinstance(a, griffith.StripWorkspace) and a.L > 0 and a.m > 0
               for a in seen["strip"] + seen["strip_rate"])
    assert all(isinstance(a, HData) for a in seen["free"] + seen["free_grid"])


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
