"""The package's public surface: what ``import debondsim`` exports and loads."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import debondsim

PACKAGE = Path(debondsim.__file__).resolve().parent
VALIDATION_ONLY = ("reference", "oracle")

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


def fresh_modules(code: str) -> list:
    """Run ``code`` in a fresh interpreter with this package on its path
    and return the sorted names in its ``sys.modules`` afterwards."""
    code += "\nimport sys\nprint(sorted(sys.modules))"
    path = os.pathsep.join(filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path}).stdout
    return ast.literal_eval(out.strip().splitlines()[-1])


def test_import_does_not_load_validation_modules():
    loaded = fresh_modules("import debondsim")
    assert "debondsim.griffith" in loaded
    for mod in VALIDATION_ONLY:
        assert f"debondsim.{mod}" not in loaded


def test_run_and_audit_load_no_scipy():
    # scipy is needed by the validation modules and by sampled profiles
    # with method="pchip" only; a solve and its audit must not import it
    loaded = fresh_modules("""
import debondsim as ds
data = ds.ProblemData(R=2.0, rho0=1.0, alpha=0.5, horizon=0.25, w=ds.Profile.zero(),
                      v0=ds.Profile.sine_bump(0.9, 1.0), v1=ds.Profile.constant(-0.8))
tough = ds.Toughness.constant(0.02, rho0=1.0, R=2.0)
res = ds.run(data, tough, horizon=0.25, delta=1.0 / 32)
assert res.front.rho_knots[-1] > 1.0
ds.audit(res.patches, res.front, data, tough)
""")
    assert "debondsim.energy_audit" in loaded
    assert not [m for m in loaded if m == "scipy" or m.startswith("scipy.")]


def test_no_production_module_imports_reference():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "reference":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            assert not any(n.split(".")[-1] == "reference" for n in names), path.name
