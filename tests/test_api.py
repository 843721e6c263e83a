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


def test_import_does_not_load_validation_modules():
    code = ("import sys, debondsim; "
            "print(sorted(m for m in sys.modules if m.startswith('debondsim')))")
    path = os.pathsep.join(filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path}).stdout
    loaded = ast.literal_eval(out.strip())
    assert "debondsim.griffith" in loaded
    for mod in VALIDATION_ONLY:
        assert f"debondsim.{mod}" not in loaded


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
