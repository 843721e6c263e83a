"""Locate the checkout the benchmark runs in and import debondsim from its
sources, never from an installed copy."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_debondsim():
    """Put ``src`` first on the path and import the package from it; raise
    ImportError when the checkout has no sources to build from."""
    if not (SRC / "debondsim" / "__init__.py").is_file():
        raise ImportError(f"no debondsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("debondsim")
    if Path(pkg.__file__).resolve().parent != SRC / "debondsim":
        raise ImportError(f"debondsim was imported from {pkg.__file__}, not from {SRC}")
    return pkg
