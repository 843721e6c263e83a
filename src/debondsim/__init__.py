"""Radially symmetric dynamic debonding of a circular thin film.

The supported surface is what this module exports:

  * :func:`run` marches the coupled problem (front and field) by the
    critical-rate flow rule and returns a :class:`GriffithRun`;
  * :func:`march` solves the field under a prescribed :class:`FrontCurve`
    and returns its list of :class:`FieldPatch` windows;
  * :func:`evaluate_field` reads a :class:`FieldSample` (values and exact
    derivatives) from solved patches;
  * :func:`audit` fills an :class:`EnergyLedger`, the only route to the
    energy series, the release rate and the balance, complementarity and
    maximality residuals;
  * the data classes :class:`ProblemData`, :class:`Profile` and
    :class:`Toughness`, and the errors :class:`GeometryError`,
    :class:`ConvergenceError` and :class:`CompatibilityError`.

One module is validation-only and is not loaded by ``import debondsim``:
:mod:`debondsim.oracle`, a finite-difference reference solver.  It is the
only user of scipy, which the ``validation`` extra installs; a solve and
its audit run on numpy alone.  The independent cross-checks the tests
compare against live with the tests, in ``tests/reference.py``.
"""

from .energy_audit import EnergyLedger, audit
from .fields import CompatibilityError, ProblemData, Profile, Toughness
from .geometry import FrontCurve, GeometryError
from .griffith import GriffithRun, run
from .prescribed import ConvergenceError, FieldPatch, FieldSample, evaluate_field, march

__all__ = [
    "run", "audit", "march", "evaluate_field",
    "ProblemData", "Profile", "Toughness", "FrontCurve",
    "GriffithRun", "EnergyLedger", "FieldPatch", "FieldSample",
    "GeometryError", "ConvergenceError", "CompatibilityError",
]
