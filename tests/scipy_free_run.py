"""Import debondsim, solve a small moving-front problem and audit it while
a ``sys.meta_path`` finder refuses every scipy import: the package's runtime
needs numpy alone, and only the validation module ``debondsim.oracle``
fails, naming the extra that installs scipy.  Every coupled strip must be
at most its window's horizon T tall; their heights are printed.

    python tests/scipy_free_run.py

It exercises whichever debondsim the interpreter imports: run from outside
the checkout, the installed one; ``tests/test_api.py`` runs it against the
sources.  Exits non-zero if any step fails.
"""

import sys


class RefuseScipy:
    """A finder ahead of all others that fails every scipy import."""

    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"scipy is refused here: {name}")
        return None


sys.meta_path.insert(0, RefuseScipy())
try:
    import scipy  # noqa: F401
except ImportError:
    pass
else:
    raise SystemExit("the scipy refusal is not in force")

import debondsim as ds  # noqa: E402

data = ds.ProblemData(R=2.0, rho0=1.0, alpha=0.5, horizon=1.0, w=ds.Profile.sine(0.1, 2.0),
                      v0=ds.Profile.sine_bump(0.9, 1.0), v1=ds.Profile.constant(-0.8))
tough = ds.Toughness.constant(0.02, rho0=1.0, R=2.0)
res = ds.run(data, tough, horizon=1.0, delta=1.0 / 32)
assert res.front.rho_knots[-1] > 1.0, "the front did not move"
strip_rows = [wd["strip_rows"] for wd in res.window_diagnostics]
# each coupled strip is sized to its window, never above its horizon T
for wd in res.window_diagnostics:
    assert wd["strip_rows"] <= round(wd["T"] / res.delta), wd
ledger = ds.audit(res.patches, res.front, data, tough)
assert ledger.max_rel_edp < 1e-2, ledger.max_rel_edp
try:
    import debondsim.oracle  # noqa: F401
except ImportError as exc:  # the validation module names the extra it needs
    assert "debondsim[validation]" in str(exc), exc
else:
    raise SystemExit("debondsim.oracle imported without scipy")
print(f"debondsim from {ds.__file__}: ran {len(strip_rows)} coupled windows on strips of "
      f"{strip_rows} rows ({sum(wd['regrown'] for wd in res.window_diagnostics)} regrown), "
      f"{len(res.patches)} patches, and audited {len(ledger.times)} rows without scipy")
