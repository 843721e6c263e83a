"""Print the refinement table of two debondsim source trees side by side.

    python tests/order_table.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding a ``debondsim`` package, such
as ``src`` of two checkouts.  Each tree runs in a fresh process of its own,
as in ``tests/equality_check.py``: the benchmark workloads front_kkt,
static_load and rim_debond (``perfbench/workloads.py``) at seed 0 and at
delta = 1/64, 1/128, 1/256, 1/512 and 1/1024, each a coupled
``griffith.run`` and its ``energy_audit.audit``.  Per workload and tree it
prints, at each delta:

  * the energy balance (EDP) residual at t = 0.3, 0.5 and 0.6, fixed times
    rather than the last row, where R - rho is the stop margin;
  * the largest KKT residual / G0, over the rows where G0 > 0;
  * the largest maximal-dissipation (MDP) gap;
  * t*, and the counts of coupled windows and of patches;

and for each residual the ratios of its magnitude at one delta to that at
the next finer one (4 for second order, 2 for first).  Below that it
prints h and v_t (``prescribed.evaluate_field``) at four probe points
(t, r): (0.5, 0.375) and (0.625, 0.25), which no characteristic reaches
after reflecting off the front (t + r < rho0 = 1), and (0.125, 0.9375) and
(0.625, 0.875), which one does; each as its value at the coarsest delta,
its self-differences (the value at each delta minus that at the next
coarser one) and the ratios of successive self-differences (4 for second
order).  A time past t* prints as "-".  It exits 0; reading the table is
left to the reader.

It is a script, not a test module: pytest does not collect it.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
DELTAS = (1.0 / 64, 1.0 / 128, 1.0 / 256, 1.0 / 512, 1.0 / 1024)
TIMES = (0.3, 0.5, 0.6)
RESIDUALS = [f"EDP(t={t:g})" for t in TIMES] + ["KKT/G0 max", "MDP gap max"]
COUNTS = ["t*", "windows", "patches"]
PROBES = ((0.5, 0.375), (0.625, 0.25), (0.125, 0.9375), (0.625, 0.875))
FIELDS = [f"{q}({t:g}, {r:g})" for t, r in PROBES for q in ("h", "v_t")]


def figures(src: Path) -> dict:
    """{workload: {figure: [value at each delta]}} of the tree at src, in
    this process; the tree's package must be the one imported."""
    sys.path[:0] = [str(src), str(ROOT)]
    import debondsim
    from debondsim import energy_audit, griffith, prescribed
    from perfbench import workloads

    if not Path(debondsim.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"imported {debondsim.__file__}, not the tree at {src}")
    out = {}
    for name in workloads.NAMES:
        table = {key: [] for key in RESIDUALS + COUNTS + FIELDS}
        bench_delta = workloads.build(name, 0).delta
        for delta in DELTAS:
            wl = workloads.build(name, 0, delta / bench_delta)
            run = griffith.run(wl.data, wl.tough, wl.horizon, wl.delta)
            led = energy_audit.audit(run.patches, run.front, wl.data, wl.tough)
            for t in TIMES:
                row = round(t / wl.delta)
                past = row >= len(led.times)
                table[f"EDP(t={t:g})"].append(np.nan if past else float(led.edp_residual[row]))
            moving = led.G0 > 0.0
            table["KKT/G0 max"].append(float(np.max(led.kkt_residual[moving] / led.G0[moving],
                                                    initial=0.0)))
            table["MDP gap max"].append(float(np.max(led.mdp_gap)))
            table["t*"].append(run.t_star)
            table["windows"].append(len(run.window_diagnostics))
            table["patches"].append(len(run.patches))
            for t, r in PROBES:
                sample = (prescribed.evaluate_field(run.patches, t, r)
                          if t <= run.t_star + 1e-12 else None)
                table[f"h({t:g}, {r:g})"].append(sample.h if sample else np.nan)
                table[f"v_t({t:g}, {r:g})"].append(sample.v_t if sample else np.nan)
        out[name] = table
    return out


def _cell(value) -> str:
    if isinstance(value, int):
        return f"{value:>11d}"
    return f"{'-':>11}" if np.isnan(value) else f"{value:>11.3e}"


def _ratio(coarse: float, fine: float) -> str:
    if np.isnan(coarse) or np.isnan(fine) or fine == 0.0:
        return f"{'-':>7}"
    return f"{abs(coarse) / abs(fine):>7.2f}"


def main(argv) -> int:
    if len(argv) == 3 and argv[0] == "--worker":
        with open(argv[2], "wb") as fh:
            pickle.dump(figures(Path(argv[1])), fh)
        return 0
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH="")
    with tempfile.TemporaryDirectory() as tmp:
        found = []
        for k, src in enumerate(argv):  # each tree in a fresh interpreter
            dump = str(Path(tmp) / f"tree{k}.pickle")
            subprocess.run([sys.executable, __file__, "--worker", str(Path(src).resolve()),
                            dump], env=env, check=True)
            with open(dump, "rb") as fh:
                found.append(pickle.load(fh))
    head = "".join(f"{'1/' + str(round(1 / d)):>11}" for d in DELTAS)
    for name in found[0]:
        print(f"{name}\n  {'figure':<12} {'tree':<4}{head}{'ratios':>15}")
        for key in RESIDUALS + COUNTS:
            for label, tree in zip(("old", "new"), found):
                vals = tree[name][key]
                ratios = ("".join(_ratio(a, b) for a, b in zip(vals[:-1], vals[1:]))
                          if key in RESIDUALS else "")
                print(f"  {key if label == 'old' else '':<12} {label:<4}"
                      f"{''.join(_cell(v) for v in vals)}{ratios}")
        steps = "".join(f"{'d 1/' + str(round(1 / d)):>11}" for d in DELTAS[1:])
        print(f"  {'probe':<18} {'tree':<4}{'1/' + str(round(1 / DELTAS[0])):>20}{steps}"
              f"{'ratios':>15}")
        for key in FIELDS:
            for label, tree in zip(("old", "new"), found):
                vals = tree[name][key]
                diffs = list(np.diff(vals))
                ratios = "".join(_ratio(a, b) for a, b in zip(diffs[:-1], diffs[1:]))
                first = f"{'-':>20}" if np.isnan(vals[0]) else f"{vals[0]:>20.12e}"
                print(f"  {key if label == 'old' else '':<18} {label:<4}{first}"
                      f"{''.join(_cell(v) for v in diffs)}{ratios}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
