"""Compare the results of two debondsim source trees bit for bit.

    python tests/equality_check.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding a ``debondsim`` package, such
as ``src`` of two checkouts.  Each tree runs in a fresh process of its own:
the benchmark workloads front_kkt, static_load and rim_debond
(``perfbench/workloads.py``) at seed 0, at 1, 1/2 and 2 times their lattice
step, each a coupled ``griffith.run`` and its ``energy_audit.audit``, and
at the benchmark's step the finite-difference oracle on the produced front.
For every part of every run (the front, the patch values, the kernel
fields F, the patch scales and windows, each window's certified
contraction bound, the window and patch diagnostics but for that bound,
each ledger column and the oracle's H) it prints "bitwise equal" or the
largest absolute difference and, beside it, the largest relative one
(|difference| / max |old| over each array), so that a move at rounding
level reads as one.  A part whose arrays differ in count or shape prints
both trees' array counts and the first shape that differs, and a run whose
patch count changed says so first ("rim_debond delta x 1: 5 patches → 4").
It exits 1 unless every part is bitwise equal.  Given one tree twice, it
checks that two processes agree, so that no result reads a work array it
never wrote.

It is a script, not a test module: pytest does not collect it.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SCALES = (1.0, 0.5, 2.0)


def _arrays(values) -> list:
    return [np.asarray(v, dtype=float) for v in values]


def _diagnostics(d: dict) -> np.ndarray:
    return np.array([float(v) for _, v in sorted(d.items())])


def results(src: Path) -> dict:
    """{(workload, step factor): {part: list of arrays}} of the tree at src,
    in this process; the tree's package must be the one imported."""
    sys.path[:0] = [str(src), str(ROOT)]
    import debondsim
    from debondsim import energy_audit, griffith, oracle
    from perfbench import workloads

    if not Path(debondsim.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"imported {debondsim.__file__}, not the tree at {src}")
    out = {}
    for name in workloads.NAMES:
        for scale in SCALES:
            wl = workloads.build(name, 0, scale)
            run = griffith.run(wl.data, wl.tough, wl.horizon, wl.delta)
            ledger = energy_audit.audit(run.patches, run.front, wl.data, wl.tough)
            ps = run.patches
            parts = {
                "front": _arrays([run.front.t_knots, run.front.rho_knots, run.t_star,
                                  run.stop_reason == "fully_debonded"]),
                "patch values": _arrays(p.lattice.values for p in ps),
                "F": _arrays(p.F for p in ps),
                "scale and window": _arrays(
                    [p.scale, p.window.t_start, p.window.t_end, p.window.delta] for p in ps),
                "window bounds": _arrays([p.window.contraction_bound for p in ps]),
                "diagnostics": [_diagnostics(d) for d in run.window_diagnostics]
                + [_diagnostics({k: v for k, v in p.diagnostics.items()
                                 if k != "contraction_bound"}) for p in ps],
            }
            for col in dataclasses.fields(ledger):
                parts[f"ledger {col.name}"] = _arrays([getattr(ledger, col.name)])
            if scale == 1.0:
                ref = oracle.solve_reference(wl.hdata, run.front, run.t_star, dy=wl.delta)
                parts["oracle H"] = _arrays([ref.H])
            out[name, scale] = parts
    return out


def compare(a: list, b: list) -> str:
    """'bitwise equal', or how two parts differ."""
    if len(a) != len(b) or any(x.shape != y.shape for x, y in zip(a, b)):
        first = next((k for k, (x, y) in enumerate(zip(a, b)) if x.shape != y.shape), None)
        shape = ("the shapes they share agree" if first is None else
                 f"array {first} is {a[first].shape} → {b[first].shape}")
        return f"differs in layout: {len(a)} arrays → {len(b)}, {shape}"
    if all(x.tobytes() == y.tobytes() for x, y in zip(a, b)):
        return "bitwise equal"
    gaps = [float(np.max(np.abs(x - y), initial=0.0)) for x, y in zip(a, b)]
    scales = [float(np.max(np.abs(x), initial=0.0)) for x in a]
    rel = max((g / s if s > 0 else (np.inf if g > 0 else 0.0)) for g, s in zip(gaps, scales))
    return f"largest absolute difference {max(gaps):.3e}, relative {rel:.3e}"


def main(argv) -> int:
    if len(argv) == 3 and argv[0] == "--worker":
        with open(argv[2], "wb") as fh:
            pickle.dump(results(Path(argv[1])), fh)
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
    old, new = found
    unequal = 0
    for key, parts in old.items():
        name, scale = key
        if parts.keys() != new[key].keys():
            print(f"{name} delta x {scale:g}: the trees report different parts")
            unequal += 1
            continue
        patches = len(parts["patch values"]), len(new[key]["patch values"])
        if patches[0] != patches[1]:
            print(f"{name} delta x {scale:g}: {patches[0]} patches → {patches[1]}")
        for part, arrays in parts.items():
            verdict = compare(arrays, new[key][part])
            unequal += verdict != "bitwise equal"
            print(f"{name:<12} delta x {scale:<4g} {part:<20} {verdict}")
    print("every part bitwise equal" if not unequal else f"{unequal} parts differ")
    return 1 if unequal else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
