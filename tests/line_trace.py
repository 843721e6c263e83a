"""List the statements of a debondsim source tree that the runs never reach.

    python tests/line_trace.py SRC

SRC is a directory holding a ``debondsim`` package, such as ``src``.  Three
fresh processes run under ``sys.settrace``, each recording the lines it
executes in the files under SRC:

  * the tier-1 tests (``python -m pytest -q tests``);
  * the benchmark workloads front_kkt, static_load and rim_debond
    (``perfbench/workloads.py``) at seeds 0 and 1 and at 2, 1 and 1/2 times
    their lattice step, each a coupled ``griffith.run`` and its
    ``energy_audit.audit``, and at the benchmark's step the
    finite-difference oracle on the produced front, as the benchmark's
    oracle check solves it;
  * ``tests/scipy_free_run.py``, a run and audit with every scipy import
    refused, where the validation module's ``ImportError`` is raised.

For every module it then prints the statements that no process reaches
("unreached") and those that only the tests or the scipy-free run reach
("tests only"), each with its line number and first line.  A statement
counts as reached when any line of it runs; a compound statement (if, for,
while, with) counts its header lines only, and a try its body.
Definitions, imports, docstrings and ``nonlocal``/``global`` declarations
are skipped.  Failing tests do not stop the report.  It exits 1 if any
statement is unreached, so that a dead branch fails the check, and 0
otherwise.

It is a script, not a test module: pytest does not collect it.
"""

from __future__ import annotations

import ast
import os
import pickle
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCALES = (2.0, 1.0, 0.5)
SEEDS = (0, 1)
SKIPPED = (ast.FunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom, ast.Nonlocal, ast.Global)


def _start_trace(src: Path) -> dict:
    """Record every executed line of the files under src from now on:
    {file name: set of line numbers}, filled as the process runs."""
    prefix = str(src.resolve()) + os.sep
    hits: dict = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        hits.setdefault(name, set())
        return local

    sys.settrace(call)
    return hits


def _run_tests():
    import pytest

    pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                 str(ROOT / "tests")])


def _run_workloads():
    from debondsim import energy_audit, griffith, oracle
    from perfbench import workloads

    for name in workloads.NAMES:
        for seed in SEEDS:
            for scale in SCALES:
                wl = workloads.build(name, seed, scale)
                run = griffith.run(wl.data, wl.tough, wl.horizon, wl.delta)
                energy_audit.audit(run.patches, run.front, wl.data, wl.tough)
                if scale == 1.0:
                    oracle.solve_reference(wl.hdata, run.front, run.t_star, dy=wl.delta)


def _run_scipy_free():
    runpy.run_path(str(ROOT / "tests" / "scipy_free_run.py"), run_name="__main__")


RUNS = {"tests": _run_tests, "workloads": _run_workloads, "scipy-free": _run_scipy_free}


def worker(kind: str, src: Path, dump: str):
    """Run one of ``RUNS`` against the tree at src, traced, and pickle the
    executed lines to ``dump``."""
    sys.path[:0] = [str(src), str(ROOT)]
    hits = _start_trace(src)
    import debondsim

    if not Path(debondsim.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"imported {debondsim.__file__}, not the tree at {src}")
    RUNS[kind]()
    sys.settrace(None)
    with open(dump, "wb") as fh:
        pickle.dump(hits, fh)


def _header_end(node: ast.stmt) -> int:
    """Last line of a statement's own code: its header for if, for, while
    and with, all of it otherwise."""
    if isinstance(node, (ast.If, ast.While)):
        return node.test.end_lineno
    if isinstance(node, ast.For):
        return node.iter.end_lineno
    if isinstance(node, ast.With):
        return node.items[-1].context_expr.end_lineno
    return node.end_lineno


def statements(path: Path):
    """(first line, last line of its own code) of every statement of the
    module that the report covers."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.stmt) or isinstance(node, SKIPPED + (ast.Try,)):
            continue
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue  # a docstring
        out.append((node.lineno, _header_end(node)))
    return sorted(out)


def report(src: Path, tests: dict, runs: dict) -> int:
    """Print each module's statements that the workloads do not reach, and
    return how many of them nothing reaches; ``tests`` holds the lines of
    the tests and the scipy-free run."""
    unreached = 0
    for path in sorted(src.resolve().rglob("*.py")):
        lines = path.read_text().splitlines()
        by_tests, by_runs = tests.get(str(path), set()), runs.get(str(path), set())
        rows = []
        for first, last in statements(path):
            span = set(range(first, last + 1))
            if span & by_runs:
                continue
            verdict = "tests only" if span & by_tests else "unreached"
            unreached += verdict == "unreached"
            rows.append(f"  {first:5d}  {verdict:<10}  {lines[first - 1].strip()[:80]}")
        print(f"{path.relative_to(src.resolve())}: {len(rows)} statements not reached by "
              f"the workloads")
        print("\n".join(rows))
    print(f"{unreached} statements unreached")
    return unreached


def main(argv) -> int:
    if len(argv) == 3 and argv[0][2:] in RUNS:
        worker(argv[0][2:], Path(argv[1]), argv[2])
        return 0
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve()
    env = dict(os.environ, PYTHONPATH=str(src))
    found = {}
    with tempfile.TemporaryDirectory() as tmp:
        for kind in RUNS:  # each in a fresh interpreter
            dump = str(Path(tmp) / f"{kind}.pickle")
            subprocess.run([sys.executable, __file__, f"--{kind}", str(src), dump],
                           env=env, cwd=ROOT, check=True)
            with open(dump, "rb") as fh:
                found[kind] = pickle.load(fh)
    tests = found["tests"]
    for name, lines in found["scipy-free"].items():
        tests.setdefault(name, set()).update(lines)
    return 1 if report(src, tests, found["workloads"]) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
