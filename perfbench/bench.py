"""Measurements of the debondsim benchmark; ``run.py`` is the command.

One operation is ``griffith.run`` followed by ``energy_audit.audit``.  The
program's functions are always called through their modules, so the
wrappers of a traced run see every call.

End-to-end times are CPU seconds of the process (``time.process_time``),
scaled to a nominal host speed with the reference work of ``calibrate``
timed between the measurements.  The program runs on one thread, so CPU and
wall time agree on an idle machine; on a shared host the wall clock also
counts the time the process waits for a CPU, and the CPU's speed moves with
its neighbours' load, which moved the unscaled medians by up to 1.6x
between sets of runs.  The raw CPU and wall times and the reference times are
kept in the report line.
"""

import dataclasses
import gc
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter, process_time

import numpy as np
import scipy
from debondsim import energy_audit, griffith, oracle
from debondsim.fields import CompatibilityError
from debondsim.geometry import GeometryError
from debondsim.prescribed import ConvergenceError, locate_patch

import calibrate
import checkout
import tracing
import workloads
from tracing import LayerStats

SETUP_PROBES = 5
# Residual metrics are reported no lower than float64 resolution: an exact
# 0 (the static front's KKT and MDP) is below what the ledger can resolve,
# and a metric that reads 0 has no ratio against its parent.
RESOLUTION = 2.0 ** -52
# loose sanity bound on the oracle agreement; the metric itself is reported
ORACLE_TOL = 0.05


@dataclasses.dataclass
class Outcome:
    """One solve-and-audit operation: its problems, times and accuracy."""

    problems: list
    solve_s: float = 0.0  # CPU seconds
    audit_s: float = 0.0
    wall_s: float = 0.0  # wall seconds of solve and audit together
    figures: dict = None
    rows: int = 0  # ledger rows
    run: object = None

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def total_s(self) -> float:
        return self.solve_s + self.audit_s


def attempt(wl) -> Outcome:
    """Solve and audit once, then apply the correctness gate."""
    gc.collect()  # start each operation with the same heap
    try:
        w0, t0 = perf_counter(), process_time()
        run = griffith.run(wl.data, wl.tough, wl.horizon, delta=wl.delta)
        t1 = process_time()
        ledger = energy_audit.audit(run.patches, run.front, wl.data, wl.tough)
        t2, w2 = process_time(), perf_counter()
    except (ConvergenceError, GeometryError, CompatibilityError) as exc:
        return Outcome([f"{type(exc).__name__}: {exc}"])
    problems = gate(wl, run, ledger)
    return Outcome(problems, solve_s=t1 - t0, audit_s=t2 - t1, wall_s=w2 - w0,
                   figures=None if problems else accuracy(wl, ledger),
                   rows=len(ledger.times), run=run)


def gate(wl, run, ledger) -> list:
    problems = []
    if run.stop_reason != wl.expected_stop:
        problems.append(f"stop reason {run.stop_reason!r}, expected {wl.expected_stop!r}")
    drho = np.diff(run.front.rho_knots)
    slopes = drho / np.diff(run.front.t_knots)
    if np.any(drho < 0.0) or np.any(slopes >= 1.0):
        problems.append("front is not nondecreasing with slopes in [0, 1)")
    for f in dataclasses.fields(ledger):
        col = getattr(ledger, f.name)
        if isinstance(col, np.ndarray) and col.dtype.kind == "f" and not np.all(np.isfinite(col)):
            problems.append(f"ledger column {f.name} is not finite")
    return problems


def resolved(x: float) -> float:
    return max(float(x), RESOLUTION)


def accuracy(wl, ledger) -> dict:
    return {"edp_rel_max": resolved(ledger.max_rel_edp),
            "kkt_max": resolved(np.max(ledger.kkt_residual) / wl.tough.c2),
            "mdp_gap_max": resolved(np.max(ledger.mdp_gap))}


def oracle_errors(wl, run, seed: int):
    """(RMS, max) of |h - h_oracle| relative to h over the seeded probe
    points, with the finite-difference oracle solved on the produced front.

    The RMS is the metric: the difference peaks in a narrow band along the
    corner characteristic t = r, so its max over any probe set moves with
    the set (2x between seeds on static_load), while the RMS over a
    scrambled Sobol set repeats within a few percent.
    """
    ref = oracle.solve_reference(wl.hdata, run.front, run.t_star, dy=wl.delta)
    ts, rs = workloads.probe_points(seed, run.front, run.t_star)
    h = np.empty(len(ts))
    for k, (t, r) in enumerate(zip(ts, rs)):
        patch = locate_patch(run.patches, t)
        h[k] = patch.scale * patch.local_value(t - patch.t0, r)
    diff = h - np.array([ref.h_at(t, r) for t, r in zip(ts, rs)])
    rms = math.sqrt(np.mean(diff ** 2) / np.mean(h ** 2))
    return resolved(rms), float(np.max(np.abs(diff)) / np.max(np.abs(h)))


def setup_times(name: str, seed: int, refs: list):
    """(CPU, wall) seconds of fresh interpreters up to their ``ready`` line:
    the CPU time the interpreter reports there, and the wall time from
    spawning it to reading the line.  Runs the reference after each probe
    and appends its times to ``refs``."""
    probe = str(checkout.ROOT / "perfbench" / "setup_probe.py")
    cpu, wall = [], []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, probe, name, str(seed)],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().split()
            t1 = perf_counter()
            proc.stdout.read()
        if proc.returncode != 0 or len(line) != 2 or line[0] != "ready":
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        cpu.append(float(line[1]))
        wall.append(t1 - t0)
        refs.extend(calibrate.reference_for(calibrate.REFERENCE_SHARE * cpu[-1]))
    return cpu, wall


def repeat(fn, seconds: float) -> list:
    """Call fn until the next call would end past ``seconds``; at least once."""
    out, took = [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        out.append(fn())
        took.append(perf_counter() - t0)
        if perf_counter() - start + statistics.median(took) > seconds:
            return out


def environment() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "machine": platform.machine(), "threads": os.environ["OMP_NUM_THREADS"]}


# ---------------------------------------------------------------------------
# end-to-end run
# ---------------------------------------------------------------------------

def measure(name: str, seed: int, seconds: float, delta_scale: float = 1.0):
    """End-to-end metrics from untraced operations; returns (values, report)."""
    wl = workloads.build(name, seed, delta_scale)
    last, peak_mb, refs = {}, [], []

    def one():
        last.clear()  # free the previous result first
        o = attempt(wl)
        if not peak_mb:  # one operation's peak, before any reference work
            peak_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        refs.extend(calibrate.reference_for(calibrate.REFERENCE_SHARE * o.total_s))
        if o.ok:
            last["run"] = o.run
        o.run = None
        return o

    outcomes = repeat(one, seconds)
    setup, setup_wall = setup_times(name, seed, refs)
    good = [o for o in outcomes if o.ok]
    report = {"attempted": len(outcomes), "failed": len(outcomes) - len(good),
              "problems": sorted({p for o in outcomes for p in o.problems}),
              "samples": {"setup_s": setup,
                          "solve_s": [o.solve_s for o in good],
                          "audit_s": [o.audit_s for o in good],
                          "setup_wall_s": setup_wall,
                          "total_wall_s": [o.wall_s for o in good],
                          "reference_s": refs}}
    if "run" not in last:  # nothing passed, or the last operation failed
        return None, report
    if any(o.figures != good[0].figures for o in good):
        report["problems"].append("accuracy figures differ between repetitions")
    err, report["oracle_h_err_max"] = oracle_errors(wl, last["run"], seed)
    if not err <= ORACLE_TOL:
        report["problems"].append(f"oracle disagreement {err:.3g} above {ORACLE_TOL}")

    scale = calibrate.scale(refs)
    values = {"setup_s": scale * statistics.median(setup),
              "solve_s": scale * statistics.median(o.solve_s for o in good),
              "audit_s": scale * statistics.median(o.audit_s for o in good),
              "total_s": scale * statistics.median(o.total_s for o in good),
              "peak_rss_mb": peak_mb[0],
              **good[0].figures,
              "oracle_h_err": err}
    return values, report


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def layer_metrics(st: dict, op: Outcome) -> dict:
    """Per-layer figures of one traced operation from its span statistics."""
    def get(name):
        return st.get(name, LayerStats())

    run = op.run
    out_rows = round(run.t_star / run.delta)
    diags = run.window_diagnostics
    windows = len(diags)
    cone, strip = get("quadrature.cone_batch"), get("griffith.strip_cone")
    cone_nodes, strip_nodes = cone.attr_sum("nodes"), strip.attr_sum("nodes")
    solve_win = get("prescribed.solve_window")
    attempts = get("griffith.solve_coupled_window").calls
    return {
        "quadrature.cone_batch.self_s": cone.self_s,
        "quadrature.cone_batch.calls": cone.calls,
        "quadrature.cone_batch.nodes": cone_nodes,
        "quadrature.cone_batch.ns_per_node": 1e9 * cone.self_s / max(cone_nodes, 1),
        "quadrature.phi_time_trace.self_s": get("quadrature.phi_time_trace").self_s,
        "quadrature.phi_time_trace.calls": get("quadrature.phi_time_trace").calls,
        "quadrature.sample.calls": get("quadrature.sample").calls,
        "quadrature.sample.self_s": get("quadrature.sample").self_s,
        "quadrature.g_row_batch.self_s": get("quadrature.g_row_batch").self_s,
        "quadrature.diag_line.self_s": get("quadrature.diag_line").self_s,
        "prescribed.resolve_ratio": get("prescribed.march").attr_sum("rows") / out_rows,
        "prescribed.march.calls": get("prescribed.march").calls,
        "prescribed.solve_window.calls": solve_win.calls,
        "prescribed.solve_window.self_s": solve_win.self_s,
        "prescribed.picard_iterations": solve_win.attr_sum("iterations"),
        "prescribed.seam_data.self_s": get("prescribed.seam_data").self_s,
        "prescribed.contraction_bound_max": solve_win.attr_max("contraction_bound"),
        "prescribed.measured_factor_max": solve_win.attr_max("measured_factor"),
        "prescribed.traces.self_s": sum(get(f"prescribed.{n}").self_s for n in
                                        ("row_traces", "local_traces",
                                         "front_bracket", "rim_bracket")),
        "griffith.windows": windows,
        "griffith.rows_per_window": sum(d["rows"] for d in diags) / max(windows, 1),
        "griffith.shrinks": sum(d["shrinks"] for d in diags),
        "griffith.window_success_ratio": windows / max(attempts, 1),
        "griffith.strip_iterations": get("griffith.strip_rate").calls,
        "griffith.strip_nodes": strip_nodes,
        "griffith.strip_cone.self_s": strip.self_s,
        "griffith.strip_cone.ns_per_node": 1e9 * strip.self_s / max(strip_nodes, 1),
        "griffith.solve_coupled_window.self_s": get("griffith.solve_coupled_window").self_s,
        "griffith.run.self_s": get("griffith.run").self_s,
        "dalembert.free_solution.self_s": get("dalembert.free_solution").self_s,
        "dalembert.free_derivatives.self_s": get("dalembert.free_derivatives").self_s,
        "dalembert.free_derivatives.calls": get("dalembert.free_derivatives").calls,
        "geometry.corner_wavefronts.self_s": get("geometry.corner_wavefronts").self_s,
        "geometry.jump_radii.calls": get("geometry.jump_radii").calls,
        "energy_audit.audit.self_s": get("energy_audit.audit").self_s,
        "energy_audit.rows": op.rows,
        "energy_audit.debond_dissipation.self_s": get("energy_audit.debond_dissipation").self_s,
        "energy_audit.q_power.calls": get("energy_audit.q_power").calls,
        "fields.setup.self_s": get("fields.setup").self_s,
    }


def _is_timing(name: str) -> bool:
    """Figures derived from clocks; every other per-layer figure is a count
    or a numerical result and must repeat exactly."""
    return name.endswith(("self_s", "ns_per_node", ".growth", "overhead_ratio"))


def measure_traced(name: str, seed: int, seconds: float, spans_path,
                   delta_scale: float = 1.0):
    """Per-layer metrics; each cycle is one untraced operation, the same
    operation traced, a traced operation at twice the lattice step and a
    traced oracle check.  Writes the spans to ``spans_path``; returns
    (values, report)."""
    tracer = tracing.Tracer()
    problems, cycles, untraced = [], [], set()
    attempted = failed = 0

    def cycle():
        nonlocal attempted, failed
        k = len(cycles)
        plain = attempt(workloads.build(name, seed, delta_scale))
        with tracing.installed(tracer) as missing:
            tracer.run_id = f"{k}.delta"
            with tracer.span("fields.setup"):
                wl = workloads.build(name, seed, delta_scale)
            fine = attempt(wl)
            tracer.run_id = f"{k}.2delta"
            coarse = attempt(workloads.build(name, seed, 2.0 * delta_scale))
            tracer.run_id = f"{k}.oracle"
            if fine.ok:
                oracle_errors(wl, fine.run, seed)
        outcomes = (plain, fine, coarse)
        attempted += len(outcomes)
        failed += sum(not o.ok for o in outcomes)
        problems.extend(p for o in outcomes for p in o.problems)
        untraced.update(missing)
        if not all(o.ok for o in outcomes):
            cycles.append(None)
            return
        if fine.figures != plain.figures:
            problems.append("tracing changed the accuracy figures")
        st = tracer.stats(f"{k}.delta")
        st_coarse = tracer.stats(f"{k}.2delta")
        m = layer_metrics(st, fine)
        m["oracle.solve_reference.self_s"] = tracer.stats(f"{k}.oracle").get(
            "oracle.solve_reference", LayerStats()).self_s
        m["trace.overhead_ratio"] = fine.total_s / plain.total_s
        m["solve_s.growth"] = fine.solve_s / coarse.solve_s
        m["audit_s.growth"] = fine.audit_s / coarse.audit_s
        for layer in ("quadrature.cone_batch", "quadrature.phi_time_trace"):
            hi = st.get(layer, LayerStats()).self_s
            lo = st_coarse.get(layer, LayerStats()).self_s
            m[f"{layer}.self_s.growth"] = hi / lo if lo > 0 else 0.0
        cycles.append(m)

    repeat(cycle, seconds)
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(spans_path)
    report = {"attempted": attempted, "failed": failed,
              "problems": sorted(set(problems)), "cycles": len(cycles),
              "spans": len(tracer.spans), "untraced_targets": sorted(untraced),
              "spans_file": str(spans_path.relative_to(checkout.ROOT))}
    done = [m for m in cycles if m is not None]
    if not done:
        return None, report
    values = {}
    for key in done[0]:
        samples = [m[key] for m in done]
        if _is_timing(key):
            values[key] = statistics.median(samples)
        else:
            if any(s != samples[0] for s in samples):
                report["problems"].append(f"count {key} differs between cycles")
            values[key] = samples[0]
    return values, report
