"""Spans around the public calls of each debondsim layer, from outside.

The wrappers are installed only for a traced run and removed after it.
A module-level function is wrapped under every name a debondsim module
binds it to, because callers import by name (``griffith`` calls its own
``march`` and ``_seam_data``); a method is wrapped on its class.  Spans
stay in memory and are written out once, at the end of the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter


def _lattice_nodes(args, result):
    lat = args[0]
    return {"nodes": (lat.nt + 1) * (lat.j_ext + 1)}


def _strip_nodes(args, result):
    ws = args[0]
    return {"nodes": (ws.L + 1) * (ws.m + 1)}


def _march_rows(args, result):
    return {"rows": sum(p.lattice.nt for p in result)}


def _window_diagnostics(args, result):
    d = result.diagnostics
    return {"iterations": d["iterations"],
            "contraction_bound": d["contraction_bound"],
            "measured_factor": d["measured_factor"]}


# (span name, module, attribute or Class.method, attributes taken from the call)
TARGETS = (
    ("griffith.run", "griffith", "run", None),
    ("griffith.solve_coupled_window", "griffith", "solve_coupled_window", None),
    ("griffith.strip_cone", "griffith", "StripWorkspace.cone_integrals", _strip_nodes),
    ("griffith.strip_rate", "griffith", "StripWorkspace.psi2", None),
    ("prescribed.march", "prescribed", "march", _march_rows),
    ("prescribed.solve_window", "prescribed", "solve_window", _window_diagnostics),
    ("prescribed.seam_data", "prescribed", "_seam_data", None),
    ("prescribed.row_traces", "prescribed", "FieldPatch.row_traces", None),
    ("prescribed.local_traces", "prescribed", "FieldPatch.local_traces", None),
    ("prescribed.front_bracket", "prescribed", "FieldPatch.front_bracket", None),
    ("prescribed.rim_bracket", "prescribed", "FieldPatch.rim_bracket", None),
    ("quadrature.cone_batch", "quadrature", "cone_integrals_batch", _lattice_nodes),
    ("quadrature.phi_time_trace", "quadrature", "phi_time_trace", None),
    ("quadrature.g_row_batch", "quadrature", "g_row_batch", None),
    ("quadrature.diag_line", "quadrature", "_diag_line_integral", None),
    ("quadrature.sample", "quadrature", "CharLattice.sample", None),
    ("dalembert.free_solution", "dalembert", "free_solution", None),
    ("dalembert.free_derivatives", "dalembert", "free_derivatives", None),
    ("geometry.corner_wavefronts", "geometry", "corner_wavefronts", None),
    ("geometry.jump_radii", "geometry", "jump_radii", None),
    ("energy_audit.audit", "energy_audit", "audit", None),
    ("energy_audit.debond_dissipation", "energy_audit", "debond_dissipation", None),
    ("energy_audit.q_power", "energy_audit", "q_power", None),
    ("oracle.solve_reference", "oracle", "solve_reference", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at the top
    run_id: str
    attrs: dict = None


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    attrs: list = field(default_factory=list)

    def attr_sum(self, key):
        return sum(a[key] for a in self.attrs)

    def attr_max(self, key):
        return max((a[key] for a in self.attrs), default=0.0)


class Tracer:
    """In-memory span recorder; ``run_id`` tags the spans of one run."""

    def __init__(self):
        self.spans = []
        self.run_id = ""
        self._stack = []

    def _open(self, name: str) -> Span:
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span: Span):
        span.end = perf_counter()
        self._stack.pop()

    def call(self, name, fn, attrs, args, kwargs):
        span = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(span)
        if attrs is not None:
            span.attrs = attrs(args, result)
        return result

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def stats(self, run_id: str) -> dict:
        """Calls, self time, inclusive time and call attributes per span
        name; self time is a span's duration minus its children's."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out = {}
        for k, s in enumerate(self.spans):
            if s.run_id != run_id:
                continue
            st = out.setdefault(s.name, LayerStats())
            st.calls += 1
            st.total_s += s.end - s.start
            st.self_s += s.end - s.start - child[k]
            if s.attrs is not None:
                st.attrs.append(s.attrs)
        return out

    def write(self, path):
        names = sorted({s.name for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        rows = [[index[s.name], s.start, s.end, s.parent, s.run_id, s.attrs]
                for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "run_id", "attrs"],
                       "names": names, "spans": rows}, fh, separators=(",", ":"))


def _wrap(tracer, name, fn, attrs):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, attrs, args, kwargs)
    return traced


def _resolve(mod_name: str, attr: str):
    """(owner, key, original) of one target, or None when the program no
    longer has it (its spans are then missing and its metrics read 0)."""
    try:
        mod = importlib.import_module(f"debondsim.{mod_name}")
    except ModuleNotFoundError:
        return None
    owner_name, _, key = attr.rpartition(".")
    owner = getattr(mod, owner_name, None) if owner_name else mod
    if owner is None or key not in vars(owner):
        return None
    return owner, key, vars(owner)[key]


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block; yields the names of
    targets the program does not have."""
    resolved = [(t, _resolve(t[1], t[2])) for t in TARGETS]
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "debondsim" or n.startswith("debondsim."))]
    undo = []
    try:
        for (name, _, _, attrs), found in resolved:
            if found is None:
                continue
            owner, key, orig = found
            wrapped = _wrap(tracer, name, orig, attrs)
            # a method lives on its class; a function under every name
            # a module binds it to
            owners = [(owner, key)] if isinstance(owner, type) else [
                (m, k) for m in modules for k, v in list(vars(m).items()) if v is orig]
            for o, k in owners:
                undo.append((o, k, orig))
                setattr(o, k, wrapped)
        yield [t[0] for t, found in resolved if found is None]
    finally:
        for owner, key, orig in reversed(undo):
            setattr(owner, key, orig)
