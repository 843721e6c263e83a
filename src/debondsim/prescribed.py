"""Fixed-point solver for the wave field under a prescribed front.

Each marching window solves the representation identity

    h = A + (1/2) Phi[F[h]],      F[h] = (alpha^2 + 1/(R-r)^2)/4 * h

by Picard iteration on a characteristic lattice, starting from the free
solution A.  Each window is the longest whole number of rows, up to the
representation's own limit, window-local t <= rho0/2 (``_REACH``), whose
:func:`contraction_bound`, the time-slice integral of the kernel, is at most
1/2.  The bound holds for any subsonic front, so every iteration is a
certified sup-norm contraction.  One window loop marches a front in global
time: it re-bases the data at every seam using the exact derivative trace
formulas (never finite differences), with double knots where a corner
wavefront crosses the seam, and composes the exponential weight so each
window works with well-conditioned local values.  Each patch records the corner wavefronts of the front it was
solved on, where its seam and the audit cut its rows by one row rule,
:meth:`FieldPatch.row_weights`.  :func:`march` runs it from t = 0; the
coupled solver extends its patches with it after every coupled window.

Both fixed points of the package, the Picard iteration here and the coupled
strip iteration of :mod:`debondsim.griffith`, run in :func:`fixed_point`, the
one stop rule: an update (here the sup-norm change, there the product
metric) below ``_TOL`` within ``_MAX_ITER`` sweeps, else a
:class:`ConvergenceError` that names the window's t and the last update.
Neither is a caller's knob.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass
from typing import List

import numpy as np

from .dalembert import free_derivatives, free_solution
from .fields import HData, ProblemData, Profile, kernel_prefactor, to_h_data, v_from_h
from .geometry import GeometryError, corner_wavefronts, jump_radii
from .quadrature import (
    CharLattice, LatticeConePlan, _line_cumulatives, cone_integrals_batch, phi_time_trace,
)


class ConvergenceError(RuntimeError):
    """Raised when a fixed-point iteration fails to reach tolerance."""


_TOL = 1e-10
_MAX_ITER = 200


def fixed_point(sweep, where: str) -> dict:
    """Call ``sweep`` (one update of a fixed-point iteration, returning the
    update's size) until the size drops below ``_TOL``, and return the
    diagnostics: the ``iterations``, the ``final_update`` and the
    ``measured_factor``, the largest ratio of successive updates.  After
    ``_MAX_ITER`` sweeps it raises ConvergenceError naming ``where`` (the
    window and its t), the cap, the last update and the last measured
    factors."""
    updates = []
    while len(updates) < _MAX_ITER:
        updates.append(sweep())
        if updates[-1] < _TOL:
            factors = [b / a for a, b in zip(updates[:-1], updates[1:]) if a > 0]
            return {"iterations": len(updates), "final_update": updates[-1],
                    "measured_factor": max(factors, default=0.0)}
    factors = [round(b / a, 3) for a, b in zip(updates[:-1], updates[1:]) if a > 0]
    raise ConvergenceError(f"{where} did not converge in {_MAX_ITER} iterations "
                           f"(last update {updates[-1]:.3e}, measured factors {factors[-3:]})")

# one-sided trace offset from a corner wavefront's jump radius
_BANK = 1e-9

# a window's reach, as a fraction of its front's radius rho0 at its start:
# for window-local t <= _REACH * rho0 no backward characteristic meets both
# the rim and the front, so the trace formulas hold and the cone plan's
# rim-echo rule is exact; plan_windows, solve_window and row_traces read it
_REACH = 0.5


# ---------------------------------------------------------------------------
# window planning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WindowPlan:
    """One marching window with its certified contraction factor."""

    t_start: float
    t_end: float
    contraction_bound: float
    delta: float

    @property
    def length(self) -> float:
        return self.t_end - self.t_start

    @property
    def nt(self) -> int:
        return int(round(self.length / self.delta))


def contraction_bound(rho_k: float, R: float, alpha: float, T: float) -> float:
    """Analytic sup-norm Lipschitz bound of the operator of a window of
    length T starting with the front at rho_k: the kernel's time-slice
    integral

        q = alpha^2 T^2 / 8 + (ln(g / (g - T)) - T / g) / 4,   g = R - rho_k,

    and +inf once T >= g, when the window reaches the rim.

    It certifies under one assumption, that the front is subsonic, so at
    window time s it lies at r <= rho_k + s.  The kernel
    K(r) = (alpha^2 + 1/(R-r)^2)/4 increases in r, and the slice at time s
    of any node's backward cone, with or without its rim echo, is at most
    2(t - s) wide and lies where K <= K(rho_k + s).  Half the cone integral
    of K is then at most the integral over s in [0, T] of
    (T - s) K(rho_k + s), which is q.  It never exceeds the cone-area bound
    T^2/8 * (alpha^2 + 1/(g - T)^2), the largest value of K times the whole
    cone area, and is nondecreasing in T.
    """
    g = R - rho_k
    if T >= g:
        return np.inf
    x = T / g
    return 0.125 * (alpha * T) ** 2 + 0.25 * (-math.log1p(-x) - x)


def _row_count(horizon: float, delta: float) -> int:
    """Lattice rows covering [0, horizon]: the nearest whole count when the
    horizon is a lattice time to rounding, else the next one up."""
    n = int(round(horizon / delta))
    if abs(n * delta - horizon) > 1e-9 * max(1.0, horizon):
        n = int(math.ceil(horizon / delta - 1e-9))
    return n


def plan_windows(front, alpha: float, i0: int, i1: int,
                 delta: float) -> List[WindowPlan]:
    """Cover lattice rows i0..i1 of the front's time with certified
    windows snapped to the lattice.

    Each window takes the most rows, up to the reach rho_k/2 (``_REACH``,
    rho_k the front's radius at the window's start), whose
    :func:`contraction_bound` is at most 1/2, so its Picard iteration
    contracts in the sup norm by at most that factor for a subsonic front.
    The bound is nondecreasing in the length, so a bisection finds that
    count; near the rim it can set the length (it is +inf for a window
    reaching R).  A one-row window is accepted with any bound below 0.999.
    """
    if i1 * delta > front.horizon + 1e-9:
        raise GeometryError(f"rows up to {i1} reach t = {i1 * delta:.6g}, past the front "
                            f"domain [0, {front.horizon:.6g}]")
    R = front.R
    plans: List[WindowPlan] = []
    while i0 < i1:
        t0 = i0 * delta
        rho_k = float(front.rho(t0))
        cap = int(math.floor(_REACH * rho_k / delta + 1e-9))
        lo, hi = 1, max(1, min(cap, i1 - i0))
        while lo < hi:  # the largest count in [lo, hi] bounded by 1/2, or 1
            mid = (lo + hi + 1) // 2
            if contraction_bound(rho_k, R, alpha, mid * delta) <= 0.5:
                lo = mid
            else:
                hi = mid - 1
        q = contraction_bound(rho_k, R, alpha, lo * delta)
        if q >= 0.999:
            raise ConvergenceError(
                f"no certified window at t = {t0:.6g}: the front at rho = {rho_k:.6g} "
                f"is too close to the rim R = {R:.6g} (one-row bound {q:.6g} >= 0.999)")
        plans.append(WindowPlan(t_start=t0, t_end=(i0 + lo) * delta,
                                contraction_bound=q, delta=delta))
        i0 += lo
    return plans


# ---------------------------------------------------------------------------
# one window
# ---------------------------------------------------------------------------

FieldSample = namedtuple("FieldSample", "h h_t h_r v v_t v_r")


@dataclass
class FieldPatch:
    """Converged field on one window lattice, plus everything needed to
    evaluate values and exact derivative traces inside the window: the
    data ``hdata``, whose branches (:mod:`debondsim.dalembert`) under the
    lattice's front give the free part, the kernel field ``F``, and the
    corner ``wavefronts`` (:func:`~debondsim.geometry.corner_wavefronts`)
    of the front it was solved on, up to its end, where the derivative
    fields jump.  No later window rewrites the front up to a patch's end,
    so they cross its rows where the final front's do.

    ``lattice.values`` stores the locally rescaled field; global values
    carry the factor ``scale`` = exp(alpha * t_start / 2).
    """

    lattice: CharLattice
    window: WindowPlan
    hdata: HData
    scale: float
    F: np.ndarray
    diagnostics: dict
    wavefronts: list

    @property
    def t0(self) -> float:
        return self.window.t_start

    @property
    def t1(self) -> float:
        return self.window.t_end

    def rho_local(self, t_loc):
        return self.lattice.front.rho(t_loc)

    def row_weights(self, rows):
        """The one row rule, the composite trapezoid over the consecutive
        local lattice rows ``rows`` as weights: w on the nodes, of shape
        (rows, J + 1) over the columns 0..J of
        :meth:`~debondsim.quadrature.CharLattice.row_block`, and (k_bank,
        r_bank, w_bank), each bank's row index, radius and weight.  The
        audit's row integrals are its weighted sums; the seam's profiles
        take its end row's nodes and banks as knots.

        Where one of the patch's ``wavefronts`` crosses a row
        (:func:`~debondsim.geometry.jump_radii`) the derivative fields jump,
        and the jumps cut the row into segments from 0 to rho; edges closer
        than two bank widths bound no segment, so a radius crossed twice
        splits its row once.  A segment runs from its head bank (``_BANK``
        past its jump) or 0 to its tail bank (``_BANK`` short of the next
        jump) or the front point.  A bank is a point of its own only where
        no node lies within 1e-12 of it; a node within a bank's width of a
        jump lies in no segment.  A node takes half of each cell it bounds
        (0 in no segment or past its row's front) and a bank half its one
        cell.  All rows are weighted at once, by segment index.
        """
        lat = self.lattice
        d = lat.delta
        rows = np.asarray(rows, dtype=int)
        J = lat.row_block(rows[0], rows[-1])[2]
        rho = lat.rho_rows[rows]

        # segment s of row k runs from edge s to edge s + 1 of: 0, the jumps,
        # rho; the padding repeats rho and leaves empty segments
        jumps = jump_radii(self.wavefronts, self.t0 + rows * d, rho)
        edges = np.concatenate((np.zeros((rows.size, 1)), jumps, rho[:, None]), axis=1)
        a_edge, b_edge = edges[:, :-1], edges[:, 1:]
        valid = b_edge - a_edge > 2 * _BANK
        lo = a_edge + _BANK * (np.arange(a_edge.shape[1]) > 0)  # a jump at 0 is banked too
        hi = np.where(b_edge < rho[:, None], b_edge - _BANK, b_edge)
        j_lo = np.ceil(lo / d - 1e-12).astype(int)
        j_hi = np.floor(hi / d + 1e-12).astype(int)
        lead = valid & (j_lo * d - lo > 1e-12)
        tail = valid & (hi - np.where(j_lo <= j_hi, j_hi * d, lo) > 1e-12)
        full = valid & (j_lo <= j_hi)  # segments holding a node
        k, s = full.nonzero()
        # each node-node cell [j, j + 1] of a segment adds delta / 2 to both
        # ends: count the ends through one difference array per row
        ends = np.zeros((rows.size, J + 2), dtype=np.intp)
        for j, step in ((j_lo, 1), (j_lo + 1, 1), (j_hi, -1), (j_hi + 1, -1)):
            np.add.at(ends, (k, j[k, s]), step)
        w = 0.5 * d * np.cumsum(ends, axis=1)[:, :J + 1]
        # the banks' cells: to the segment's end node, or bank to bank
        lead_cell = np.where(full, j_lo * d - lo, hi - lo)
        tail_cell = np.where(full, hi - j_hi * d, hi - lo)
        lead_cell = np.where(lead & (full | tail), lead_cell, 0.0)
        tail_cell = np.where(tail & (full | lead), tail_cell, 0.0)
        for cell, at in ((lead_cell, j_lo), (tail_cell, j_hi)):
            np.add.at(w, (k, at[k, s]), 0.5 * cell[k, s])
        k_bank, s_bank, is_tail = np.nonzero(np.stack((lead, tail), axis=2))
        r_bank = np.where(is_tail, hi[k_bank, s_bank], lo[k_bank, s_bank])
        w_bank = 0.5 * np.where(is_tail, tail_cell[k_bank, s_bank], lead_cell[k_bank, s_bank])
        return w, (k_bank, r_bank, w_bank)

    @functools.cached_property
    def cumulatives(self) -> np.ndarray:
        """Both characteristic families' diagonal cumulatives of F, built on
        first use; every trace call of the patch reads them."""
        return _line_cumulatives(self.F, self.lattice.delta)

    # -- local evaluation ---------------------------------------------------

    def local_value(self, t_loc, r):
        """Field value at window-local points (t_loc and r broadcast)."""
        return self.lattice.sample(self.lattice.values, t_loc, r)

    def local_traces(self, t_loc, r):
        """(h, h_t, h_r) in window-local variables, exact trace formulas, at
        one point (floats) or at arrays of points (t_loc and r broadcast),
        nodes or not: the points of :meth:`row_traces`'s checked body beside
        the one-node block (0, 0, 0), so a point costs no row of nodes."""
        _, traces = self._traces((0, 0, 0), t_loc, r)
        return tuple(map(float, traces)) if traces[0].ndim == 0 else traces

    def row_traces(self, rows, t_loc, r):
        """(h, h_t, h_r) in window-local variables, exact trace formulas, on
        the consecutive local lattice rows ``rows`` and at the points
        (t_loc, r) (arrays, broadcast): ((h, h_t, h_r) on the rows, each of
        shape (rows, J + 1) over the columns 0..J of
        :meth:`~debondsim.quadrature.CharLattice.row_block`, and
        (h, h_t, h_r) at the points, of their broadcast shape).

        The rows must be one or more consecutive rows of 0..nt, else
        GeometryError names them and the bound.  The one check of a trace
        point: it must be window-local (t_loc <= rho0/2, ``_REACH``, the
        limit of the representation formulas and the reach of every window)
        and in [0, rho], else GeometryError names the first point off and
        the bound; r is clipped to [0, rho(t_loc)], and both kernels take
        them as given.  The rows are one block of nodes: the free part is one
        :func:`~debondsim.dalembert.free_derivatives` call and the memory
        part one :func:`~debondsim.quadrature.phi_time_trace` call, each
        reading the block through views of one table per characteristic and
        sending the reflected anti-diagonals and every point, on a node or
        not, to the line kernel.  On the block h is the node value, and at a
        point the lattice's sample; both are 0 on the front.  Columns past a
        row's front hold values that mean nothing.
        """
        lat = self.lattice
        rows = np.asarray(rows, dtype=int)
        if rows.size == 0 or np.any(np.diff(rows) != 1) or rows[0] < 0 or rows[-1] > lat.nt:
            raise GeometryError(f"trace rows must be consecutive rows of 0..{lat.nt}: got "
                                f"{rows.tolist()}")
        return self._traces(lat.row_block(rows[0], rows[-1]), t_loc, r)

    def _traces(self, block, t_loc, r):
        """The checked body of :meth:`row_traces` on the node block
        (lo, hi, J)."""
        lat = self.lattice
        t_loc, r = np.broadcast_arrays(np.asarray(t_loc, dtype=float),
                                       np.asarray(r, dtype=float))
        shape = t_loc.shape
        t_loc, r = t_loc.ravel(), r.ravel()
        t_max = _REACH * lat.front.rho0
        late = t_loc > t_max + 1e-9
        if late.any():
            k = np.flatnonzero(late)[0]
            raise GeometryError(
                f"trace formulas are window-local: the point (t, r) = ({t_loc[k]:.6g}, "
                f"{r[k]:.6g}) is past t = rho0/2 = {t_max:.6g}")
        rho_t = np.asarray(self.rho_local(t_loc), dtype=float)
        outside = (r < -1e-12) | (r > rho_t + 1e-9)
        if outside.any():
            k = np.flatnonzero(outside)[0]
            raise GeometryError(
                f"trace point outside the domain: window-local (t, r) = ({t_loc[k]:.6g}, "
                f"{r[k]:.6g}) is outside [0, rho(t)] = [0, {rho_t[k]:.6g}]")
        r = np.minimum(np.maximum(r, 0.0), rho_t)
        lo, hi, J = block
        (d_t, d_r), (p_t, p_r) = free_derivatives(self.hdata, lat.front, lat.delta, block,
                                                  t_loc, r)
        (g1, g2), (q1, q2) = phi_time_trace(lat, self.F, self.cumulatives, block, t_loc, r)
        # h_t = d_t + (g1 + g2) / 2 and h_r = d_r + (g1 - g2) / 2, in place
        h_t = g1 + g2
        h_r = np.subtract(g1, g2, out=g1)
        for part, d_part in ((h_t, d_t), (h_r, d_r)):
            part *= 0.5
            part += d_part
        h = lat.values[lo:hi + 1, :J + 1].copy()
        j_front = np.rint(lat.rho_rows[lo:hi + 1] / lat.delta).astype(int)
        on_front = (np.abs(j_front * lat.delta - lat.rho_rows[lo:hi + 1]) < 1e-14) & (j_front <= J)
        h[on_front.nonzero()[0], j_front[on_front]] = 0.0

        points = (np.where(np.abs(r - rho_t) < 1e-14, 0.0, self.local_value(t_loc, r)),
                  p_t + 0.5 * (q1 + q2), p_r + 0.5 * (q1 - q2))
        return (h, h_t, h_r), tuple(p.reshape(shape) for p in points)


class _Workspace:
    """Grids shared by all Picard sweeps of one window: the lattice, the
    free solution at every node, the kernel prefactor row, the window's
    cone plan and the sweeps' buffers.  The free grid costs one
    evaluation of the traveling-wave branches per characteristic of the
    lattice, not one per node (:func:`~debondsim.dalembert.free_solution`);
    the patch keeps only the data and reads the same branches for its traces.
    The plan (:class:`~debondsim.quadrature.LatticeConePlan`) caches what
    the window's front fixes (the omega cut of every anti-diagonal, the
    rim-echo and outside nodes), the field it sums and its work arrays.  A
    sweep of :func:`solve_window` writes the kernel field into the plan's
    field, the update into ``spare`` and its change into ``change``, so it
    allocates no lattice-sized array.  The workspace lives for one window:
    it is dropped when the window is solved, and the patch keeps no
    reference to it, because patches outlive their windows and would each
    hold the plan's buffers.
    """

    def __init__(self, hdata: HData, front_local, plan: WindowPlan):
        self.lattice = CharLattice(front_local, plan.delta, plan.nt)
        lat = self.lattice
        self.free_grid = free_solution(hdata, lat)
        sigma = np.minimum(lat.radii, hdata.R - 1e-9)
        kern_row = kernel_prefactor(sigma, hdata.R, hdata.alpha)
        self.kern = np.where(lat.radii < hdata.R - 1e-9, kern_row, 0.0)[None, :]
        self.cone = LatticeConePlan(lat)
        self.spare, self.change = np.empty(lat.inside.shape), np.empty(lat.inside.shape)


def apply_L(h: np.ndarray, ws: _Workspace, out=None) -> np.ndarray:
    """One application of the window operator: free solution plus half the
    cone integral of the kernel field.  The kernel field goes straight into
    the cone plan's field, ``ws.cone.values``, which the cone sum reads, and
    the result into ``out`` (a lattice-shaped array other than h) when
    given, else into a fresh array.

    h must be 0 outside the domain, as every iterate of
    :func:`solve_window` is; the result is 0 there too, so nothing is
    masked: the cone plan zeroes its sums outside and the free grid is 0
    there.  Nor is a boundary row rewritten: the cone sum is exactly 0 on
    row 0, which has no cone, and on the rim column, where a node's cone is
    its own rim echo and is removed whole, so both rows keep the free
    grid's values, h0 on row 0 and z(t), to rounding, on the rim."""
    np.multiply(ws.kern, h, out=ws.cone.values)
    out = cone_integrals_batch(ws.lattice, ws.cone, out)
    out *= 0.5
    out += ws.free_grid
    return out


def solve_window(hdata: HData, front, window: WindowPlan,
                 scale: float = 1.0) -> FieldPatch:
    """Picard-iterate the window operator from the free solution until the
    sup-norm update drops below ``_TOL`` (:func:`fixed_point`).  The
    iterate and the update swap between two buffers.  A window longer than
    the reach rho0/2 (``_REACH``, rho0 the front's radius at its start),
    past which the representation formulas fail, raises GeometryError."""
    front_local = front.window(window.t_start, window.t_end)
    reach = _REACH * front_local.rho0
    if window.length > reach + 1e-9:
        raise GeometryError(
            f"window at t = {window.t_start:.6g} of length {window.length:.6g} reaches past "
            f"the representation's limit rho0/2 = {reach:.6g}")
    ws = _Workspace(hdata, front_local, window)
    lat = ws.lattice

    h = ws.free_grid.copy()
    spare, change = ws.spare, ws.change

    def sweep():
        nonlocal h, spare
        h_new = apply_L(h, ws, spare)
        np.subtract(h_new, h, out=change)
        np.abs(change, out=change)
        h, spare = h_new, h
        return float(change.max())

    diag = fixed_point(sweep, f"window at t = {window.t_start:.6g}")
    diag["contraction_bound"] = window.contraction_bound
    lat.values = h
    return FieldPatch(lattice=lat, window=window, hdata=hdata, scale=scale, F=ws.kern * h,
                      diagnostics=diag, wavefronts=corner_wavefronts(front, window.t_end))


# ---------------------------------------------------------------------------
# marching
# ---------------------------------------------------------------------------

def _seam_data(patch: FieldPatch) -> HData:
    """Window data for the seam at the patch's end from the exact end-row
    traces.

    The profiles are sampled at the end row's nodes, one block row of
    :meth:`FieldPatch.row_traces`, and, as points of the same call, at the
    banks of :meth:`FieldPatch.row_weights` on that row, merged by radius:
    where one of the patch's corner wavefronts crosses the seam row there
    is a bank on each side of the jump, a double knot, so the next window
    inherits a sharp jump instead of a smeared cell.  The last knot is the
    front, where h vanishes.
    """
    lat = patch.lattice
    hd = patch.hdata
    t_end = lat.nt * lat.delta
    rho_end = float(lat.rho_rows[-1])
    w, (_, banks, _) = patch.row_weights([lat.nt])
    on_row, at_banks = patch.row_traces([lat.nt], t_end, banks)
    rs = np.concatenate((np.arange(w.shape[1]) * lat.delta, banks))
    order = np.argsort(rs)
    rs = rs[order]
    h0_s, h1_s, hd0_s = (np.concatenate((row[0], pt))[order] for row, pt in zip(on_row, at_banks))
    h0_s[-1] = 0.0  # the front point, or a node within 1e-12 of it that stands for it

    decay = math.exp(-0.5 * hd.alpha * patch.window.length)
    h0_s, h1_s, hd0_s = decay * h0_s, decay * h1_s, decay * hd0_s

    z_next = hd.z.shifted(patch.window.length, decay)
    h0_s[0] = float(z_next(0.0))  # seam compatibility, exact
    h0 = Profile.from_samples(rs, h0_s, deriv_samples=hd0_s)
    h1 = Profile.from_samples(rs, h1_s)
    return HData(R=hd.R, rho0=rho_end, alpha=hd.alpha, z=z_next, h0=h0, h1=h1)


def _extend(patches: List[FieldPatch], data: HData, front, i1: int,
            delta: float) -> List[FieldPatch]:
    """Append the certified windows of ``front`` (global time) from the end
    of the last patch, or row 0, to lattice row i1.

    ``data`` is the window data at that start.  Every later seam is
    re-based from the previous patch (:func:`_seam_data`, split at the
    corner wavefronts it records), and each window's weight ``scale``
    follows the previous patch's as scale * exp(alpha * length / 2).
    """
    i0 = int(round(patches[-1].t1 / delta)) if patches else 0
    plans = plan_windows(front, data.alpha, i0, i1, delta)
    for k, plan in enumerate(plans):
        prev = patches[-1] if patches else None
        scale = prev.scale * math.exp(0.5 * data.alpha * prev.window.length) if prev else 1.0
        local = _seam_data(prev) if k else data
        patches.append(solve_window(local, front, plan, scale=scale))
    return patches


def march(data: ProblemData, front, horizon: float,
          delta: float = 1.0 / 128) -> List[FieldPatch]:
    """Solve up to the horizon by sequential certified windows.

    Seam traces are taken from the exact derivative formulas of the
    previous patch, and the local fields absorb the exponential weight so
    the stored values stay O(data).
    """
    return _extend([], to_h_data(data), front, _row_count(horizon, delta), delta)


def locate_patch(patches: List[FieldPatch], t: float) -> FieldPatch:
    for patch in patches:
        if t <= patch.t1 + 1e-12:
            if t < patch.t0 - 1e-12:
                break
            return patch
    raise GeometryError(f"time {t:.6g} is outside the solved windows "
                        f"[{patches[0].t0:.6g}, {patches[-1].t1:.6g}]")


def evaluate_field(patches: List[FieldPatch], t: float, r: float) -> FieldSample:
    """Global field values and exact derivatives at one solved point.

    Derivatives combine the analytic traveling-wave derivatives with the
    boundary line integrals of the kernel field; the value interpolates
    the window lattice.  Output is in unweighted (global) variables.
    """
    patch = locate_patch(patches, t)
    t_loc = t - patch.t0
    hd = patch.hdata
    h_loc, ht_loc, hr_loc = patch.local_traces(t_loc, r)
    s = patch.scale
    h, h_t, h_r = s * h_loc, s * ht_loc, s * hr_loc
    v, v_t, v_r = v_from_h(h, h_t, h_r, t, r, hd.R, hd.alpha)
    return FieldSample(h=float(h), h_t=float(h_t), h_r=float(h_r),
                       v=float(v), v_t=float(v_t), v_r=float(v_r))
